import json

import numpy as np
import pytest

from corrmatch import (
    BlockPartition,
    SbmParams,
    gm_objective,
    invert_permutation,
    read_edgelist,
    sample_rho_sbm,
    write_edgelist,
    write_labels,
)
from corrmatch.cli import main
from corrmatch.matching import read_permutation, write_seeds
from corrmatch.samplers import RngStream


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def er_config(tmp_path):
    cfg = tmp_path / "er.json"
    cfg.write_text(json.dumps({"n": 20, "p": 0.4, "rho": 0.6}))
    return str(cfg)


class TestSampleCommand:
    def test_writes_parseable_pair(self, tmp_path, capsys, er_config):
        out_a = str(tmp_path / "a.edg")
        out_b = str(tmp_path / "b.edg")
        code, _, err = run_cli(capsys, "sample", "--model", "rho-er",
                               "--config", er_config, "--seed", "7",
                               "--out-a", out_a, "--out-b", out_b)
        assert code == 0, err
        a = read_edgelist(out_a)
        b = read_edgelist(out_b)
        assert a.shape == b.shape == (20, 20)

    def test_rerun_is_byte_identical(self, tmp_path, capsys, er_config):
        paths = [str(tmp_path / name) for name in ("a1", "b1", "a2", "b2")]
        run_cli(capsys, "sample", "--model", "rho-er", "--config", er_config,
                "--seed", "7", "--out-a", paths[0], "--out-b", paths[1])
        run_cli(capsys, "sample", "--model", "rho-er", "--config", er_config,
                "--seed", "7", "--out-a", paths[2], "--out-b", paths[3])
        assert open(paths[0], "rb").read() == open(paths[2], "rb").read()
        assert open(paths[1], "rb").read() == open(paths[3], "rb").read()

    def test_rho_one_isomorphic_with_witness(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 15, "p": 0.4, "rho": 1.0}))
        out_a = str(tmp_path / "a.edg")
        out_b = str(tmp_path / "b.edg")
        out_p = str(tmp_path / "sigma.txt")
        code, _, _ = run_cli(capsys, "sample", "--model", "rho-er",
                             "--config", str(cfg), "--seed", "3",
                             "--shuffle", "uniform",
                             "--out-a", out_a, "--out-b", out_b, "--out-perm", out_p)
        assert code == 0
        a = read_edgelist(out_a)
        b = read_edgelist(out_b)
        sigma = read_permutation(out_p)
        assert gm_objective(a, b, invert_permutation(sigma)) == 0

    def test_rejects_flag_of_another_command(self, tmp_path, capsys, er_config):
        # --bits belongs to mi; sample must not accept and ignore it
        out_a = tmp_path / "a.edg"
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--model", "rho-er", "--config", er_config, "--bits",
                  "--out-a", str(out_a), "--out-b", str(tmp_path / "b.edg")])
        assert exc.value.code == 2
        assert "--bits" in capsys.readouterr().err
        assert not out_a.exists()


class TestMatchCommand:
    def test_self_match_identity(self, tmp_path, capsys):
        gen = RngStream(1).generator()
        params = SbmParams(BlockPartition((12,)), np.array([[0.5]]))
        a, _ = sample_rho_sbm(params, 1.0, gen)
        path = str(tmp_path / "g.edg")
        write_edgelist(path, a)
        out_p = str(tmp_path / "perm.txt")
        report_path = str(tmp_path / "report.json")
        code, _, _ = run_cli(capsys, "match", "--a", path, "--b", path,
                             "--init", "identity", "--out-perm", out_p,
                             "--report", report_path)
        assert code == 0
        report = json.loads(open(report_path).read())
        assert report["objective"] == 0
        assert report["disagreements_after"] == 0
        assert read_permutation(out_p).tolist() == list(range(12))

    def test_planted_shuffle_with_seeds(self, tmp_path, capsys):
        from corrmatch import apply_permutation, er_params, identity_seeds, sample_subset_shuffle
        gen = RngStream(2).generator()
        a, b = sample_rho_sbm(er_params(40, 0.3), 1.0, gen)
        sigma = sample_subset_shuffle(40, np.arange(6), 34, gen)
        b_sh = apply_permutation(b, sigma)
        pa, pb = str(tmp_path / "a.edg"), str(tmp_path / "b.edg")
        write_edgelist(pa, a)
        write_edgelist(pb, b_sh)
        seeds_path = str(tmp_path / "seeds.txt")
        write_seeds(seeds_path, identity_seeds(np.arange(6)))
        out_p = str(tmp_path / "perm.txt")
        rep = str(tmp_path / "rep.json")
        code, _, _ = run_cli(capsys, "match", "--a", pa, "--b", pb,
                             "--seeds", seeds_path, "--out-perm", out_p,
                             "--report", rep)
        assert code == 0
        report = json.loads(open(rep).read())
        assert report["disagreements_after"] == 0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.edg")
        code, _, err = run_cli(capsys, "match", "--a", missing, "--b", missing,
                               "--out-perm", str(tmp_path / "p.txt"))
        assert code == 2
        assert "nope.edg" in err


class TestMiCommand:
    def test_known_value(self, capsys):
        code, out, _ = run_cli(capsys, "mi", "--n", "3", "--p", "0.5", "--rho", "1.0")
        assert code == 0
        assert "I = 2.079442" in out

    def test_zero_rho(self, capsys):
        code, out, _ = run_cli(capsys, "mi", "--n", "5", "--p", "0.3", "--rho", "0.0")
        assert code == 0
        assert "I = 0.000000" in out
        assert "small_rho_ratio = undefined" in out

    def test_bits_flag(self, capsys):
        code, out, _ = run_cli(capsys, "mi", "--n", "3", "--p", "0.5",
                               "--rho", "1.0", "--bits")
        assert code == 0
        assert "I = 3.000000" in out


class TestExpCommand:
    def test_phase_transition_csv_schema(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"sizes": [8, 8], "lambda": [[0.5, 0.2], [0.2, 0.5]]}))
        out = str(tmp_path / "phase.csv")
        code, _, _ = run_cli(capsys, "exp", "phase-transition", "--config", str(cfg),
                             "--mc", "3", "--seed", "1", "--rho-grid", "0,1",
                             "-o", out)
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "experiment,rho,variant,mean,se,mc_reps,master_seed"
        assert len(lines) == 1 + 2 * 4
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["master_seed"] == 1

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"sizes": [8, 8], "lambda": [[0.5, 0.2], [0.2, 0.5]]}))
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        for out in (out1, out2):
            run_cli(capsys, "exp", "phase-transition", "--config", str(cfg),
                    "--mc", "3", "--seed", "9", "--rho-grid", "0.25", "-o", out)
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_cluster_shuffle_variants(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sizes": [12, 12],
                                   "lambda": [[0.7, 0.1], [0.1, 0.7]]}))
        out = str(tmp_path / "cluster_shuffle.csv")
        code, _, _ = run_cli(capsys, "exp", "cluster", "--config", str(cfg),
                             "--rho", "0.5", "--seeds-grid", "0,24",
                             "--mc", "2", "--seed", "3", "-o", out)
        assert code == 0
        body = open(out).read()
        for variant in ("omni_shuffled", "single", "omni_matched"):
            assert variant in body

    def test_cluster_gain_grid(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sizes": [10, 10],
                                   "lambda": [[0.7, 0.1], [0.1, 0.7]]}))
        out = str(tmp_path / "cluster_gain.csv")
        code, _, _ = run_cli(capsys, "exp", "cluster", "--config", str(cfg),
                             "--rho-grid", "0.3,0.7", "--mc", "2", "--seed", "4",
                             "-o", out)
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "experiment,rho,variant,mean_ari,se,mc_reps,master_seed"
        assert len(lines) == 1 + 2 * 2

    def test_json_format(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sizes": [8], "lambda": [[0.5]]}))
        out = str(tmp_path / "phase.json")
        code, _, _ = run_cli(capsys, "exp", "phase-transition", "--config", str(cfg),
                             "--mc", "2", "--rho-grid", "1", "--format", "json",
                             "-o", out)
        assert code == 0
        rows = json.loads(open(out).read())
        assert rows and rows[0]["experiment"] == "phase-transition"


    @pytest.mark.parametrize("experiment, extra, word", [
        ("phase-transition", ("--mc", "0"), "mc_reps"),
        ("power-er", ("--mc", "0"), "mc_reps"),
        ("power-omni", ("--mc", "0"), "mc_reps"),
        ("cluster", ("--mc", "0"), "mc_reps"),
        ("cluster", ("--mc", "0", "--seeds-grid", "0,20"), "mc_reps"),
        ("power-er", ("--alpha", "0"), "alpha"),
        ("power-er", ("--alpha", "1"), "alpha"),
        ("power-omni", ("--alpha", "1.5"), "alpha"),
        ("power-er", ("--alpha", "0.01", "--n-null", "50"), "n_null"),
        ("phase-transition", ("--rho-grid", ","), "rho_grid"),
        ("power-er", ("--s-grid", ","), "s_grid"),
        ("power-omni", ("--x-grid", ","), "x_grid"),
        ("cluster", ("--seeds-grid", ","), "s_grid"),
        ("power-er", ("--n", "12", "--s-grid", "0,50"), "s_grid"),
        ("power-er", ("--mc", "2000000"), "replicate block"),
    ])
    def test_zero_mc_exit_2(self, tmp_path, capsys, experiment, extra, word):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "exp", experiment, *extra, "-o", str(out_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and word in err
        assert not out_path.exists()


class TestClusterRealCommand:
    @pytest.fixture
    def synthetic_inputs(self, tmp_path):
        params = SbmParams(BlockPartition((14, 14)),
                           np.array([[0.7, 0.08], [0.08, 0.7]]))
        gen = RngStream(11).generator()
        a, b = sample_rho_sbm(params, 0.6, gen)
        pa, pb = str(tmp_path / "a.edg"), str(tmp_path / "b.edg")
        pl = str(tmp_path / "lab.txt")
        write_edgelist(pa, a)
        write_edgelist(pb, b)
        write_labels(pl, params.partition.membership)
        return pa, pb, pl

    def test_pipeline_completes(self, tmp_path, capsys, synthetic_inputs):
        pa, pb, pl = synthetic_inputs
        out = str(tmp_path / "real.csv")
        code, _, _ = run_cli(capsys, "cluster-real", "--a", pa, "--b", pb,
                             "--labels", pl, "--d", "2", "--k", "2",
                             "--seeds-grid", "0,28", "--mc", "2", "--seed", "5",
                             "-o", out)
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "experiment,s,variant,mean_ari,se,mc_reps,master_seed"
        assert len(lines) == 1 + 2 * 3

    def test_scree_choice_logged(self, tmp_path, capsys, synthetic_inputs):
        pa, pb, pl = synthetic_inputs
        out = str(tmp_path / "real.csv")
        code, _, _ = run_cli(capsys, "cluster-real", "--a", pa, "--b", pb,
                             "--labels", pl, "--scree", "--k", "2",
                             "--seeds-grid", "28", "--mc", "2", "--seed", "5",
                             "-o", out)
        assert code == 0
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["config"]["scree"] is True
        assert meta["config"]["d"] >= 1

    def test_all_seeded_matched_equals_unmatched(self, tmp_path, capsys, synthetic_inputs):
        pa, pb, pl = synthetic_inputs
        out = str(tmp_path / "real.csv")
        run_cli(capsys, "cluster-real", "--a", pa, "--b", pb, "--labels", pl,
                "--d", "2", "--k", "2", "--seeds-grid", "28", "--mc", "3",
                "--seed", "6", "-o", out)
        rows = {
            parts[2]: parts[3]
            for parts in (line.split(",") for line in open(out).read().splitlines()[1:])
        }
        assert rows["omni_shuffled"] == rows["omni_matched"]

    def test_label_size_mismatch(self, tmp_path, capsys, synthetic_inputs):
        pa, pb, _ = synthetic_inputs
        bad = str(tmp_path / "bad_labels.txt")
        write_labels(bad, [0, 1, 0])
        code, _, err = run_cli(capsys, "cluster-real", "--a", pa, "--b", pb,
                               "--labels", bad, "--d", "2", "--k", "2",
                               "--seeds-grid", "0", "--mc", "1",
                               "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "label" in err

    @pytest.mark.parametrize("extra, word", [
        (("--mc", "0"), "mc_reps"),
        (("--seeds-grid", "0,29"), "s_grid"),
        (("--seeds-grid", ","), "s_grid"),
    ])
    def test_zero_mc_exit_2(self, tmp_path, capsys, synthetic_inputs, extra, word):
        pa, pb, pl = synthetic_inputs
        code, _, err = run_cli(capsys, "cluster-real", "--a", pa, "--b", pb,
                               "--labels", pl, "--d", "2", "--k", "2", *extra,
                               "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert err.count("\n") == 1 and word in err
