import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corrmatch import (
    BlockPartition,
    SbmParams,
    cluster_gain_experiment,
    gm_objective,
    invert_permutation,
    phase_transition_experiment,
    power_er_experiment,
    power_omni_experiment,
    read_edgelist,
    sample_rho_sbm,
    shuffle_cluster_experiment,
    write_edgelist,
    write_labels,
)
from corrmatch.cli import _write_rows, build_parser, main
from corrmatch.matching import read_permutation
from corrmatch.samplers import RngStream
from helpers import traced_peak, write_seeds
from pinned_runs import (CLI_RUNS, PINS, REAL_PAIR, SAMPLE_MATCH_RUNS, SMALL_SBM,
                         SMALL_SBM_CONFIG)


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
        assert Path(paths[0]).read_bytes() == Path(paths[2]).read_bytes()
        assert Path(paths[1]).read_bytes() == Path(paths[3]).read_bytes()

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

    def test_block_shuffle_keeps_blocks(self, tmp_path, capsys):
        cfg = tmp_path / "sbm.json"
        cfg.write_text(json.dumps(dict(SMALL_SBM_CONFIG, rho=1.0)))
        out_a, out_b, out_p = (str(tmp_path / f) for f in ("a.edg", "b.edg", "sigma.txt"))
        code, _, err = run_cli(capsys, "sample", "--config", str(cfg), "--seed", "4",
                               "--shuffle", "block", "--out-a", out_a, "--out-b", out_b,
                               "--out-perm", out_p)
        assert code == 0, err
        sigma = read_permutation(out_p)
        membership = np.repeat([0, 1], 8)
        assert np.array_equal(membership[sigma], membership)
        assert not np.array_equal(sigma, np.arange(16))
        assert gm_objective(read_edgelist(out_a), read_edgelist(out_b),
                            invert_permutation(sigma)) == 0

    def test_repeated_protect_lines_count_once(self, tmp_path, capsys, er_config):
        # the default --subset-size shuffles every unprotected vertex
        sigmas = []
        for lines in ("0\n0\n1\n1\n", "0\n1\n"):
            (tmp_path / "protect.txt").write_text(lines)
            out_p = tmp_path / "sigma.txt"
            code, _, err = run_cli(capsys, "sample", "--model", "rho-er", "--config", er_config,
                                   "--seed", "7", "--shuffle", "subset",
                                   "--protect-file", str(tmp_path / "protect.txt"),
                                   "--out-a", str(tmp_path / "a.edg"),
                                   "--out-b", str(tmp_path / "b.edg"), "--out-perm", str(out_p))
            assert code == 0, err
            sigmas.append(out_p.read_bytes())
        assert sigmas[0] == sigmas[1]

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
        report = json.loads(Path(report_path).read_text())
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
        report = json.loads(Path(rep).read_text())
        assert report["disagreements_after"] == 0

    def test_report_to_stdout(self, tmp_path, capsys):
        path = str(tmp_path / "g.edg")
        write_edgelist(path, 1 - np.eye(5, dtype=np.int8))
        code, out, err = run_cli(capsys, "match", "--a", path, "--b", path,
                                 "--out-perm", str(tmp_path / "perm.txt"))
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["objective"] == 0 and report["seeds"] == 0

    def test_working_set(self, tmp_path, capsys):
        """match reads the graphs as int8 and its matcher takes fractional
        steps in four m x m float64 arrays, so a seeded run holds under 5.25
        of them at once (6.15 with R kept through the second product and a
        float32 seed gradient)."""
        from corrmatch import apply_permutation, er_params, identity_seeds, sample_subset_shuffle
        n, s = 400, 20
        m = n - s
        gen = RngStream(62).generator()
        a, b = sample_rho_sbm(er_params(n, 0.1), 0.6, gen)
        b = apply_permutation(b, sample_subset_shuffle(n, np.arange(s), m, gen))
        pa, pb, ps = (str(tmp_path / f) for f in ("a.edg", "b.edg", "seeds.txt"))
        write_edgelist(pa, a)
        write_edgelist(pb, b)
        write_seeds(ps, identity_seeds(np.arange(s)))
        rep = str(tmp_path / "rep.json")
        code, peak = traced_peak(main, ["match", "--a", pa, "--b", pb, "--seeds", ps,
                                        "--out-perm", str(tmp_path / "perm.txt"),
                                        "--report", rep])
        assert code == 0, capsys.readouterr().err
        assert json.loads(Path(rep).read_text())["iterations"] > 1
        assert peak < 5.25 * 8 * m * m

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
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "experiment,rho,variant,mean,se,mc_reps,master_seed"
        assert len(lines) == 1 + 2 * 4
        meta = json.loads(Path(out + ".meta.json").read_text())
        assert meta["master_seed"] == 1

    def test_rerun_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "small.json"
        cfg.write_text(json.dumps({"sizes": [8, 8], "lambda": [[0.5, 0.2], [0.2, 0.5]]}))
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        for out in (out1, out2):
            run_cli(capsys, "exp", "phase-transition", "--config", str(cfg),
                    "--mc", "3", "--seed", "9", "--rho-grid", "0.25", "-o", out)
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_cluster_shuffle_variants(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sizes": [12, 12],
                                   "lambda": [[0.7, 0.1], [0.1, 0.7]]}))
        out = str(tmp_path / "cluster_shuffle.csv")
        code, _, _ = run_cli(capsys, "exp", "cluster", "--config", str(cfg),
                             "--rho", "0.5", "--seeds-grid", "0,24",
                             "--mc", "2", "--seed", "3", "-o", out)
        assert code == 0
        body = Path(out).read_text()
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
        lines = Path(out).read_text().splitlines()
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
        rows = json.loads(Path(out).read_text())
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
        lines = Path(out).read_text().splitlines()
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
        meta = json.loads(Path(out + ".meta.json").read_text())
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
            for parts in (line.split(",") for line in Path(out).read_text().splitlines()[1:])
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


@pytest.fixture
def input_dir(tmp_path, monkeypatch):
    """A working directory holding sbm.json and REAL_PAIR as a 16-vertex
    labelled pair (a.edg, b.edg, lab.txt), which CLI_RUNS refer to."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sbm.json").write_text(json.dumps(SMALL_SBM_CONFIG))
    write_edgelist("a.edg", REAL_PAIR[0])
    write_edgelist("b.edg", REAL_PAIR[1])
    write_labels("lab.txt", SMALL_SBM.partition.membership)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_outputs_pinned(input_dir, capsys, name):
    code, _, err = run_cli(capsys, *CLI_RUNS[name], "--seed", "7", "-o", "out")
    assert code == 0, err
    digests = [hashlib.sha256((input_dir / f).read_bytes()).hexdigest()
               for f in ("out", "out.meta.json")]
    assert digests == PINS["outputs"][name]


def test_outputs_independent_of_blas_threads(tmp_path):
    # the default 150-vertex model: its matching matmuls are large enough
    # for OpenBLAS to split them across threads
    name = "phase-transition-default"
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "corrmatch.cli", *CLI_RUNS[name], "--seed", "7",
                        "-o", str(out)], env=env, check=True, timeout=300)
        digests.append([hashlib.sha256(Path(f"{out}{suffix}").read_bytes()).hexdigest()
                        for suffix in ("", ".meta.json")])
    assert digests == [PINS["outputs"][name]] * 2


@pytest.mark.parametrize("name", sorted(n for n in CLI_RUNS if CLI_RUNS[n][0] == "exp"))
def test_sidecar_replays_table(input_dir, capsys, name):
    # the sidecar config plus master_seed is the library call: replaying
    # it writes the same table
    argv = CLI_RUNS[name]
    fmt = "json" if "json" in argv else "csv"
    assert run_cli(capsys, *argv, "--seed", "3", "-o", "out")[0] == 0
    meta = json.loads((input_dir / "out.meta.json").read_text())
    config = dict(meta["config"])
    if "sizes" in config:
        config["params"] = SbmParams(BlockPartition(tuple(config.pop("sizes"))),
                                     np.array(config.pop("lambda")))
    table = meta["experiment"]
    if table == "cluster":
        table = "cluster-shuffle" if "s_grid" in config else "cluster-gain"
    run = {"phase-transition": phase_transition_experiment,
           "power-er": power_er_experiment,
           "power-omni": power_omni_experiment,
           "cluster-gain": cluster_gain_experiment,
           "cluster-shuffle": shuffle_cluster_experiment}[table]
    _write_rows("replay", run(master_seed=meta["master_seed"], **config), fmt)
    assert (input_dir / "replay").read_bytes() == (input_dir / "out").read_bytes()


# Input that a run would otherwise ignore or crash on: each exits 2 with
# one stderr line naming the problem, and writes nothing.
REJECTED = {
    "phase-transition --p": (("exp", "phase-transition", "--p", "0.9", "--n", "7",
                              "--alpha", "3", "-o", "out"), "--p 0.9"),
    "power-er --config": (("exp", "power-er", "--config", "sbm.json", "-o", "out"),
                          "--config"),
    "power-omni --rho": (("exp", "power-omni", "--rho", "0.3", "-o", "out"), "--rho"),
    "cluster --s-grid": (("exp", "cluster", "--s-grid", "0,20", "-o", "out"), "--s-grid"),
    "cluster both modes": (("exp", "cluster", "--rho-grid", "0.3", "--seeds-grid", "0,8",
                            "-o", "out"), "--seeds-grid"),
    "exp config with rho": (("exp", "cluster", "--config", "rho.json", "-o", "out"), "rho"),
    "exp config with both models": (("exp", "phase-transition", "--config", "both.json",
                                     "-o", "out"), "both.json"),
    "exp empty config": (("exp", "phase-transition", "--config", "empty.json", "-o", "out"),
                         "empty.json"),
    "exp list config": (("exp", "cluster", "--config", "list.json", "-o", "out"),
                        "JSON object"),
    "exp missing config": (("exp", "cluster", "--config", "nope.json", "-o", "out"),
                           "nope.json"),
    "--mc x": (("exp", "power-er", "--mc", "x", "-o", "out"), "--mc"),
    "--s-grid 0,a": (("exp", "power-er", "--s-grid", "0,a", "-o", "out"), "--s-grid"),
    "mi list config": (("mi", "--config", "list.json", "--rho", "0.3"), "JSON object"),
    "mi bad n": (("mi", "--config", "badn.json", "--rho", "0.3"), "malformed"),
    "mi bad rho": (("mi", "--config", "badrho.json"), "rho"),
    "sample --bits": (("sample", "--model", "rho-er", "--config", "er.json", "--bits",
                       "--out-a", "out", "--out-b", "out_b"), "--bits"),
    "mi sbm config with --n --p": (("mi", "--config", "sbm.json", "--n", "5", "--p", "0.3",
                                    "--rho", "0.5"), "one model"),
    "sample rho-er with both models": (("sample", "--model", "rho-er", "--config", "both.json",
                                        "--rho", "0.5", "--out-a", "out", "--out-b", "out_b"),
                                       "one model"),
    "cluster gain --rho": (("exp", "cluster", "--rho", "0.3", "--rho-grid", "0.5",
                            "-o", "out"), "--rho"),
    "cluster-real --d --scree": (("cluster-real", "--a", "a.edg", "--b", "b.edg",
                                  "--labels", "lab.txt", "--d", "5", "--scree", "--k", "2",
                                  "-o", "out"), "--scree"),
    "cluster-real no --d or --scree": (("cluster-real", "--a", "a.edg", "--b", "b.edg",
                                        "--labels", "lab.txt", "--k", "2", "-o", "out"),
                                       "--d --scree"),
    "sample invalid JSON config": (("sample", "--config", "notjson.json", "--out-a", "out",
                                    "--out-b", "out_b"), "notjson.json is not valid JSON"),
    "sample rho-er without n and p": (("sample", "--model", "rho-er", "--config", "sbm.json",
                                       "--out-a", "out", "--out-b", "out_b"),
                                      "rho-er needs n and p"),
    "mi without rho": (("mi", "--n", "5", "--p", "0.3"), "mi needs rho"),
    # mi draws nothing, so it takes no --seed
    "mi --seed": (("mi", "--n", "3", "--p", "0.5", "--rho", "1.0", "--seed", "3"), "--seed"),
    "sample --subset-size -3": (("sample", "--model", "rho-er", "--config", "er.json",
                                 "--shuffle", "subset", "--subset-size", "-3", "--out-a", "out",
                                 "--out-b", "out_b", "--out-perm", "out_perm"),
                                "--subset-size value -3 is outside [0, 20]"),
    # config counts are integers, not truncated floats or bools
    "mi n float": (("mi", "--config", "n_float.json"), "n must be an integer, got 10.7"),
    "mi n bool": (("mi", "--config", "n_bool.json"), "n must be an integer, got True"),
    "mi sizes float": (("mi", "--config", "sizes_float.json"),
                       "block size must be an integer, got 2.5"),
    "sample sizes float": (("sample", "--config", "sizes_float.json", "--out-a", "out",
                            "--out-b", "out_b"), "block size must be an integer, got 2.5"),
    # the small-correlation ratio needs a vertex pair; so does power-er
    "mi one vertex": (("mi", "--config", "one_vertex.json"), "n >= 2"),
    "power-er --n 1": (("exp", "power-er", "--n", "1", "--s-grid", "0", "--x-grid", "0",
                        "--mc", "2", "--n-null", "20", "-o", "out"), "n value 1 is outside"),
    # NaN != NaN: finiteness is checked before symmetry
    "mi p NaN": (("mi", "--config", "p_nan.json"), "lambda entries must be finite"),
    # a model matrix is real and symmetric to 1e-12 absolute, as the library reads it
    "mi lambda asymmetric by 1e-10": (("mi", "--config", "asym.json"),
                                      "lambda must be symmetric to 1e-12"),
    "mi lambda strings": (("mi", "--config", "lam_str.json"),
                          "lambda must hold real numbers, got dtype <U3"),
    "mi rho string": (("mi", "--config", "rho_str.json"), "rho must be a real number, got '0.5'"),
    "power-er --rho 0.99": (("exp", "power-er", "--rho", "0.99", "-o", "out"),
                            "rho=0.99 infeasible for marginals (0.4, 0.375) at cell (0, 1)"),
    "sample rho-er without config": (("sample", "--model", "rho-er", "--out-a", "out",
                                      "--out-b", "out_b"),
                                     "rho-er needs n and p in the --config file"),
    # a vertex id outside the graph is reported by file line, blank lines counted
    "match --seeds out of range": (("match", "--a", "a.edg", "--b", "b.edg", "--seeds",
                                    "far_seeds.txt", "--out-perm", "out"),
                                   "far_seeds.txt:4: vertex out of range (25, 1) with n=16"),
    "sample --protect-file out of range": (("sample", "--config", "er.json", "--shuffle",
                                            "subset", "--protect-file", "far_protect.txt",
                                            "--out-a", "out", "--out-b", "out_b"),
                                           "far_protect.txt:3: vertex out of range -1 with n=20"),
    # Frank-Wolfe's iteration cap and tolerance
    "match --max-iters -5": (("match", "--a", "a.edg", "--b", "b.edg", "--max-iters", "-5",
                              "--out-perm", "out"), "max_iters value -5 is outside"),
    "match --tol nan": (("match", "--a", "a.edg", "--b", "b.edg", "--tol", "nan",
                         "--out-perm", "out"), "tol value nan is outside [0, inf)"),
    "match --tol -1": (("match", "--a", "a.edg", "--b", "b.edg", "--tol", "-1",
                        "--out-perm", "out"), "tol value -1.0 is outside [0, inf)"),
    # a negative number or grid is a value, not a flag
    "match --tol -inf": (("match", "--a", "a.edg", "--b", "b.edg", "--tol", "-inf",
                          "--out-perm", "out"), "tol value -inf is outside [0, inf)"),
    "power-omni --w -1e-3": (("exp", "power-omni", "--w", "-1e-3", "-o", "out"),
                             "w value -0.001 is outside [0, 1]"),
    "power-er --s-grid -1,0": (("exp", "power-er", "--s-grid", "-1,0", "-o", "out"),
                               "s_grid value -1 is outside [0, 50]"),
    # the scree checks the vertex count as the experiment does
    "cluster-real --scree n=0": (("cluster-real", "--a", "empty.edg", "--b", "empty.edg",
                                  "--labels", "empty.txt", "--scree", "--k", "1", "-o", "out"),
                                 "n value 0 is outside [2, inf)"),
}
# power-er names the probability or correlation that is NaN or outside [0, 1]
for _flag, _name in (("--p", "p"), ("--q", "q"), ("--rho", "rho"), ("--null-p", "null_edge_p")):
    for _value in ("nan", "1.5"):
        REJECTED[f"power-er {_flag} {_value}"] = (
            ("exp", "power-er", _flag, _value, "--n", "6", "--s-grid", "0", "--x-grid", "0",
             "--mc", "2", "--n-null", "20", "-o", "out"), f"{_name} value {_value} is outside")
# sample reads --subset-size and --protect-file only with --shuffle subset,
# even when the protect file does not exist
for _shuffle in ("none", "uniform", "block"):
    for _flag, _value in (("--subset-size", "5"), ("--protect-file", "nope.txt")):
        REJECTED[f"sample --shuffle {_shuffle} {_flag}"] = (
            ("sample", "--config", "sbm.json", "--shuffle", _shuffle, _flag, _value,
             "--out-a", "out", "--out-b", "out_b"), _flag)


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_input(input_dir, capsys, name):
    argv, word = REJECTED[name]
    for file, cfg in (("rho.json", dict(SMALL_SBM_CONFIG, rho=0.5)),
                      ("both.json", dict(SMALL_SBM_CONFIG, n=16, p=0.3)),
                      ("empty.json", {}), ("list.json", [1, 2]),
                      ("badn.json", {"n": [5], "p": 0.3}),
                      ("badrho.json", {"n": 5, "p": 0.3, "rho": [0.5]}),
                      ("er.json", {"n": 20, "p": 0.4, "rho": 0.6}),
                      ("n_float.json", {"n": 10.7, "p": 0.1, "rho": 0.5}),
                      ("n_bool.json", {"n": True, "p": 0.1, "rho": 0.5}),
                      ("sizes_float.json", dict(SMALL_SBM_CONFIG, sizes=[2.5, 3], rho=0.5)),
                      ("one_vertex.json", {"n": 1, "p": 0.1, "rho": 0.5}),
                      ("p_nan.json", {"n": 5, "p": float("nan"), "rho": 0.5}),
                      ("asym.json", {"sizes": [2, 2], "lambda": [[0.3, 0.1], [0.1000000001, 0.3]],
                                     "rho": 0.5}),
                      ("lam_str.json", {"sizes": [2], "lambda": [["0.3"]], "rho": 0.5}),
                      ("rho_str.json", {"n": 5, "p": 0.3, "rho": "0.5"})):
        (input_dir / file).write_text(json.dumps(cfg))
    (input_dir / "far_seeds.txt").write_text("0 0\n\n# a comment\n25 1\n")
    (input_dir / "far_protect.txt").write_text("3\n\n-1\n")
    (input_dir / "notjson.json").write_text('{"n": 5,')
    (input_dir / "empty.edg").write_text("# n=0\n")
    (input_dir / "empty.txt").write_text("")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert word in captured.err
    assert not any(input_dir.glob("out*"))


def test_parser_reads_number_grids_as_values():
    # _Parser replaces argparse's private _negative_number_matcher; if a
    # Python release stops reading that attribute, this fails here
    assert "_negative_number_matcher" in vars(argparse.ArgumentParser())
    args = build_parser().parse_args(["exp", "power-er", "--s-grid", "-1,0", "--null-p",
                                      "-1e-3", "--rho", "-inf", "-o", "-2"])
    assert (args.s_grid, args.null_edge_p, args.rho, args.output) == ((-1, 0), -1e-3,
                                                                       -math.inf, "-2")


def test_sample_and_match_files_pinned(input_dir, capsys):
    (input_dir / "er.json").write_text(json.dumps({"n": 20, "p": 0.4, "rho": 0.6}))
    (input_dir / "protect.txt").write_text("0\n1\n2\n3\n")
    (input_dir / "seeds.txt").write_text("0 0\n1 1\n2 2\n3 3\n")
    for argv in SAMPLE_MATCH_RUNS:
        code, _, err = run_cli(capsys, *argv, "--seed", "7")
        assert code == 0, err
    digests = {f: hashlib.sha256((input_dir / f).read_bytes()).hexdigest()
               for f in PINS["files"]}
    assert digests == PINS["files"]


# A malformed file of each kind, read by the command that takes it: each
# run exits 2 with one stderr line naming the file and line, and writes
# nothing.
MALFORMED_FILES = {
    "edge list": ("match", "--a", "bad.txt", "--b", "a.edg", "--out-perm", "out"),
    "seeds": ("match", "--a", "a.edg", "--b", "a.edg", "--seeds", "bad.txt",
              "--out-perm", "out"),
    "permutation": ("match", "--a", "a.edg", "--b", "a.edg", "--init", "bad.txt",
                    "--out-perm", "out"),
    "labels": ("sample", "--model", "rho-er", "--config", "er.json", "--shuffle", "subset",
               "--protect-file", "bad.txt", "--out-a", "out", "--out-b", "out_b"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_FILES))
@pytest.mark.parametrize("bad_line", ["1.5", "0 1 2", "0 # x", "# n=abc"])
def test_malformed_file_exit_2(input_dir, capsys, kind, bad_line):
    (input_dir / "er.json").write_text(json.dumps({"n": 16, "p": 0.4, "rho": 0.6}))
    (input_dir / "bad.txt").write_text(f"# head\n\n{bad_line}\n")
    code, out, err = run_cli(capsys, *MALFORMED_FILES[kind])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad.txt:3: ") and err.count("\n") == 1
    assert not any(input_dir.glob("out*"))


def test_unallocatable_graph_exit_2(input_dir, capsys):
    # numpy refuses an n x n int8 array of 888 PiB at once, touching no memory
    (input_dir / "huge.edg").write_text("# n=1000000000\n0 1\n")
    code, out, err = run_cli(capsys, "match", "--a", "huge.edg", "--b", "huge.edg",
                             "--out-perm", "out")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(input_dir.glob("out*"))
