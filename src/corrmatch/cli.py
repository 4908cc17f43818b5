"""Command-line harness.

Commands: sample, match, mi, exp {phase-transition | power-er |
power-omni | cluster}, cluster-real. Every command is deterministic
given --seed; experiment outputs are fixed-schema CSV (or JSON with
--format json) plus a .meta.json sidecar echoing the configuration.
Config files are JSON objects; for sample and mi, explicit flags
override config fields. Each exp experiment has its own parser whose
flag dests are the keyword arguments of the library function it calls;
its --config supplies the model only.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .clustering import cluster_gain_experiment, cluster_real_experiment, shuffle_cluster_experiment
from .embedding import omnibus, scree_elbow
from .graphs import (
    BlockPartition,
    apply_permutation,
    check_count,
    check_range,
    edge_disagreements,
    read_edgelist,
    read_labels,
    write_edgelist,
)
from .inference import (
    PHASE_RHO_GRID,
    phase_transition_experiment,
    power_er_experiment,
    power_omni_experiment,
    three_block_params,
)
from .information import mi_small_rho_ratio, rho_sbm_mi, sbm_entropy
from .matching import read_permutation, read_seeds, sgm_match, write_permutation
from .samplers import (
    RngStream,
    SbmParams,
    er_params,
    sample_block_permutation,
    sample_rho_sbm,
    sample_subset_shuffle,
    sample_uniform_permutation,
)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_rows(path: str, rows: list[dict], fmt: str) -> None:
    """Write a table; its columns are the keys of the library's rows, in order."""
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(rows, fh, indent=2)
            fh.write("\n")
            return
        fields = tuple(rows[0])
        fh.write(",".join(fields) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(r[f]) for f in fields) + "\n")


def _write_sidecar(path: str, experiment: str, config: dict, master_seed: int) -> None:
    meta = {"experiment": experiment, "master_seed": master_seed, "config": config,
            "version": __version__}
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str | None, **flags) -> dict:
    """The JSON object in ``path`` ({} without one), overridden by the
    ``flags`` that were given."""
    cfg = {}
    if path is not None:
        with open(path) as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    return {**cfg, **{k: v for k, v in flags.items() if v is not None}}


def _grid(cast):
    """argparse type: a comma-separated grid of cast values, as a tuple."""
    def grid(text: str) -> tuple:
        return tuple(cast(tok) for tok in text.split(",") if tok != "")
    grid.__name__ = f"{cast.__name__} grid"
    return grid


def _sbm_from_config(cfg: dict) -> SbmParams:
    model = sorted({"sizes", "lambda", "n", "p"} & set(cfg))
    try:
        if model == ["lambda", "sizes"]:
            return SbmParams(BlockPartition(cfg["sizes"]),
                             np.asarray(cfg["lambda"], dtype=np.float64))
        if model == ["n", "p"]:
            return er_params(cfg["n"], float(cfg["p"]))
    except (TypeError, OverflowError, ValueError) as exc:
        raise ValueError(f"config model fields are malformed: {exc}") from None
    raise ValueError(f"config and flags must give one model, {{sizes, lambda}} or {{n, p}}, "
                     f"got {model}")


def _config_rho(cfg: dict) -> float:
    try:
        return float(cfg["rho"])
    except TypeError:
        raise ValueError(f"config rho must be a number, got {cfg['rho']!r}") from None


def _exp_model(path: str) -> SbmParams:
    """argparse type of `exp --config`: a file holding only the model."""
    try:
        cfg = _load_config(path)
        if set(cfg) not in ({"sizes", "lambda"}, {"n", "p"}):
            raise ValueError(f"exp reads exactly {{sizes, lambda}} or {{n, p}} from "
                             f"{path}, got {sorted(cfg)}")
        return _sbm_from_config(cfg)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- commands ----------------------------------------------------------------

def _cmd_sample(args) -> int:
    if args.shuffle != "subset":
        for flag, value in (("--subset-size", args.subset_size),
                            ("--protect-file", args.protect_file)):
            if value is not None:
                raise ValueError(f"sample reads {flag} only with --shuffle subset")
    cfg = _load_config(args.config, rho=args.rho)
    if args.model == "rho-er" and not {"n", "p"} <= cfg.keys():
        raise ValueError("rho-er needs n and p (config or flags)")
    params = _sbm_from_config(cfg)
    rho = _config_rho(cfg) if "rho" in cfg else 0.0
    gen = RngStream(args.master_seed, 0).generator()
    a, b = sample_rho_sbm(params, rho, gen)

    sigma = np.arange(params.n, dtype=np.int64)  # --shuffle none
    sgen = RngStream(args.master_seed, 1).generator()
    if args.shuffle == "uniform":
        sigma = sample_uniform_permutation(params.n, sgen)
    elif args.shuffle == "block":
        sigma = sample_block_permutation(params.partition, sgen)
    elif args.shuffle == "subset":
        protect = read_labels(args.protect_file) if args.protect_file else []
        k = params.n - len(set(protect))  # repeated protect lines count once
        if args.subset_size is not None:
            check_range("--subset-size", (args.subset_size,), 0, k)
            k = args.subset_size
        sigma = sample_subset_shuffle(params.n, protect, k, sgen)

    write_edgelist(args.out_a, a)
    write_edgelist(args.out_b, apply_permutation(b, sigma))
    if args.out_perm:
        write_permutation(args.out_perm, sigma)
    return 0


def _cmd_match(args) -> int:
    a = read_edgelist(args.a)
    b = read_edgelist(args.b)
    seeds = read_seeds(args.seeds) if args.seeds else None
    init = args.init if args.init in ("identity", "barycenter") else read_permutation(args.init)
    res = sgm_match(a, b, seeds=seeds, init=init, max_iters=args.max_iters, tol=args.tol)
    write_permutation(args.out_perm, res.permutation)
    report = {
        "objective": res.objective,
        "trace_value": res.trace_value,
        "iterations": res.iterations,
        "converged": res.converged,
        "disagreements_before": edge_disagreements(a, b),
        "disagreements_after": res.objective // 2,
        "seeds": 0 if seeds is None else int(len(seeds)),
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mi(args) -> int:
    cfg = _load_config(args.config, rho=args.rho, n=args.n, p=args.p)
    if "rho" not in cfg:
        raise ValueError("mi needs rho (config or --rho)")
    params = _sbm_from_config(cfg)
    rho = _config_rho(cfg)
    mi = rho_sbm_mi(params, rho)
    ent = sbm_entropy(params)
    ratio = f"{mi_small_rho_ratio(params, rho):.6f}" if rho > 0.0 else "undefined"
    scale = 1.0 / math.log(2.0) if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    print(f"I = {mi * scale:.6f}")
    print(f"H = {ent * scale:.6f}")
    print(f"small_rho_ratio = {ratio}")
    print(f"units = {unit}")
    return 0


# Parsed values of an exp experiment that are not arguments of its library call.
_EXP_CLI_ONLY = ("command", "experiment", "func", "format", "output")


def _cmd_exp(args) -> int:
    kwargs = {k: v for k, v in vars(args).items() if k not in _EXP_CLI_ONLY}
    table = args.experiment
    if table == "cluster":
        # --seeds-grid selects the shuffle table; each mode drops the other's flags
        shuffle = args.s_grid is not None
        if not shuffle and args.rho is not None:
            raise ValueError("exp cluster reads --rho only with --seeds-grid")
        table = "cluster-shuffle" if shuffle else "cluster-gain"
        for unused in (("rho_grid",) if shuffle else ("rho", "s_grid")):
            del kwargs[unused]
        if shuffle and args.rho is None:
            kwargs["rho"] = 0.5  # the shuffle table's default
    run = {"phase-transition": phase_transition_experiment,
           "power-er": power_er_experiment,
           "power-omni": power_omni_experiment,
           "cluster-gain": cluster_gain_experiment,
           "cluster-shuffle": shuffle_cluster_experiment}[table]
    rows = run(**kwargs)

    config = {k: v for k, v in kwargs.items() if k != "master_seed"}
    params = config.pop("params", None)
    if params is not None:
        config["sizes"] = list(params.partition.sizes)
        config["lambda"] = params.lam.tolist()
    _write_rows(args.output, rows, args.format)
    _write_sidecar(args.output, args.experiment, config, args.master_seed)
    return 0


def _cmd_cluster_real(args) -> int:
    a = read_edgelist(args.a)
    b = read_edgelist(args.b)
    labels = read_labels(args.labels)
    if args.scree:
        check_count("n", a.shape[0], low=2)  # as cluster_real_experiment would, before the scree
        evals = np.linalg.eigvalsh(omnibus(a, b))
        ranked = evals[np.argsort(-np.abs(evals), kind="stable")]
        d = scree_elbow(ranked)
    else:
        d = args.d
    rows = cluster_real_experiment(a, b, labels, args.s_grid, d=d, k=args.k,
                                   mc_reps=args.mc_reps, master_seed=args.master_seed)
    _write_rows(args.output, rows, args.format)
    _write_sidecar(args.output, "cluster-real", {
        "a": args.a, "b": args.b, "labels": args.labels, "d": int(d),
        "scree": bool(args.scree), "k": args.k, "s_grid": list(args.s_grid),
        "mc_reps": args.mc_reps}, args.master_seed)
    return 0


# -- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument errors print one `error:` line and exit 2, like every
    other bad input; subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token this matches is a value, not a flag: any negative number or
        # grid such as -1e-3, -inf or -1,0 (argparse's own knows -1 and -.5)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, default=0,
                        help="master random seed")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("-o", "--output", required=True)
    ints, floats = _grid(int), _grid(float)

    parser = _Parser(prog="corrmatch",
                     description="Correlated graph pairs: sampling, "
                                 "matching, information, experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", parents=[common], help="sample a correlated pair")
    ps.add_argument("--model", choices=("rho-sbm", "rho-er"), default="rho-sbm")
    ps.add_argument("--config", help="JSON with sizes/lambda (or n/p) and rho")
    ps.add_argument("--rho", type=float, default=None)
    ps.add_argument("--shuffle", choices=("none", "uniform", "block", "subset"), default="none")
    ps.add_argument("--subset-size", type=int, default=None)
    ps.add_argument("--protect-file", help="file of protected vertex ids (subset mode)")
    ps.add_argument("--out-a", required=True)
    ps.add_argument("--out-b", required=True)
    ps.add_argument("--out-perm", help="write the shuffle permutation here")
    ps.set_defaults(func=_cmd_sample)

    pm = sub.add_parser("match", parents=[common], help="match two edge lists")
    pm.add_argument("--a", required=True)
    pm.add_argument("--b", required=True)
    pm.add_argument("--seeds", help="seed file with 'u v' lines")
    pm.add_argument("--init", default="barycenter",
                    help="identity, barycenter, or a permutation file")
    pm.add_argument("--max-iters", type=int, default=100)
    pm.add_argument("--tol", type=float, default=1e-6)
    pm.add_argument("--out-perm", required=True)
    pm.add_argument("--report", help="write the JSON report here (default stdout)")
    pm.set_defaults(func=_cmd_match)

    pi = sub.add_parser("mi", help="closed-form mutual information")
    pi.add_argument("--config", help="JSON with sizes/lambda (or n/p) and rho")
    pi.add_argument("--n", type=int, default=None)
    pi.add_argument("--p", type=float, default=None)
    pi.add_argument("--rho", type=float, default=None)
    pi.add_argument("--bits", action="store_true",
                    help="report information quantities in bits instead of nats")
    pi.set_defaults(func=_cmd_mi)

    pe = sub.add_parser("exp", help="run an experiment and write its table")
    experiments = pe.add_subparsers(dest="experiment", required=True)

    def experiment(name: str, mc_reps: int) -> argparse.ArgumentParser:
        px = experiments.add_parser(name, parents=[common, table])
        px.add_argument("--mc", dest="mc_reps", type=int, default=mc_reps,
                        help="Monte Carlo replicates")
        px.set_defaults(func=_cmd_exp)
        return px

    model_help = "JSON model file: exactly sizes/lambda or n/p"
    pt = experiment("phase-transition", 200)
    pt.add_argument("--config", dest="params", metavar="FILE", type=_exp_model,
                    default=three_block_params(), help=model_help)
    pt.add_argument("--rho-grid", type=floats, default=PHASE_RHO_GRID)

    pp = experiment("power-er", 500)
    pp.add_argument("--p", type=float, default=0.4)
    pp.add_argument("--q", type=float, default=0.375)
    pp.add_argument("--n", type=int, default=50)
    pp.add_argument("--rho", type=float, default=0.5)
    pp.add_argument("--s-grid", type=ints, default=(0, 10, 20, 30, 40, 50))
    pp.add_argument("--x-grid", type=ints, default=(0, 10, 20, 30, 40, 50))
    pp.add_argument("--alpha", type=float, default=0.05)
    pp.add_argument("--n-null", type=int, default=999)
    pp.add_argument("--null-p", dest="null_edge_p", type=float, default=None)

    po = experiment("power-omni", 100)
    po.add_argument("--n", type=int, default=100)
    po.add_argument("--d", type=int, default=3)
    po.add_argument("--anomalous", dest="num_anomalous", type=int, default=20)
    po.add_argument("--w", dest="mix_w", type=float, default=0.2)
    po.add_argument("--x-grid", type=ints, default=(0, 25, 50, 75))
    po.add_argument("--alpha", type=float, default=0.05)
    po.add_argument("--n-null", type=int, default=999)
    po.add_argument("--redraw-latents", action="store_true")

    pc = experiment("cluster", 200)
    pc.add_argument("--config", dest="params", metavar="FILE", type=_exp_model, help=model_help,
                    default=SbmParams(BlockPartition((50, 50)),
                                      np.array([[0.1, 0.05], [0.05, 0.2]])))
    pc.add_argument("--rho", type=float, default=None, help="shuffle mode only (default 0.5)")
    pc.add_argument("--d", type=int, default=2)
    pc.add_argument("--k", type=int, default=2)
    mode = pc.add_mutually_exclusive_group()
    mode.add_argument("--rho-grid", type=floats, default=(0.1, 0.3, 0.5, 0.7, 0.9),
                      help="gain mode (the default)")
    mode.add_argument("--seeds-grid", dest="s_grid", type=ints, default=None,
                      help="shuffle mode")

    pr = sub.add_parser("cluster-real", parents=[common, table],
                        help="shuffle/match clustering on user-supplied graphs")
    pr.add_argument("--a", required=True)
    pr.add_argument("--b", required=True)
    pr.add_argument("--labels", required=True)
    dim = pr.add_mutually_exclusive_group(required=True)
    dim.add_argument("--d", type=int)
    dim.add_argument("--scree", action="store_true", help="choose d by the scree elbow")
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--seeds-grid", dest="s_grid", type=ints, default=(0, 20, 40, 60, 80))
    pr.add_argument("--mc", dest="mc_reps", type=int, default=50)
    pr.set_defaults(func=_cmd_cluster_real)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
