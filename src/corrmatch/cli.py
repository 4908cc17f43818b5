"""Command-line harness.

Commands: sample, match, mi, exp {phase-transition | power-er |
power-omni | cluster}, cluster-real. Every command is deterministic
given --seed; experiment outputs are fixed-schema CSV (or JSON with
--format json) plus a .meta.json sidecar echoing the configuration.
Config files are JSON; explicit CLI flags override config fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .clustering import cluster_gain_experiment, cluster_real_experiment, shuffle_cluster_experiment
from .embedding import omnibus, scree_elbow
from .graphs import (
    BlockPartition,
    apply_permutation,
    edge_disagreements,
    read_edgelist,
    read_labels,
    write_edgelist,
)
from .inference import (
    THREE_BLOCK_LAMBDA,
    PHASE_RHO_GRID,
    THREE_BLOCK_SIZES,
    phase_transition_experiment,
    power_er_experiment,
    power_omni_experiment,
)
from .information import mi_small_rho_ratio, rho_sbm_mi, sbm_entropy
from .matching import read_permutation, read_seeds, sgm_match, write_permutation
from .samplers import (
    RngStream,
    SbmParams,
    sample_block_permutation,
    sample_rho_sbm,
    sample_subset_shuffle,
    sample_uniform_permutation,
)


class CliError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


_SCHEMAS = {
    "phase-transition": ("experiment", "rho", "variant", "mean", "se", "mc_reps", "master_seed"),
    "power-er": ("experiment", "s", "x", "variant", "power", "std_err", "mc_reps", "master_seed"),
    "power-omni": ("experiment", "x", "variant", "power", "std_err", "mc_reps", "master_seed"),
    "cluster-gain": ("experiment", "rho", "variant", "mean_ari", "se", "mc_reps", "master_seed"),
    "cluster-shuffle": ("experiment", "s", "variant", "mean_ari", "se", "mc_reps", "master_seed"),
    "cluster-real": ("experiment", "s", "variant", "mean_ari", "se", "mc_reps", "master_seed"),
}


def _write_rows(path: str, rows: list[dict], fields: tuple[str, ...], fmt: str) -> None:
    if fmt == "json":
        payload = [{f: r[f] for f in fields} for r in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(r[f]) for f in fields) + "\n")


def _write_sidecar(path: str, experiment: str, config: dict, master_seed: int) -> None:
    meta = {"experiment": experiment, "master_seed": master_seed, "config": config,
            "version": __version__}
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")


def _parse_grid(text, cast=float):
    return tuple(cast(tok) for tok in str(text).split(",") if tok != "")


def _sbm_from_config(cfg: dict) -> SbmParams:
    if "sizes" in cfg and "lambda" in cfg:
        return SbmParams(BlockPartition(tuple(int(s) for s in cfg["sizes"])),
                         np.asarray(cfg["lambda"], dtype=np.float64))
    if "n" in cfg and "p" in cfg:
        n, p = int(cfg["n"]), float(cfg["p"])
        return SbmParams(BlockPartition((n,)), np.array([[p]]))
    raise CliError("config must provide either {sizes, lambda} or {n, p}")


def _require_file(path: str) -> str:
    import os
    if not os.path.exists(path):
        raise CliError(f"file not found: {path}")
    return path


# -- commands ----------------------------------------------------------------

def _cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    if args.rho is not None:
        cfg["rho"] = args.rho
    if args.model == "rho-er":
        if "n" not in cfg or "p" not in cfg:
            raise CliError("rho-er needs n and p (config or flags)")
    params = _sbm_from_config(cfg)
    rho = float(cfg.get("rho", 0.0))
    gen = RngStream(args.seed, 0).generator()
    a, b = sample_rho_sbm(params, rho, gen)

    sigma = None
    if args.shuffle != "none":
        sgen = RngStream(args.seed, 1).generator()
        if args.shuffle == "uniform":
            sigma = sample_uniform_permutation(params.n, sgen)
        elif args.shuffle == "block":
            sigma = sample_block_permutation(params.partition, sgen)
        else:
            protect = read_labels(_require_file(args.protect_file)) if args.protect_file else []
            k = args.subset_size if args.subset_size is not None else params.n - len(protect)
            sigma = sample_subset_shuffle(params.n, protect, k, sgen)
        b = apply_permutation(b, sigma)

    write_edgelist(args.out_a, a)
    write_edgelist(args.out_b, b)
    if args.out_perm:
        write_permutation(args.out_perm, sigma if sigma is not None
                          else np.arange(params.n, dtype=np.int64))
    return 0


def _cmd_match(args) -> int:
    a = read_edgelist(_require_file(args.a))
    b = read_edgelist(_require_file(args.b))
    seeds = read_seeds(_require_file(args.seeds)) if args.seeds else None
    init = args.init
    if init not in ("identity", "barycenter"):
        init = read_permutation(_require_file(init))
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
    cfg = _load_config(args.config)
    if args.rho is not None:
        cfg["rho"] = args.rho
    if args.n is not None:
        cfg["n"] = args.n
    if args.p is not None:
        cfg["p"] = args.p
    if "rho" not in cfg:
        raise CliError("mi needs rho (config or --rho)")
    params = _sbm_from_config(cfg)
    rho = float(cfg["rho"])
    mi = rho_sbm_mi(params, rho)
    ent = sbm_entropy(params)
    scale = 1.0 / math.log(2.0) if args.bits else 1.0
    unit = "bits" if args.bits else "nats"
    print(f"I = {mi * scale:.6f}")
    print(f"H = {ent * scale:.6f}")
    if rho > 0.0:
        print(f"small_rho_ratio = {mi_small_rho_ratio(params, rho):.6f}")
    else:
        print("small_rho_ratio = undefined")
    print(f"units = {unit}")
    return 0


def _cmd_exp(args) -> int:
    cfg = _load_config(args.config)
    name = args.experiment
    if name == "phase-transition":
        params = _sbm_from_config(cfg) if cfg else None
        rho_grid = _parse_grid(args.rho_grid) if args.rho_grid else PHASE_RHO_GRID
        rows = phase_transition_experiment(mc_reps=args.mc, master_seed=args.seed,
                                           rho_grid=rho_grid, params=params)
        schema = _SCHEMAS["phase-transition"]
        config_echo = {"rho_grid": list(rho_grid), "mc_reps": args.mc,
                       "sizes": list(params.partition.sizes) if params else list(THREE_BLOCK_SIZES),
                       "lambda": (params.lam if params else THREE_BLOCK_LAMBDA).tolist()}
    elif name == "power-er":
        rows = power_er_experiment(p=args.p, q=args.q, n=args.n, rho=args.rho,
                                   s_grid=_parse_grid(args.s_grid, int),
                                   x_grid=_parse_grid(args.x_grid, int),
                                   alpha=args.alpha, mc_reps=args.mc, n_null=args.n_null,
                                   master_seed=args.seed, null_edge_p=args.null_p)
        schema = _SCHEMAS["power-er"]
        config_echo = {"p": args.p, "q": args.q, "n": args.n, "rho": args.rho,
                       "s_grid": list(_parse_grid(args.s_grid, int)),
                       "x_grid": list(_parse_grid(args.x_grid, int)),
                       "alpha": args.alpha, "mc_reps": args.mc, "n_null": args.n_null,
                       "null_edge_p": args.null_p}
    elif name == "power-omni":
        rows = power_omni_experiment(n=args.n, d=args.d, num_anomalous=args.anomalous,
                                     mix_w=args.w, x_grid=_parse_grid(args.x_grid, int),
                                     alpha=args.alpha, mc_reps=args.mc, n_null=args.n_null,
                                     master_seed=args.seed, redraw_latents=args.redraw_latents)
        schema = _SCHEMAS["power-omni"]
        config_echo = {"n": args.n, "d": args.d, "num_anomalous": args.anomalous,
                       "mix_w": args.w, "x_grid": list(_parse_grid(args.x_grid, int)),
                       "alpha": args.alpha, "mc_reps": args.mc, "n_null": args.n_null,
                       "redraw_latents": args.redraw_latents}
    elif name == "cluster":
        params = _sbm_from_config(cfg) if cfg else SbmParams(
            BlockPartition((50, 50)), np.array([[0.1, 0.05], [0.05, 0.2]]))
        if args.seeds_grid:
            s_grid = _parse_grid(args.seeds_grid, int)
            rows = shuffle_cluster_experiment(params, rho=args.rho, s_grid=s_grid,
                                              d=args.d, k=args.k, mc_reps=args.mc,
                                              master_seed=args.seed)
            schema = _SCHEMAS["cluster-shuffle"]
            config_echo = {"rho": args.rho, "s_grid": list(s_grid), "d": args.d,
                           "k": args.k, "mc_reps": args.mc,
                           "sizes": list(params.partition.sizes), "lambda": params.lam.tolist()}
        else:
            rho_grid = _parse_grid(args.rho_grid) if args.rho_grid else (0.1, 0.3, 0.5, 0.7, 0.9)
            rows = cluster_gain_experiment(params, rho_grid, d=args.d, k=args.k,
                                           mc_reps=args.mc, master_seed=args.seed)
            schema = _SCHEMAS["cluster-gain"]
            config_echo = {"rho_grid": list(rho_grid), "d": args.d, "k": args.k,
                           "mc_reps": args.mc, "sizes": list(params.partition.sizes),
                           "lambda": params.lam.tolist()}
    else:
        raise CliError(f"unknown experiment {name!r}")

    _write_rows(args.output, rows, schema, args.format)
    _write_sidecar(args.output, name, config_echo, args.seed)
    return 0


def _cmd_cluster_real(args) -> int:
    a = read_edgelist(_require_file(args.a))
    b = read_edgelist(_require_file(args.b))
    labels = read_labels(_require_file(args.labels))
    if a.shape != b.shape:
        raise CliError(f"graphs differ in size: {a.shape[0]} vs {b.shape[0]} vertices")
    if labels.shape[0] != a.shape[0]:
        raise CliError(f"label file has {labels.shape[0]} lines for {a.shape[0]} vertices")
    if args.scree:
        evals = np.linalg.eigvalsh(omnibus(a, b))
        ranked = evals[np.argsort(-np.abs(evals), kind="stable")]
        d = scree_elbow(ranked)
    elif args.d is not None:
        d = args.d
    else:
        raise CliError("cluster-real needs --d or --scree")
    s_grid = _parse_grid(args.seeds_grid, int)
    rows = cluster_real_experiment(a, b, labels, s_grid, d=d, k=args.k,
                                   mc_reps=args.mc, master_seed=args.seed)
    _write_rows(args.output, rows, _SCHEMAS["cluster-real"], args.format)
    _write_sidecar(args.output, "cluster-real", {
        "a": args.a, "b": args.b, "labels": args.labels, "d": int(d),
        "scree": bool(args.scree), "k": args.k, "s_grid": list(s_grid),
        "mc_reps": args.mc}, args.seed)
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master random seed")

    parser = argparse.ArgumentParser(prog="corrmatch",
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

    pi = sub.add_parser("mi", parents=[common], help="closed-form mutual information")
    pi.add_argument("--config", help="JSON with sizes/lambda (or n/p) and rho")
    pi.add_argument("--n", type=int, default=None)
    pi.add_argument("--p", type=float, default=None)
    pi.add_argument("--rho", type=float, default=None)
    pi.add_argument("--bits", action="store_true",
                    help="report information quantities in bits instead of nats")
    pi.set_defaults(func=_cmd_mi)

    pe = sub.add_parser("exp", parents=[common], help="run an experiment and write its table")
    pe.add_argument("experiment", choices=("phase-transition", "power-er", "power-omni", "cluster"))
    pe.add_argument("--config", help="JSON model override (sizes/lambda or n/p)")
    pe.add_argument("--mc", type=int, default=None, help="Monte Carlo replicates")
    pe.add_argument("--rho", type=float, default=0.5)
    pe.add_argument("--rho-grid", default=None)
    pe.add_argument("--s-grid", default="0,10,20,30,40,50")
    pe.add_argument("--x-grid", default=None)
    pe.add_argument("--seeds-grid", default=None)
    pe.add_argument("--p", type=float, default=0.4)
    pe.add_argument("--q", type=float, default=0.375)
    pe.add_argument("--n", type=int, default=None)
    pe.add_argument("--d", type=int, default=None)
    pe.add_argument("--k", type=int, default=2)
    pe.add_argument("--w", type=float, default=0.2)
    pe.add_argument("--anomalous", type=int, default=20)
    pe.add_argument("--alpha", type=float, default=0.05)
    pe.add_argument("--n-null", type=int, default=999)
    pe.add_argument("--null-p", type=float, default=None)
    pe.add_argument("--redraw-latents", action="store_true")
    pe.add_argument("--format", choices=("csv", "json"), default="csv")
    pe.add_argument("-o", "--output", required=True)
    pe.set_defaults(func=_cmd_exp)

    pr = sub.add_parser("cluster-real", parents=[common],
                        help="shuffle/match clustering on user-supplied graphs")
    pr.add_argument("--a", required=True)
    pr.add_argument("--b", required=True)
    pr.add_argument("--labels", required=True)
    pr.add_argument("--d", type=int, default=None)
    pr.add_argument("--scree", action="store_true", help="choose d by the scree elbow")
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--seeds-grid", default="0,20,40,60,80")
    pr.add_argument("--mc", type=int, default=50)
    pr.add_argument("--format", choices=("csv", "json"), default="csv")
    pr.add_argument("-o", "--output", required=True)
    pr.set_defaults(func=_cmd_cluster_real)
    return parser


_EXP_DEFAULTS = {
    "phase-transition": {"mc": 200, "n": 150, "d": 2, "x_grid": None},
    "power-er": {"mc": 500, "n": 50, "d": 2, "x_grid": "0,10,20,30,40,50"},
    "power-omni": {"mc": 100, "n": 100, "d": 3, "x_grid": "0,25,50,75"},
    "cluster": {"mc": 200, "n": 100, "d": 2, "x_grid": None},
}


def _fill_exp_defaults(args) -> None:
    defaults = _EXP_DEFAULTS[args.experiment]
    if args.mc is None:
        args.mc = defaults["mc"]
    if args.n is None:
        args.n = defaults["n"]
    if args.d is None:
        args.d = defaults["d"]
    if args.x_grid is None:
        args.x_grid = defaults["x_grid"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "exp":
        _fill_exp_defaults(args)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
