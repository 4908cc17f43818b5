"""Every input gets an answer or one error line.

hypothesis builds flags, configs and input files from valid and
near-valid values: non-integers, bools, NaN and infinities, huge
integers, 0-, 1- and 2-vertex graphs, empty grids, d at and past its
bound, and model matrices that are complex, asymmetric or empty. Each
``cli.main`` call must exit 0, or exit 2 with exactly one ``error:``
line on stderr; the library entry points must return a result or raise
ValueError. Sizes stay tiny, so every run is quick.
"""

import contextlib
import io
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch import (
    BlockPartition,
    HeterogeneousPair,
    SbmParams,
    ase,
    er_params,
    fit_gmm,
    joint_cluster,
    power_er_experiment,
    rho_sbm_mi,
    sample_rho_sbm,
    sgm_match,
    write_edgelist,
)
from corrmatch.cli import main
from corrmatch.graphs import graph_from_edges

FUZZ = settings(max_examples=25, deadline=None)

HUGE = 10 ** 30  # past int64, and past every stream block
# values that are wrong somewhere; none is a valid count large enough to run long
ODD = [math.nan, math.inf, -math.inf, True, False, 2.5, -1, 0, HUGE, -HUGE, 1e308]


def numbers(*valid, odd=ODD):
    """One of ``valid`` (five times in six) or of ``odd``, so that many
    runs get past argument checking; odd values go to a few arguments
    of a run at a time."""
    return st.sampled_from(list(valid) * math.ceil(5 * len(odd) / len(valid)) + odd)


def caps(*valid):
    """An iteration cap: a huge one is valid, and runs for good at tol 0."""
    return numbers(*valid, odd=[v for v in ODD if v is not HUGE])


def flag_text(value) -> str:
    return json.dumps(value) if isinstance(value, bool) else str(value)


def grids(*valid):
    """A comma-separated grid of one or two values; empty one time in six."""
    filled = st.sampled_from([True] * 5 + [False])
    values = st.lists(numbers(*valid), min_size=1, max_size=2)
    return st.tuples(filled, values).map(
        lambda fv: ",".join(map(flag_text, fv[1])) if fv[0] else "")


def run(argv, files=()):
    """Run ``cli.main`` on ``argv`` in a fresh directory holding
    ``files`` ({name: text}); assert it answers or fails in one line,
    and return its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in dict(files).items():
            with open(name, "w") as fh:
                fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([str(a) for a in argv])
            except SystemExit as exc:  # argparse
                code = exc.code
    text = err.getvalue()
    assert code in (0, 2), (argv, code, text)
    if code == 2:
        assert text.startswith("error:") and text.count("\n") == 1, (argv, text)
    return code


def flags(**options):
    """``--flag=value`` arguments for the options that are not None."""
    argv = []
    for name, value in options.items():
        if value is not None:
            # joined: argparse would read a separate value like -inf as a flag
            argv.append(f"--{name.replace('_', '-')}={flag_text(value)}")
    return argv


def optional(strategy):
    return st.none() | strategy


GRAPHS = {  # vertex count -> edge-list text
    0: "# n=0\n",
    1: "# n=1\n",
    2: "# n=2\n0 1\n",
    6: "# n=6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n",
}


@FUZZ
@given(n=numbers(2, 5), p=numbers(0.0, 0.3, 1.0), rho=numbers(0.0, 0.5, 1.0),
       sizes=st.lists(numbers(1, 3), max_size=3), as_flags=st.booleans(),
       sbm=st.booleans(), bits=st.booleans())
def test_mi(n, p, rho, sizes, as_flags, sbm, bits):
    bits = ["--bits"] if bits else []
    if as_flags and not sbm:
        run(["mi", *flags(n=n, p=p, rho=rho), *bits])
        return
    if sbm:
        cfg = {"sizes": sizes, "lambda": [[p] * len(sizes)] * len(sizes), "rho": rho}
    else:
        cfg = {"n": n, "p": p, "rho": rho}
    run(["mi", "--config", "c.json", *bits], {"c.json": json.dumps(cfg)})


@FUZZ
@given(n=numbers(2, 6), p=numbers(0.3), rho=numbers(0.5),
       shuffle=st.sampled_from(["none", "uniform", "block", "subset"]),
       subset_size=optional(numbers(0, 1, 3)), protect=st.lists(numbers(0, 1, 5), max_size=2))
def test_sample(n, p, rho, shuffle, subset_size, protect):
    files = {"c.json": json.dumps({"n": n, "p": p, "rho": rho})}
    argv = ["sample", "--model", "rho-er", "--config", "c.json", "--shuffle", shuffle,
            "--out-a", "a.edg", "--out-b", "b.edg", "--out-perm", "s.txt"]
    if shuffle == "subset":
        argv += flags(subset_size=subset_size)
        if protect:
            files["p.txt"] = "".join(f"{flag_text(v)}\n" for v in protect)
            argv += ["--protect-file", "p.txt"]
    run(argv, files)


@FUZZ
@given(sizes=st.sampled_from([(n, n) for n in GRAPHS] * 3 + [(0, 1), (6, 2)]),
       max_iters=optional(caps(0, 1, 3)), tol=optional(numbers(0.0, 1e-6)),
       init=st.sampled_from(["identity", "barycenter", "perm"]),
       seeds=st.lists(st.tuples(numbers(0, 1), numbers(0, 1)), max_size=2))
def test_match(sizes, max_iters, tol, init, seeds):
    na, nb = sizes
    files = {"a.edg": GRAPHS[na], "b.edg": GRAPHS[nb],
             "perm.txt": "".join(f"{v}\n" for v in range(na)),
             "seeds.txt": "".join(f"{flag_text(u)} {flag_text(v)}\n" for u, v in seeds)}
    argv = ["match", "--a", "a.edg", "--b", "b.edg", "--out-perm", "out.txt",
            "--init", "perm.txt" if init == "perm" else init,
            *flags(max_iters=max_iters, tol=tol)]
    if seeds:
        argv += ["--seeds", "seeds.txt"]
    run(argv, files)


@FUZZ
@given(n=numbers(2, 6), p=optional(numbers(0.4, 1.0)), q=optional(numbers(0.375)),
       null_p=optional(numbers(0.3)), rho=optional(numbers(0.0, 0.5)),
       s_grid=grids(0, 2), x_grid=grids(0, 3, 7), alpha=optional(numbers(0.05, 0.5)),
       mc=numbers(1, 2), n_null=numbers(20))
def test_exp_power_er(n, p, q, null_p, rho, s_grid, x_grid, alpha, mc, n_null):
    run(["exp", "power-er", "-o", "out", *flags(
        n=n, p=p, q=q, null_p=null_p, rho=rho, s_grid=s_grid, x_grid=x_grid, alpha=alpha,
        mc=mc, n_null=n_null)])


@FUZZ
@given(n=numbers(2, 6), d=numbers(1, 2, 6, 7), anomalous=numbers(0, 2),
       w=optional(numbers(0.0, 0.2, 1.0)), x_grid=grids(0, 6), mc=numbers(1, 2),
       redraw=st.booleans())
def test_exp_power_omni(n, d, anomalous, w, x_grid, mc, redraw):
    run(["exp", "power-omni", "-o", "out", "--n-null=20", *flags(
        n=n, d=d, anomalous=anomalous, w=w, x_grid=x_grid, mc=mc),
        *(["--redraw-latents"] if redraw else [])])


@FUZZ
@given(sizes=st.lists(numbers(2, 4), min_size=1, max_size=2), p=numbers(0.2, 0.6),
       rho_grid=grids(0.0, 0.5, 1.0), d=numbers(1, 2, 8, 9), k=numbers(1, 2),
       seeds_grid=optional(grids(0, 4)), rho=optional(numbers(0.5)), mc=numbers(1))
def test_exp_phase_transition_and_cluster(sizes, p, rho_grid, d, k, seeds_grid, rho, mc):
    files = {"m.json": json.dumps({"sizes": sizes, "lambda": [[p] * len(sizes)] * len(sizes)})}
    run(["exp", "phase-transition", "--config", "m.json", "-o", "out",
         *flags(rho_grid=rho_grid, mc=mc)], files)
    argv = ["exp", "cluster", "--config", "m.json", "-o", "out", *flags(d=d, k=k, mc=mc)]
    if seeds_grid is None:
        argv += flags(rho_grid=rho_grid)
    else:
        argv += flags(seeds_grid=seeds_grid, rho=rho)
    run(argv, files)


@FUZZ
@given(n=st.sampled_from(sorted(GRAPHS)), labels=st.lists(numbers(0, 1), min_size=7, max_size=7),
       count=numbers(None, odd=[0, 1, 7]), d=optional(numbers(1, 2, 6, 7)), k=numbers(1, 2),
       seeds_grid=grids(0, 2, 6), mc=numbers(1))
def test_cluster_real(n, labels, count, d, k, seeds_grid, mc):
    labels = labels[:n if count is None else count]  # one label per vertex, mostly
    files = {"a.edg": GRAPHS[n], "b.edg": GRAPHS[n],
             "lab.txt": "".join(f"{flag_text(v)}\n" for v in labels)}
    run(["cluster-real", "--a", "a.edg", "--b", "b.edg", "--labels", "lab.txt", "-o", "out",
         *(flags(d=d) if d is not None else ["--scree"]),
         *flags(k=k, mc=mc, seeds_grid=seeds_grid)], files)


# -- library entry points ------------------------------------------------------

def answers(call, *args, **kwargs):
    """``call`` returns, or raises ValueError."""
    with contextlib.suppress(ValueError):
        call(*args, **kwargs)


@FUZZ
@given(n=numbers(1, 2, 5), p=numbers(0.0, 0.3), rho=numbers(0.0, 0.5, 1.0))
def test_library_models(n, p, rho):
    def mi_and_pair():
        params = er_params(n, p)
        rho_sbm_mi(params, rho)
        sample_rho_sbm(params, rho, np.random.default_rng(0))
    answers(mi_and_pair)


def inits(n):
    """A matcher init: a named one, a permutation of [n] as a list or an
    array, or an odd value (another string, a repeat, bools, floats,
    ids past n, a matrix, a scalar, None)."""
    perms = st.permutations(list(range(n)))
    return (st.sampled_from(["barycenter", "identity", "bogus", "", None, 0, 1.5])
            | perms | perms.map(np.array) | perms.map(lambda p: [float(v) for v in p])
            | st.lists(numbers(0, 1, n), min_size=n, max_size=n)
            | st.just(np.eye(n, dtype=np.int64)))


@FUZZ
@given(data=st.data(), n=st.sampled_from([0, 1, 2, 4]), max_iters=caps(0, 3),
       tol=numbers(0.0, 1e-6), d=numbers(1, 2, 4), k=numbers(1, 2), restarts=numbers(1, 2),
       seeded=st.booleans())
def test_library_solvers(data, n, max_iters, tol, d, k, restarts, seeded):
    a = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
    seeds = [(u, u) for u in range(n)] if seeded else None  # every vertex, or none
    answers(sgm_match, a, a, seeds=seeds, init=data.draw(inits(n)), max_iters=max_iters,
            tol=tol)
    answers(ase, a, d)
    answers(joint_cluster, a.tolist(), a, d, k, np.random.default_rng(0), restarts=restarts)
    points = np.arange(2.0 * n).reshape(n, 2) % 3.0
    answers(fit_gmm, points, k, np.random.default_rng(0), restarts=restarts,
            max_iters=max_iters, tol=tol)


@FUZZ
@given(p=numbers(0.4), q=numbers(0.375), null_p=optional(numbers(0.3)),
       rho=numbers(0.0, 0.5), n=numbers(2, 5), alpha=numbers(0.1))
def test_library_power_er(p, q, null_p, rho, n, alpha):
    answers(power_er_experiment, p=p, q=q, n=n, rho=rho, s_grid=(0,), x_grid=(0, 2),
            alpha=alpha, mc_reps=1, n_null=20, null_edge_p=null_p)


# model entries: valid, out of [0, 1], complex, infinite or NaN
ENTRIES = numbers(0.0, 0.3, 1.0, odd=[math.nan, math.inf, -math.inf, -0.5, 1.5, 0.3 + 0j, 0.3j])


@st.composite
def matrices(draw, n):
    """An n x n matrix of ENTRIES with zero diagonal: symmetric four times
    in six, else asymmetric, or asymmetric by 1e-10 in one entry."""
    m = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(m, 0.0)
    shape = draw(st.sampled_from(["symmetric"] * 4 + ["asymmetric", "nearly"]))
    if shape != "asymmetric":
        m = np.triu(m, 1) + np.triu(m, 1).T
    if shape == "nearly" and n >= 2:
        m[1, 0] += 1e-10
    return m


@FUZZ
@given(data=st.data(), n=st.sampled_from([0, 1, 2, 3]), d=numbers(1, 2))
def test_library_matrices(data, n, d):
    p, q, rho = (data.draw(matrices(n)) for _ in range(3))
    answers(SbmParams, BlockPartition((1,) * n), p)
    answers(HeterogeneousPair, p, q, rho)
    answers(ase, p, d)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_write_and_match_tiny_graphs(tmp_path, n):
    # 0-, 1- and 2-vertex edge lists round-trip through a match
    write_edgelist(tmp_path / "g.edg", np.zeros((n, n), dtype=np.int8))
    assert run(["match", "--a", tmp_path / "g.edg", "--b", tmp_path / "g.edg",
                "--out-perm", tmp_path / "p.txt"]) == 0
