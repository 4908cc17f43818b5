"""The comparison core of tools/drift.py on hand-made records."""

import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "drift", Path(__file__).resolve().parents[1] / "tools" / "drift.py")
drift = sys.modules["drift"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drift)


def _power_rows(powers):
    return [{"experiment": "power-er", "s": 0, "x": x, "variant": "paired", "power": p,
             "std_err": 0.1, "mc_reps": 20, "master_seed": 1}
            for x, p in zip((0, 10), powers)]


def _ari_rows(omni, single):
    return [{"experiment": "cluster-gain", "rho": 0.1, "variant": v, "mean_ari": m, "se": 0.01,
             "mc_reps": 4, "master_seed": 9} for v, m in (("omni", omni), ("single", single))]


def _fit(labels, trace):
    return {"0.means": np.array([[0.0, 1.0], [2.0, 3.0]]),
            "0.loglik_trace": np.array(trace), "1": np.array(labels)}


def _recording(tables, calls):
    return {"corrmatch": "", "tables": tables, "calls": calls}


def test_identical_records_report_zero_drift():
    rec = _recording({"t": _power_rows((0.25, 0.5)), "g": _ari_rows(0.8, 0.6)},
                     {"clustering.fit_gmm": {"k1": _fit([0, 1, 1], [-3.0, -2.0])}})
    text = drift.report(rec, rec)
    assert text.splitlines()[-1] == "drift: none"
    assert "changed decisions: none" in text
    sums, counts, decisions = drift.compare_calls(rec["calls"], rec["calls"])
    assert counts == {"clustering.fit_gmm": (1, 1, 1)}
    assert sums[("clustering.fit_gmm", "1")] == drift.Summary(3, 3, 0.0, 0.0)
    assert decisions == []


def test_float_change_sizes():
    s = drift.Summary()
    s.add([1.0, -4.0, 2.0], [1.0, -4.0 + 2e-12, 2.0 - 1e-12])
    assert (s.values, s.equal) == (3, 1)
    assert s.max_abs == pytest.approx(2e-12, rel=1e-3)
    # relative to the largest base magnitude, 4
    assert s.max_rel == pytest.approx(5e-13, rel=1e-3)
    s.add([0.0], [0.0])
    assert (s.values, s.equal) == (4, 2)
    nan = drift.Summary()
    nan.add([np.nan, 1.0], [np.nan, 1.0])
    assert nan == drift.Summary(2, 2, 0.0, 0.0)


def test_table_columns_and_decisions():
    base = {"t": _power_rows((0.25, 0.5)), "g": _ari_rows(0.8, 0.6)}
    head = {"t": _power_rows((0.25, 0.55)), "g": _ari_rows(0.58, 0.6)}
    sums, decisions = drift.compare_tables(base, head)
    assert sums[("t", "power")].values == 2 and sums[("t", "power")].equal == 1
    assert sums[("t", "power")].max_abs == pytest.approx(0.05)
    assert sums[("t", "std_err")].equal == 2
    assert sums[("g", "rho")].equal == 2  # a float grid column is compared too
    assert len(decisions) == 2
    assert "rejections 10 -> 11" in decisions[1] and "'x': 10" in decisions[1]
    assert "sign of ARI gap omni - single +0.2 -> -0.02" in decisions[0]


def test_table_rows_that_differ_are_a_decision():
    base = {"t": _power_rows((0.25, 0.5))}
    moved = [dict(r, s=5) for r in _power_rows((0.25, 0.5))]
    for head in ({"t": moved}, {"t": _power_rows((0.25,))}, {}):
        _, decisions = drift.compare_tables(base, head)
        assert decisions == ["t: rows differ"]


def test_call_decisions_labels_and_stops():
    base = {"clustering.fit_gmm": {"k1": _fit([0, 1, 1], [-3.0, -2.0]),
                                   "k2": _fit([0, 0, 1], [-5.0, -4.0]),
                                   "only-base": _fit([0], [0.0])}}
    head = {"clustering.fit_gmm": {"k1": _fit([0, 1, 0], [-3.0, -2.0 + 1e-13]),
                                   "k2": _fit([0, 0, 1], [-5.0, -4.0, -3.9]),
                                   "only-head": _fit([1], [0.0])}}
    sums, counts, decisions = drift.compare_calls(base, head)
    assert counts == {"clustering.fit_gmm": (3, 3, 2)}
    assert decisions == [
        "clustering.fit_gmm input k1 1: 1 of 3 values changed",
        "clustering.fit_gmm input k2 0.loglik_trace: shape (2,) -> (3,)",
    ]
    trace = sums[("clustering.fit_gmm", "0.loglik_trace")]
    assert (trace.values, trace.equal) == (2, 1)  # k2's trace is not comparable
    assert sums[("clustering.fit_gmm", "0.means")].equal == 8
    last = drift.report(_recording({}, base), _recording({}, head)).splitlines()[-1]
    assert last == "drift: 2 changed values, 2 unshared inputs, 2 changed decisions"


def test_generator_leaves_compared_by_state():
    # a returned generator is recorded by its state, which is equal or not
    leaf = drift.leaves(np.random.default_rng(4))
    assert leaf["out"].dtype.kind == "U"
    base = {"samplers.stream": {"k1": leaf}}
    same = {"samplers.stream": {"k1": drift.leaves(np.random.default_rng(4))}}
    moved = {"samplers.stream": {"k1": drift.leaves(np.random.default_rng(5))}}
    lines = drift.report(_recording({}, base), _recording({}, same)).splitlines()
    assert lines[-1] == "drift: none"
    # the leaf's line gives the values compared and equal, without the max columns
    assert f"{'  out':44} {1:7d} {1:7d}" in lines
    sums, counts, decisions = drift.compare_calls(base, moved)
    assert sums == {("samplers.stream", "out"): drift.Summary(1, 0, None, None)}
    assert counts == {"samplers.stream": (1, 1, 1)}
    assert decisions == ["samplers.stream input k1 out: 1 of 1 values changed"]
    lines = drift.report(_recording({}, base), _recording({}, moved)).splitlines()
    assert f"{'  out':44} {1:7d} {0:7d}" in lines
    assert lines[-1] == "drift: 0 changed values, 0 unshared inputs, 1 changed decisions"


@dataclass(frozen=True)
class _Model:
    weights: np.ndarray
    loglik_trace: tuple


def test_leaves_and_input_keys():
    out = drift.leaves((_Model(np.ones(2), (-2.0, -1.0)), np.array([0, 1])))
    assert sorted(out) == ["0.loglik_trace", "0.weights", "1"]
    assert out["0.loglik_trace"].tolist() == [-2.0, -1.0]
    assert drift.leaves(1.5)["out"] == 1.5
    x = np.arange(6.0).reshape(3, 2)
    gen = np.random.default_rng(4)
    key = drift.input_key((x, 2, gen), {"restarts": 3})
    assert key == drift.input_key((x.copy(), 2, np.random.default_rng(4)), {"restarts": 3})
    gen.random()
    assert key != drift.input_key((x, 2, gen), {"restarts": 3})
    assert key != drift.input_key((x.T.copy(), 2, np.random.default_rng(4)), {"restarts": 3})
    assert key != drift.input_key((x, 2, np.random.default_rng(4)), {"restarts": 2})
