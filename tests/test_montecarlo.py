"""The six Monte Carlo experiments at tiny sizes: pinned tables, the
stream-id blocks and shapes, the power table and the one critical-value
routine."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrmatch import stream
from corrmatch._parallel import MonteCarlo, critical_rank, critical_value
from pinned_runs import PINS, TINY_RUNS


def render(rows) -> str:
    """Exact text of a table: every float by float.hex, keys in row order."""
    def cell(v):
        return float(v).hex() if isinstance(v, (float, np.floating)) else repr(v)
    return "\n".join(",".join(f"{k}={cell(v)}" for k, v in row.items()) for row in rows)


@pytest.mark.parametrize("name", sorted(TINY_RUNS))
def test_tables_pinned(name):
    text = render(TINY_RUNS[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == PINS["tables"][name], text


def test_stream_block_capacity_is_inclusive():
    MonteCarlo(0, 10_000_000, 1)
    with pytest.raises(ValueError, match="replicate block"):
        MonteCarlo(0, 10_000_001, 1)


def _same_stream(gen, stream_id, master_seed):
    # built from numpy directly, so the rule is pinned apart from stream itself
    ref = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=(stream_id,))))
    return np.array_equal(gen.integers(2 ** 62, size=4), ref.integers(2 ** 62, size=4))


def test_stream_ids_are_row_major_in_each_block():
    mc = MonteCarlo(5, 4, 3, alpha=0.1, n_null=10, null_cells=2, shuffles=(2, 3, 4))
    for role, index, stream_id in (("replicate", (2, 3), 2 * 4 + 3),
                                   ("null", (1, 9), 10 ** 7 + 1 * 10 + 9),
                                   ("shuffle", (1, 2, 3), 2 * 10 ** 7 + (1 * 3 + 2) * 4 + 3),
                                   ("latent", (0,), 9 * 10 ** 7),
                                   ("latent", (4,), 9 * 10 ** 7 + 4)):
        assert _same_stream(mc.generator(role, *index), stream_id, 5), (role, index)


@pytest.mark.parametrize("role, index", [
    # unchecked, these two named the streams of (1, 0) in their roles
    ("shuffle", (0, 3)), ("replicate", (0, 4)),
    ("shuffle", (2, 0)), ("replicate", (1, 0)), ("null", (0, 0)), ("latent", (5,)),
    ("shuffle", (0, -1)), ("shuffle", (0,)), ("shuffle", (0, 0, 0)),
])
def test_stream_index_outside_its_shape_rejected(role, index):
    mc = MonteCarlo(0, 4, 1, shuffles=(2, 3))
    with pytest.raises(ValueError, match=f"{role} stream index"):
        mc.generator(role, *index)


def test_power_table_rows():
    mc = MonteCarlo(9, 4, 1)
    stats = np.array([[[0.5, 3.0], [1.0, 3.0]]] * 3 + [[[2.0, 0.0], [0.0, 3.0]]])
    rows = mc.power_table({"experiment": "e", "s": 1}, "x", (10, 20), ("u", "v"), stats,
                          (1.0, 2.5))  # strictly above: 1.0 > 1.0 does not reject
    assert [list(r) for r in rows] == [["experiment", "s", "x", "variant", "power",
                                        "std_err", "mc_reps", "master_seed"]] * 4
    assert [(r["x"], r["variant"], r["power"]) for r in rows] == [
        (10, "u", 0.25), (10, "v", 0.75), (20, "u", 0.0), (20, "v", 1.0)]
    assert rows[0]["std_err"] == math.sqrt(0.25 * 0.75 / 4)
    assert rows[0]["mc_reps"] == 4 and rows[0]["master_seed"] == 9


class TestCriticalValue:
    def test_constant_null(self):
        crit = critical_value(np.zeros(99), 0.05)
        assert crit == 0.0

    def test_uniform_null_quantile(self):
        crit = critical_value(stream(6, 0).random(999), 0.05)
        assert abs(crit - 0.95) < 0.02

    def test_doubling_consistency(self):
        crit1 = critical_value(stream(7, 0).random(999), 0.05)
        crit2 = critical_value(stream(8, 0).random(1999), 0.05)
        assert abs(crit1 - crit2) < 0.03

    def test_level_control(self):
        # calibrate then test fresh draws from the same null
        alpha = 0.05
        crit = critical_value(stream(9, 0).random(999), alpha)
        mc = 2000
        rate = np.mean(stream(10, 0).random(mc) > crit)
        assert rate <= alpha + 3 * math.sqrt(alpha / mc)

    def test_insufficient_draws(self):
        with pytest.raises(ValueError):
            critical_value(np.zeros(50), 0.01)

    def test_reads_draws_as_finite_reals(self):
        draws = stream(11, 0).random((40, 2))
        assert np.array_equal(critical_value(draws.tolist(), 0.05), critical_value(draws, 0.05))
        for bad, match in ((draws.tolist() + [[np.nan, 0.0]], "^draws entries must be finite"),
                           (draws + 0j, "^draws must hold real numbers"),
                           (0.5, "^draws must hold one null draw per row, got a scalar$")):
            with pytest.raises(ValueError, match=match):
                critical_value(bad, 0.05)


# 10**7 null draws fill the null stream block, so no run draws more
@given(st.floats(1e-7, 1.0, exclude_max=True), st.data())
def test_critical_rank_bounds(alpha, data):
    n_null = data.draw(st.integers(math.ceil(1.0 / alpha), 10**7))
    rank = critical_rank(alpha, n_null)
    assert 1 <= rank <= n_null
    assert rank >= (1.0 - alpha) * (n_null + 1)


@given(st.floats().filter(lambda alpha: not 0.0 < alpha < 1.0), st.integers(1, 10**7))
def test_critical_rank_rejects_alpha(alpha, n_null):
    with pytest.raises(ValueError, match="alpha"):
        critical_rank(alpha, n_null)


@given(st.floats(1e-9, 1.0, exclude_max=True), st.data())
def test_critical_rank_rejects_too_few_draws(alpha, data):
    n_null = data.draw(st.integers(-1, math.ceil(1.0 / alpha) - 1))
    with pytest.raises(ValueError, match="n_null"):
        critical_rank(alpha, n_null)
