"""The Monte Carlo driver behind the six experiments.

A run is a grid of cells with ``mc_reps`` replicates each, plus, in the
power experiments, cells of ``n_null`` null-calibration draws. Each role
has an id block (``_BLOCKS``) and a declared shape: replicates (cells,
mc_reps) from 0, null draws (null_cells, n_null) from 10**7, shuffles
(as the experiment declares them) from 2 * 10**7, and latent positions
(1 + mc_reps: index 0 for the shared draw, 1 + replicate for redraws)
from 9 * 10**7. The draw at ``index`` has the stream
``RngStream(master_seed, first + ravel_multi_index(index, shape))``,
built only by :meth:`MonteCarlo.generator`, which rejects an index
outside the shape. A run whose shapes would leave their blocks, or with
any other bad argument, is rejected before the first draw, so no two
draws share a stream. Replicates and null draws run serially, in order;
:meth:`MonteCarlo.power_table` is the one place a statistic is compared
with its critical value.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import check_count, check_range
from .samplers import RngStream

# role -> (first stream id, capacity); the latent block is last and open above
_BLOCKS = {
    "replicate": (0, 10_000_000),
    "null": (10_000_000, 10_000_000),
    "shuffle": (20_000_000, 70_000_000),
    "latent": (90_000_000, math.inf),
}


def critical_rank(alpha: float, n_null: int) -> int:
    """1-based rank ceil((1-alpha)(n_null+1)) of the conservative critical
    value among n_null null draws; needs 0 < alpha < 1 and n_null >= 1/alpha."""
    check_range("alpha", (alpha,), 0, 1)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"need 0 < alpha < 1, got {alpha}")
    if n_null < 1.0 / alpha:
        raise ValueError(f"need n_null >= 1/alpha = {1.0 / alpha:.1f}, got {n_null}")
    return math.ceil((1.0 - alpha) * (n_null + 1))


def critical_value(draws: np.ndarray, alpha: float):
    """Conservative Monte Carlo critical value: the critical_rank-th order
    statistic of the null draws, per column when draws is n_null x m."""
    return np.sort(draws, axis=0)[critical_rank(alpha, draws.shape[0]) - 1]


class MonteCarlo:
    """The checked sizes, stream ids, loops and tables of one Monte Carlo run.

    ``grids`` maps argument names to grids that must be non-empty and
    must not repeat a value.
    ``cells`` replicate cells and ``null_cells`` null cells use the
    replicate and null blocks; ``shuffles`` is the shape of the shuffle
    block. ``alpha`` is the level of the null calibration.
    """

    def __init__(self, master_seed: int, mc_reps: int, grids: dict,
                 cells: int, *, alpha: float | None = None, n_null: int = 0,
                 null_cells: int = 0, shuffles: tuple[int, ...] = (0,)):
        check_count("master_seed", master_seed, low=0)
        check_count("mc_reps", mc_reps)
        for name, grid in grids.items():
            if len(grid) == 0:
                raise ValueError(f"{name} must not be empty")
            if len(set(grid)) != len(grid):
                raise ValueError(f"{name} must not repeat a value, got {list(grid)}")
        if alpha is not None:
            check_count("n_null", n_null)
            critical_rank(alpha, n_null)
        self._shapes = {"replicate": (cells, mc_reps), "null": (null_cells, n_null),
                        "shuffle": tuple(shuffles), "latent": (1 + mc_reps,)}
        for role, shape in self._shapes.items():
            used, capacity = math.prod(shape), _BLOCKS[role][1]
            if used > capacity:
                raise ValueError(f"run needs {used} {role} streams, but the {role} "
                                 f"block holds {capacity}; reduce mc_reps, n_null or the grids")
        self.master_seed = master_seed
        self.mc_reps = mc_reps
        self.alpha = alpha
        self.n_null = n_null

    def generator(self, role: str, *index: int) -> np.random.Generator:
        """The stream at ``index`` in the declared shape of ``role``."""
        shape = self._shapes[role]
        try:
            offset = int(np.ravel_multi_index(index, shape))
        except ValueError:
            raise ValueError(f"{role} stream index {index} is outside shape {shape}") from None
        return RngStream(self.master_seed, _BLOCKS[role][0] + offset).generator()

    def replicates(self, cell: int, one_rep) -> list:
        """``one_rep(rep, gen)`` for every replicate of ``cell``, in order."""
        return [one_rep(rep, self.generator("replicate", cell, rep))
                for rep in range(self.mc_reps)]

    def null_critical(self, cell: int, draw):
        """Critical value(s) from n_null draws ``draw(gen)`` of null ``cell``;
        one per statistic when ``draw`` returns a tuple."""
        draws = [draw(self.generator("null", cell, j)) for j in range(self.n_null)]
        return critical_value(np.array(draws), self.alpha)

    def mean_table(self, experiment: str, key: str, grid, variants, one_rep,
                   mean_key: str = "mean") -> list[dict]:
        """One row of mean and standard error per grid value and variant;
        ``one_rep(value, gen)`` returns one number per variant."""
        rows = []
        for cell, value in enumerate(grid):
            vals = np.array(self.replicates(cell, lambda rep, gen: one_rep(value, gen)))
            for col, variant in enumerate(variants):
                se = (float(vals[:, col].std(ddof=1) / math.sqrt(self.mc_reps))
                      if self.mc_reps > 1 else 0.0)
                rows.append({"experiment": experiment, key: value, "variant": variant,
                             mean_key: float(vals[:, col].mean()), "se": se,
                             "mc_reps": self.mc_reps, "master_seed": self.master_seed})
        return rows

    def power_table(self, fields: dict, key: str, grid, variants, stats, crit) -> list[dict]:
        """One row of ``fields``, rejection rate and standard error per grid
        value and variant: the share of replicates whose ``stats`` (mc_reps x
        grid x variants) strictly exceed ``crit`` (broadcast to grid x variants)."""
        rejects = (np.asarray(stats) > np.asarray(crit)).sum(axis=0)
        rows = []
        for cell, value in enumerate(grid):
            for col, variant in enumerate(variants):
                p = int(rejects[cell, col]) / self.mc_reps
                rows.append({**fields, key: value, "variant": variant, "power": p,
                             "std_err": math.sqrt(p * (1.0 - p) / self.mc_reps),
                             "mc_reps": self.mc_reps, "master_seed": self.master_seed})
        return rows
