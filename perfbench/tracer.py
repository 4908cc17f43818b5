"""Per-layer tracing of corrmatch from outside the library.

A layer is a group of public corrmatch functions (see ``LAYERS``).
While a ``Tracer`` is installed, every binding of those functions in a
corrmatch module -- module attributes and values of module-level dicts,
such as ``inference._INVARIANTS`` -- is replaced by a wrapper that
records a span: (id, parent id, run id, layer, function, start, end).
Self time is a span's duration minus the durations of its direct
children; the library runs single-threaded at ``threads=1``, so spans
nest strictly. Solver-health counts are read from return values only.
Spans stay in memory until ``write_spans`` is called.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("graphs", "samplers", "information", "matching", "embedding",
           "clustering", "inference", "cli", "_parallel")

# layer -> (defining module, public functions)
LAYERS = {
    "clustering.gmm": ("clustering", ("fit_gmm",)),
    # with the experiment entry point, whose self time covers its replicate loop
    "clustering.pipeline": ("clustering", ("joint_cluster", "single_cluster", "ari",
                                           "shuffle_cluster_experiment")),
    "embedding.ase": ("embedding", ("ase",)),
    "embedding.omnibus": ("embedding", ("omnibus",)),
    "embedding.stat": ("embedding", ("t2_omni", "t1_semipar")),
    "matching.sgm": ("matching", ("sgm_match", "faq_match")),
    "matching.lap": ("matching", ("solve_lap",)),
    "matching.io": ("matching", ("read_seeds", "read_permutation", "write_permutation")),
    "graphs.io": ("graphs", ("read_edgelist", "write_edgelist", "read_labels", "write_labels")),
    "graphs.relabel": ("graphs", ("apply_permutation",)),
    "graphs.objective": ("graphs", ("gm_objective", "trace_objective", "edge_disagreements",
                                    "sample_edge_correlation")),
    "graphs.invariants": ("graphs", ("max_degree", "triangle_count", "spectral_norm")),
    "samplers": ("samplers", ("sample_rho_sbm", "sample_correlated_heterogeneous",
                              "sample_subset_shuffle", "sample_uniform_permutation",
                              "sample_dirichlet_positions", "anomaly_perturb")),
    # self time covers calibration loops, _sample_bernoulli_graph, critical values
    "inference": ("inference", ("power_omni_experiment",)),
    "inference.stats": ("inference", ("paired_z", "pooled_z", "invariant_stat")),
    "cli": ("cli", ("main",)),
}

# per-layer metrics: name -> unit; all but s_per_fw_iter are per workload call
PER_LAYER_UNITS = {
    "clustering.gmm.calls": "count",
    "clustering.gmm.self_s": "s",
    "clustering.em_iters_winner": "count",
    "clustering.em_cap_hits_winner": "count",
    "clustering.pipeline.self_s": "s",
    "embedding.ase.calls": "count",
    "embedding.ase.self_s": "s",
    "embedding.ase.n3_sum": "count",
    "embedding.omnibus.self_s": "s",
    "embedding.stat.self_s": "s",
    "matching.sgm.calls": "count",
    "matching.sgm.self_s": "s",
    "matching.fw_iters": "count",
    "matching.s_per_fw_iter": "s",
    "matching.unconverged": "count",
    "matching.lap.calls": "count",
    "matching.lap.self_s": "s",
    "matching.io.self_s": "s",
    "graphs.io.self_s": "s",
    "graphs.io.bytes": "bytes",
    "graphs.relabel.calls": "count",
    "graphs.relabel.self_s": "s",
    "graphs.objective.self_s": "s",
    "graphs.invariants.self_s": "s",
    "samplers.calls": "count",
    "samplers.self_s": "s",
    "inference.self_s": "s",
    "inference.stats.calls": "count",
    "inference.stats.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

def _bind(slot, value) -> None:
    container, key = slot
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Installs span-recording wrappers on corrmatch's public functions.

    Use ``with tracer.installed(run_id): ...`` around one workload call;
    the original bindings are restored on exit.
    """

    def __init__(self, package):
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, layer, child seconds]
        self._run_id = None
        self._originals = []  # (function, layer, name)
        for layer, (mod_name, names) in LAYERS.items():
            mod = getattr(package, mod_name)
            for name in names:
                self._originals.append((getattr(mod, name), layer, name))

    # -- installation -----------------------------------------------------

    def _bindings(self, fn):
        """Every (module or dict, key) slot in corrmatch holding fn."""
        out = []
        for mod in self.modules:
            for key, val in vars(mod).items():
                if val is fn:
                    out.append((mod, key))
                elif isinstance(val, dict):
                    out.extend((val, k) for k, v in val.items() if v is fn)
        return out

    @contextlib.contextmanager
    def installed(self, run_id):
        """Wrap every binding while one workload call runs, then restore it."""
        saved = []
        self._run_id = run_id
        try:
            for fn, layer, name in self._originals:
                wrapper = self._wrap(fn, layer, name)
                for slot in self._bindings(fn):
                    saved.append((slot, fn))
                    _bind(slot, wrapper)
            yield self
        finally:
            for slot, fn in reversed(saved):
                _bind(slot, fn)
            self._run_id = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer, name):
        observe = self._observer(fn, layer, name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id in call order
            frame = [span_id, layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.spans[span_id] = (span_id, parent[0] if parent else None, self._run_id,
                                       layer, name, t0, t1)
                self.self_s[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if parent is None or parent[1] != layer:
                    self.calls[layer] += 1
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def _observer(self, fn, layer, name):
        counts = self.counts
        if name == "sgm_match":
            def observe(res, args, kwargs):
                counts["fw_iters"] += res.iterations
                counts["unconverged"] += 0 if res.converged else 1
            return observe
        if name == "fit_gmm":
            sig = inspect.signature(fn)

            def observe(res, args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                iters = len(res[0].loglik_trace)
                counts["em_iters_winner"] += iters
                counts["em_cap_hits_winner"] += int(iters >= bound.arguments["max_iters"])
            return observe
        if name == "ase":
            def observe(res, args, kwargs):
                counts["ase_n3"] += int(res.shape[0]) ** 3
            return observe
        if layer == "graphs.io":
            def observe(res, args, kwargs):
                counts["io_bytes"] += _file_size(args[0] if args else kwargs.get("path"))
            return observe
        return None

    # -- results -----------------------------------------------------------

    def metrics(self, n_calls: int, overhead_s: float) -> dict:
        """Per-layer metrics: totals and counts per workload call."""
        per = 1.0 / max(n_calls, 1)
        k = self.counts
        vals = {f"{layer}.self_s": self.self_s.get(layer, 0.0) * per for layer in LAYERS}
        vals.update({f"{layer}.calls": self.calls.get(layer, 0) * per for layer in LAYERS})
        fw = k.get("fw_iters", 0)
        vals.update({
            "clustering.em_iters_winner": k.get("em_iters_winner", 0) * per,
            "clustering.em_cap_hits_winner": k.get("em_cap_hits_winner", 0) * per,
            "embedding.ase.n3_sum": k.get("ase_n3", 0) * per,
            "matching.fw_iters": fw * per,
            "matching.s_per_fw_iter": (self.self_s.get("matching.sgm", 0.0)
                                       + self.self_s.get("matching.lap", 0.0)) / fw if fw else 0.0,
            "matching.unconverged": k.get("unconverged", 0) * per,
            "graphs.io.bytes": k.get("io_bytes", 0) * per,
            "trace.overhead_s": overhead_s,
        })
        return {name: {"value": vals[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}

    def write_spans(self, path) -> None:
        """One JSON list per line: [id, parent, run, layer, function, start, end]."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
