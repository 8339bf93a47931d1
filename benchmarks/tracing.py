"""Spans around calls into hermflow's layers, recorded from outside the package.

Each layer is a module of `src/hermflow`.  A call into it is timed by
replacing, for the length of a run, the name that the calling module binds
(`cli.train`, `galerkin.eval_hermite_functions`, ...) with a wrapper that
records a span: layer, round, start, end, parent span, whether it raised, and
an optional count (Adam steps, fixed-point iterations).  Spans are kept in
memory and written once when the run ends.  A span's self time is its
duration minus the durations of its direct children.

Only calls made while `active` is set are recorded, so correctness checks
between rounds leave no spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module attribute path relative to `hermflow`, binding name, layer)
TRACED_BINDINGS = [
    ("cli", "main", "cli.command"),
    ("cli", "train", "trainer.train"),
    ("trainer", "gradient", "autodiff.gradient"),
    ("autodiff.Var", "backward", "autodiff.backward"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("flow", "spectral_norm", "flow.spectral_norm"),
    ("cli", "gauss_hermite_rule", "quadrature.rule"),
    ("trainer", "gauss_hermite_rule", "quadrature.rule"),
    ("", "gauss_hermite_rule", "quadrature.rule"),
    ("quadrature", "eval_hermite_functions", "hermite.table"),
    ("galerkin", "eval_hermite_functions", "hermite.table"),
    ("galerkin", "eval_hermite_derivatives", "hermite.table"),
    ("trainer", "eval_hermite_functions", "hermite.table"),
    ("trainer", "eval_hermite_derivatives", "hermite.table"),
    ("flow", "eval_hermite_functions", "hermite.table"),
    ("hermite", "eval_hermite_functions", "hermite.table"),
    ("cli", "assemble_hamiltonian", "galerkin.assemble"),
    ("", "assemble_hamiltonian", "galerkin.assemble"),
    ("cli", "eigh", "eigensolver.eigh"),
    ("", "eigh", "eigensolver.eigh"),
    ("galerkin", "_map_jets", "flow.jet"),
    ("flow", "flow_jet", "flow.jet"),
    ("flow", "flow_inverse", "flow.inverse"),
    ("cli", "save_checkpoint", "flow.checkpoint"),
    ("", "load_checkpoint", "flow.checkpoint"),
    ("cli", "build_convergence_report", "analysis.report"),
    ("cli", "band_average_errors", "analysis.report"),
    ("cli", "write_spectra_csv", "analysis.write"),
    ("cli", "write_bands_csv", "analysis.write"),
    ("cli", "write_rates_csv", "analysis.write"),
    ("cli", "write_fits_csv", "analysis.write"),
]

# An untraced run needs the Adam-step clock (`cli.train`), and calls made often in
# every workload, at whose return the pace is sampled (`pace.py`).
TIMED_BINDINGS = [
    ("cli", "train", "trainer.train"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("cli", "eigh", "eigensolver.eigh"),
    ("", "eigh", "eigensolver.eigh"),
    ("flow", "flow_inverse", "flow.inverse"),
]


def _call(fn, args, kwargs):
    return fn(*args, **kwargs), None


def _call_train(fn, args, kwargs):
    """Call train; the count is the number of Adam steps it took."""
    params, trace = fn(*args, **kwargs)
    return (params, trace), len(trace)


def _call_inverse(fn, args, kwargs):
    """Call flow_inverse asking for its iteration count; return what the caller asked for."""
    wanted = kwargs.pop("return_iterations", False)
    x, iterations = fn(*args, return_iterations=True, **kwargs)
    return ((x, iterations) if wanted else x), iterations


_CALLS = {"trainer.train": _call_train, "flow.inverse": _call_inverse}


def _end(pacer, spent_at_start: float) -> float:
    """Now, less the time the pacer took since the span started."""
    now = time.perf_counter()
    return now - (pacer.spent - spent_at_start) if pacer else now


class Tracer:
    """Records spans of wrapped calls; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.pacer = None  # if set, sampled as wrapped calls return; spans leave its time out
        self.paces: dict[int, float] = {}  # span index -> pace of the samples taken inside it
        self.spans: list[tuple] = []  # (layer, round, start, end, parent, failed, count)
        self.round = 0
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, package, bindings):
        for path, name, layer in bindings:
            owner = package
            for part in filter(None, path.split(".")):
                owner = getattr(owner, part)
            fn = getattr(owner, name)
            setattr(owner, name, self._wrap(fn, layer))
            self._patches.append((owner, name, fn))

    def uninstall(self):
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    def _wrap(self, fn, layer):
        call = _CALLS.get(layer, _call)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            pacer = tracer.pacer
            spent = pacer.spent if pacer else 0.0
            mark = len(pacer.samples) if pacer else 0
            start = time.perf_counter()
            try:
                result, count = call(fn, args, kwargs)
            except BaseException:
                tracer.spans[index] = (layer, tracer.round, start, _end(pacer, spent), parent, True, None)
                raise
            finally:
                tracer._stack.pop()
            tracer.spans[index] = (layer, tracer.round, start, _end(pacer, spent), parent, False, count)
            if pacer:
                if len(pacer.samples) > mark:
                    tracer.paces[index] = pacer.pace(mark)
                pacer.tick()
            return result

        return traced

    def paced_rate(self, layer: str, round_index: int, round_pace: float) -> float:
        """Counts per paced second of one layer's spans in one round.  A span is
        paced by the samples taken inside it, or by the round's pace if none were."""
        count, paced_s = 0, 0.0
        for i, (name, rnd, start, end, parent, failed, n) in enumerate(self.spans):
            if name == layer and rnd == round_index:
                count += n or 0
                paced_s += (end - start) / self.paces.get(i, round_pace)
        return count / paced_s

    def totals(self, round_index: int) -> dict[str, dict[str, float]]:
        """Per-layer calls, self time (ms), failures and counts of one round."""
        child_time = defaultdict(float)
        for layer, rnd, start, end, parent, failed, count in self.spans:
            if rnd == round_index and parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "failed": 0, "count": 0})
        for i, (layer, rnd, start, end, parent, failed, count) in enumerate(self.spans):
            if rnd == round_index:
                agg = out[layer]
                agg["calls"] += 1
                agg["self_ms"] += (end - start - child_time[i]) * 1e3
                agg["failed"] += failed
                agg["count"] += count or 0
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "round", "start_s", "end_s", "parent", "failed", "count"],
                       "spans": self.spans}, fh)
