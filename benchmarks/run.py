"""hermflow benchmark: one workload per run, closed loop, one process.

    python3 benchmarks/run.py --workload sweep_small --seed 1 --seconds 32 --trace 0

Run from the repository root.  The run imports hermflow from `src/` next to
this directory (and fails if it is not there), makes the workload's inputs
from the seed, then runs whole rounds of the workload, one operation at a
time, for about `--seconds` (it stops at the round boundary nearest that
time, after at least two rounds).  The first round warms up and is not
timed.  Every round's outputs are checked.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With `--trace 0` the metrics are the end-to-end ones (medians over the timed
rounds; times are paced, see `pace.py`); with `--trace 1` every call into a
hermflow layer is recorded as a span, the spans are written to
`benchmarks/out/`, and the metrics are per-layer totals of one round (medians
over the timed rounds).  Standard error gives each run's raw round time and
pace.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, fixed before numpy loads.  The matrices are at most 200 x 200, and
# a second OpenBLAS thread spin-waits: while another process held the other core, an
# `evaluate` round took 31.6 s instead of 4.6 s with two threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import pace  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "adam_steps_per_s": "steps/s",
                    "peak_rss_mb": "MB", "trace_excess": "a.u."}

# per-layer metric -> (layer, field of `Tracer.totals`)
PER_LAYER = {
    "autodiff.gradient_calls": ("autodiff.gradient", "calls"),
    "autodiff.forward_ms": ("autodiff.gradient", "self_ms"),
    "autodiff.backward_ms": ("autodiff.backward", "self_ms"),
    "trainer.adam_step_ms": ("trainer.adam_step", "self_ms"),
    "flow.spectral_norm_calls": ("flow.spectral_norm", "calls"),
    "flow.spectral_norm_ms": ("flow.spectral_norm", "self_ms"),
    "trainer.steps": ("trainer.train", "count"),
    "trainer.train_ms": ("trainer.train", "self_ms"),
    "quadrature.rule_calls": ("quadrature.rule", "calls"),
    "quadrature.rule_ms": ("quadrature.rule", "self_ms"),
    "hermite.table_calls": ("hermite.table", "calls"),
    "hermite.table_ms": ("hermite.table", "self_ms"),
    "galerkin.assemble_calls": ("galerkin.assemble", "calls"),
    "galerkin.assemble_ms": ("galerkin.assemble", "self_ms"),
    "galerkin.assemble_failed": ("galerkin.assemble", "failed"),
    "eigensolver.eigh_calls": ("eigensolver.eigh", "calls"),
    "eigensolver.eigh_ms": ("eigensolver.eigh", "self_ms"),
    "flow.inverse_calls": ("flow.inverse", "calls"),
    "flow.inverse_iterations": ("flow.inverse", "count"),
    "flow.inverse_ms": ("flow.inverse", "self_ms"),
    "flow.jet_ms": ("flow.jet", "self_ms"),
    "flow.checkpoint_ms": ("flow.checkpoint", "self_ms"),
    "analysis.report_ms": ("analysis.report", "self_ms"),
    "analysis.write_ms": ("analysis.write", "self_ms"),
    "cli.command_ms": ("cli.command", "self_ms"),
}
PER_LAYER_UNITS = {name: ("ms" if name.endswith("_ms") else "count") for name in PER_LAYER}
PER_LAYER_UNITS.update({"bench.wall_ms": "ms", "bench.outside_spans_ms": "ms"})


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="make the inputs, print the monotonic clock and exit (used to time set-up)")
    return parser.parse_args(argv)


def import_program():
    """Import hermflow from the source tree next to the benchmark, and only from there."""
    if not (SRC / "hermflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no hermflow sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hermflow

    if Path(hermflow.__file__).resolve().parent != SRC / "hermflow":
        raise SystemExit(f"error: imported hermflow from {hermflow.__file__}, not from {SRC}")
    return hermflow


def time_setup(args) -> float:
    """Median time from spawning a fresh interpreter to its inputs being ready (raw)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


@dataclass
class Rounds:
    """What the rounds of one run measured and found."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    count: int = 0  # rounds run, the warm-up round included
    # per timed round, i.e. every round after the warm-up:
    walls: list = field(default_factory=list)  # raw seconds, the pacer's time left out
    paces: list = field(default_factory=list)  # the round's pace
    adam_rates: list = field(default_factory=list)  # paced Adam steps per second
    totals: list = field(default_factory=list)  # `Tracer.totals`
    excesses: list = field(default_factory=list)  # every round
    peak_mb: float = 0.0  # after the warm-up round


def main(argv=None) -> int:
    args = parse_args(argv)
    hermflow = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work / "inputs")
        if args.setup_probe:
            print(time.monotonic(), flush=True)
            return 0
        raw_setup_s = time_setup(args)
        fd, href = reference.load_reference()
        tracer = tracing.Tracer()
        tracer.install(hermflow, tracing.TRACED_BINDINGS if args.trace else tracing.TIMED_BINDINGS)
        try:
            rounds = run_rounds(args.seconds, workload, work, tracer, pace.Pacer(), fd, href)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    paced_walls = [w / p for w, p in zip(rounds.walls, rounds.paces)]
    # Set-up is paced by the run's mean pace: the host drifts over minutes, and kernel
    # samples between the set-up spawns, each after a cold start, spread more than the
    # set-up times themselves.
    setup_s = raw_setup_s / statistics.fmean(rounds.paces)
    print(f"{len(rounds.walls)} timed rounds: raw wall_s median {statistics.median(rounds.walls):.4f}, "
          f"pace median {statistics.median(rounds.paces):.4f}, paced wall_s median "
          f"{statistics.median(paced_walls):.4f}; raw setup_s {raw_setup_s:.4f}", file=sys.stderr)
    if args.trace:
        # Per-layer times are raw: the pacer's time is left out of them, but they are not paced.
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = per_layer_metrics(rounds.walls, rounds.totals)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(paced_walls),
            "adam_steps_per_s": statistics.median(rounds.adam_rates),
            "peak_rss_mb": rounds.peak_mb,
            "trace_excess": statistics.median(rounds.excesses) if rounds.excesses else None,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": rounds.correct, "attempted": rounds.attempted, "failed": rounds.failed,
                      "metrics": metrics}))
    return 0


def run_rounds(seconds, workload, work, tracer, pacer, fd, href) -> Rounds:
    """Whole rounds for about `seconds`, and at least two; each is checked.

    The first round warms up: it is checked and counted, and the peak memory is
    read after it, but it is not timed and not paced, so the pacer's samples,
    which fall at no fixed point of the program, cannot move that peak.
    """
    rounds = Rounds()
    first_outputs, reported = None, set()
    began = time.perf_counter()
    while True:
        out = work / f"round{rounds.count}"
        out.mkdir(parents=True)
        warm_up = rounds.count == 0
        tracer.pacer = None if warm_up else pacer
        if not warm_up:
            pacer.begin()
        tracer.round, tracer.active = rounds.count, True
        # The program's warnings (Q > 100, Q < 2N + 10) would repeat on every round.
        with contextlib.redirect_stderr(io.StringIO()):
            spent = pacer.spent
            start = time.perf_counter()
            state = workload.run_round(out)
            wall = time.perf_counter() - start - (pacer.spent - spent)
        tracer.active = False
        rounds.count += 1
        if warm_up:
            rounds.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
        else:
            rounds.walls.append(wall)
            rounds.paces.append(pacer.end())
            rounds.adam_rates.append(tracer.paced_rate("trainer.train", tracer.round, rounds.paces[-1]))
            rounds.totals.append(tracer.totals(tracer.round))

        attempted, failed = workload.tally(out, state)
        rounds.attempted += attempted
        rounds.failed += failed
        for message in state["failures"]:
            if message not in reported:
                reported.add(message)
                print(f"failed operation: {message}", file=sys.stderr, flush=True)
        try:
            rounds.excesses.append(workload.check(out, state, fd, href))
            outputs = [(out / name).read_bytes() for name in workload.result_files]
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                raise checks.CheckFailed("a repeated round did not reproduce its result files byte for byte")
        except Exception as exc:  # noqa: BLE001 - a check that cannot run counts as failed
            rounds.correct = False
            print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr, flush=True)
        shutil.rmtree(out)
        # Stop at the round boundary nearest to `seconds`, so a run lasts about that long.
        if rounds.walls and time.perf_counter() - began + 0.5 * statistics.mean(rounds.walls) >= seconds:
            return rounds


def per_layer_metrics(walls, totals) -> dict:
    rows = []
    for wall, layers in zip(walls, totals):
        row = {name: layers.get(layer, {}).get(field, 0) for name, (layer, field) in PER_LAYER.items()}
        row["bench.wall_ms"] = wall * 1e3
        row["bench.outside_spans_ms"] = wall * 1e3 - sum(v["self_ms"] for v in layers.values())
        rows.append(row)
    return {name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
