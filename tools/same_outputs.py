"""What a change moved in the program's outputs: the same runs in two checkouts, file by file.

    python tools/same_outputs.py PARENT CHANGE [--work DIR] [--repeat K]

PARENT and CHANGE are checkout roots, each with its own `src/`.  Each side runs,
in its own checkout as the working directory, with one BLAS thread and no
bytecode written:

    hermflow sweep --scheme both --N-range 5..29             (Q = 90, the study)
    hermflow analyze sweep/spectra.csv --n-ref 29
    hermflow sweep --scheme hermite --Q 200 --N-range 5..180  (the plain ladder)
    hermflow analyze ladder/spectra.csv --n-ref 180

The outputs go under `--work` (a new temporary directory by default, removed
afterwards), never into either checkout; the two sides run at the same time.
Then every file is compared: byte-identical or not.  A loss-trace CSV
(`trace_*.csv`) is compared on every column but `wall_ms`.  For a spectra CSV
that differs, the report gives max |dE| and the largest relative change
|dE|/|E| per (scheme, N); any other CSV that differs gets the largest absolute
and relative change over its numeric cells.  Standard output is one JSON
object, the report; standard error has one line per file.  The report also
gives each side's summed trace `wall_ms` (the study's Adam steps; the ladder
trains nothing) and each step's wall time on each side, from the command's start
to its exit, named by its output directory (`ladder` is the plain ladder's sweep,
`ladder/analysis` its analyze), each with its change/parent ratio.  The two sides
run at the same time and share the machine, so these timings are evidence, not a
measurement of a gain or a loss; the verdict does not read them.

With `--repeat K` (default 1) RUNS run K times, the first repeat as above and
repeat r under `repeat<r>/` in the work directory; the change side is submitted
first on every odd repeat (the second, the fourth, ...), the parent side on
the others, so that neither side always takes the second slot.  The
report's `repeats` gives the median, least and largest of the K summed-trace
ratios and of each step's ratio.  The verdict compares the first repeat's files.

The exit status is the verdict, as `diff` gives it: 0 when every file is
byte-identical or identical except `wall_ms`, 1 when a file moved or exists on
one side only, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RUNS = (
    ("sweep", "--scheme", "both", "--N-range", "5..29", "--output-dir", "{out}/sweep"),
    ("analyze", "{out}/sweep/spectra.csv", "--n-ref", "29", "--output-dir", "{out}/sweep/analysis"),
    ("sweep", "--scheme", "hermite", "--Q", "200", "--N-range", "5..180", "--output-dir", "{out}/ladder"),
    ("analyze", "{out}/ladder/spectra.csv", "--n-ref", "180", "--output-dir", "{out}/ladder/analysis"),
)
SIDES = ("parent", "change")
IGNORED_COLUMNS = {"wall_ms"}
SAME = {"byte-identical", "identical except wall_ms"}


class RunFailed(RuntimeError):
    """A `hermflow` command of RUNS exited non-zero on one side."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header's columns and the rows of a hermflow CSV, its `#` lines left out."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _change(a: float, b: float) -> tuple[float, float]:
    """|b - a| and |b - a| / |a| (0 when both are equal, NaNs included)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(b - a)
    return d, (d / abs(a) if a else math.inf)


def trace_verdict(parent: Path, change: Path) -> dict:
    """A loss-trace CSV: the same on every column but `wall_ms`, or not."""
    (pc, prows), (cc, crows) = read_csv(parent), read_csv(change)
    keep = [i for i, c in enumerate(pc) if c not in IGNORED_COLUMNS]
    same = pc == cc and len(prows) == len(crows) and all(
        [p[i] for i in keep] == [c[i] for i in keep] for p, c in zip(prows, crows))
    return {"verdict": "identical except wall_ms" if same else "differs"}


def spectra_changes(parent: Path, change: Path) -> dict:
    """Per (scheme, N), max |dE| and max |dE|/|E| over the levels both sides have."""
    levels = []
    for path in (parent, change):
        columns, rows = read_csv(path)
        s, n, i, e = (columns.index(c) for c in ("scheme", "N", "n", "E"))
        levels.append({(r[s], int(r[n]), int(r[i])): float(r[e]) for r in rows})
    if levels[0].keys() != levels[1].keys():
        return {"verdict": "differs", "levels": "the two sides hold different (scheme, N, n) rows"}
    cases: dict[tuple, list] = {}  # (scheme, N) -> [max |dE|, max |dE|/|E|]
    for key, a in levels[0].items():
        worst = cases.setdefault(key[:2], [0.0, 0.0])
        worst[:] = map(max, worst, _change(a, levels[1][key]))
    per_scheme: dict[str, list] = {}
    for (scheme, _), worst in cases.items():
        per_scheme[scheme] = list(map(max, per_scheme.get(scheme, [0.0, 0.0]), worst))
    moved = {f"{s} N={n}": {"max_abs": a, "max_rel": r} for (s, n), (a, r) in sorted(cases.items()) if a or r}
    return {
        "verdict": "differs",
        "moved_cases": f"{len(moved)}/{len(cases)}",
        "per_scheme": {s: {"max_abs": a, "max_rel": r} for s, (a, r) in sorted(per_scheme.items())},
        "per_case": moved,
    }


def csv_changes(parent: Path, change: Path) -> dict:
    """The largest absolute and relative change over the numeric cells of two CSVs of one shape."""
    (pc, prows), (cc, crows) = read_csv(parent), read_csv(change)
    if pc != cc or [len(r) for r in prows] != [len(r) for r in crows]:
        return {"verdict": "differs", "cells": "the two sides differ in shape"}
    worst = [0.0, 0.0]
    for p, c in zip(prows, crows):
        for a, b in zip(p, c):
            x, y = _as_float(a), _as_float(b)
            if x is None or y is None:
                if a != b:
                    return {"verdict": "differs", "cells": f"label {a!r} against {b!r}"}
                continue
            worst = [max(w, v) for w, v in zip(worst, _change(x, y))]
    return {"verdict": "differs", "max_abs": worst[0], "max_rel": worst[1]}


def trace_wall_ms(root: Path) -> float:
    """The `wall_ms` column summed over every loss-trace CSV under root."""
    total = 0.0
    for path in sorted(root.rglob("trace_*.csv")):
        columns, rows = read_csv(path)
        column = columns.index("wall_ms")
        total += sum(float(row[column]) for row in rows)
    return total


def compare(parent: Path, change: Path) -> dict[str, dict]:
    """Per relative file path under either output directory, its verdict and, if it moved, how far."""
    names = sorted({p.relative_to(root).as_posix() for root in (parent, change) for p in root.rglob("*") if p.is_file()})
    report = {}
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            report[name] = {"verdict": f"only in {'parent' if a.is_file() else 'change'}"}
        elif Path(name).name.startswith("trace_") and name.endswith(".csv"):
            report[name] = trace_verdict(a, b)
        elif a.read_bytes() == b.read_bytes():
            report[name] = {"verdict": "byte-identical"}
        elif Path(name).name.startswith("spectr") and name.endswith(".csv"):
            report[name] = spectra_changes(a, b)
        elif name.endswith(".csv"):
            report[name] = csv_changes(a, b)
        else:
            report[name] = {"verdict": "differs"}
    return report


def step_name(step: tuple) -> str:
    """A step of RUNS by its output directory under the side's work directory: `ladder`, `ladder/analysis`, ..."""
    return step[-1].removeprefix("{out}/")


def run_step(checkout: Path, out: Path, step: tuple) -> tuple[int, str, float]:
    """One `hermflow` command of RUNS in `checkout`, writing under `out`: its exit status,
    its standard error and its wall time (s), interpreter start included."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [arg.format(out=out) for arg in step]
    command = [sys.executable, "-c", "import sys; from hermflow.cli import main; sys.exit(main())", *argv]
    tick = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return done.returncode, done.stderr, time.perf_counter() - tick


def run_side_by_side(checkouts: dict[str, Path], work: Path) -> dict[str, dict[str, float]]:
    """RUNS in both checkouts, each command on both sides at once, submitted in the order of
    `checkouts`; any non-zero exit stops.  Returns each side's wall time (s) per step, by `step_name`."""
    walls = {side: {} for side in checkouts}
    with ThreadPoolExecutor(len(checkouts)) as pool:
        for k, step in enumerate(RUNS, start=1):
            runs = {side: pool.submit(run_step, root, work / side, step) for side, root in checkouts.items()}
            results = {side: run.result() for side, run in runs.items()}  # both finish first
            for side, (code, errors, seconds) in results.items():
                if code != 0:
                    raise RunFailed(f"{side}: hermflow {' '.join(step)} exited {code}:\n{errors}")
                walls[side][step_name(step)] = seconds
            print(f"ran step {k} of {len(RUNS)} (hermflow {step[0]}) on both sides", file=sys.stderr, flush=True)
    return walls


def step_walls(walls: dict[str, dict[str, float]]) -> dict[str, dict]:
    """Per step, each side's wall time (s) and the change/parent ratio."""
    return {name: {"parent": seconds, "change": walls["change"][name],
                   "ratio": walls["change"][name] / seconds if seconds else None}
            for name, seconds in walls["parent"].items()}


def run_repeat(checkouts: dict[str, Path], work: Path, first: str) -> dict:
    """RUNS once into `work`, the `first` side submitted first: which side that was, the summed
    trace `wall_ms` per side with change/parent, and each step's wall times (`step_walls`)."""
    order = SIDES if first == "parent" else SIDES[::-1]
    steps = step_walls(run_side_by_side({side: checkouts[side] for side in order}, work))
    walls = {side: trace_wall_ms(work / side) for side in SIDES}
    walls["ratio"] = walls["change"] / walls["parent"] if walls["parent"] else None
    return {"first": first, "trace_wall_ms": walls, "step_wall_s": steps}


def ratio_spread(ratios: list) -> dict:
    """The median, least and largest of ratios, and the ratios; None throughout if one is None."""
    if None in ratios:
        return {"median": None, "min": None, "max": None, "ratios": ratios}
    return {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios), "ratios": ratios}


def repeat_spread(repeats: list[dict]) -> dict:
    """Over the repeats: the side submitted first in each, and the spread of the summed trace
    ratio and of each step's ratio (`ratio_spread`)."""
    return {
        "k": len(repeats),
        "first": [r["first"] for r in repeats],
        "trace_wall_ms_ratio": ratio_spread([r["trace_wall_ms"]["ratio"] for r in repeats]),
        "step_wall_s_ratio": {name: ratio_spread([r["step_wall_s"][name]["ratio"] for r in repeats])
                              for name in repeats[0]["step_wall_s"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--work", type=Path, help="where both sides write (kept); a temporary directory by default")
    parser.add_argument("--repeat", type=int, default=1, help="times to run RUNS, alternating the side started first")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in checkouts.values():
        if not (root / "src" / "hermflow" / "__init__.py").is_file():
            parser.error(f"no hermflow sources under {root}")
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = (args.work or Path(tmp)).resolve()
        try:
            repeats = [run_repeat(checkouts, work / f"repeat{r}" if r else work, SIDES[r % 2])
                       for r in range(args.repeat)]
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = compare(work / "parent", work / "change")
    walls, steps, spread = repeats[0]["trace_wall_ms"], repeats[0]["step_wall_s"], repeat_spread(repeats)
    for name, entry in report.items():
        detail = {k: v for k, v in entry.items() if k not in ("verdict", "per_case")}
        print(f"{name}: {entry['verdict']}{' ' + json.dumps(detail) if detail else ''}", file=sys.stderr)
    verdicts = collections.Counter(entry["verdict"] for entry in report.values())
    print(f"{len(report)} files: " + ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items())), file=sys.stderr)
    print(f"summed trace wall_ms: parent {walls['parent']:.1f}, change {walls['change']:.1f}, "
          f"change/parent {walls['ratio']}", file=sys.stderr)
    for name, step in steps.items():
        print(f"wall s of step {name}: parent {step['parent']:.3f}, change {step['change']:.3f}, "
              f"change/parent {step['ratio']}", file=sys.stderr)
    for name, ratio in [("summed trace wall_ms", spread["trace_wall_ms_ratio"]),
                        *((f"wall s of step {n}", r) for n, r in spread["step_wall_s_ratio"].items())]:
        print(f"{name} over {spread['k']} repeats: change/parent median {ratio['median']}, "
              f"range [{ratio['min']}, {ratio['max']}]", file=sys.stderr)
    print(json.dumps({"parent": str(checkouts["parent"]), "change": str(checkouts["change"]),
                      "trace_wall_ms": walls, "step_wall_s": steps, "repeats": spread, "files": report}, indent=1))
    return 0 if set(verdicts) <= SAME else 1


if __name__ == "__main__":
    raise SystemExit(main())
