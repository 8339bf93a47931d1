"""Alternating benchmark runs of two checkouts, summarized by the pairing rule.

    python tools/bench_pairs.py PARENT CHANGE --workload evaluate [--pairs 10] [--seed 1] [--seconds 32]

PARENT and CHANGE are checkout roots, each with its own `benchmarks/run.py`
and `src/`.  Pair i runs both sides with `--seed SEED+i --trace 0`, one run at
a time, the parent first on even i and the change first on odd i, each run in
its own checkout as the working directory.  This script changes no file of
either checkout.

For each end-to-end metric that the parent's `BENCHMARK.json` declares, the
summary gives each side's median and quartiles, the pairs the change won
(ties count for neither side), the ratio of the medians, and whether a gain
may be claimed: the change wins at least nine tenths of the pairs and its
median beats the parent's by more than the distance between the parent's
quartiles.  It also says whether the change stays within the metric's
`bound`: its median is worse than the parent's by no more than that share of
the parent's median ("worse" in the metric's `better` direction).  And it
gives each side's share of failed operations.

Every paced metric is a raw time divided by the run's pace, so a change that
moves the pace moves them too.  Each run's raw `wall_s` and pace medians and its
raw `setup_s` are read from run.py's standard-error line "raw wall_s median ...,
pace median ..., ...; raw setup_s ...", and the summary gives, for all three,
each side's quartiles and the median of the per-pair ratios change/parent: a
paced `setup_s` that moves with the pace while the raw one holds is the host's
swing, not the code's.  Standard output is one JSON object (the runs and the
summary); standard error has one line per run and per metric, and one each for
the raw wall, the pace and the raw set-up.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
UNPACED = ("raw_wall_s", "pace", "raw_setup_s")
_UNPACED_LINE = re.compile(r"raw wall_s median (\S+), pace median (\S+),.*; raw setup_s (\S+)")


def parse_unpaced(stderr: str) -> dict:
    """{"raw_wall_s", "pace", "raw_setup_s"} from run.py's last "raw wall_s median X, pace median Y,
    ...; raw setup_s Z" line; {} if none."""
    found = _UNPACED_LINE.findall(stderr)
    return dict(zip(UNPACED, map(float, found[-1]))) if found else {}


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """The summary of paired runs: `runs` holds one {"parent": result, "change": result} per
    pair, a result being run.py's JSON line; `better` maps each metric to "lower" or "higher",
    and `bounds` each metric to its bound, a share of the parent's median (`within_bound`)."""
    summary = {}
    for side in SIDES:
        attempted = sum(r[side]["attempted"] for r in runs)
        failed = sum(r[side]["failed"] for r in runs)
        summary[f"{side}_failed_share"] = failed / attempted if attempted else 0.0
        summary[f"{side}_all_correct"] = all(r[side]["correct"] for r in runs)
    metrics = {}
    for name, direction in better.items():
        values = {side: [r[side]["metrics"].get(name, {}).get("value") for r in runs] for side in SIDES}
        if any(v is None for side in SIDES for v in values[side]):
            continue
        sign = 1.0 if direction == "lower" else -1.0  # sign * (parent - change) > 0: the change is better
        gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        wins = sum(g > 0 for g in gains)
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gap = sign * (parent["median"] - change["median"])
        metrics[name] = {
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{len(runs)}",
            "ties": sum(g == 0 for g in gains),
            "change_vs_parent": change["median"] / parent["median"] if parent["median"] else math.nan,
            "gain_claimable": wins >= 0.9 * len(runs) and gap > parent["q3"] - parent["q1"],
        }
        if bounds and name in bounds:  # the change's median is worse by at most bound x the parent's
            metrics[name]["within_bound"] = -gap <= bounds[name] * abs(parent["median"])
    summary["metrics"] = metrics
    summary["unpaced"] = {  # from every run's standard error, when all runs gave it
        key: {**{side: quartiles([r[side][key] for r in runs]) for side in SIDES},
              "change_vs_parent_median_ratio": statistics.median(r["change"][key] / r["parent"][key] for r in runs)}
        for key in UNPACED if all(key in r[side] for r in runs for side in SIDES)
    }
    return summary


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmarks/run.py` run in `checkout`; its last line of standard output, parsed."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return {**json.loads(done.stdout.strip().splitlines()[-1]), **parse_unpaced(done.stderr)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=32.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"] if "bound" in m}
    runs = []
    for i in range(args.pairs):
        pair = {"seed": args.seed + i}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            pair[side] = run_once(checkouts[side], args.workload, args.seed + i, args.seconds)
            values = {k: v["value"] for k, v in pair[side]["metrics"].items()}
            print(f"pair {i} seed {args.seed + i} {side}: {values}", file=sys.stderr, flush=True)
        runs.append(pair)
    summary = summarize(runs, better, bounds)
    for name, m in summary["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.6g} [{m['parent']['q1']:.6g}, {m['parent']['q3']:.6g}], "
              f"change {m['change']['median']:.6g} [{m['change']['q1']:.6g}, {m['change']['q3']:.6g}], "
              f"change wins {m['change_wins']}, gain claimable: {m['gain_claimable']}, "
              f"within bound {bounds.get(name)}: {m.get('within_bound')}", file=sys.stderr)
    for key, m in summary["unpaced"].items():
        print(f"{key}: parent {m['parent']['median']:.6g}, change {m['change']['median']:.6g}, "
              f"median change/parent ratio {m['change_vs_parent_median_ratio']:.4f}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
