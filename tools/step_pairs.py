"""Paired timing of one warmed training step in two hermflow source trees.

    python tools/step_pairs.py PARENT_SRC CHANGE_SRC [--pairs 40] [--steps 100]

PARENT_SRC and CHANGE_SRC are `src` directories (they may be the same one).
Both trees are loaded into one process as separately named packages, and each
side trains its own warp at N = 5, Q = 90 and one block: a step is
`trainer.gradient` plus `trainer.adam_step`.  After a warm-up batch per side,
the two sides run batches of `--steps` steps in turn, the first side
alternating from pair to pair, at hidden 1, 32 and 128.  The host's speed
drifts from minute to minute, so the paired ratio (change over parent, per
step) is the figure to read, not either side's time alone.

One BLAS thread is set before numpy loads.  Standard output is one JSON object:
per hidden width, each side's median microseconds per step, the median paired
ratio and the pairs the change won.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

WIDTHS = (1, 32, 128)
N, Q = 5, 90


def load_tree(src: Path, name: str):
    """The hermflow package under `src`, imported as the top-level package `name`."""
    init = src / "hermflow" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no hermflow package under {src}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One tree's training at one width: a loss, a warp and an Adam state, stepped in batches."""

    def __init__(self, package, hidden: int):
        self.trainer = package.trainer
        rule = package.gauss_hermite_rule(Q)
        self.loss = self.trainer.make_trace_loss(N, rule, package.anharmonic_potential())
        alpha = 1.05 * float(np.abs(rule.nodes).max())
        self.params = package.init_flow_params(hidden=hidden, alpha=alpha, seed=N)
        self.state = self.trainer.AdamState.init(self.params.n_parameters)

    def batch(self, steps: int) -> float:
        """Microseconds per step over `steps` steps."""
        gradient, adam_step = self.trainer.gradient, self.trainer.adam_step
        loss, params, state = self.loss, self.params, self.state
        tick = time.perf_counter()
        for _ in range(steps):
            _, grad = gradient(loss, params)
            state, params = adam_step(state, grad, params, 1e-3)
        elapsed = time.perf_counter() - tick
        self.params, self.state = params, state
        return elapsed / steps * 1e6


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3}


def run(parent_src: Path, change_src: Path, pairs: int, steps: int) -> dict:
    packages = (load_tree(parent_src, "hermflow_parent"), load_tree(change_src, "hermflow_change"))
    result = {"N": N, "Q": Q, "blocks": 1, "pairs": pairs, "steps_per_batch": steps, "widths": {}}
    for hidden in WIDTHS:
        sides = [Side(package, hidden) for package in packages]
        for side in sides:
            side.batch(steps)  # warm-up, not timed
        times = ([], [])
        for i in range(pairs):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[k].append(sides[k].batch(steps))
        ratios = [c / p for p, c in zip(*times)]
        result["widths"][str(hidden)] = {
            "parent_us": quartiles(times[0]),
            "change_us": quartiles(times[1]),
            "median_ratio": statistics.median(ratios),
            "pairs_won": f"{sum(r < 1.0 for r in ratios)}/{pairs}",
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--pairs", type=int, default=40)
    parser.add_argument("--steps", type=int, default=100)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.steps < 1:
        parser.error("--pairs and --steps must be positive")
    print(json.dumps(run(args.parent_src.resolve(), args.change_src.resolve(), args.pairs, args.steps), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
