"""The benchmark's three workloads.

A workload makes its inputs from the seed when it is built (set-up), then
runs whole rounds of the same operations.  `run_round` is the timed part,
file output included; `tally` counts the round's operations and failures,
and `check` compares its outputs with the references and returns its
`trace_excess`, both outside the timed part.

The program is driven as a user drives it: `hermflow.cli.main` with a config
file, plus the library calls a user makes on the results (load a checkpoint,
re-assemble, diagonalize, evaluate the warped basis).  Every call goes
through a module attribute at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks
import hermflow
from hermflow import cli, flow

PINNED = {"Q": 90, "hidden": 128, "blocks": 1, "learning_rate": 1e-3, "lipschitz_margin": 0.97}


def write_config(path: Path, **values):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8")


def run_cli(argv) -> tuple[int, str]:
    """Run one `hermflow` command in this process; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def attempt(failures: list, label: str, fn, *args):
    """Call fn; a raised exception is recorded as a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the round
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


def cli_failed(failures: list, label: str, code: int, stderr: str):
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or ["(no message)"]
        failures.append(f"{label}: exit {code}: {last[0]}")


def read_manifest(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def excess(levels, reference) -> float:
    """trace(H) - sum of the reference levels below N (the variational excess)."""
    return float(np.sum(levels) - np.sum(reference[: len(levels)]))


class SweepSmall:
    """`hermflow sweep --scheme both --N-range 5..9`, then `hermflow analyze`."""

    N_VALUES = list(range(5, 10))

    def __init__(self, seed: int, inputs: Path):
        self.config = inputs / "sweep_small.cfg"
        write_config(self.config, potential="anharmonic", scheme="both", N_range="5..9",
                     iterations=500, seed=seed, **PINNED)

    def run_round(self, out: Path) -> dict:
        failures = []
        cli_failed(failures, "sweep", *run_cli(["sweep", "--config", self.config, "--output-dir", out]))
        cli_failed(failures, "analyze", *run_cli(
            ["analyze", out / "spectra.csv", "--n-ref", 9, "--output-dir", out / "analysis"]))
        return {"failures": failures}

    def tally(self, out: Path, state: dict) -> tuple[int, int]:
        manifest = read_manifest(out / "manifest.json")
        return len(self.N_VALUES) + 1, len(manifest["failed"]) + sum(
            f.startswith("analyze") for f in state["failures"])

    def check(self, out: Path, state: dict, fd, href) -> float:
        checks.manifest_complete(read_manifest(out / "manifest.json"), self.N_VALUES)
        spectra = cli.read_spectra_csv(out / "spectra.csv")
        for scheme, by_n in spectra.items():
            for N, levels in by_n.items():
                checks.floor(f"{scheme} N={N} vs finite differences", levels, fd)
                checks.floor(f"{scheme} N={N} vs N=160", levels, href)
        checks.trained_below_plain(spectra["augmented"], spectra["hermite"])
        checks.interlacing(spectra["hermite"])
        for name in ("bands.csv", "rates.csv", "fits.csv"):
            if not (out / "analysis" / name).is_file():
                raise checks.CheckFailed(f"analyze wrote no {name}")
        return sum(excess(spectra["augmented"][N], href) for N in self.N_VALUES)

    result_files = ("spectra.csv", "manifest.json")


class SolveN29:
    """`hermflow solve --scheme augmented --N 29` (2,000 Adam steps), then reload the
    checkpoint and re-assemble and diagonalize it on Q' = 90, 110 and 120."""

    N = 29
    Q_PRIME = (90, 110, 120)

    def __init__(self, seed: int, inputs: Path):
        self.config = inputs / "solve_n29.cfg"
        write_config(self.config, potential="anharmonic", scheme="augmented", N=self.N,
                     iterations=2000, seed=seed, **PINNED)
        self.potential = hermflow.anharmonic_potential()

    def _reassemble(self, params, Q):
        rule = hermflow.gauss_hermite_rule(Q)
        H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(self.N), rule, self.potential, params)
        return hermflow.eigh(H.entries).eigenvalues

    def run_round(self, out: Path) -> dict:
        failures = []
        cli_failed(failures, "solve", *run_cli(["solve", "--config", self.config, "--output-dir", out]))
        loaded = attempt(failures, "load_checkpoint", hermflow.load_checkpoint,
                         out / f"checkpoint_augmented_N{self.N}.txt")
        spectra = {}
        if loaded is not None:
            for Q in self.Q_PRIME:
                levels = attempt(failures, f"re-assembly at Q'={Q}", self._reassemble, loaded[0], Q)
                if levels is not None:
                    spectra[Q] = levels
        return {"failures": failures, "spectra": spectra}

    def tally(self, out: Path, state: dict) -> tuple[int, int]:
        return 2 + len(self.Q_PRIME), len(state["failures"])

    def check(self, out: Path, state: dict, fd, href) -> float:
        levels = cli.read_spectra_csv(out / f"spectrum_augmented_N{self.N}.csv")["augmented"][self.N]
        spectra = state["spectra"]
        if 90 not in spectra:
            raise checks.CheckFailed("the reloaded checkpoint was not re-assembled at Q'=90")
        checks.bitwise("reloaded checkpoint at Q'=90 vs the solve spectrum", spectra[90], levels)
        for Q in self.Q_PRIME[1:]:
            if Q in spectra:
                checks.agree(f"Q'={Q} vs Q'=90", spectra[Q], spectra[90], checks.REFINE_TOL)
        checks.floor(f"augmented N={self.N} vs N=160", levels, href)
        checks.floor(f"augmented N={self.N} vs finite differences", levels, fd)
        return excess(levels, href)

    result_files = ("spectrum_augmented_N29.csv", "checkpoint_augmented_N29.txt")


class Evaluate:
    """No warp training: a plain-Hermite ladder, random warps and warped eigenfunctions.

    One 200-step training at N=5 rides along, because every workload reports
    `adam_steps_per_s` and `trace_excess`; its warp is evaluated with the rest.
    """

    LADDER = (5, 180)
    LADDER_Q = 200
    HARMONIC_N = 40
    PROBE_N, PROBE_STEPS = 5, 200
    WARPS = 6
    WARP_ALPHA = 15.6  # 1.05 x the outermost node of the Q=120 rule (14.777)
    WARP_SIZES = ((5, 90), (12, 90), (29, 90), (29, 120))
    GRID = 2001

    def __init__(self, seed: int, inputs: Path):
        lo, hi = self.LADDER
        self.ladder = inputs / "ladder.cfg"
        write_config(self.ladder, potential="anharmonic", scheme="hermite", N_range=f"{lo}..{hi}",
                     Q=self.LADDER_Q, seed=seed)
        self.harmonic = inputs / "harmonic.cfg"
        write_config(self.harmonic, potential="harmonic", scheme="hermite", N=self.HARMONIC_N, Q=90)
        self.probe = inputs / "probe.cfg"
        write_config(self.probe, potential="anharmonic", scheme="augmented", N=self.PROBE_N,
                     iterations=self.PROBE_STEPS, seed=seed, **PINNED)
        rng = np.random.default_rng(seed)
        self.warps = [self.random_warp(rng) for _ in range(self.WARPS)]
        self.potential = hermflow.anharmonic_potential()

    @classmethod
    def random_warp(cls, rng) -> "flow.FlowParams":
        """One residual block with random weights, passed through the flow's own
        re-projection.  Its Lipschitz constant is drawn from U(0.2, 0.8) and its output
        bias nearly cancels k(0), so the warp, like a trained one, moves the origin by
        little; a large k(0) pushes the Hermite functions against an interval end, where
        the uniform grid no longer resolves them."""
        hidden = PINNED["hidden"]
        w_in = rng.standard_normal((hidden, 1))
        w_out = rng.standard_normal((1, hidden))
        w_in = 0.9 * w_in / np.linalg.norm(w_in)
        w_out = (rng.uniform(0.2, 0.8) / 0.9) * w_out / np.linalg.norm(w_out)
        b_in = rng.uniform(-3.0, 3.0, hidden)
        b_out = float(rng.normal(0.0, 0.1) - (w_out @ flow.lipswish(b_in))[0])
        margin = PINNED["lipschitz_margin"]
        block = flow.normalize_block(flow.ResidualBlock(w_in, b_in, w_out, b_out), margin)
        return flow.FlowParams([block], cls.WARP_ALPHA, float(rng.uniform(-0.1, 0.1)), margin)

    @classmethod
    def grid(cls, params):
        """Uniform grid strictly inside the warp's interval, and its spacing."""
        lo, hi = params.beta - params.alpha, params.beta + params.alpha
        return np.linspace(lo, hi, cls.GRID + 2)[1:-1], (hi - lo) / (cls.GRID + 1)

    def _solve(self, params, N, Q):
        rule = hermflow.gauss_hermite_rule(Q)
        H = hermflow.assemble_hamiltonian(hermflow.BasisSpec(N), rule, self.potential, params)
        return hermflow.eigh(H.entries)

    def _eigenfunctions(self, params, spectrum):
        basis = hermflow.evaluate_augmented_basis(params, spectrum.eigenvalues.size - 1, self.grid(params)[0])
        return spectrum.eigenvectors.T @ basis

    def run_round(self, out: Path) -> dict:
        failures = []
        ladder = out / "ladder"
        cli_failed(failures, "ladder sweep", *run_cli(["sweep", "--config", self.ladder, "--output-dir", ladder]))
        cli_failed(failures, "ladder analyze", *run_cli(
            ["analyze", ladder / "spectra.csv", "--n-ref", self.LADDER[1], "--output-dir", ladder / "analysis"]))
        cli_failed(failures, "harmonic solve", *run_cli(
            ["solve", "--config", self.harmonic, "--output-dir", out / "harmonic"]))
        cli_failed(failures, "probe solve", *run_cli(["solve", "--config", self.probe, "--output-dir", out / "probe"]))
        loaded = attempt(failures, "load probe checkpoint", hermflow.load_checkpoint,
                         out / "probe" / f"checkpoint_augmented_N{self.PROBE_N}.txt")
        cases = [(w, self.WARP_SIZES) for w in self.warps]
        if loaded is not None:
            cases.append((loaded[0], ((self.PROBE_N, 90),)))
        evaluated = []
        for params, sizes in cases:
            spectra = [attempt(failures, f"warp solve N={N} Q={Q}", self._solve, params, N, Q) for N, Q in sizes]
            if spectra[-1] is not None:
                psi = attempt(failures, "warped eigenfunctions", self._eigenfunctions, params, spectra[-1])
                evaluated.append((params, psi))
        return {"failures": failures, "evaluated": evaluated}

    def tally(self, out: Path, state: dict) -> tuple[int, int]:
        lo, hi = self.LADDER
        # ladder Ns; analyze, harmonic solve, probe solve, probe reload;
        # each warp's solves and eigenfunctions; the probe warp's solve and eigenfunctions
        attempted = (hi - lo + 1) + 4 + self.WARPS * (len(self.WARP_SIZES) + 1) + 2
        manifest = read_manifest(out / "ladder" / "manifest.json")
        return attempted, len(manifest["failed"]) + sum(
            not f.startswith("ladder sweep") for f in state["failures"])

    def check(self, out: Path, state: dict, fd, href) -> float:
        lo, hi = self.LADDER
        checks.manifest_complete(read_manifest(out / "ladder" / "manifest.json"), range(lo, hi + 1))
        ladder = cli.read_spectra_csv(out / "ladder" / "spectra.csv")["hermite"]
        n = len(href)
        checks.agree(f"ladder N=160 vs N=180, states 0-{n - 1}", ladder[160][:n], ladder[180][:n],
                     checks.CONVERGED_TOL)
        checks.agree("ladder N=160 vs the stored N=160 reference", ladder[160][:n], href, checks.CONVERGED_TOL)
        checks.agree("ladder N=160 vs finite differences", ladder[160][: len(fd)], fd, checks.FD_TOL)
        for N, levels in ladder.items():
            checks.floor(f"ladder N={N} vs finite differences", levels, fd)
        harmonic = cli.read_spectra_csv(out / "harmonic" / f"spectrum_hermite_N{self.HARMONIC_N}.csv")
        checks.harmonic_levels(harmonic["hermite"][self.HARMONIC_N])
        probe = cli.read_spectra_csv(out / "probe" / f"spectrum_augmented_N{self.PROBE_N}.csv")
        probe_levels = probe["augmented"][self.PROBE_N]
        checks.floor(f"probe N={self.PROBE_N} vs finite differences", probe_levels, fd)
        if len(state["evaluated"]) != self.WARPS + 1:
            raise checks.CheckFailed(f"{len(state['evaluated'])} of {self.WARPS + 1} warps were evaluated")
        for i, (params, psi) in enumerate(state["evaluated"]):
            y, spacing = self.grid(params)
            back = hermflow.flow_forward(params, hermflow.flow_inverse(params, y))
            checks.roundtrip(f"warp {i}", y, back)
            checks.orthonormal(f"warp {i} eigenfunctions", psi, spacing)
        return excess(probe_levels, href)

    result_files = ("ladder/spectra.csv", "ladder/manifest.json", "probe/spectrum_augmented_N5.csv")


WORKLOADS = {"sweep_small": SweepSmall, "solve_n29": SolveN29, "evaluate": Evaluate}
