"""Reproducible experiment runner.

Subcommands:

* ``solve``   - solve each scheme's case with `solve_case` (train the warp for
  the augmented scheme, assemble, diagonalize), write a spectrum CSV plus the
  warp's checkpoint and loss trace, print a one-line summary.  An unwarped case
  with an even potential (both named ones are) is solved as its two parity blocks.
* ``sweep``   - the same over a range of basis sizes with per-N seeds derived
  from the master seed, solved N by N by `solve_sweep` (an N stops at its first
  failed scheme) and written by `write_sweep`: one spectra CSV (an N's rows only
  once every scheme has solved) and a manifest.  Growing the basis from N to
  N + 1 adds index N, which grows one parity block only: the other is N's, bit
  for bit.  So each process of a sweep keeps a memo of the plain blocks it has
  solved, their eigenvalues and traces, and solves each block once.  The memo
  lives for one sweep call: nothing is cached across calls, and a warped case
  never uses it.
* ``analyze`` - read spectra CSVs in one pass (`analysis.read_spectra_csv`, whose
  completeness check is O(rows)) and turn them into band-error, convergence-rate
  and linear-fit CSVs against each scheme's own reference spectrum.

Spectra and band rows stream: each is made only while it is written or read.

A sweep of two or more Ns with a warped (augmented) scheme, in a process that
may run on more than one CPU, solves them on two: one child process, a fresh
interpreter with one BLAS thread and its own memo, solves whole Ns while this
process solves the rest.  The Ns are split by Adam steps, and this process
keeps the larger share.  Each N is solved as it would be here, so every output
file is byte-identical to a one-process run (the loss traces' ``wall_ms``
aside); this process writes them all, and re-issues the child's warnings.
``taskset -c 0 hermflow sweep ...`` runs in one process.  `solve` and a plain
sweep start no child.

Runs are configured by a flat ``key = value`` text file whose keys are the
fields of `ExperimentConfig`: those of `trainer.TrainingSettings`, with their
types and defaults, plus the run's own.  Each key is also a flag,
``--`` plus the key with ``_`` turned into ``-``, and flags override file
values.  Unknown keys are rejected so typos fail loudly, and so is a size key
that the subcommand does not read: ``N_range`` for `solve`, ``N`` for `sweep`.
Relative output directories resolve under $HERMFLOW_OUTPUT_ROOT when that is set.

Exit codes: 0 success, 1 computation error, 2 configuration error.  A
configuration error is found before any file is written; the training
settings are checked by `TrainingConfig` alone.  A solve whose N exceeds Q, or
a plain solve past `galerkin.check_plain_size`, is a configuration error.  A
sweep's N range is not checked: such an N fails alone, is recorded under
"failed" in ``manifest.json``, and the sweep exits 1 after writing the sizes
that did complete.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .analysis import (
    BAND_SIZE,
    band_average_errors,
    build_convergence_report,
    read_spectra_csv,
    write_bands_csv,
    write_fits_csv,
    write_rates_csv,
    write_spectra_csv,
)
from .eigensolver import eigh
from .flow import FlowParams, save_checkpoint
from .galerkin import assemble_hamiltonian, check_plain_size, potential_from_descriptor
from .hermite import BasisSpec
from .quadrature import gauss_hermite_rule
from .trainer import TrainingConfig, TrainingSettings, TrainingTrace, train

__all__ = ["ExperimentConfig", "ConfigError", "CaseResult", "solve_case", "solve_sweep", "usable_cpus",
           "write_sweep", "cmd_solve", "cmd_sweep", "cmd_analyze", "main"]

OUTPUT_ROOT_ENV = "HERMFLOW_OUTPUT_ROOT"

_SCHEMES = ("hermite", "augmented", "both")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


def parse_range(text: str, name: str) -> tuple[int, int]:
    """The inclusive integer bounds of 'lo..hi', with 1 <= lo <= hi."""
    lo, sep, hi = text.partition("..")
    try:
        bounds = (int(lo), int(hi)) if sep else None
    except ValueError:
        bounds = None
    if bounds is None or not 1 <= bounds[0] <= bounds[1]:
        raise ConfigError(f"{name} must be 'lo..hi' with 1 <= lo <= hi, got {text!r}")
    return bounds


def resolve_output_dir(path) -> Path:
    """A relative output directory resolves under $HERMFLOW_OUTPUT_ROOT when that is set."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    path = Path(path)
    return Path(root) / path if root and not path.is_absolute() else path


@dataclass(frozen=True)
class ExperimentConfig(TrainingSettings):
    """A run: the training settings but N, then the potential, the schemes, the basis sizes and
    where to write.  Each field is a config-file key and a command-line flag; "help" is its help text."""

    potential: str = field(default="anharmonic", metadata={"help": "potential descriptor (harmonic | anharmonic)"})
    scheme: str = field(default="both", metadata={"help": "hermite | augmented | both"})
    N: int | None = None
    N_range: str | None = field(default=None, metadata={"help": "inclusive range, e.g. 5..9"})
    output_dir: str = "runs"

    def schemes(self) -> tuple[str, ...]:
        return ("hermite", "augmented") if self.scheme == "both" else (self.scheme,)

    def seed_at(self, N: int) -> int:
        """A sweep's seed at basis size N: a fixed offset from the master seed."""
        return self.seed + N

    def validate(self) -> "ExperimentConfig":
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        try:
            V = potential_from_descriptor(self.potential)
            # TrainingConfig checks every training setting, and N (N <= Q) when it is given.
            self.training_config(1 if self.N is None else self.N, self.seed)
            if self.N is not None and "hermite" in self.schemes():
                check_plain_size(self.N, self.Q, V)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def training_config(self, N: int, seed: int) -> TrainingConfig:
        settings = {f.name: getattr(self, f.name) for f in fields(TrainingSettings)}
        return TrainingConfig(**{**settings, "N": N, "seed": seed})


def _key_type(hint):
    """The type a key's text converts to: `int` for `int | None`."""
    return next((t for t in get_args(hint) if t is not type(None)), hint)


_KEY_TYPES = {name: _key_type(hint) for name, hint in get_type_hints(ExperimentConfig).items()}


def parse_config_file(path) -> dict:
    """Parse a flat 'key = value' config document; unknown keys are errors."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, val = key.strip(), val.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                values[key] = _KEY_TYPES[key](val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values = parse_config_file(args.config) if args.config else {}
    values.update((key, flag) for key in _KEY_TYPES if (flag := getattr(args, key)) is not None)
    return ExperimentConfig(**values)  # `cmd_solve` and `cmd_sweep` validate it


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


class CaseResult(NamedTuple):
    """One solved (scheme, N) case; `params` and `training` are None for the hermite scheme."""

    eigenvalues: np.ndarray
    trace: float  # of the projected Hamiltonian
    params: FlowParams | None
    training: TrainingTrace | None


def solve_case(config: ExperimentConfig, scheme: str, N: int, seed: int, memo: dict | None = None) -> CaseResult:
    """Train (augmented scheme only), assemble and diagonalize one case; writes no file.

    `memo` holds each unwarped block's eigenvalues and trace, keyed by Q, the potential
    and the block's indices: a block met again (N + 1 adds index N, so the other parity
    block is N's, bit for bit) is read, not assembled and diagonalized again.  Pass
    one memo to the cases of one sweep (`solve_sweep` makes one per process); without
    one the case solves every block.  A warped case neither reads nor writes it.
    """
    if scheme not in ("hermite", "augmented"):
        raise ValueError(f"solve_case takes scheme 'hermite' or 'augmented', got {scheme!r}")
    V = potential_from_descriptor(config.potential)
    rule = gauss_hermite_rule(config.Q)
    params = training = None
    if scheme == "augmented":
        params, training = train(config.training_config(N, seed), V)
    # unwarped, an even V has H_mn = 0 for m + n odd: the even and the odd block; warped, one block
    specs = [BasisSpec(N, 0), BasisSpec(N, 1)][:N] if params is None and V.is_even else [BasisSpec(N)]
    memo = {} if memo is None or params is not None else memo
    blocks = []
    for spec in specs:
        key = (config.Q, config.potential, range(N)[spec.rows])  # ranges compare by content
        if key not in memo:
            H = assemble_hamiltonian(spec, rule, V, params).entries
            memo[key] = (eigh(H).eigenvalues, float(np.trace(H)))
        blocks.append(memo[key])
    levels = np.sort(np.concatenate([E for E, _ in blocks]))
    return CaseResult(levels, sum(trace for _, trace in blocks), params, training)


def _failure(exc: BaseException) -> str:
    """How a sweep records an N's error: 'Type: message'."""
    return f"{type(exc).__name__}: {exc}"


def usable_cpus() -> int:
    """The CPUs this process may run on; `taskset -c 0` makes it one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _solve_n(config: ExperimentConfig, N: int, memo: dict):
    """Each scheme's `solve_case` at N with N's seed, in `config.schemes()` order, or the
    first error as 'Type: message': the schemes after a failed one are not solved."""
    try:
        return [solve_case(config, scheme, N, config.seed_at(N), memo) for scheme in config.schemes()]
    except Exception as exc:  # noqa: BLE001 - a sweep records an N's failure and goes on
        return _failure(exc)


def solve_sweep(config: ExperimentConfig, Ns) -> list:
    """Solve a sweep N by N by `_solve_n`, with one memo of plain blocks per process; writes no file.

    Returns, in the order of `Ns`, either each scheme's `CaseResult` in `config.schemes()`
    order or the N's first error as 'Type: message'.  With two or more Ns, a warped scheme
    and two or more usable CPUs, one child process (see `_start_child`) solves part of the
    Ns while this process solves the rest: the Ns are split in two by Adam steps, longest
    first (Graham's rule), and the child takes the smaller share.  Results, warps and loss
    traces come back bit for bit, and the child's warnings are re-issued here; a child that
    dies fails its Ns.
    """
    Ns = list(Ns)
    two = len(Ns) > 1 and "augmented" in config.schemes() and usable_cpus() > 1
    share = _child_share(config, Ns) if two else []
    child = _start_child(config, share) if share else None
    memo, results = {}, {}
    try:
        for N in Ns:
            if N not in share:
                results[N] = _solve_n(config, N, memo)
        if child is not None:
            results.update(zip(share, _child_results(child, len(share))))
    finally:
        if child is not None:  # this process's own work may have raised: no child outlives the call
            child.kill()  # a no-op once it has been waited for
            child.wait()
            child.stdout.close()
    return [results[N] for N in Ns]


def _child_share(config: ExperimentConfig, Ns: list) -> list:
    """The Ns a child solves, in the order of Ns: their Adam steps dealt longest first to
    the lighter of two shares (ties to the first), and the lighter share taken."""
    shares, loads = ([], []), [0, 0]
    for N in sorted(Ns, key=config.steps_at, reverse=True):  # a stable sort: equal Ns keep their order
        k = int(loads[1] < loads[0])
        shares[k].append(N)
        loads[k] += config.steps_at(N)
    return [N for N in Ns if N in shares[int(loads[1] <= loads[0])]]


# A child's program: `_child_main` on the pickled config and Ns it reads from stdin.
_CHILD_SCRIPT = "from hermflow.cli import _child_main; _child_main()"


def _start_child(config: ExperimentConfig, Ns: list):
    """A fresh interpreter that imports this `hermflow`, with one BLAS thread, solving `Ns`
    (`_child_main`); its stdout is a pipe to this process, its stderr this process's."""
    import subprocess  # here: a run that starts no child does not load it

    source = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = subprocess.Popen([sys.executable, "-c", _CHILD_SCRIPT], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, env=env)
    try:
        with child.stdin:
            child.stdin.write(pickle.dumps((vars(config), Ns)))
    except BrokenPipeError:  # it died before reading them: `_child_results` fails its Ns
        pass
    return child


def _child_main():
    """A child's program: solve the Ns pickled on stdin (with the config's fields) by
    `_solve_n`, with one memo, and pickle to stdout, per N, its error or its cases as tuples,
    and the warnings it raised.  Classes of this module do not cross the pipe: a parent run
    as ``python -m hermflow.cli`` knows them by another module name."""
    values, Ns = pickle.load(sys.stdin.buffer)
    config = ExperimentConfig(**values)
    pipe, sys.stdout = sys.stdout.buffer, sys.stderr  # only the results go down the pipe
    memo, outcomes = {}, []
    for N in Ns:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # each one goes back; the parent's filters decide
            solved = _solve_n(config, N, memo)
        solved = solved if isinstance(solved, str) else [tuple(case) for case in solved]
        outcomes.append((solved, [(w.category, str(w.message)) for w in caught]))
    pickle.dump(outcomes, pipe)


def _child_results(child, n: int) -> list:
    """The child's n Ns as `solve_sweep` returns them, each warning re-issued; all n fail
    if the child exits non-zero."""
    data = child.stdout.read()
    if status := child.wait():
        return [f"ChildProcessError: the sweep's child process exited with status {status}"] * n
    results = []
    for solved, caught in pickle.loads(data):
        solved = solved if isinstance(solved, str) else [CaseResult(*case) for case in solved]
        try:
            for category, message in caught:
                warnings.warn(message, category)
        except Warning as exc:  # a filter made it an error: the N fails, as it would have here
            solved = _failure(exc)
        results.append(solved)
    return results


def _write_case(outdir: Path, N: int, seed: int, case: CaseResult) -> None:
    """Write an augmented case's trace CSV and checkpoint."""
    if case.params is not None:
        case.training.write_csv(outdir / f"trace_augmented_N{N}.csv")
        save_checkpoint(case.params, outdir / f"checkpoint_augmented_N{N}.txt", seed=seed)


def _spectra_rows(cases):
    """The spectra rows (scheme, N, n, E) of (scheme, N, levels) triples, made one case at a time."""
    return ((scheme, N, n, E) for scheme, N, levels in cases for n, E in enumerate(levels.tolist()))


def write_sweep(outdir: Path, config: ExperimentConfig, Ns, results: list) -> int:
    """Write a sweep from its Ns and `solve_sweep`'s results, N by N in the order of Ns.

    An N whose every scheme solved gets its cases' files and rows and a 'done' line; a
    failed N gets its error under "failed" in ``manifest.json``, no file and no row.  Then
    ``spectra.csv`` and the manifest are written.  The rows stream: only each written case's
    level array is kept, and a row exists only while it is written.  Returns the exit
    status: 1 if an N failed, else 0.
    """
    written, completed, failed = [], [], {}  # written: (scheme, N, levels) per case
    for N, solved in zip(Ns, results):
        error = solved if isinstance(solved, str) else None
        try:
            for case in solved if not error else []:
                _write_case(outdir, N, config.seed_at(N), case)
        except Exception as exc:  # noqa: BLE001 - record and continue the sweep
            error = _failure(exc)
        if error:
            failed[str(N)] = error
            print(f"sweep N={N} FAILED: {error.partition(': ')[2]}", file=sys.stderr)
        else:
            written.extend((scheme, N, case.eigenvalues) for scheme, case in zip(config.schemes(), solved))
            completed.append(N)
            print(f"sweep N={N} done")
    write_spectra_csv(outdir / "spectra.csv", _spectra_rows(written))
    manifest = {"completed": completed, "failed": failed}
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


def cmd_solve(config: ExperimentConfig) -> int:
    if config.N_range is not None:
        raise ConfigError("solve does not take N_range (sweep's range); give N")
    config = config.validate()
    if config.N is None:
        raise ConfigError("solve needs N")
    outdir = resolve_output_dir(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for scheme in config.schemes():
        case = solve_case(config, scheme, config.N, config.seed)
        _write_case(outdir, config.N, config.seed, case)
        write_spectra_csv(outdir / f"spectrum_{scheme}_N{config.N}.csv",
                          _spectra_rows([(scheme, config.N, case.eigenvalues)]))
        first = ", ".join(f"{E:.10g}" for E in case.eigenvalues[:5])
        print(f"solve scheme={scheme} N={config.N} Q={config.Q} trace={case.trace:.12g} E[0:5]=[{first}]")
    return 0


def cmd_sweep(config: ExperimentConfig) -> int:
    if config.N is not None:
        raise ConfigError("sweep does not take N (solve's basis size); give N_range")
    config = config.validate()
    if config.N_range is None:
        raise ConfigError("sweep needs N_range")
    lo, hi = parse_range(config.N_range, "N_range")
    outdir = resolve_output_dir(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    Ns = range(lo, hi + 1)
    return write_sweep(outdir, config, Ns, solve_sweep(config, Ns))


def cmd_analyze(spectra_paths, n_ref: int, output_dir: Path) -> int:
    """Read the spectra, build and check every scheme's report, then make `output_dir` and write the
    bands, rates and fits CSVs.  Each case's band errors are kept as two arrays, and the rows of
    ``bands.csv`` stream from them as they are written."""
    for path in spectra_paths:
        if not Path(path).exists():
            raise ConfigError(f"missing spectra file: {path}")
    bands, rate_rows, fit_rows = [], [], []  # bands: (scheme, N, abs errors, rel errors) per case
    try:  # the inputs are read, and every report built and checked, before the output directory is made
        data = read_spectra_csv(*spectra_paths)
        if not data:
            raise ValueError("no spectra rows found in the inputs")
        for scheme in sorted(data):
            report = build_convergence_report(scheme, data[scheme], n_ref)
            for N in sorted(report.band_errors):
                rel_err = band_average_errors(data[scheme][N], report.reference[:N], BAND_SIZE, relative=True)
                bands.append((scheme, N, report.band_errors[N], rel_err))
            rate_rows.extend((scheme, N, report.rates[N]) for N in sorted(report.rates))
            if np.isfinite(report.fit[0]):
                fit_rows.append((scheme, report.fit[0], report.fit[1]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output_dir.mkdir(parents=True, exist_ok=True)
    write_bands_csv(output_dir / "bands.csv", ((scheme, N, b, a, r) for scheme, N, abs_err, rel_err in bands
                                               for b, (a, r) in enumerate(zip(abs_err.tolist(), rel_err.tolist()))))
    write_rates_csv(output_dir / "rates.csv", rate_rows)
    write_fits_csv(output_dir / "fits.csv", fit_rows)
    print(f"analyze wrote bands/rates/fits under {output_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key = value config file")
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(flag, dest=f.name, type=_KEY_TYPES[f.name], help=f.metadata.get("help"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hermflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "sweep"):
        p = sub.add_parser(name)
        _add_config_flags(p)
    p_an = sub.add_parser("analyze")
    p_an.add_argument("spectra", nargs="+", help="spectra CSVs from sweep/solve")
    p_an.add_argument("--n-ref", type=int, required=True)
    p_an.add_argument("--output-dir", dest="output_dir", default="analysis")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(load_config(args))
        if args.command == "sweep":
            return cmd_sweep(load_config(args))
        return cmd_analyze(args.spectra, args.n_ref, resolve_output_dir(args.output_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - computation failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
