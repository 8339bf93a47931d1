"""Reproducible experiment runner.

Subcommands:

* ``solve``   - solve each scheme's case with `solve_case` (train the warp for
  the augmented scheme, assemble, diagonalize), write a spectrum CSV plus the
  warp's checkpoint and loss trace, print a one-line summary.  An unwarped case
  with an even potential (both named ones are) is solved as its two parity blocks.
* ``sweep``   - the same over a range of basis sizes with per-N seeds derived
  from the master seed, aggregating one spectra CSV (an N's rows only once
  every scheme has solved) and a manifest.  Growing the basis from N to N + 1
  adds index N, which grows one parity block only: the other is N's, bit for
  bit.  So a sweep keeps a memo of the plain blocks it has solved, their
  eigenvalues and traces, and solves each block once.  The memo lives for one
  sweep call: nothing is cached across calls, and a warped case never uses it.
* ``analyze`` - turn sweep spectra into band-error, convergence-rate and
  linear-fit CSVs against each scheme's own reference spectrum.

Runs are configured by a flat ``key = value`` text file whose keys are the
fields of `ExperimentConfig`: those of `trainer.TrainingSettings`, with their
types and defaults, plus the run's own.  Each key is also a flag,
``--`` plus the key with ``_`` turned into ``-``, and flags override file
values.  Unknown keys are rejected so typos fail loudly.  Relative output
directories resolve under $HERMFLOW_OUTPUT_ROOT when that is set.

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
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .analysis import (
    BAND_SIZE,
    band_average_errors,
    build_convergence_report,
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

__all__ = ["ExperimentConfig", "ConfigError", "CaseResult", "solve_case",
           "cmd_solve", "cmd_sweep", "cmd_analyze", "main"]

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
    one memo to the cases of one sweep (`cmd_sweep` owns one per call); without one
    the case solves every block.  A warped case neither reads nor writes it.
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


def _write_case(outdir: Path, scheme: str, N: int, seed: int, case: CaseResult) -> list[tuple]:
    """Write an augmented case's trace CSV and checkpoint; return the case's spectra rows."""
    if case.params is not None:
        case.training.write_csv(outdir / f"trace_augmented_N{N}.csv")
        save_checkpoint(case.params, outdir / f"checkpoint_augmented_N{N}.txt", seed=seed)
    return [(scheme, N, n, E) for n, E in enumerate(case.eigenvalues.tolist())]


def cmd_solve(config: ExperimentConfig) -> int:
    config = config.validate()
    if config.N is None:
        raise ConfigError("solve needs N")
    outdir = resolve_output_dir(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for scheme in config.schemes():
        case = solve_case(config, scheme, config.N, config.seed)
        rows = _write_case(outdir, scheme, config.N, config.seed, case)
        write_spectra_csv(outdir / f"spectrum_{scheme}_N{config.N}.csv", rows)
        first = ", ".join(f"{E:.10g}" for E in case.eigenvalues[:5])
        print(f"solve scheme={scheme} N={config.N} Q={config.Q} trace={case.trace:.12g} E[0:5]=[{first}]")
    return 0


def cmd_sweep(config: ExperimentConfig) -> int:
    config = config.validate()
    if config.N_range is None:
        raise ConfigError("sweep needs N_range")
    lo, hi = parse_range(config.N_range, "N_range")
    outdir = resolve_output_dir(config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    completed, failed = [], {}
    memo = {}  # the plain blocks solved so far, for this sweep only
    for N in range(lo, hi + 1):
        seed_n = config.seed + N  # per-N seeds: fixed offset from the master seed
        try:
            rows = []  # an N's rows are kept only once every scheme has succeeded
            for scheme in config.schemes():
                case = solve_case(config, scheme, N, seed_n, memo)
                rows += _write_case(outdir, scheme, N, seed_n, case)
            all_rows.extend(rows)
            completed.append(N)
            print(f"sweep N={N} done")
        except Exception as exc:  # noqa: BLE001 - record and continue the sweep
            failed[str(N)] = f"{type(exc).__name__}: {exc}"
            print(f"sweep N={N} FAILED: {exc}", file=sys.stderr)
    write_spectra_csv(outdir / "spectra.csv", all_rows)
    manifest = {"completed": completed, "failed": failed}
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 1 if failed else 0


def read_spectra_csv(path) -> dict[str, dict[int, np.ndarray]]:
    """Read spectra rows back as {scheme: {N: eigenvalues}}."""
    per_case: dict[tuple[str, int], dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("scheme,"):
                continue
            try:
                scheme, N, n, E = line.split(",")
                N, idx, value = int(N), int(n), float(E)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'scheme,N,n,E' with integer N, n, got {line!r}"
                ) from exc
            case = per_case.setdefault((scheme, N), {})
            if idx in case and case[idx] != value:
                raise ConfigError(f"{path}: conflicting duplicate row for {scheme} N={N} n={n}")
            case[idx] = value
    out: dict[str, dict[int, np.ndarray]] = {}
    for (scheme, N), levels in per_case.items():
        if sorted(levels) != list(range(N)):
            raise ConfigError(f"{path}: incomplete spectrum for {scheme} N={N}")
        out.setdefault(scheme, {})[N] = np.array([levels[i] for i in range(N)])
    return out


def cmd_analyze(spectra_paths, n_ref: int, output_dir: Path) -> int:
    data: dict[str, dict[int, np.ndarray]] = {}
    for path in spectra_paths:
        if not Path(path).exists():
            raise ConfigError(f"missing spectra file: {path}")
        for scheme, by_n in read_spectra_csv(path).items():
            merged = data.setdefault(scheme, {})
            for N, vals in by_n.items():
                if N in merged and not np.array_equal(merged[N], vals):
                    raise ConfigError(f"conflicting spectra for {scheme} N={N} across inputs")
                merged[N] = vals
    if not data:
        raise ConfigError("no spectra rows found in the inputs")
    band_rows, rate_rows, fit_rows = [], [], []
    try:  # every report is built, and checked, before the output directory is made
        for scheme in sorted(data):
            report = build_convergence_report(scheme, data[scheme], n_ref)
            for N in sorted(report.band_errors):
                abs_err = report.band_errors[N]
                rel_err = band_average_errors(
                    data[scheme][N], report.reference[:N], BAND_SIZE, relative=True
                )
                band_rows.extend(
                    (scheme, N, b, abs_err[b], rel_err[b]) for b in range(abs_err.size)
                )
            rate_rows.extend((scheme, N, report.rates[N]) for N in sorted(report.rates))
            if np.isfinite(report.fit[0]):
                fit_rows.append((scheme, report.fit[0], report.fit[1]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    output_dir.mkdir(parents=True, exist_ok=True)
    write_bands_csv(output_dir / "bands.csv", band_rows)
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
        if args.command == "analyze":
            return cmd_analyze(args.spectra, args.n_ref, resolve_output_dir(args.output_dir))
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - computation failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
