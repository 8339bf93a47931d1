"""Reproducible experiment runner.

Subcommands:

* ``solve``   - assemble (and for the augmented scheme, train), diagonalize,
  write a spectrum CSV plus checkpoint, print a one-line summary.
* ``sweep``   - run ``solve`` over a range of basis sizes with per-N seeds
  derived from the master seed, aggregating one spectra CSV and a manifest.
* ``analyze`` - turn sweep spectra into band-error, convergence-rate and
  linear-fit CSVs against each scheme's own reference spectrum.

Runs are configured by a flat ``key = value`` text file whose keys mirror
the training configuration exactly; unknown keys are rejected so typos fail
loudly.  Command-line flags override file values.  Relative output
directories resolve under $HERMFLOW_OUTPUT_ROOT when that is set.

Exit codes: 0 success, 1 computation error, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import (
    band_average_errors,
    build_convergence_report,
    write_bands_csv,
    write_fits_csv,
    write_rates_csv,
    write_spectra_csv,
)
from .eigensolver import eigh
from .flow import save_checkpoint
from .galerkin import assemble_hamiltonian, potential_from_descriptor
from .hermite import BasisSpec
from .quadrature import MAX_ORDER, gauss_hermite_rule
from .trainer import TrainingConfig, train

__all__ = ["ExperimentConfig", "ConfigError", "cmd_solve", "cmd_sweep", "cmd_analyze", "main"]

OUTPUT_ROOT_ENV = "HERMFLOW_OUTPUT_ROOT"

_SCHEMES = ("hermite", "augmented", "both")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    potential: str = "anharmonic"
    scheme: str = "both"
    N: int | None = None
    N_range: str | None = None  # "lo..hi", inclusive
    Q: int = 90
    hidden: int = 128
    blocks: int = 1
    learning_rate: float = 1e-3
    iterations: int | None = None
    seed: int = 0
    lipschitz_margin: float = 0.97
    output_dir: str = "runs"

    def schemes(self) -> tuple[str, ...]:
        return ("hermite", "augmented") if self.scheme == "both" else (self.scheme,)

    def n_values(self) -> list[int]:
        if self.N_range is not None:
            lo, sep, hi = self.N_range.partition("..")
            if not sep:
                raise ConfigError(f"N_range must look like 'lo..hi', got {self.N_range!r}")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise ConfigError(f"N_range bounds must be integers: {self.N_range!r}") from exc
            if lo_i < 1 or hi_i < lo_i:
                raise ConfigError(f"empty or invalid N_range {self.N_range!r}")
            return list(range(lo_i, hi_i + 1))
        if self.N is None:
            raise ConfigError("no basis size: set N (solve) or N_range (sweep)")
        return [self.N]

    def validate(self) -> "ExperimentConfig":
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        try:
            potential_from_descriptor(self.potential)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.N is not None and self.N < 1:
            raise ConfigError(f"N must be >= 1, got {self.N}")
        if not 1 <= self.Q <= MAX_ORDER:
            raise ConfigError(f"Q must lie in [1, {MAX_ORDER}], got {self.Q}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        if self.blocks < 1:
            raise ConfigError(f"blocks must be >= 1, got {self.blocks}")
        if not 0.0 < self.lipschitz_margin < 1.0:
            raise ConfigError(f"lipschitz_margin must lie in (0, 1), got {self.lipschitz_margin}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations is not None and self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")
        return self

    def training_config(self, N: int, seed: int) -> TrainingConfig:
        return TrainingConfig(
            N=N,
            Q=self.Q,
            hidden=self.hidden,
            blocks=self.blocks,
            learning_rate=self.learning_rate,
            iterations=self.iterations,
            seed=seed,
            lipschitz_margin=self.lipschitz_margin,
        )

    def resolve_output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        path = Path(self.output_dir)
        if root and not path.is_absolute():
            path = Path(root) / path
        return path


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_INT_KEYS = {"N", "Q", "hidden", "blocks", "iterations", "seed"}
_FLOAT_KEYS = {"learning_rate", "lipschitz_margin"}


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
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                if key in _INT_KEYS:
                    values[key] = int(val)
                elif key in _FLOAT_KEYS:
                    values[key] = float(val)
                else:
                    values[key] = val
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return ExperimentConfig(**values).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _solve_one(config: ExperimentConfig, scheme: str, N: int, seed: int, outdir: Path):
    """Solve one (scheme, N) case; returns spectra rows and the trace."""
    V = potential_from_descriptor(config.potential)
    rule = gauss_hermite_rule(config.Q)
    params = None
    if scheme == "augmented":
        tc = config.training_config(N, seed)
        params, trace_rec = train(tc, V)
        trace_rec.write_csv(outdir / f"trace_augmented_N{N}.csv")
        save_checkpoint(params, outdir / f"checkpoint_augmented_N{N}.txt", seed=seed)
    H = assemble_hamiltonian(BasisSpec(N), rule, V, params)
    spectrum = eigh(H.entries)
    rows = [(scheme, N, n, E) for n, E in enumerate(spectrum.eigenvalues)]
    return rows, float(np.trace(H.entries))


def cmd_solve(config: ExperimentConfig) -> int:
    config = config.validate()
    if config.N is None:
        raise ConfigError("solve needs N")
    outdir = config.resolve_output_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    for scheme in config.schemes():
        rows, trace = _solve_one(config, scheme, config.N, config.seed, outdir)
        path = outdir / f"spectrum_{scheme}_N{config.N}.csv"
        write_spectra_csv(path, rows)
        first = ", ".join(f"{E:.10g}" for _, _, _, E in rows[:5])
        print(f"solve scheme={scheme} N={config.N} Q={config.Q} trace={trace:.12g} E[0:5]=[{first}]")
    return 0


def cmd_sweep(config: ExperimentConfig) -> int:
    config = config.validate()
    n_values = config.n_values()
    if len(n_values) < 1 or config.N_range is None:
        raise ConfigError("sweep needs N_range")
    outdir = config.resolve_output_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    completed, failed = [], {}
    for N in n_values:
        seed_n = config.seed + N  # per-N seeds: fixed offset from the master seed
        try:
            for scheme in config.schemes():
                rows, _ = _solve_one(config, scheme, N, seed_n, outdir)
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
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("scheme,"):
                continue
            scheme, N, n, E = line.split(",")
            case = per_case.setdefault((scheme, int(N)), {})
            idx = int(n)
            value = float(E)
            if idx in case and case[idx] != value:
                raise ConfigError(f"{path}: conflicting duplicate row for {scheme} N={N} n={n}")
            case[idx] = value
    out: dict[str, dict[int, np.ndarray]] = {}
    for (scheme, N), levels in per_case.items():
        if sorted(levels) != list(range(N)):
            raise ConfigError(f"{path}: incomplete spectrum for {scheme} N={N}")
        out.setdefault(scheme, {})[N] = np.array([levels[i] for i in range(N)])
    return out


def cmd_analyze(
    spectra_paths,
    n_ref: int,
    output_dir: Path,
    band_size: int = 5,
    window: tuple[int, int] = (5, 10),
) -> int:
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
    for scheme, by_n in data.items():
        if n_ref not in by_n:
            raise ConfigError(
                f"mismatched schemes in inputs: scheme {scheme!r} has no N_ref={n_ref} spectrum"
            )
        too_big = max(by_n)
        if too_big > n_ref:
            raise ConfigError(
                f"N_ref={n_ref} must cover every analyzed basis size; {scheme!r} has N={too_big}"
            )
    output_dir.mkdir(parents=True, exist_ok=True)
    band_rows, rate_rows, fit_rows = [], [], []
    for scheme in sorted(data):
        report = build_convergence_report(scheme, data[scheme], n_ref, band_size, window)
        for N in sorted(report.band_errors):
            abs_err = report.band_errors[N]
            rel_err = band_average_errors(
                data[scheme][N], report.reference.values[:N], band_size, relative=True
            )
            band_rows.extend(
                (scheme, N, b, abs_err[b], rel_err[b]) for b in range(abs_err.size)
            )
        rate_rows.extend((scheme, N, report.rates[N]) for N in sorted(report.rates))
        if np.isfinite(report.fit[0]):
            fit_rows.append((scheme, report.fit[0], report.fit[1]))
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
    parser.add_argument("--potential", help="potential descriptor (harmonic | anharmonic)")
    parser.add_argument("--scheme", help="hermite | augmented | both")
    parser.add_argument("--N", type=int, dest="N")
    parser.add_argument("--N-range", dest="N_range", help="inclusive range, e.g. 5..9")
    parser.add_argument("--Q", type=int, dest="Q")
    parser.add_argument("--hidden", type=int)
    parser.add_argument("--blocks", type=int)
    parser.add_argument("--learning-rate", type=float, dest="learning_rate")
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--lipschitz-margin", type=float, dest="lipschitz_margin")
    parser.add_argument("--output-dir", dest="output_dir")


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
    p_an.add_argument("--band-size", type=int, default=5)
    p_an.add_argument("--window", default="5..10", help="state window for e_N, e.g. 5..10")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(load_config(args))
        if args.command == "sweep":
            return cmd_sweep(load_config(args))
        if args.command == "analyze":
            lo, sep, hi = args.window.partition("..")
            try:
                window = (int(lo), int(hi)) if sep else None
            except ValueError:
                window = None
            if window is None:
                raise ConfigError(f"window must look like 'lo..hi', got {args.window!r}")
            root = os.environ.get(OUTPUT_ROOT_ENV)
            outdir = Path(args.output_dir)
            if root and not outdir.is_absolute():
                outdir = Path(root) / outdir
            return cmd_analyze(
                args.spectra,
                n_ref=args.n_ref,
                output_dir=outdir,
                band_size=args.band_size,
                window=window,
            )
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - computation failures map to exit 1
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
