import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hermflow import (
    BasisSpec,
    TrainingConfig,
    TrainingTrace,
    anharmonic_potential,
    assemble_hamiltonian,
    band_average_errors,
    eigh,
    gauss_hermite_rule,
    harmonic_potential,
    train,
)
from hermflow.analysis import (
    build_convergence_report,
    linear_fit,
    q_sequence,
    read_spectra_csv,
    window_sum,
    write_bands_csv,
    write_fits_csv,
    write_rates_csv,
    write_spectra_csv,
)


class TestBandAverageErrors:
    def test_absolute_and_relative(self):
        vals = np.array([1.1, 2.2, 4.0])
        ref = np.array([1.0, 2.0, 4.0])
        np.testing.assert_allclose(band_average_errors(vals, ref, 3), [0.1])
        np.testing.assert_allclose(
            band_average_errors(vals, ref, 3, relative=True), [(0.1 + 0.1 + 0.0) / 3]
        )

    def test_reference_too_short_rejected(self):
        with pytest.raises(ValueError):
            band_average_errors(np.arange(5.0), np.arange(3.0), 5)

    @pytest.mark.parametrize("band_size", [0, -1])
    def test_band_size_must_be_positive(self, band_size):
        levels = np.arange(12) + 0.5
        with pytest.raises(ValueError, match="band_size"):
            band_average_errors(levels, levels, band_size)


class TestWindowSum:
    def test_inclusive_window(self):
        assert window_sum(np.arange(12.0), (5, 10)) == sum(range(5, 11))

    def test_short_spectrum_is_undefined(self):
        assert window_sum(np.arange(10.0), (5, 10)) is None

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            window_sum(np.arange(12.0), (7, 3))


class TestQSequence:
    def test_geometric_sequence_gives_ratio(self):
        r = 0.37
        xs = {N: 2.0 + r**N for N in range(3, 12)}
        rates = q_sequence(xs, 2.0, 0.0)
        for e in rates.values():
            assert e == pytest.approx(r, rel=1e-9)

    def test_exact_limit_is_undefined_not_zero(self):
        xs = {N: 5.0 for N in range(3, 8)}
        rates = q_sequence(xs, 5.0, 0.0)
        assert rates and all(math.isnan(e) for e in rates.values())

    def test_none_entries_skipped(self):
        xs = {3: None, 4: 1.5, 5: 1.25}
        rates = q_sequence(xs, 1.0, 0.0)
        assert set(rates) == {5}
        assert rates[5] == pytest.approx(0.5)

    def test_requires_consecutive_predecessor(self):
        rates = q_sequence({3: 1.5, 5: 1.1}, 1.0, 0.0)
        assert rates == {}

    def test_errors_at_or_below_the_floor_are_undefined(self):
        rates = q_sequence({3: 1.5, 4: 1.25, 5: 1.0 + 2.0**-10, 6: 1.0 + 2.0**-12}, 1.0, 2.0**-10)
        assert rates[4] == 0.5
        assert math.isnan(rates[5]) and math.isnan(rates[6])


class TestLinearFit:
    def test_exact_line(self):
        pts = [(x, 2.0 * x + 1.0) for x in (0.0, 1.0, 2.0, 5.0)]
        slope, intercept = linear_fit(pts)
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert intercept == pytest.approx(1.0, abs=1e-12)

    def test_two_points_interpolate(self):
        slope, intercept = linear_fit([(0.0, 3.0), (2.0, 7.0)])
        assert slope == pytest.approx(2.0) and intercept == pytest.approx(3.0)

    def test_symmetric_noise_stays_close(self):
        rng = np.random.default_rng(3)
        xs = np.linspace(0, 10, 200)
        noise = rng.uniform(-0.05, 0.05, size=xs.size)
        slope, intercept = linear_fit(zip(xs, 2.0 * xs + 1.0 + noise))
        # OLS slope noise bound: spread/sqrt(sum (x - xbar)^2)
        sigma = 0.05 / np.sqrt(3) / np.sqrt(((xs - xs.mean()) ** 2).sum())
        assert abs(slope - 2.0) < 5 * sigma

    def test_nan_points_excluded(self):
        slope, _ = linear_fit([(0.0, 1.0), (1.0, math.nan), (2.0, 5.0)])
        assert slope == pytest.approx(2.0)

    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([(0.0, 1.0), (1.0, math.nan)])


def converged_levels(V, N, Q, params=None):
    """Eigenvalues of the basis-size-N projection on the order-Q rule, as a sweep computes them."""
    return eigh(assemble_hamiltonian(BasisSpec(N), gauss_hermite_rule(Q), V, params).entries).eigenvalues


class TestConvergedLevels:
    def test_harmonic_both_schemes(self):
        cfg = TrainingConfig(N=6, Q=40, hidden=16, iterations=50, seed=3)
        for params in (None, train(cfg, harmonic_potential())[0]):
            levels = converged_levels(harmonic_potential(), 6, 40, params)
            np.testing.assert_allclose(levels, np.arange(6) + 0.5, atol=1e-8)

    def test_hermite_self_convergence_profile(self):
        # low levels converge first: at N_ref = 29 vs 45 the bottom four
        # eigenvalues agree to 1e-6 while level 9 still moves by ~6e-3
        e29 = converged_levels(anharmonic_potential(), 29, 90)
        e45 = converged_levels(anharmonic_potential(), 45, 130)
        diff = np.abs(e29[:10] - e45[:10])
        assert diff[:4].max() < 1e-6
        assert diff.max() < 5e-2


class TestConvergenceReport:
    def test_geometric_sweep(self):
        # synthetic spectra converging geometrically to n + 1/2
        r = 0.5
        spectra = {N: np.arange(12) + 0.5 + r**N for N in range(8, 15)}
        report = build_convergence_report("hermite", spectra, n_ref=14)
        assert report.scheme == "hermite"
        np.testing.assert_array_equal(report.reference, spectra[14])
        np.testing.assert_allclose(report.band_errors[8], [r**8 - r**14] * 2, rtol=1e-9)
        defined = {N: e for N, e in report.rates.items() if math.isfinite(e)}
        # plateau: e_N = (r^N - r^14)/(r^(N-1) - r^14) -> about r away from N_ref
        assert defined[9] == pytest.approx((r**9 - r**14) / (r**8 - r**14), rel=1e-12)
        assert report.fit[0] < 0

    def test_rounding_plateau_is_undefined(self):
        # the window levels converge as 0.5^N to N = 30, then wander at rounding, within
        # 1.5 eps max |E| (the top level, 1000): each of those errors is under the report's
        # floor 2 * 6 * eps * 1000, so their ratios are NaN, and the fit sees the ratios above it
        eps = np.finfo(float).eps
        wander = [0.3, -1.5, 0.9, 1.2, -0.4, 1.5, -1.1, 0.6, -0.8]
        shift = {N: 0.5**N for N in range(8, 31)} | {N: w * eps * 1e3 for N, w in zip(range(31, 40), wander)}
        spectra = {N: np.append(np.arange(12) + 0.5 + d, 1e3) for N, d in shift.items()}
        spectra[40] = np.append(np.arange(12) + 0.5, 1e3)
        report = build_convergence_report("hermite", spectra, n_ref=40)
        assert all(report.rates[N] == pytest.approx(0.5, rel=1e-5) for N in range(9, 31))
        assert all(math.isnan(report.rates[N]) for N in range(31, 41))
        assert report.fit[0] == pytest.approx(0.0, abs=1e-6)

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            build_convergence_report("hermite", {5: np.arange(5.0)}, n_ref=9)


class TestCsvWriters:
    def test_spectra_round_trip(self, tmp_path):
        rows = [("hermite", 2, 0, 0.5), ("hermite", 2, 1, 1.5)]
        path = tmp_path / "spectra.csv"
        write_spectra_csv(path, rows)
        data = read_spectra_csv(path)
        np.testing.assert_allclose(data["hermite"][2], [0.5, 1.5])

    def test_layouts_byte_for_byte(self, tmp_path):
        # labels by str (numpy ints too), values by repr(float(.)) (ints in value columns too)
        write_bands_csv(tmp_path / "b.csv", [("augmented", np.int64(7), 1, np.float64(0.1), 2)])
        write_rates_csv(tmp_path / "r.csv", [("hermite", 6, math.nan)])
        assert (tmp_path / "b.csv").read_text() == (
            "# hermflow bands csv v1\nscheme,N,band,abs_error,rel_error\naugmented,7,1,0.1,2.0\n"
        )
        assert (tmp_path / "r.csv").read_text() == "# hermflow rates csv v1\nscheme,N,e_N\nhermite,6,nan\n"

    def test_golden_bytes(self, tmp_path):
        # labels by str, values by repr(float(.)): numpy scalars print as plain numbers, and
        # nan, -0.0 and the smallest subnormal keep their spelling
        f, i = np.float64, np.int64
        write_spectra_csv(tmp_path / "s.csv", [("hermite", i(3), i(0), f(0.1)), ("hermite", 3, 1, -0.0),
                                               ("augmented", 3, 2, 5e-324)])
        write_bands_csv(tmp_path / "b.csv", [("hermite", i(7), 0, f(1e-17), i(2)), ("augmented", 7, 1, math.nan, -0.0)])
        write_rates_csv(tmp_path / "r.csv", [("hermite", i(6), f(math.nan)), ("augmented", 7, 5e-324)])
        write_fits_csv(tmp_path / "f.csv", [("hermite", f(-0.25), -0.0), ("augmented", math.nan, i(1))])
        trace = TrainingTrace(np.array([1.5, math.nan]), np.array([-0.0, 5e-324]), np.array([2.0, 1e300]))
        trace.write_csv(tmp_path / "t.csv")
        expected = {
            "s.csv": "# hermflow spectra csv v1\nscheme,N,n,E\n"
            "hermite,3,0,0.1\nhermite,3,1,-0.0\naugmented,3,2,5e-324\n",
            "b.csv": "# hermflow bands csv v1\nscheme,N,band,abs_error,rel_error\n"
            "hermite,7,0,1e-17,2.0\naugmented,7,1,nan,-0.0\n",
            "r.csv": "# hermflow rates csv v1\nscheme,N,e_N\nhermite,6,nan\naugmented,7,5e-324\n",
            "f.csv": "# hermflow fits csv v1\nscheme,slope,intercept\nhermite,-0.25,-0.0\naugmented,nan,1.0\n",
            "t.csv": "# hermflow trace csv v1\niteration,loss,grad_norm,wall_ms\n"
            "0,1.5,-0.0,2.0\n1,nan,5e-324,1e+300\n",
        }
        for name, text in expected.items():
            assert (tmp_path / name).read_bytes() == text.encode(), name

    def test_spectra_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        values = np.concatenate([rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, size=6),
                                 [-0.0, 0.0, 5e-324, -1.7976931348623157e308]])
        rows = [("hermite", values.size, n, E) for n, E in enumerate(values)]
        write_spectra_csv(tmp_path / "s.csv", rows)
        back = read_spectra_csv(tmp_path / "s.csv")["hermite"][values.size]
        assert np.array_equal(back.view(np.int64), values.view(np.int64))

    def test_reader_errors_name_the_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_spectra_csv(path, [("hermite", 2, 0, 0.5), ("hermite", 2, 1, 1.5)])
        path.write_text(path.read_text() + "hermite,2,x,0.5\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:5: expected 'scheme,N,n,E'"):
            read_spectra_csv(path)

    def test_rates_and_fits_have_versioned_headers(self, tmp_path):
        write_rates_csv(tmp_path / "r.csv", [("hermite", 5, 0.5)])
        write_fits_csv(tmp_path / "f.csv", [("hermite", -0.1, 1.0)])
        assert (tmp_path / "r.csv").read_text().startswith("# hermflow rates csv v1")
        assert (tmp_path / "f.csv").read_text().splitlines()[1] == "scheme,slope,intercept"


def test_analysis_imports_no_hermflow_module():
    """The analysis layer works on spectra it is given: it runs no solver."""
    source = Path(__file__).resolve().parents[1] / "src" / "hermflow" / "analysis.py"
    imported = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported  # the parse found the module's imports
    assert [m for m in imported if m.startswith(".") or m.split(".")[0] == "hermflow"] == []
