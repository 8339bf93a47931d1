import numpy as np
import pytest

from hermflow import eigh


class TestEigh:
    def test_two_by_two(self):
        spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_diagonal_permutation(self):
        spec = eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        # eigenvectors are signed unit vectors picking out the sorted diagonal
        expected_support = [1, 2, 0]
        for col, idx in enumerate(expected_support):
            assert abs(spec.eigenvectors[idx, col]) == pytest.approx(1.0, abs=1e-14)

    def test_trace_and_determinant_oracles(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(8, 8))
        M = 0.5 * (M + M.T)
        spec = eigh(M)
        assert abs(spec.eigenvalues.sum() - np.trace(M)) < 1e-10 * (1 + abs(np.trace(M)))
        det = np.linalg.det(M)  # LU-based, independent of the eigen route
        assert np.prod(spec.eigenvalues) == pytest.approx(det, rel=1e-8)

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(12, 12))
        M = 0.5 * (M + M.T)
        C = eigh(M).eigenvectors
        assert np.abs(C.T @ C - np.eye(12)).max() < 1e-10

    def test_similarity_residual(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(20, 20)) * 10
        M = 0.5 * (M + M.T)
        spec = eigh(M)
        res = np.abs(M @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max()
        assert res <= 1e-9 * (1 + np.abs(M).max())

    def test_ascending_order(self):
        rng = np.random.default_rng(8)
        M = rng.normal(size=(9, 9))
        M = 0.5 * (M + M.T)
        vals = eigh(M).eigenvalues
        assert np.all(np.diff(vals) >= 0)

    def test_asymmetric_rejected(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            eigh(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN passes both the symmetry and the residual comparison
        off = np.eye(3)
        off[0, 1] = off[1, 0] = bad
        diag = np.eye(3)
        diag[0, 0] = bad
        for M in (off, diag):
            with pytest.raises(ValueError, match="finite"):
                eigh(M)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_off_diagonal_entry_is_named(self, bad):
        M = np.eye(4)
        M[2, 1] = M[1, 2] = bad
        with pytest.raises(ValueError, match=rf"^matrix entry \(1, 2\) is {bad}; expected finite entries$"):
            eigh(M)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eigh(np.zeros((2, 3)))
