import numpy as np
import pytest

from cryoground.linalg import (
    CsrMatrix,
    LinalgError,
    SpdViolationError,
    cg_solve,
    det_dot,
)


def random_sparse(n, density, rng, symmetric=False):
    a = rng.random((n, n))
    a[a > density] = 0.0
    if symmetric:
        a = a + a.T
    return a


class TestCsrMatrix:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        a = random_sparse(12, 0.3, rng)
        m = CsrMatrix.from_dense(a)
        assert np.array_equal(m.to_dense(), a)

    def test_from_coo_sums_duplicates(self):
        m = CsrMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        assert m.to_dense().tolist() == [[0.0, 5.0], [4.0, 0.0]]

    def test_diagonal(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        assert CsrMatrix.from_dense(a).diagonal().tolist() == [4.0, 3.0]

    def test_invalid_offsets(self):
        with pytest.raises(LinalgError):
            CsrMatrix(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_bad_triplet_index(self):
        with pytest.raises(LinalgError):
            CsrMatrix.from_coo(2, [0, 5], [0, 0], [1.0, 1.0])


class TestSpmv:
    """The matrix-vector product the solver uses: scipy's CSR kernel on the
    zero-copy wrapper from CsrMatrix.scipy_view()."""

    def test_identity(self):
        m = CsrMatrix.from_dense(np.eye(5))
        x = np.arange(5.0)
        assert np.array_equal(m.scipy_view() @ x, x)

    def test_2x2(self):
        m = CsrMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]])
        assert (m.scipy_view() @ np.array([1.0, 2.0])).tolist() == [6.0, 7.0]

    def test_zero_matrix(self):
        m = CsrMatrix(np.zeros(6, dtype=np.int64), np.array([], dtype=np.int64), np.array([]))
        assert np.array_equal(m.scipy_view() @ np.ones(5), np.zeros(5))

    def test_dimension_mismatch(self):
        m = CsrMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            m.scipy_view() @ np.ones(4)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 7, 64])
    def test_row_blocks_bit_identical(self, blocks):
        """Each row sums in storage order: products over contiguous row
        slices, joined, equal the whole product bit for bit."""
        rng = np.random.default_rng(42)
        # include empty rows on purpose
        a = random_sparse(50, 0.1, rng)
        a[7, :] = 0.0
        a[-1, :] = 0.0
        m = CsrMatrix.from_dense(a)
        x = rng.random(50)
        view = m.scipy_view()
        bounds = np.linspace(0, m.n, min(blocks, m.n) + 1).astype(int)
        parts = [view[lo:hi] @ x for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(view @ x, np.concatenate(parts))

    def test_matches_dense(self):
        rng = np.random.default_rng(1)
        a = random_sparse(40, 0.2, rng)
        m = CsrMatrix.from_dense(a)
        x = rng.random(40)
        assert np.allclose(m.scipy_view() @ x, a @ x, rtol=1e-13, atol=1e-13)


class TestDetDot:
    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(100_000), rng.random(100_000)
        assert det_dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(200_000), rng.random(200_000)
        assert det_dot(a, b) == det_dot(a.copy(), b.copy())


class TestCgSolve:
    def test_identity_one_iteration(self):
        m = CsrMatrix.from_dense(np.eye(6))
        b = np.arange(1.0, 7.0)
        x, report = cg_solve(m, b)
        assert report.converged and report.iterations <= 1
        assert np.allclose(x, b, atol=1e-12)

    def test_2x2_exact(self):
        m = CsrMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]])
        x, report = cg_solve(m, np.array([1.0, 2.0]), tol=1e-12)
        assert report.converged
        assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-10)

    def test_zero_rhs_zero_start(self):
        m = CsrMatrix.from_dense([[4.0, 1.0], [1.0, 3.0]])
        x, report = cg_solve(m, np.zeros(2), x0=np.zeros(2))
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, np.zeros(2))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_spd_within_2n_iterations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        g = rng.random((n, n))
        a = g.T @ g + n * np.eye(n)
        m = CsrMatrix.from_dense(a)
        b = rng.random(n)
        x, report = cg_solve(m, b, tol=1e-12, max_iter=2 * n)
        assert report.converged, f"n={n}: residual {report.residual}"
        assert report.iterations <= 2 * n
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-9)

    def test_reported_residual_matches_recomputation(self):
        rng = np.random.default_rng(7)
        g = rng.random((30, 30))
        a = g.T @ g + 30 * np.eye(30)
        m = CsrMatrix.from_dense(a)
        b = rng.random(30)
        x, report = cg_solve(m, b, tol=1e-10)
        recomputed = np.linalg.norm(b - m.scipy_view() @ x) / np.linalg.norm(b)
        assert report.residual == pytest.approx(recomputed, abs=1e-13)

    def test_converged_implies_tolerance(self):
        rng = np.random.default_rng(11)
        g = rng.random((25, 25))
        a = g.T @ g + 25 * np.eye(25)
        m = CsrMatrix.from_dense(a)
        b = rng.random(25)
        x, report = cg_solve(m, b, tol=1e-9)
        assert report.converged
        assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-9

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(5)
        g = rng.random((40, 40))
        a = g.T @ g + 0.01 * np.eye(40)
        m = CsrMatrix.from_dense(a)
        x, report = cg_solve(m, rng.random(40), tol=1e-14, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 3.0]])
        with pytest.raises(SpdViolationError, match="row 0"):
            cg_solve(CsrMatrix.from_dense(a), np.ones(2))

    def test_negative_diagonal_rejected(self):
        a = np.array([[2.0, 0.0], [0.0, -3.0]])
        with pytest.raises(SpdViolationError, match="row 1"):
            cg_solve(CsrMatrix.from_dense(a), np.ones(2))

    def test_warm_start_steady(self):
        rng = np.random.default_rng(9)
        g = rng.random((20, 20))
        a = g.T @ g + 20 * np.eye(20)
        m = CsrMatrix.from_dense(a)
        x_true = rng.random(20)
        b = a @ x_true
        x, report = cg_solve(m, b, x0=x_true.copy(), tol=1e-10)
        assert report.converged and report.iterations == 0
