import threading

import numpy as np
import pytest
import scipy.sparse as sp

import cryoground.linalg as linalg
from cryoground.linalg import (
    DOT_CHUNK,
    CgShares,
    CsrMatrix,
    LinalgError,
    SpdViolationError,
    cg_solve,
    matvec_add_into,
    matvec_into,
    padded_length,
)

from fem_oracle import csr, scipy_view


def det_dot(a, b):
    """Dot product as the fixed-order sum of its per-chunk partials, the
    way the CG loop reduces: the vectors are zero-padded to whole
    DOT_CHUNKs, each chunk's partial is a dot product of its own, and the
    partials are summed in chunk order."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise LinalgError(f"det_dot needs two equal 1-d vectors, got {a.shape} and {b.shape}")
    npad = padded_length(len(a))
    a, b = (np.concatenate([v, np.zeros(npad - len(v))]) for v in (a, b))
    return float(np.add.reduce(np.vecdot(a.reshape(-1, DOT_CHUNK), b.reshape(-1, DOT_CHUNK))))


def random_sparse(n, density, rng, symmetric=False):
    a = rng.random((n, n))
    a[a > density] = 0.0
    if symmetric:
        a = a + a.T
    return a


class TestCsrMatrix:
    def test_scipy_view_roundtrip(self):
        rng = np.random.default_rng(0)
        a = random_sparse(12, 0.3, rng) + np.eye(12)  # every row stores its diagonal
        m = csr(a)
        assert np.array_equal(scipy_view(m).toarray(), a)

    def test_diagonal(self):
        a = np.array([[4.0, 1.0], [1.0, 3.0]])
        assert csr(a).diagonal().tolist() == [4.0, 3.0]

    def test_invalid_offsets(self):
        with pytest.raises(LinalgError):
            CsrMatrix(np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0]))

    def test_row_without_diagonal_rejected(self):
        """A row that stores no diagonal entry cannot be SPD: construction
        fails with the message cg_solve gives for a zero diagonal entry."""
        a = [[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]
        with pytest.raises(SpdViolationError, match=r"entry 0\.000e\+00 at row 1$"):
            csr(a)

    @pytest.mark.parametrize(
        "columns, error, message",
        [
            ([0, 0, 0], SpdViolationError, "at row 1"),  # (0, 0) twice, no (1, 1)
            ([0, 0, 1], LinalgError, "row 0 stores its diagonal entry twice"),
        ],
        ids=["twice-and-none", "twice"],
    )
    def test_diagonal_stored_once_in_every_row(self, columns, error, message):
        """Built directly (csr() would sum the duplicates): row 0 stores
        (0, 0) twice, so counting diagonal entries is not enough."""
        with pytest.raises(error, match=message):
            CsrMatrix(np.array([0, 2, 3]), np.array(columns), np.ones(3))


class TestSpmv:
    """The matrix-vector product the solver uses: scipy's CSR kernel (the
    solver calls it on row blocks through linalg.matvec_into)."""

    def test_identity(self):
        m = sp.csr_matrix(np.eye(5))
        x = np.arange(5.0)
        assert np.array_equal(m @ x, x)

    def test_2x2(self):
        m = sp.csr_matrix([[4.0, 1.0], [1.0, 3.0]])
        assert (m @ np.array([1.0, 2.0])).tolist() == [6.0, 7.0]

    def test_zero_matrix(self):
        m = sp.csr_matrix((5, 5))
        assert np.array_equal(m @ np.ones(5), np.zeros(5))

    def test_dimension_mismatch(self):
        m = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError, match="mismatch"):
            m @ np.ones(4)

    @pytest.mark.parametrize("blocks", [1, 2, 3, 7, 64])
    def test_row_blocks_bit_identical(self, blocks):
        """Each row sums in storage order: products over contiguous row
        slices, joined, equal the whole product bit for bit."""
        rng = np.random.default_rng(42)
        # include empty rows on purpose
        a = random_sparse(50, 0.1, rng)
        a[7, :] = 0.0
        a[-1, :] = 0.0
        view = sp.csr_matrix(a)
        x = rng.random(50)
        bounds = np.linspace(0, 50, min(blocks, 50) + 1).astype(int)
        parts = [view[lo:hi] @ x for lo, hi in zip(bounds[:-1], bounds[1:])]
        assert np.array_equal(view @ x, np.concatenate(parts))

    def test_matches_dense(self):
        rng = np.random.default_rng(1)
        a = random_sparse(40, 0.2, rng)
        x = rng.random(40)
        assert np.allclose(sp.csr_matrix(a) @ x, a @ x, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("kernel", ["scipy_kernel", "fallback"])
    def test_matvec_into_equals_product(self, kernel, monkeypatch):
        """matvec_into writes exactly a @ x into a dirty buffer, through
        scipy's private kernel or, without it, through a @ x itself."""
        if kernel == "fallback":
            monkeypatch.setattr(linalg, "_csr_matvec", None)
        rng = np.random.default_rng(5)
        a = random_sparse(300, 0.05, rng)
        a[11, :] = 0.0
        view = sp.csr_matrix(a)
        x = rng.standard_normal(300)
        out = np.full(300, np.nan)
        matvec_into(view, x, out)
        assert out.tobytes() == (view @ x).tobytes()


    @pytest.mark.parametrize("kernel", ["scipy_kernel", "fallback"])
    def test_matvec_add_into_adds_terms_in_storage_order(self, kernel, monkeypatch):
        """matvec_add_into adds each stored term to its row's entry of out
        one at a time, in storage order, through scipy's kernel or np.add.at
        (the bits of a loop that does so), and leaves rows without entries."""
        if kernel == "fallback":
            monkeypatch.setattr(linalg, "_csr_matvec", None)
        rng = np.random.default_rng(6)
        a = sp.csr_matrix(random_sparse(200, 0.05, rng))
        a.data *= rng.uniform(1e-3, 1e3, a.nnz)
        x = rng.standard_normal(200)
        out = rng.standard_normal(200) * 1e3
        want = out.copy()
        for i in range(200):
            for k in range(a.indptr[i], a.indptr[i + 1]):
                want[i] = want[i] + a.data[k] * x[a.indices[k]]
        matvec_add_into(a.indptr.astype(np.int64), a.indices.astype(np.int64), a.data, x, out)
        assert out.tobytes() == want.tobytes()


class TestDetDot:
    def test_matches_numpy(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(100_000), rng.random(100_000)
        assert det_dot(a, b) == pytest.approx(float(np.dot(a, b)), rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(200_000), rng.random(200_000)
        assert det_dot(a, b) == det_dot(a.copy(), b.copy())

    @pytest.mark.parametrize("cuts", [(), (1,), (2, 3), (1, 2, 4), (3,)])
    def test_same_bits_for_every_share_split(self, cuts):
        """Shares cut at chunk multiples each compute the partials of their
        own chunks (into differently aligned storage); summed in chunk
        order, they give det_dot's value bit for bit."""
        rng = np.random.default_rng(4)
        n = 5 * DOT_CHUNK + 37
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        npad = padded_length(n)
        pa, pb = np.zeros(npad + 1)[1:], np.zeros(npad)  # pa is not 16-byte aligned
        pa[:n], pb[:n] = a, b
        bounds = [0, *(c * DOT_CHUNK for c in cuts), npad]
        parts = np.concatenate(
            [
                np.vecdot(pa[lo:hi].reshape(-1, DOT_CHUNK), pb[lo:hi].reshape(-1, DOT_CHUNK))
                for lo, hi in zip(bounds, bounds[1:])
            ]
        )
        assert float(np.add.reduce(parts)) == det_dot(a, b)

    def test_lengths_must_match(self):
        with pytest.raises(LinalgError):
            det_dot(np.ones(3), np.ones(4))


def _threaded_cg(m, b, bounds, tol=1e-12, max_iter=500, direction=None):
    """Run the CG loop of CgShares with one thread per share, from x0 = 0
    moved along ``direction`` when one is given."""
    shares = CgShares(m, bounds)
    w = shares.work
    w.inv_diag[: m.n] = 1.0 / m.diagonal()
    w.b[: m.n] = b
    if direction is not None:
        w.p[: m.n] = direction
        w.projected[0] = 1.0
    barrier = threading.Barrier(len(bounds) - 1)
    results = [None] * (len(bounds) - 1)

    def run(s):
        results[s] = shares.share(s, tol, max_iter, barrier.wait)

    threads = [threading.Thread(target=run, args=(s,)) for s in range(len(results))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return w.x[: m.n].copy(), results


def _coupled_chain(rng, n):
    """An SPD chain Laplacian over n unknowns with some longer-range couplings."""
    lap = sp.diags([-1.0, 2.2, -1.0], [-1, 0, 1], shape=(n, n)).tolil()
    for i in rng.integers(0, n - 50, 200):
        j = i + 40
        lap[i, j] = lap[j, i] = -0.05
        lap[i, i] += 0.05
        lap[j, j] += 0.05
    lap = lap.tocsr()
    lap.sort_indices()
    return CsrMatrix(lap.indptr, lap.indices, lap.data)


@pytest.mark.parametrize("cuts", [(1,), (1, 2), (1, 3, 4), (0, 2, 2, 4)])
def test_cg_shares_bit_identical_to_one_share(cuts):
    """The CG loop run in 2-5 concurrent row shares, some of them empty,
    gives the one-share solution bit for bit, and every share reports the
    same result."""
    rng = np.random.default_rng(11)
    n = 4 * DOT_CHUNK + 100
    m = _coupled_chain(rng, n)
    b = rng.standard_normal(n)
    x1, (one,) = _threaded_cg(m, b, [0, n])
    assert one[2] and one[0] > 5  # converged after real work
    xs, results = _threaded_cg(m, b, [0, *(c * DOT_CHUNK for c in cuts), n])
    assert xs.tobytes() == x1.tobytes()
    assert all(r == one for r in results)
    x, report = cg_solve(m, b, tol=1e-12, max_iter=500)
    assert x.tobytes() == x1.tobytes() and report.iterations == one[0]


@pytest.mark.parametrize("cuts", [(), (1,), (1, 2), (1, 3, 4), (0, 2, 2, 4)])
def test_projected_cg_shares_bit_identical_to_one_share(cuts):
    """With a direction, the start's extra product and reduction run in the
    shares too: 1-5 shares, some of them empty, give the one-share
    solution bit for bit, and so does cg_solve."""
    rng = np.random.default_rng(12)
    n = 4 * DOT_CHUNK + 100
    m = _coupled_chain(rng, n)
    b = rng.standard_normal(n)
    d = rng.standard_normal(n)
    x1, (one,) = _threaded_cg(m, b, [0, n], direction=d)
    assert one[2] and one[0] > 5
    xs, results = _threaded_cg(m, b, [0, *(c * DOT_CHUNK for c in cuts), n], direction=d)
    assert xs.tobytes() == x1.tobytes()
    assert all(r == one for r in results)
    x, report = cg_solve(m, b, tol=1e-12, max_iter=500, direction=d)
    assert x.tobytes() == x1.tobytes() and report.iterations == one[0]


@pytest.mark.parametrize(
    "bounds", [[0, 100, 2148], [0, 1024, 512, 2148], [0, 2560, 2148], [0, 512, 2000]]
)
def test_cg_shares_reject_cuts_off_chunks(bounds):
    """Share cuts must be nondecreasing whole chunks from 0 to n: a cut
    inside a chunk would let two shares write the same chunk partial."""
    m = CsrMatrix(np.arange(2149), np.arange(2148), np.ones(2148))
    with pytest.raises(LinalgError, match="share bounds"):
        CgShares(m, bounds)


class TestCgSolve:
    def test_identity_one_iteration(self):
        m = csr(np.eye(6))
        b = np.arange(1.0, 7.0)
        x, report = cg_solve(m, b)
        assert report.converged and report.iterations <= 1
        assert np.allclose(x, b, atol=1e-12)

    def test_2x2_exact(self):
        m = csr([[4.0, 1.0], [1.0, 3.0]])
        x, report = cg_solve(m, np.array([1.0, 2.0]), tol=1e-12)
        assert report.converged
        assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-10)

    def test_zero_rhs_zero_start(self):
        m = csr([[4.0, 1.0], [1.0, 3.0]])
        x, report = cg_solve(m, np.zeros(2), x0=np.zeros(2))
        assert report.converged and report.iterations == 0
        assert np.array_equal(x, np.zeros(2))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_spd_within_2n_iterations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        g = rng.random((n, n))
        a = g.T @ g + n * np.eye(n)
        m = csr(a)
        b = rng.random(n)
        x, report = cg_solve(m, b, tol=1e-12, max_iter=2 * n)
        assert report.converged, f"n={n}: residual {report.residual}"
        assert report.iterations <= 2 * n
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-9)

    def test_reported_residual_matches_recomputation(self):
        rng = np.random.default_rng(7)
        g = rng.random((30, 30))
        a = g.T @ g + 30 * np.eye(30)
        m = csr(a)
        b = rng.random(30)
        x, report = cg_solve(m, b, tol=1e-10)
        recomputed = np.linalg.norm(b - scipy_view(m) @ x) / np.linalg.norm(b)
        assert report.residual == pytest.approx(recomputed, abs=1e-13)

    def test_converged_implies_tolerance(self):
        rng = np.random.default_rng(11)
        g = rng.random((25, 25))
        a = g.T @ g + 25 * np.eye(25)
        m = csr(a)
        b = rng.random(25)
        x, report = cg_solve(m, b, tol=1e-9)
        assert report.converged
        assert np.linalg.norm(b - a @ x) / np.linalg.norm(b) <= 1e-9

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(5)
        g = rng.random((40, 40))
        a = g.T @ g + 0.01 * np.eye(40)
        m = csr(a)
        x, report = cg_solve(m, rng.random(40), tol=1e-14, max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_zero_diagonal_rejected(self):
        a = np.array([[0.0, 1.0], [1.0, 3.0]])
        with pytest.raises(SpdViolationError, match="row 0"):
            cg_solve(csr(a), np.ones(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("direction", [None, np.ones(2)], ids=["plain", "projected"])
    def test_stored_zero_diagonal_rejected_without_warning(self, direction):
        """A zero stored on the diagonal is an SpdViolationError, with no
        divide-by-zero warning from the preconditioner first."""
        m = CsrMatrix(np.array([0, 1, 2]), np.array([0, 1]), np.array([1.0, 0.0]))
        with pytest.raises(SpdViolationError, match="entry 0.000e[+]00 at row 1"):
            cg_solve(m, np.ones(2), direction=direction)

    def test_negative_diagonal_rejected(self):
        a = np.array([[2.0, 0.0], [0.0, -3.0]])
        with pytest.raises(SpdViolationError, match="row 1"):
            cg_solve(csr(a), np.ones(2))

    def test_warm_start_steady(self):
        rng = np.random.default_rng(9)
        g = rng.random((20, 20))
        a = g.T @ g + 20 * np.eye(20)
        m = csr(a)
        x_true = rng.random(20)
        b = a @ x_true
        x, report = cg_solve(m, b, x0=x_true.copy(), tol=1e-10)
        assert report.converged and report.iterations == 0


def _spd(seed, n=30):
    rng = np.random.default_rng(seed)
    g = rng.random((n, n))
    return rng, g.T @ g + n * np.eye(n)


class TestProjectedStart:
    def test_exact_correction_converges_in_zero_iterations(self):
        rng, a = _spd(21)
        m = csr(a)
        x_true, x0 = rng.random(30), rng.random(30)
        b = a @ x_true
        x, report = cg_solve(m, b, x0=x0, tol=1e-10, direction=x_true - x0)
        assert report.converged and report.iterations == 0
        # a start moved along d is accepted on the true residual
        assert report.residual == pytest.approx(
            np.linalg.norm(b - a @ x) / np.linalg.norm(b), abs=1e-15
        )
        assert np.allclose(x, x_true, rtol=1e-10, atol=1e-10)

    def test_zero_direction_same_bits_as_none(self):
        rng, a = _spd(22)
        m = csr(a)
        b, x0 = rng.random(30), rng.random(30)
        x, report = cg_solve(m, b, x0=x0, tol=1e-12)
        xd, reportd = cg_solve(m, b, x0=x0, tol=1e-12, direction=np.zeros(30))
        assert xd.tobytes() == x.tobytes()
        assert (reportd.iterations, reportd.residual) == (report.iterations, report.residual)

    @pytest.mark.parametrize("seed", range(8))
    def test_start_error_never_above_previous_or_extrapolation(self, seed):
        """max_iter = 0 returns the start: its A-norm error is at most that of
        x0 (theta = 0) and of x0 + d (theta = 1), up to rounding."""
        rng, a = _spd(100 + seed)
        m = csr(a)
        x_true, x0 = rng.random(30), rng.random(30)
        d = (x_true - x0) * rng.uniform(0.0, 3.0) + rng.standard_normal(30) * rng.uniform(0.0, 1.0)
        start, report = cg_solve(m, a @ x_true, x0=x0, tol=1e-14, max_iter=0, direction=d)
        assert report.iterations == 0

        def a_norm_error(x):
            e = x - x_true
            return float(np.sqrt(e @ a @ e))

        best = a_norm_error(start)
        assert best <= a_norm_error(x0) * (1.0 + 1e-12)
        assert best <= a_norm_error(x0 + d) * (1.0 + 1e-12)

    def test_direction_shape_checked(self):
        m = csr(np.eye(3))
        with pytest.raises(LinalgError, match="direction shape"):
            cg_solve(m, np.ones(3), direction=np.ones(4))
