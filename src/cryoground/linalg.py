"""Sparse CSR storage and a Jacobi-preconditioned conjugate-gradient solver.

The matrices produced by one implicit time step are symmetric positive
definite, so CG with diagonal preconditioning is sufficient; the time-step
term dominates the diagonal for realistic step sizes, which keeps iteration
counts low.  Successive steps solve nearby systems, so a solve may start
from the energy-optimal step along a given direction (the last field
increment): the one-vector case of projecting the start on earlier
solutions (Fischer 1998, successive right-hand sides).

One CG loop (CgShares.share) serves every worker count: the rows are cut into
contiguous shares, each share runs the loop on its own rows, and the serial
solver is that loop with one share.  Every product is matvec_into over a
row run: rows [lo, hi) of a CSR are indptr[lo : hi + 1], offsets that index
its column indices and values absolutely.  Determinism contract:
- the matrix-vector product (scipy's CSR kernel) sums each row in storage
  order, so a row's value does not depend on the share that computes it;
- vector updates are elementwise;
- a dot product is the sum, in one fixed order, of per-chunk partials over
  fixed DOT_CHUNK-entry chunks, and share cuts fall on chunk multiples, so
  every partial, and hence the sum, is the same for any share split.
Results are therefore bit-identical for any number of shares, for a given
environment.

A share whose rows did not change since the last solve keeps its inverse
diagonal and the product A x of that solve's solution, its start residual
while x0 is that solution bit for bit; a failed solve, rewritten rows or a
solve without their owner's word drop them (CgShares).
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field

import numpy as np


def _add_at_matvec(n_row, n_col, indptr, indices, data, x, out):
    """scipy's csr_matvec, bit for bit: np.add.at adds in storage order."""
    s = slice(indptr[0], indptr[-1])
    np.add.at(out, np.repeat(np.arange(n_row), np.diff(indptr)), data[s] * x[indices[s]])


try:  # scipy's private CSR kernel, behind a @ x; see matvec_into
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # a scipy release without it
    _csr_matvec = _add_at_matvec


class LinalgError(ValueError):
    """Dimension mismatches and invalid sparse structure."""


class SpdViolationError(LinalgError):
    """The matrix cannot be SPD (non-positive diagonal entry)."""


# entries per dot-product chunk; CG row shares are cut at multiples of it
DOT_CHUNK = 512
_INT32_NNZ = np.iinfo(np.int32).max  # the most stored entries of an int32 CsrMatrix


@dataclass
class CsrMatrix:
    """Square sparse matrix in compressed-sparse-row form.

    Column indices lie in [0, n) and increase strictly within each row
    (checked), and every row stores its diagonal entry: construction locates
    them once, as ``diagonal_slots`` (the storage position of entry (i, i)
    of row i), and raises SpdViolationError for a row that stores none.  The
    pattern is int32 where nnz fits, else int64: the one index width.
    ``shares``, when set, are the row shares cg_solve runs in (see CgShares).
    """

    row_offsets: np.ndarray
    column_indices: np.ndarray
    values: np.ndarray
    shares: "CgShares | None" = field(default=None, kw_only=True, repr=False, compare=False)
    diagonal_slots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets, cols = np.asarray(self.row_offsets), np.asarray(self.column_indices)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if offsets.ndim != 1 or len(offsets) < 1:
            raise LinalgError("row_offsets must be a 1-d array of length n+1")
        if offsets[0] != 0 or (np.diff(offsets) < 0).any():
            raise LinalgError("row_offsets must start at 0 and be nondecreasing")
        if offsets[-1] != len(cols):
            raise LinalgError("row_offsets[-1] must equal nnz")
        if len(self.values) != len(cols):
            raise LinalgError("values and column_indices must have equal length")
        n = len(offsets) - 1
        rows = np.repeat(np.arange(n), np.diff(offsets))
        # checked before the narrowing below, so that no index wraps past them
        if len(cols) and (cols.min() < 0 or cols.max() >= n):
            raise LinalgError(f"column index outside [0, {n})")
        unsorted = np.flatnonzero(np.diff(rows * n + cols) <= 0)
        if len(unsorted):
            raise LinalgError(f"the columns of row {rows[unsorted[0]]} are not strictly increasing")
        self.diagonal_slots = np.flatnonzero(cols == rows)
        if len(self.diagonal_slots) != n:
            i = int(np.argmin(np.bincount(rows[self.diagonal_slots], minlength=n)))
            raise SpdViolationError(f"non-positive diagonal entry {0.0:.3e} at row {i}")
        index = np.int32 if len(cols) <= _INT32_NNZ else np.int64
        self.row_offsets = np.ascontiguousarray(offsets, dtype=index)
        self.column_indices = np.ascontiguousarray(cols, dtype=index)

    @property
    def n(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def nnz(self) -> int:
        return len(self.column_indices)

    def diagonal(self) -> np.ndarray:
        return self.values[self.diagonal_slots]

    def with_values(self, values: np.ndarray, shares: "CgShares | None" = None) -> "CsrMatrix":
        """Matrix with this one's (already checked) sparsity pattern and
        diagonal slots and the given values, which it holds without copying,
        solved in ``shares`` when they are given.

        The pattern arrays are shared and must not change afterwards (the
        assembler's are read-only).
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (self.nnz,):
            raise LinalgError(f"need {self.nnz} values, got shape {values.shape}")
        out = copy.copy(self)
        out.values = values
        out.shares = shares
        return out


@dataclass
class SolveReport:
    """Outcome of one linear solve."""

    iterations: int
    residual: float
    converged: bool
    wall_seconds: float


def padded_length(n: int) -> int:
    """n rounded up to whole DOT_CHUNKs: the length of every CG work vector."""
    return -(-int(n) // DOT_CHUNK) * DOT_CHUNK


def share_bounds(row_offsets: np.ndarray, nshares: int) -> list[int]:
    """Cuts (0, ..., n) of nshares contiguous row shares of a CSR pattern,
    about nnz / nshares stored entries each, at whole DOT_CHUNKs; no cut passes
    the last whole chunk, so a matrix too small for nshares leaves some empty."""
    n = len(row_offsets) - 1
    cuts = np.searchsorted(row_offsets, row_offsets[-1] * np.arange(1, nshares) / nshares)
    cuts = np.round(cuts / DOT_CHUNK).astype(np.int64) * DOT_CHUNK
    return [0, *np.minimum(cuts, n // DOT_CHUNK * DOT_CHUNK).tolist(), n]


class CgWork:
    """Vectors and reduction buffers of the CG loop, padded to whole chunks.

    ``alloc(size)`` returns zeroed float64 storage (np.zeros, or shared
    memory that forked shares see); the padding stays zero, so it adds
    nothing to any dot product.  ``partials`` holds up to four chunk-partial
    rows per reduction, in two buffers used by alternate reductions: a
    share may start the next reduction while a slower one still reads the
    last.  ``ax`` is the product A x of the last residual formed.  ``p``
    holds the start's direction; each share keeps its search direction and
    A p itself (see CgShares.share).
    """

    NVEC = 7

    def __init__(self, n: int, alloc=np.zeros, nshares: int = 1):
        self.n = n
        npad = padded_length(n)
        nchunks = npad // DOT_CHUNK
        store = alloc(self.NVEC * npad + 8 * nchunks + 2 + 2 * nshares)
        self.vecs = store[: self.NVEC * npad].reshape(self.NVEC, npad)
        self.b, self.x, self.r, self.z, self.p, self.inv_diag, self.ax = self.vecs
        self.rhs = self.b[:n]  # the rhs an owner may write in place (see cg_solve)
        flags = store[self.NVEC * npad + 8 * nchunks :]
        self.partials = store[self.NVEC * npad : -len(flags)].reshape(2, 4, nchunks)
        # 1.0 when p holds a direction d to project the start on (see share);
        # 1.0 when ax holds A x0 on the rows of the kept shares (see cg_solve)
        self.projected, self.start_kept = flags[:1], flags[1:2]
        # per share: its rows are unchanged since the last solve (set by
        # their owner, consumed by a solve), and that solve completed
        self.kept, self.valid = flags[2:].reshape(2, nshares)


def matvec_into(indptr, indices, data, x: np.ndarray, out: np.ndarray, add: bool = False):
    """out = A x, or out += A x with ``add``, on the rows of A whose row run
    is ``indptr`` (see the module docstring): scipy's kernel behind
    ``a @ x``, which adds each row's terms to out in storage order, started
    from zero unless ``add``, without the temporary result."""
    if not add:
        out.fill(0.0)
    _csr_matvec(len(indptr) - 1, len(x), indptr, indices, data, x, out)


def _no_barrier():
    pass


class CgShares:
    """A fixed-pattern matrix split into contiguous row shares, with the
    work vectors the CG loop of those shares runs in.

    ``bounds`` are the share cuts (0, ..., n), nondecreasing multiples of
    DOT_CHUNK between the ends (a share may be empty), as share_bounds
    gives them; the default is one share.  solve() runs share() for
    every share: in the calling process by default, or through ``run(tol,
    max_iter)``, which an owner of worker processes (fem.Assembler) passes
    to run the shares concurrently and return the calling process's result.
    ``runs`` holds each share's row run for matvec_into, views of the
    matrix's own pattern and values, so later in-place changes of the values
    (Dirichlet elimination) are what the solve sees, and so are the diagonal
    entries the loop gathers through matrix.diagonal_slots.

    A share whose rows did not change since the last solve may keep what
    depends only on them.  Their owner says so before a solve by setting
    work.kept[s] (a solve consumes the flags); an owner that changes rows
    of the last solution w.x sets w.ax there to their product (fem.Assembler
    sets both on the constrained, identity rows).
    """

    def __init__(self, matrix: CsrMatrix, bounds=None, alloc=np.zeros, run=None):
        n = matrix.n
        self.values = matrix.values
        self.bounds = [0, n] if bounds is None else [int(c) for c in bounds]
        cuts = self.bounds[1:-1]
        if (
            self.bounds[0] != 0
            or self.bounds[-1] != n
            or any(c % DOT_CHUNK for c in cuts)
            or any(hi < lo for lo, hi in zip(self.bounds, self.bounds[1:]))
        ):
            raise LinalgError(
                f"share bounds {self.bounds} must run from 0 to {n} in nondecreasing "
                f"multiples of {DOT_CHUNK}"
            )
        self.work = CgWork(n, alloc, len(self.bounds) - 1)
        self.runs = [(matrix.row_offsets[lo : hi + 1], matrix.column_indices, matrix.values)
                     for lo, hi in zip(self.bounds, self.bounds[1:])]
        self.diagonal_slots = matrix.diagonal_slots
        self._run = run
        self._views = {}

    def _share_views(self, s: int):
        """The views share() works on for share s, and its own vectors."""
        w, lo, hi = self.work, self.bounds[s], self.bounds[s + 1]
        own, cols = slice(lo, hi), slice(lo, lo)
        if hi > lo:  # the columns its rows read
            offsets, indices, _ = self.runs[s]
            read = indices[offsets[0] : offsets[-1]]
            cols = slice(int(read.min()), int(read.max()) + 1)
        # the search direction p over A p, private to the share: it forms
        # p on the columns it reads itself, so no other share waits on it
        pq = np.zeros((2, padded_length(w.n)))
        vecs = [v[own] for v in (w.b, w.x, w.r, w.z, w.inv_diag, w.ax, pq[1])]
        # x over r and p over q: one step moves x along p and r along -q
        vecs += [w.vecs[1:3, own], pq[:, own]]
        vecs += [w.x[: w.n], pq[0, : w.n]]  # the matrix's operands
        vecs += [pq[0, cols], w.z[cols], w.p[cols]]
        # this share's whole chunks, zero padding included, for the partials
        c0, c1 = lo // DOT_CHUNK, padded_length(hi) // DOT_CHUNK
        chunks = [v[lo : c1 * DOT_CHUNK].reshape(-1, DOT_CHUNK) for v in (w.b, w.r, *pq)]
        rzc = w.vecs[2:4, lo : c1 * DOT_CHUNK].reshape(2, -1, DOT_CHUNK)  # r over z
        return (*vecs, c0, c1, *chunks, rzc, np.empty((2, hi - lo)), np.empty((2, 1)))

    def solve(self, tol: float, max_iter: int):
        if self._run is not None:
            return self._run(tol, max_iter)
        return self.share(0, tol, max_iter)

    def share(self, s: int, tol: float, max_iter: int, barrier=_no_barrier):
        """The CG loop, run by share s on its rows [lo, hi).

        Every share runs this loop concurrently with the same arguments but
        its own rows.  A share writes only its own rows of the work vectors,
        reads whole vectors only after a ``barrier()`` (which returns once
        every share has called it), and contributes its chunk partials to
        each reduction; each share then sums all partials in the same order,
        so every share computes the same scalars and takes the same
        branches.  The search direction p and A p are the share's own: it
        forms p on every column its rows read (p = beta p + z there, the
        bits the owner of each row forms), so its products wait on no
        barrier after the update.  With one share and a no-op barrier this
        is the serial solver.  The loop expects w.b and w.x to hold b and x0.

        Returns (iterations, residual, converged, error): error is None, or
        why the matrix cannot be SPD ("diagonal", or the message of a
        non-positive p^T A p).

        When w.projected is set, w.p holds a direction d on entry and the
        start moves to x0 + theta d, theta = d^T r0 / d^T A d (r0 = b - A x0),
        the point along d of least A-norm error; theta = 0 when d^T A d <= 0.
        That costs one more product and one more reduction.

        Where work.kept[s] is set and the last solve completed, the share
        keeps its inverse diagonal, and with work.start_kept also A x0 in
        w.ax (x0 is that solve's solution bit for bit), so it forms no product.
        """
        w, a_rows, lo, hi = self.work, self.runs[s], self.bounds[s], self.bounds[s + 1]
        if s not in self._views:
            self._views[s] = self._share_views(s)
        (b, x, r, z, inv_diag, ax, q, x_r, p_q, x_all, p_all, p_cols, z_cols, d_cols,
         c0, c1, bc, rc, pc, qc, rzc, step, coef) = self._views[s]
        own = slice(lo, hi)
        gen = 0

        def reduce(*pairs, flags=0):
            # the sums of the pairs' dot products (one per row of a stacked
            # second operand) and of ``flags`` more rows the share wrote
            # into the partials of this reduction
            nonlocal gen
            parts = w.partials[gen & 1]
            k = 0
            for u, v in pairs:
                m = len(v) if v.ndim == 3 else 1
                np.vecdot(u, v, out=parts[k : k + m, c0:c1] if m > 1 else parts[k, c0:c1])
                k += m
            barrier()
            gen += 1
            return np.add.reduce(parts[: k + flags], axis=1).tolist()

        def advance(length):  # x += length p, r -= length q
            coef[0, 0], coef[1, 0] = length, -length
            np.multiply(p_q, coef, out=step)
            np.add(x_r, step, out=x_r)

        def residual_into(out):  # out = b - A x on the own rows, A x kept in ax
            matvec_into(*a_rows, x_all, ax)
            np.subtract(b, ax, out=out)

        def done(iterations, residual, converged):  # ax is A x: the next solve may keep it
            w.valid[s] = 1.0
            return iterations, residual, converged, None

        def settled():
            # the recurrence residual passed tol: check the true residual,
            # else resync r with it and restart the search direction
            nonlocal residual, rz
            residual_into(q)  # q is free until the next product
            (qq,) = reduce((qc, qc))
            residual = math.sqrt(qq) / denom
            if residual <= tol:
                return True
            r[:] = q
            np.multiply(inv_diag, r, out=z)
            (rz,) = reduce((rc, rzc[1]))  # also publishes z
            p_cols[:] = z_cols
            return False

        kept = w.kept[s] and w.valid[s]
        w.valid[s] = 0.0
        bad = w.partials[0, 3, c0:c1]  # flags a non-positive diagonal entry
        bad[:] = 0.0
        if not kept:
            np.take(self.values, self.diagonal_slots[own], out=inv_diag)
            if hi > lo and (inv_diag <= 0.0).any():
                bad[0] = 1.0  # the solve stops at the first reduction: no 1/0 warning
            else:
                np.divide(1.0, inv_diag, out=inv_diag)
        if kept and w.start_kept[0]:
            np.subtract(b, ax, out=r)
        else:
            residual_into(r)
        projected, theta = bool(w.projected[0]), 0.0
        if projected:
            p_cols[:] = d_cols
            matvec_into(*a_rows, p_all, q)
            bb, dr, dq, nbad = reduce((bc, bc), (pc, rc), (pc, qc), flags=1)
            if dq > 0.0 and math.isfinite(dr / dq):
                theta = dr / dq
                advance(theta)
        np.multiply(inv_diag, r, out=z)
        if projected:
            rr, rz = reduce((rc, rzc))  # also publishes z and x
        else:
            bb, rr, rz, nbad = reduce((bc, bc), (rc, rzc), flags=1)  # also publishes z
        p_cols[:] = z_cols
        if nbad:
            return 0, math.nan, False, "diagonal"
        denom = math.sqrt(bb) if bb > 0.0 else 1.0
        residual = math.sqrt(rr) / denom
        # r is the true residual unless the start moved along d
        if residual <= tol and (theta == 0.0 or settled()):
            return done(0, residual, True)

        iterations = 0
        for k in range(1, max_iter + 1):
            matvec_into(*a_rows, p_all, q)
            (pq,) = reduce((pc, qc))
            if pq <= 0.0:
                return k, residual, False, f"p^T A p = {pq:.3e} <= 0 at iteration {k}"
            advance(rz / pq)
            np.multiply(inv_diag, r, out=z)
            iterations = k
            rr, rz_new = reduce((rc, rzc))  # also publishes x
            if math.sqrt(rr) / denom <= tol:
                if settled():
                    return done(iterations, residual, True)
                continue
            beta = rz_new / rz
            rz = rz_new
            p_cols *= beta
            p_cols += z_cols

        residual_into(q)
        (qq,) = reduce((qc, qc))
        return done(iterations, math.sqrt(qq) / denom, False)


def cg_solve(
    a: CsrMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 5000,
    direction: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for SPD systems.

    Jacobi (diagonal) preconditioning is always applied.  With a
    ``direction`` d the iteration starts from x0 + theta d, with theta =
    d^T (b - A x0) / d^T A d: the point of least A-norm error on that line,
    so never worse than x0 (theta = 0, also taken when d^T A d <= 0) or
    x0 + d.  A time stepper passes the last field increment, zero on the
    constrained rows.  Convergence is declared on the true residual: when
    the recurrence residual passes the tolerance the residual is recomputed
    as b - A x and must pass as well, otherwise iteration continues.  The
    relative criterion ||b - A x|| / ||b|| <= tol falls back to an absolute
    one for b = 0.  Non-convergence within max_iter is reported, not
    raised; a non-positive diagonal entry ("non-positive diagonal entry
    ... at row i", CsrMatrix's error for a row that stores none) or
    p^T A p raises SpdViolationError, and a non-finite b or x0 or a tol
    that is not finite and > 0 raises LinalgError.  A matrix that carries
    CgShares over its own values (the assembler's) is solved in those
    shares; any other in one share.  ``b`` may be the shares' own w.rhs
    (the assembler writes its rhs there), which is then not copied.  Shares
    that kept their rows (see CgShares) start from their kept A x when x0
    is the last solution bit for bit, checked here.
    """
    t_start = time.perf_counter()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n,):
        raise LinalgError(f"rhs shape {b.shape} does not match matrix size {a.n}")
    if not 0 < tol < math.inf:
        raise LinalgError(f"tol must be finite and > 0, got {tol}")
    x0 = np.zeros(a.n) if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != (a.n,):
        raise LinalgError(f"x0 shape {x0.shape} does not match matrix size {a.n}")
    for name, v in (("rhs", b), ("x0", x0)):
        if not np.isfinite(v).all():
            raise LinalgError(f"{name} contains non-finite values")
    if direction is not None:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (a.n,):
            raise LinalgError(
                f"direction shape {direction.shape} does not match matrix size {a.n}"
            )

    shares = a.shares
    if shares is None or shares.values is not a.values:
        shares = CgShares(a)
    w = shares.work
    if b is not w.rhs:
        w.rhs[:] = b
    # shares that kept their rows keep A x of the last solution, which is
    # A x0 where x0 is that solution bit for bit (a zero of the other sign
    # would start from the solution's; a rewrite of w.x would only take the
    # other shares' rows out of their caches)
    w.start_kept[0] = w.kept @ w.valid and (w.x[: a.n].view(np.int64) == x0.view(np.int64)).all()
    if not w.start_kept[0]:
        w.x[: a.n] = x0
    if direction is not None:
        w.p[: a.n] = direction
    w.projected[0] = direction is not None
    iterations, residual, converged, error = shares.solve(tol, int(max_iter))
    w.kept[:] = 0.0
    if error == "diagonal":
        diag = a.diagonal()
        i = int(np.argmax(diag <= 0))
        raise SpdViolationError(f"non-positive diagonal entry {diag[i]:.3e} at row {i}")
    if error is not None:
        raise SpdViolationError(error)
    return w.x[: a.n].copy(), SolveReport(
        iterations, residual, converged, time.perf_counter() - t_start
    )
