"""Sparse CSR storage and a Jacobi-preconditioned conjugate-gradient solver.

The matrices produced by one implicit time step are symmetric positive
definite, so CG with diagonal preconditioning is sufficient; the time-step
term dominates the diagonal for realistic step sizes, which keeps iteration
counts low.  Determinism contract: dot products reduce over fixed-size
chunks combined pairwise in a fixed order, and the matrix-vector product
(scipy's CSR kernel, through CsrMatrix.scipy_view) sums each row in storage
order with no cross-row reductions, so results are reproducible bit for bit
for a given environment regardless of how rows are split into blocks.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as _sp


class LinalgError(ValueError):
    """Dimension mismatches and invalid sparse structure."""


class SpdViolationError(LinalgError):
    """The matrix cannot be SPD (non-positive diagonal entry)."""


_DOT_CHUNK = 1 << 15


@dataclass
class CsrMatrix:
    """Square sparse matrix in compressed-sparse-row form.

    Column indices are sorted and unique within each row.  A builder that
    knows where the diagonal entries are stored (every row must have one)
    may pass their positions as ``diagonal_slots``; diagonal() then gathers
    them instead of searching every row.
    """

    row_offsets: np.ndarray
    column_indices: np.ndarray
    values: np.ndarray
    diagonal_slots: np.ndarray | None = field(
        default=None, kw_only=True, repr=False, compare=False
    )

    def __post_init__(self):
        self.row_offsets = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        self.column_indices = np.ascontiguousarray(self.column_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.row_offsets.ndim != 1 or len(self.row_offsets) < 1:
            raise LinalgError("row_offsets must be a 1-d array of length n+1")
        if self.row_offsets[0] != 0 or (np.diff(self.row_offsets) < 0).any():
            raise LinalgError("row_offsets must start at 0 and be nondecreasing")
        if self.row_offsets[-1] != len(self.column_indices):
            raise LinalgError("row_offsets[-1] must equal nnz")
        if len(self.values) != len(self.column_indices):
            raise LinalgError("values and column_indices must have equal length")
        if self.diagonal_slots is not None:
            slots = self.diagonal_slots = np.asarray(self.diagonal_slots, dtype=np.int64)
            offs = self.row_offsets
            if (
                slots.shape != (self.n,)
                or (slots < offs[:-1]).any()
                or (slots >= offs[1:]).any()
                or (self.column_indices[slots] != np.arange(self.n)).any()
            ):
                raise LinalgError("diagonal_slots do not locate the diagonal of every row")
        self._scipy_pattern = None

    @property
    def n(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def nnz(self) -> int:
        return len(self.column_indices)

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals) -> "CsrMatrix":
        """Build from triplets; duplicate (row, col) entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise LinalgError(f"triplet indices outside [0, {n})")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if len(rows):
            key = rows * np.int64(n) + cols
            uniq, inverse = np.unique(key, return_inverse=True)
            merged = np.zeros(len(uniq))
            np.add.at(merged, inverse, vals)
            urows = (uniq // n).astype(np.int64)
            ucols = (uniq % n).astype(np.int64)
        else:
            merged = vals
            urows = rows
            ucols = cols
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(offsets, urows + 1, 1)
        np.cumsum(offsets, out=offsets)
        return cls(offsets, ucols, merged)

    @classmethod
    def from_dense(cls, a) -> "CsrMatrix":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise LinalgError(f"need a square 2-d array, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], rows, cols, a[rows, cols])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.row_offsets))
        out[rows, self.column_indices] = self.values
        return out

    def diagonal(self) -> np.ndarray:
        if self.diagonal_slots is not None:
            return self.values[self.diagonal_slots]
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.row_offsets))
        hit = self.column_indices == rows
        d = np.zeros(self.n)
        d[rows[hit]] = self.values[hit]
        return d

    def with_values(self, values: np.ndarray) -> "CsrMatrix":
        """Matrix with this one's (already checked) sparsity pattern and
        diagonal slots and the given values, which it holds without copying.

        The pattern arrays are shared and must not change afterwards (the
        assembler's are read-only); the scipy wrapper of the pattern is then
        built once and reused by every matrix made this way.
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (self.nnz,):
            raise LinalgError(f"need {self.nnz} values, got shape {values.shape}")
        if self._scipy_pattern is None:
            self._scipy_pattern = self.scipy_view()
        out = copy.copy(self)
        out.values = values
        return out

    def copy(self) -> "CsrMatrix":
        return CsrMatrix(self.row_offsets.copy(), self.column_indices.copy(), self.values.copy())

    def scipy_view(self):
        """Zero-copy scipy wrapper used for the fast matvec kernel."""
        if self._scipy_pattern is not None:
            a = copy.copy(self._scipy_pattern)
            a.data = self.values
            return a
        a = _sp.csr_matrix(
            (self.values, self.column_indices, self.row_offsets), shape=(self.n, self.n), copy=False
        )
        a.has_sorted_indices = True
        a.has_canonical_format = True
        return a


@dataclass
class SolveReport:
    """Outcome of one linear solve."""

    iterations: int
    residual: float
    converged: bool
    wall_seconds: float


def det_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Dot product with a fixed-order pairwise reduction over fixed chunks.

    Chunk boundaries depend only on the vector length, so the value does not
    change with the number of workers anywhere in the pipeline.
    """
    n = len(a)
    if n <= _DOT_CHUNK:
        return float(np.dot(a, b))
    parts = [
        np.dot(a[i : i + _DOT_CHUNK], b[i : i + _DOT_CHUNK]) for i in range(0, n, _DOT_CHUNK)
    ]
    arr = np.array(parts)
    while len(arr) > 1:
        half = len(arr) // 2
        tail = arr[2 * half :]
        arr = np.concatenate([arr[: 2 * half : 2] + arr[1 : 2 * half : 2], tail])
    return float(arr[0])


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(det_dot(v, v)))


def cg_solve(
    a: CsrMatrix,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> tuple[np.ndarray, SolveReport]:
    """Preconditioned conjugate gradients for SPD systems.

    Jacobi (diagonal) preconditioning is always applied.  Convergence is
    declared on the true residual: when the recurrence residual passes the
    tolerance the residual is recomputed as b - A x and must pass as well,
    otherwise iteration continues.  The relative criterion
    ||b - A x|| / ||b|| <= tol falls back to an absolute one for b = 0.
    Non-convergence within max_iter is reported, not raised.
    """
    t_start = time.perf_counter()
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n,):
        raise LinalgError(f"rhs shape {b.shape} does not match matrix size {a.n}")
    if tol <= 0:
        raise LinalgError(f"tol must be > 0, got {tol}")

    diag = a.diagonal()
    if (diag <= 0).any():
        i = int(np.argmax(diag <= 0))
        raise SpdViolationError(f"non-positive diagonal entry {diag[i]:.3e} at row {i}")
    inv_diag = 1.0 / diag

    a_sp = a.scipy_view()
    x = np.zeros(a.n) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (a.n,):
        raise LinalgError(f"x0 shape {x.shape} does not match matrix size {a.n}")

    b_norm = _norm(b)
    denom = b_norm if b_norm > 0.0 else 1.0

    r = b - a_sp @ x
    residual = _norm(r) / denom
    if residual <= tol:
        return x, SolveReport(0, residual, True, time.perf_counter() - t_start)

    z = inv_diag * r
    p = z.copy()
    step = np.empty_like(p)
    rz = det_dot(r, z)
    iterations = 0
    converged = False
    for k in range(1, max_iter + 1):
        q = a_sp @ p
        pq = det_dot(p, q)
        if pq <= 0.0:
            raise SpdViolationError(f"p^T A p = {pq:.3e} <= 0 at iteration {k}")
        alpha = rz / pq
        np.multiply(p, alpha, out=step)
        x += step
        np.multiply(q, alpha, out=step)
        r -= step
        iterations = k
        if _norm(r) / denom <= tol:
            r_true = b - a_sp @ x
            residual = _norm(r_true) / denom
            if residual <= tol:
                converged = True
                break
            # recurrence drifted: resync and restart the search direction
            r = r_true
            np.multiply(inv_diag, r, out=z)
            rz = det_dot(r, z)
            p[:] = z
            continue
        np.multiply(inv_diag, r, out=z)
        rz_new = det_dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z

    if not converged:
        residual = _norm(b - a_sp @ x) / denom
    return x, SolveReport(iterations, residual, converged, time.perf_counter() - t_start)
