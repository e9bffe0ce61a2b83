"""P1 tetrahedral discretization of the implicit phase-change heat equation.

One backward-Euler step with coefficients frozen at the previous time level
produces the SPD system

    (M/tau + K) T_new = (M/tau) T_prev (+ lumped source),

where M is the row-sum lumped capacity matrix (effective capacity includes
the latent-heat spike) and K the stiffness matrix, both with piecewise
constant cell coefficients evaluated at the cell-mean previous temperature.
Mass lumping keeps M diagonal and prevents oscillations at the latent
spike; one-point coefficient quadrature matches the previous-level
linearization and cannot produce negative lumped entries.

K and M are linear in the per-cell coefficients, so the Assembler
precomputes, per mesh, sparse operators from the element geometry: G_K
(CSR slots x cells, its rows found by one stable sort of the entries'
(row, col) keys), G_M (nodes x cells) and the cell-mean operator C (cells
x nodes).  A step is then C @ T_prev, the coefficient law on the cell
means, K = G_K @ lam and M = G_M @ c.  CSR products sum each row in
storage order, so the values are bit-identical for any split of the rows.
With workers, the fill and the CG solve of a step run in the same
contiguous row shares (the calling process plus forked processes, writing
disjoint row ranges of shared buffers; see cryoground.parallel and
cryoground.linalg).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sp

from .linalg import DOT_CHUNK, CgShares, CsrMatrix, csr_rows, matvec_into
from .mesh import Mesh, _volumes, tet_volume
from .parallel import ForkPool, ShareSync, WorkerFailure, pool_available, usable_cpus
from .physics import FREEZING_POROUS, MaterialTable, frozen_thawed_coeffs

# cells per block of the element-geometry pass in Assembler.__init__
_GEOMETRY_BLOCK = 4096
# commands of the pooled share task
_FILL, _CG = 0.0, 1.0


class FemError(ValueError):
    """Inconsistent sizes or invalid discretization inputs."""


class UnknownTagError(FemError):
    """A boundary tag that does not occur in the mesh."""


@dataclass
class TemperatureField:
    """Nodal temperatures (deg C) at one time level."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise FemError(f"field values must be 1-d, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise FemError("field contains non-finite values")

    @classmethod
    def uniform(cls, mesh: Mesh, value: float, time: float = 0.0) -> "TemperatureField":
        return cls(np.full(mesh.n_nodes, float(value)), time)

    def copy(self) -> "TemperatureField":
        return TemperatureField(self.values.copy(), self.time)


@dataclass
class LinearSystem:
    """Sparse matrix and right-hand side from one implicit step.

    The sparsity pattern arrays are shared with the assembler and read-only;
    values and rhs are owned by this system, except after
    assemble(reuse_buffers=True), which hands out the assembler's buffers.
    """

    matrix: CsrMatrix
    rhs: np.ndarray


# ---------------------------------------------------------------------------
# single-cell operations
# ---------------------------------------------------------------------------


def _cell_gradients(mesh: Mesh, cell: int) -> tuple[np.ndarray, float]:
    """Constant P1 basis gradients (3, 4) and the cell volume."""
    vol = tet_volume(mesh, cell)  # raises on degenerate cells
    p = mesh.nodes[mesh.cells[cell]]
    e = p[1:] - p[0]  # rows: edge vectors
    inv = np.linalg.inv(e)
    g = np.empty((3, 4))
    g[:, 1:] = inv
    g[:, 0] = -inv.sum(axis=1)
    return g, vol


def element_stiffness(mesh: Mesh, cell: int, lam_cell: float) -> np.ndarray:
    """4x4 stiffness block lam * V * (grad phi_i . grad phi_j).

    Symmetric with zero row sums (gradients of the P1 partition of unity).
    """
    g, vol = _cell_gradients(mesh, cell)
    return lam_cell * vol * (g.T @ g)


def element_lumped_mass(mesh: Mesh, cell: int, c_cell: float) -> np.ndarray:
    """Row-sum lumped capacity: each of the 4 nodes receives c * V / 4."""
    vol = tet_volume(mesh, cell)
    return np.full(4, c_cell * vol / 4.0)


def cell_coefficients(
    mesh: Mesh, cell: int, field_prev: TemperatureField, table: MaterialTable
) -> tuple[float, float]:
    """(effective capacity, conductivity) of one cell, frozen at the
    previous time level.

    The cell temperature is the arithmetic mean of the four nodal values of
    field_prev; the region material supplies the frozen/thawed coefficients.
    """
    if len(field_prev.values) != mesh.n_nodes:
        raise FemError(
            f"field has {len(field_prev.values)} values for {mesh.n_nodes} nodes"
        )
    mat = table.for_region(mesh.cell_region[cell])
    model = table.phase
    t_cell = float(field_prev.values[mesh.cells[cell]].mean())
    crm, crp, lamm, lamp = frozen_thawed_coeffs(mat)
    phi = (t_cell - model.t_star + model.delta) / (2.0 * model.delta)
    phi = min(max(phi, 0.0), 1.0)
    lam_cell = lamm + phi * (lamp - lamm)
    c_cell = crm + phi * (crp - crm)
    if mat.kind == FREEZING_POROUS and (
        model.t_star - model.delta < t_cell < model.t_star + model.delta
    ):
        c_cell += model.latent_volumetric / (2.0 * model.delta)
    return c_cell, lam_cell


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------


def _sum_operator(key: np.ndarray, weights: np.ndarray, per_cell: int, ncells: int):
    """CSR operator that sums weighted cell values onto the distinct keys.

    Entry e belongs to cell e // per_cell and carries weights[e].  One
    stable sort lists each key's entries contiguously in entry order (so in
    ascending cell order); row i of the operator holds the entries of the
    i-th smallest key.  Returns (operator, distinct keys ascending); the
    index arrays are int32.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    slot_keys = key[starts]
    del key, head
    indptr = np.append(starts, len(order)).astype(np.int32)
    del starts
    data = weights[order]
    order //= per_cell
    op = _sp.csr_matrix(
        (data, order.astype(np.int32), indptr), shape=(len(indptr) - 1, ncells), copy=False
    )
    op.has_sorted_indices = True
    return op, slot_keys


def _rows_of(op, lo: int, hi: int):
    return csr_rows(op.indptr, op.indices, op.data, lo, hi, op.shape[1])


class Assembler:
    """Reusable global assembler for a fixed mesh and material table.

    The K and M values are linear in the per-cell coefficients, so building
    the assembler precomputes three sparse operators from the element
    geometry (computed in fixed blocks of cells):
    - G_K (nnz x cells): K_vals = G_K @ lam_cell; its rows are the CSR slots
      of the pattern, found by one stable sort of the (row, col) keys of
      all element entries;
    - G_M (nodes x cells): the lumped capacity M = G_M @ c_cell;
    - C (cells x nodes): the cell-mean temperatures C @ T.
    Each assemble() call computes the cell means of the previous field,
    evaluates the coefficient law into preallocated buffers and applies the
    two operators; a CSR product sums each row in storage order, so every
    value is bit-identical however the rows are split.

    With workers > 1 the step runs in row shares (see cryoground.parallel):
    each share owns a contiguous range of matrix rows, cut at multiples of
    linalg.DOT_CHUNK and balanced by stored entries, and fills those rows
    of shared buffers from the span of cells the rows touch.  The matrix an
    assemble(reuse_buffers=True) call returns carries the same shares, so
    cg_solve runs its loop in them too.  Forked worker processes run all
    shares but the last, which the calling process runs.
    """

    def __init__(self, mesh: Mesh, table: MaterialTable, workers: int = 1):
        self.mesh = mesh
        self.table = table
        self.workers = max(1, int(workers))

        m = mesh.n_cells
        n = mesh.n_nodes
        if m == 0:
            raise FemError("cannot assemble on a mesh with no cells")
        cells = mesh.cells
        uses = np.bincount(cells.ravel(), minlength=n)
        if not uses.all():
            orphan = int(np.argmin(uses))  # the first node no cell uses
            raise FemError(f"node {orphan} belongs to no cell; compact the mesh before assembly")

        # element geometry, a block of cells at a time so that the per-cell
        # temporaries stay small; kgeom holds V * (grad . grad).  The
        # gradients are the columns of the inverse edge matrix, the
        # adjugate (cross products of the edges) over the determinant.
        vols = np.empty(m)
        kgeom = np.empty((m, 16))
        for c0 in range(0, m, _GEOMETRY_BLOCK):
            block = slice(c0, c0 + _GEOMETRY_BLOCK)
            p = mesh.nodes[cells[block]]
            e = p[:, 1:] - p[:, :1]
            adj = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])  # rows e2 x e3, e3 x e1, e1 x e2
            det = np.einsum("mk,mk->m", e[:, 0], adj[:, 0])
            vols[block] = _volumes(p, first=c0, det=det)  # raises on degenerate cells
            grads = np.empty((len(p), 3, 4))
            np.divide(adj.transpose(0, 2, 1), det[:, None, None], out=grads[:, :, 1:])
            grads[:, :, 0] = -grads[:, :, 1:].sum(axis=2)
            kblock = kgeom[block].reshape(-1, 4, 4)
            np.einsum("mki,mkj->mij", grads, grads, out=kblock)
            kblock *= vols[block, None, None]

        # G_K and the CSR pattern from one sort of the 16 (row, col) keys of
        # every element block (entry 16 c + 4 i + j)
        self._gk, keys = _sum_operator(
            (cells[:, :, None] * np.int64(n) + cells[:, None, :]).ravel(), kgeom.ravel(), 16, m
        )
        del kgeom
        self.nnz = nnz = len(keys)
        self.column_indices = keys % n
        urows = keys // n
        del keys
        self.row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(urows, minlength=n), out=self.row_offsets[1:])
        for arr in (self.row_offsets, self.column_indices):
            arr.flags.writeable = False

        # diagonal slot of every row (always present for FEM patterns)
        self._diag_slots = np.flatnonzero(self.column_indices == urows)
        del urows
        if len(self._diag_slots) != n:
            raise FemError("internal error: missing diagonal slot in pattern")
        self._pattern = CsrMatrix(
            self.row_offsets, self.column_indices, np.zeros(nnz), diagonal_slots=self._diag_slots
        )

        # G_M (4 entries per cell onto node rows, each V / 4), the geometric
        # lumped volumes (for source terms) and C (weights 1/4 on the cell's
        # nodes, in the cell's node order)
        self._gm, _ = _sum_operator(cells.ravel(), np.repeat(vols / 4.0, 4), 4, m)
        self.node_volumes = self._gm @ np.ones(m)
        self._cmean = _sp.csr_matrix(
            (
                np.full(4 * m, 0.25),
                cells.ravel().astype(np.int32),
                np.arange(0, 4 * m + 1, 4, dtype=np.int32),
            ),
            shape=(m, n),
            copy=False,
        )

        # per-cell material coefficient tables
        unknown = ~np.isin(mesh.cell_region, list(table.materials))
        if unknown.any():
            table.for_region(mesh.cell_region[unknown].min())  # raises UnknownRegionError
        coeffs = np.empty((5, m))
        for tag, mat in table.materials.items():
            row = [*frozen_thawed_coeffs(mat), table.latent_for(mat)]
            coeffs[:, mesh.cell_region == tag] = np.array(row)[:, None]
        crm, crp, lamm, lamp, lat = coeffs
        self._phase = model = table.phase
        self._crm, self._dcr = crm, crp - crm
        self._lamm, self._dlam = lamm, lamp - lamm
        self._latd = lat / (2.0 * model.delta)
        # per-step buffers of the cell values (each process writes its own)
        self._tm, self._phi, self._lam, self._c = np.empty((4, m))
        self._band = np.empty((2, m), dtype=bool)

        self._whole = (
            slice(0, m), slice(0, nnz), slice(0, n), self._cmean, self._gk, self._gm, self._diag_slots
        )
        self._own = None  # (A, M, rhs, CgShares) of serial reuse_buffers calls
        self._pool: ForkPool | None = None
        self._pool_workers = 0

    # -- per-step fill -----------------------------------------------------

    def _coefficients(self, cells: slice):
        """The coefficient law at the cell means self._tm[cells], written
        into self._lam and self._c: phase fraction phi clipped to [0, 1],
        lam and c interpolated between frozen and thawed, plus the latent
        spike where the mean lies strictly inside the phase band."""
        model = self._phase
        tm, phi, lam, c = (a[cells] for a in (self._tm, self._phi, self._lam, self._c))
        inside, below = (a[cells] for a in self._band)
        np.subtract(tm, model.t_star, out=phi)
        phi += model.delta
        phi /= 2.0 * model.delta
        np.clip(phi, 0.0, 1.0, out=phi)
        np.multiply(phi, self._dlam[cells], out=lam)
        lam += self._lamm[cells]
        np.multiply(phi, self._dcr[cells], out=c)
        c += self._crm[cells]
        np.greater(tm, model.t_star - model.delta, out=inside)
        np.less(tm, model.t_star + model.delta, out=below)
        inside &= below
        np.add(c, self._latd[cells], out=c, where=inside)

    def _fill(self, plan, tau: float, bufs):
        """K and M values of the plan's rows at the previous field; with
        tau > 0 also A = K + M/tau and the rhs (M/tau) T_prev of those rows.

        A plan is (cells, slots, rows, C rows, G_K rows, G_M rows, diagonal
        slots of the rows): the span of cells its rows touch and the
        operators' rows for it.  ``bufs`` is (T_prev, K out, M out, rhs
        out).  The cell buffers are indexed globally, so the products read
        only the plan's own cells.
        """
        cells, slots, rows, cmean, gk, gm, diag = plan
        t_prev, k_out, m_out, rhs_out = bufs
        matvec_into(cmean, t_prev, self._tm[cells])
        self._coefficients(cells)
        matvec_into(gk, self._lam, k_out[slots])
        matvec_into(gm, self._c, m_out[rows])
        if tau > 0:
            m_over_tau = m_out[rows] / tau
            k_out[diag] += m_over_tau
            np.multiply(m_over_tau, t_prev[rows], out=rhs_out[rows])

    # -- assembly ----------------------------------------------------------

    def stiffness_values(self, field_prev, workers: int | None = None) -> np.ndarray:
        """CSR value array of K alone (used by property tests)."""
        return self._values(self._field_array(field_prev), 0.0, workers, False)[0]

    def capacity_diagonal(self, field_prev, workers: int | None = None) -> np.ndarray:
        """Lumped capacity diagonal M (J/K per node) at the previous level."""
        return self._values(self._field_array(field_prev), 0.0, workers, False)[1]

    def _field_array(self, field_prev) -> np.ndarray:
        vals = field_prev.values if isinstance(field_prev, TemperatureField) else field_prev
        vals = np.asarray(vals, dtype=np.float64)
        if vals.shape != (self.mesh.n_nodes,):
            raise FemError(
                f"field has shape {vals.shape}, mesh has {self.mesh.n_nodes} nodes"
            )
        return vals

    def effective_workers(self, workers: int | None = None) -> int:
        """Worker processes an assemble() call with this ``workers`` argument
        runs: the request (default: the assembler's own count) capped at the
        CPUs this process may run on, and 1 where the worker pool is
        unavailable (see parallel.pool_available)."""
        nw = self.workers if workers is None else max(1, int(workers))
        # extra processes beyond the usable CPUs only add convoy overhead
        nw = min(nw, usable_cpus())
        return nw if pool_available() else 1

    def _values(self, t_prev: np.ndarray, tau: float, workers: int | None, reuse_buffers: bool):
        """(K or A values, M diagonal, rhs, CgShares or None) at the
        previous field; see _fill for tau.  With ``reuse_buffers`` the
        arrays are the assembler's own (the rhs is the CG work vector b of
        the shares), else fresh."""
        nw = self.effective_workers(workers)
        n = self.mesh.n_nodes
        if nw > 1:
            self._ensure_pool(nw)
            self._shared[0][:] = t_prev
            self._cmd[:2] = (_FILL, tau)
            self._pool.dispatch()
            if reuse_buffers:
                return (*self._shared[1:], self._pooled_cg)
            return (*(a.copy() for a in self._shared[1:]), None)
        if reuse_buffers:
            if self._own is None:
                k_vals = np.empty(self.nnz)
                shares = CgShares(self._pattern.with_values(k_vals))
                self._own = (k_vals, np.empty(n), shares.work.b[:n], shares)
            k_vals, m_vals, rhs, shares = self._own
        else:
            k_vals, m_vals, rhs, shares = np.empty(self.nnz), np.empty(n), np.empty(n), None
        self._fill(self._whole, tau, (t_prev, k_vals, m_vals, rhs))
        return k_vals, m_vals, rhs, shares

    def assemble(
        self,
        field_prev,
        tau: float,
        source: np.ndarray | None = None,
        workers: int | None = None,
        reuse_buffers: bool = False,
    ) -> LinearSystem:
        """One implicit step system: A = M/tau + K, b = (M/tau) T_prev.

        ``source`` is an optional nodal volumetric heat source (W/m^3),
        integrated with the geometric lumped weights into the rhs.
        ``reuse_buffers`` lets the assembler hand out its own buffers (and
        the row shares cg_solve then runs in); the returned system is then
        only valid until the next assemble() call (the sequential time loop
        uses this).
        """
        if not tau > 0:
            raise FemError(f"tau must be > 0, got {tau}")
        t_prev = self._field_array(field_prev)
        k_vals, _, rhs, shares = self._values(t_prev, float(tau), workers, reuse_buffers)
        if source is not None:
            source = np.asarray(source, dtype=np.float64)
            if source.shape != rhs.shape:
                raise FemError(f"source shape {source.shape} does not match node count")
            rhs += self.node_volumes * source
        return LinearSystem(self._pattern.with_values(k_vals, shares), rhs)

    # -- worker pool -------------------------------------------------------

    def _ensure_pool(self, nw: int):
        if self._pool is not None and self._pool_workers == nw and self._pool.alive():
            return
        self.close()
        n = self.mesh.n_nodes
        # contiguous row ranges holding about nnz / nw stored entries each,
        # cut at whole dot-product chunks; a cut never passes the last whole
        # chunk, so a mesh too small for nw shares leaves some empty
        cuts = np.searchsorted(self.row_offsets, self.nnz * np.arange(1, nw) / nw)
        cuts = np.round(cuts / DOT_CHUNK).astype(np.int64) * DOT_CHUNK
        cuts = np.minimum(cuts, n // DOT_CHUNK * DOT_CHUNK)
        bounds = [0, *cuts.tolist(), n]
        self._plans = [self._plan(r0, r1) for r0, r1 in zip(bounds, bounds[1:])]
        self._pooled_cg = CgShares(
            self._pattern.with_values(ForkPool.shared_array(self.nnz)),
            bounds,
            ForkPool.shared_array,
            self._run_cg,
        )
        self._shared = (
            ForkPool.shared_array(n),  # T_prev
            self._pooled_cg.values,  # K, then A
            ForkPool.shared_array(n),  # M
            self._pooled_cg.work.b[:n],  # rhs
        )
        self._cmd = ForkPool.shared_array(3)  # (command, tau or tol, max_iter)
        self._sync = ShareSync(nw)
        self._pool = ForkPool(nw, self._share_task, self._sync)
        self._pool_workers = nw

    def _plan(self, r0: int, r1: int):
        """The fill plan of matrix rows [r0, r1) (see _fill)."""
        touched = self._gm.indices[self._gm.indptr[r0] : self._gm.indptr[r1]]
        c0, c1 = (int(touched.min()), int(touched.max()) + 1) if len(touched) else (0, 0)
        s0, s1 = int(self.row_offsets[r0]), int(self.row_offsets[r1])
        return (
            slice(c0, c1),
            slice(s0, s1),
            slice(r0, r1),
            _rows_of(self._cmean, c0, c1),
            _rows_of(self._gk, s0, s1),
            _rows_of(self._gm, r0, r1),
            self._diag_slots[r0:r1],
        )

    def _share_task(self, w: int):
        command, arg, max_iter = self._cmd
        if command == _FILL:
            self._fill(self._plans[w], arg, self._shared)
        else:
            barrier = self._sync.barrier
            self._cg_result = self._pooled_cg.share(w, arg, int(max_iter), lambda: barrier(w))

    def _run_cg(self, tol: float, max_iter: int):
        if self._pool is None:
            raise WorkerFailure("pool is closed")
        self._cmd[:] = (_CG, tol, max_iter)
        self._pool.dispatch()
        return self._cg_result

    def close(self):
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_workers = 0

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Dirichlet boundary conditions
# ---------------------------------------------------------------------------


def nodes_for_tags(mesh: Mesh, tags) -> np.ndarray:
    """Sorted unique node indices on facets carrying any of the tags."""
    tags = [int(t) for t in tags]
    present = set(np.unique(mesh.facet_tag).tolist())
    for t in tags:
        if t not in present:
            raise UnknownTagError(f"boundary tag {t} does not occur in the mesh")
    mask = np.isin(mesh.facet_tag, tags)
    return np.unique(mesh.boundary_facets[mask])


class DirichletPlan:
    """Precomputed symmetric-elimination positions for a fixed sparsity
    pattern and constrained node set (values may change per step).

    ``nodes`` must be strictly increasing (as nodes_for_tags returns them):
    the plan locates a node's value by binary search in this list.
    """

    def __init__(self, matrix: CsrMatrix, nodes: np.ndarray):
        n = matrix.n
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or (np.diff(nodes) <= 0).any():
            raise FemError("constraint nodes must be strictly increasing (unique)")
        if len(nodes) and (nodes[0] < 0 or nodes[-1] >= n):
            raise FemError(f"constraint node outside [0, {n})")
        self.nodes = nodes
        offs = matrix.row_offsets
        cols = matrix.column_indices
        constrained = np.zeros(n, dtype=bool)
        constrained[nodes] = True

        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
        self._row_positions = np.flatnonzero(constrained[rows])
        cross = self._row_positions[~constrained[cols[self._row_positions]]]
        self._cross_positions = cross  # entries (i constrained, j free)
        self._cross_cols = cols[cross]
        self._cross_owner = rows[cross]

        # symmetric counterparts (j free row, i constrained col), located by
        # binary search on the globally sorted (row, col) key
        key = rows * np.int64(n) + cols
        want = self._cross_cols * np.int64(n) + self._cross_owner
        pos = np.searchsorted(key, want)
        ok = (pos < len(key)) & (key[np.minimum(pos, len(key) - 1)] == want)
        if not ok.all():
            raise FemError("matrix sparsity is not structurally symmetric")
        self._sym_positions = pos

        # diagonal slots of the constrained rows
        dpos = np.searchsorted(key, nodes * np.int64(n) + nodes)
        ok = (dpos < len(key)) & (key[np.minimum(dpos, len(key) - 1)] == nodes * np.int64(n) + nodes)
        if not ok.all():
            raise FemError("constrained row lacks a stored diagonal entry")
        self._diag_positions = dpos

        # map constrained node id -> index into self.nodes
        self._owner_slot = np.searchsorted(nodes, self._cross_owner)

    def apply(self, system: LinearSystem, values: np.ndarray) -> LinearSystem:
        """Symmetric elimination of the constraints, in place.

        For each constrained node i with value g_i the rhs of every free row
        j loses A_ji g_i, then row i and column i are zeroed, A_ii = 1 and
        b_i = g_i.  Symmetry (hence SPD-ness for CG) is preserved.
        """
        g = np.asarray(values, dtype=np.float64)
        if g.shape != self.nodes.shape:
            raise FemError("constraint value array does not match plan nodes")
        a = system.matrix.values
        b = system.rhs
        np.add.at(b, self._cross_cols, -a[self._cross_positions] * g[self._owner_slot])
        a[self._row_positions] = 0.0
        a[self._sym_positions] = 0.0
        a[self._diag_positions] = 1.0
        b[self.nodes] = g
        return system

