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
(CSR slots x cells, built by one stable sort of the keys of the 10
upper-triangle entries of each element matrix and mirrored, as K is
symmetric), G_M (nodes x cells) and the cell-mean operator C (cells
x nodes).  Cells whose coefficients do not depend on the temperature (the
single-phase layers) contribute a fixed share K_const and M_const, summed
once; the operators keep only the phase-change cells.  A step is then
C @ T_prev and the coefficient law on the phase-change cells,
K = G_K @ lam + K_const and M = G_M @ c + M_const.
CSR products sum each row in storage order, so the values are
bit-identical for any split of the rows.  A fill whose cells all kept
their (lam, c), as outside the phase band, copies its last products.
A step's rows are cut once, into the CG's shares (linalg.share_bounds):
each share fills its rows of A and b and runs the CG loop on them, and the
serial step is the one-share case.  With workers the shares run in the
calling process plus forked ones, writing disjoint row ranges of shared
buffers; see cryoground.parallel and cryoground.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as _sp

from .linalg import CgShares, CsrMatrix, csr_rows, matvec_into, share_bounds
from .mesh import Mesh, _volumes
from .parallel import ForkPool, ShareSync, WorkerFailure, pool_available, usable_cpus
from .physics import MaterialTable, apparent_coefficients, frozen_thawed_coeffs

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
    """Nodal temperatures (deg C) at one time level, and optionally those
    of the level before (``previous``), from which a time stepper takes the
    last increment.  A field built without it starts a new history."""

    values: np.ndarray
    time: float = 0.0
    previous: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise FemError(f"field values must be 1-d, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise FemError("field contains non-finite values")
        if self.previous is not None:
            self.previous = np.asarray(self.previous, dtype=np.float64)
            if self.previous.shape != self.values.shape:
                raise FemError(
                    f"previous level has shape {self.previous.shape}, "
                    f"field has {self.values.shape}"
                )
            if not np.isfinite(self.previous).all():
                raise FemError("previous level contains non-finite values")

    @classmethod
    def uniform(cls, mesh: Mesh, value: float, time: float = 0.0) -> "TemperatureField":
        return cls(np.full(mesh.n_nodes, float(value)), time)

    def copy(self) -> "TemperatureField":
        previous = None if self.previous is None else self.previous.copy()
        return TemperatureField(self.values.copy(), self.time, previous)


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
# global assembly
# ---------------------------------------------------------------------------


def _sum_operator(key: np.ndarray, weights: np.ndarray, per_cell: int, column: np.ndarray):
    """CSR operator that sums weighted cell values onto the distinct keys.

    Entry e belongs to cell e // per_cell and carries weights[e]; cell c is
    the operator's column column[c].  One stable sort lists each key's
    entries contiguously in entry order (so in ascending cell order); row i
    of the operator holds the entries of the i-th smallest key.  Returns
    (operator, distinct keys ascending); the index arrays are int32.  G_K
    takes the 10 upper-triangle entries per cell, G_M the 4 node entries.
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
        (data, column[order], indptr), shape=(len(indptr) - 1, len(column)), copy=False
    )
    return op, slot_keys


def _element_matrices(p: np.ndarray, first: int):
    """Volumes and V * (grad_i . grad_j) (k, 4, 4) of the tets with corners p
    (k, 4, 3), cell ``first`` first; the gradients are the adjugate (cross
    products of the edges) over the determinant."""
    e = p[:, 1:] - p[:, :1]
    adj = np.cross(e[:, [1, 2, 0]], e[:, [2, 0, 1]])  # rows e2 x e3, e3 x e1, e1 x e2
    det = np.einsum("mk,mk->m", e[:, 0], adj[:, 0])
    vols = _volumes(p, first=first, det=det)  # raises on degenerate cells
    grads = np.empty((len(p), 3, 4))
    np.divide(adj.transpose(0, 2, 1), det[:, None, None], out=grads[:, :, 1:])
    grads[:, :, 0] = -grads[:, :, 1:].sum(axis=2)
    kmat = np.einsum("mki,mkj->mij", grads, grads)
    kmat *= vols[:, None, None]
    return vols, kmat


def _leading_columns(op, ncols: int):
    """The first ``ncols`` columns of ``op``; each row keeps its entries in
    storage order, which must list each row's columns below ``ncols`` in
    ascending order.  Every row of ``op`` must hold an entry (as
    _sum_operator's do)."""
    kept = op.indices < ncols
    indptr = np.zeros(op.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.add.reduceat(kept, op.indptr[:-1], dtype=np.int32), out=indptr[1:])
    sub = _sp.csr_matrix(
        (op.data[kept], op.indices[kept], indptr), shape=(op.shape[0], ncols), copy=False
    )
    sub.has_sorted_indices = True
    return sub


def _rows_of(op, lo: int, hi: int):
    if (lo, hi) == (0, op.shape[0]):
        return op  # all rows: the operator itself
    return csr_rows(op.indptr, op.indices, op.data, lo, hi, op.shape[1])


@dataclass(eq=False)
class _FillPlan:
    """One fill's rows (see Assembler._fill) and the operators' rows for them,
    with the K and M rows of its last products and the (lam, c) they came
    from (None while there are none to reuse).  One process fills a plan."""

    cells: slice
    slots: slice
    rows: slice
    cmean: object
    gk: object
    gm: object
    diag: np.ndarray
    k: np.ndarray | None = None
    m: np.ndarray | None = None
    coeffs: np.ndarray | None = None


class Assembler:
    """Reusable global assembler for a fixed mesh and material table.

    The K and M values are linear in the per-cell coefficients, so building
    the assembler precomputes sparse operators from the element geometry
    (computed in fixed blocks of cells).  A cell is constant when its frozen
    and thawed capacity and conductivity agree and it carries no latent
    heat (the material kind is not consulted), else a phase-change cell.
    - G_K (nnz x phase-change cells): K_vals = G_K @ lam_cell + K_const; its
      rows are the CSR slots of the pattern.  One stable sort of the
      (min node, max node) keys of the 10 upper-triangle entries of each
      element matrix gives the upper operator; the pattern is its keys plus
      the transposes of the off-diagonal ones, and slot s takes upper row
      mirror[s] (the row a sort of all 16 entries gives, as the element
      matrices are bitwise symmetric); K_const sums the constant cells'
      entries once, in the same storage order;
    - G_M (nodes x phase-change cells): M = G_M @ c_cell + M_const;
    - C (phase-change cells x nodes): their mean temperatures C @ T.
    Without constant cells K_const and M_const are zero; without
    phase-change cells the operators are empty.  Each assemble() call
    computes the cell means of the previous field, evaluates the
    coefficient law into preallocated buffers, applies the two operators and
    adds the constant shares; a CSR product sums each row in storage order,
    so every value is bit-identical however the rows are split.  A fill plan
    (see _fill) copies its last K and M rows while its cells keep (lam, c).

    A step runs in the contiguous row shares of linalg.share_bounds (whole
    dot-product chunks, balanced by stored entries): share w fills its rows
    of A and the rhs from the span of phase-change cells they touch, and
    the matrix an assemble(reuse_buffers=True) call returns carries the
    same shares, in which cg_solve runs its loop.  The serial step is one
    share, which fills from the operators themselves; with workers > 1 the
    buffers are shared memory and forked worker processes run all shares
    but the last, which the calling process runs (see cryoground.parallel).
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

        # material coefficients (crho-, crho+, lambda-, lambda+, latent) per
        # region; a cell is constant when its frozen and thawed values agree
        # and it carries no latent heat, and a phase-change cell otherwise
        region = mesh.cell_region
        unknown = ~np.isin(region, list(table.materials))
        if unknown.any():
            table.for_region(region[unknown].min())  # raises UnknownRegionError
        rows = {
            tag: np.array([*frozen_thawed_coeffs(mat), table.latent_for(mat)])
            for tag, mat in table.materials.items()
        }
        const_tags = [
            tag for tag, (crm, crp, lamm, lamp, lat) in rows.items()
            if crp == crm and lamp == lamm and lat == 0.0
        ]
        var = ~np.isin(region, const_tags)
        mv = int(np.count_nonzero(var))
        # operator columns: the phase-change cells first, then the constant
        # cells, each kind in cell order
        column = np.where(var, np.cumsum(var) - 1, mv + np.cumsum(~var) - 1).astype(np.int32)

        # element geometry in blocks of cells, so that the temporaries stay
        # small; K is symmetric, so kgeom and keys keep the 10 upper-triangle
        # entries (li <= lj) per cell: V * (grad . grad), min * n + max node
        li, lj = np.triu_indices(4)
        vols = np.empty(m)
        kgeom = np.empty((m, 10))
        keys = np.empty((m, 10), dtype=np.int64)
        for c0 in range(0, m, _GEOMETRY_BLOCK):
            block = slice(c0, c0 + _GEOMETRY_BLOCK)
            vols[block], kmat = _element_matrices(mesh.nodes[cells[block]], c0)
            kgeom[block] = kmat[:, li, lj]
            a, b = cells[block][:, li], cells[block][:, lj]
            keys[block] = np.minimum(a, b) * n + np.maximum(a, b)
        del kmat, a, b

        # G_K over the upper triangle (row u: the u-th smallest upper key)
        gk, ukeys = _sum_operator(keys.ravel(), kgeom.ravel(), 10, column)
        del kgeom, keys
        # the full pattern: the upper keys and the transposes of the strict
        # upper ones, from one sort; mirror[s] is the upper row of slot s
        strict = np.flatnonzero(ukeys // n != ukeys % n)
        keys = np.concatenate([ukeys, ukeys[strict] % n * n + ukeys[strict] // n])
        order = np.argsort(keys)
        keys = keys[order]
        mirror = np.concatenate([np.arange(len(ukeys)), strict])[order]
        del ukeys, strict, order
        self.nnz = nnz = len(keys)
        self.column_indices = keys % n
        self.row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self.row_offsets[1:])
        del keys
        for arr in (self.row_offsets, self.column_indices):
            arr.flags.writeable = False
        self._pattern = CsrMatrix(self.row_offsets, self.column_indices, np.zeros(nnz))

        # the constant cells' share of K and M is fixed: lam and c of the
        # constant cells by column, zero for the phase-change cells (whose
        # zero products leave each row the sum of its constant entries, in
        # storage order).  G_K and G_M keep the phase-change columns only.
        fixed = np.zeros((2, m))
        for tag in const_tags:
            fixed[:, column[region == tag]] = rows[tag][[2, 0], None]
        # K_const and G_K gather upper rows through mirror; rebinding gk frees
        # the all-columns operator before the G_K gather
        self._k_const = (gk @ fixed[0])[mirror]
        gk = _leading_columns(gk, mv)
        self._gk = gk[mirror]
        del gk, mirror

        # G_M (4 entries per cell onto node rows, each V / 4) and the
        # geometric lumped volumes (for source terms)
        gm, _ = _sum_operator(cells.ravel(), np.repeat(vols / 4.0, 4), 4, column)
        self.node_volumes = gm @ np.ones(m)
        self._m_const = gm @ fixed[1]
        self._gm = _leading_columns(gm, mv)
        del gm, fixed, column

        # C over the phase-change cells: weights 1/4 on the cell's nodes, in
        # the cell's node order
        self._cmean = _sp.csr_matrix(
            (
                np.full(4 * mv, 0.25),
                cells[var].astype(np.int32).ravel(),
                np.arange(0, 4 * mv + 1, 4, dtype=np.int32),
            ),
            shape=(mv, n),
            copy=False,
        )
        coeffs = np.empty((4, mv))
        var_region = region[var]
        for tag, row in rows.items():
            coeffs[:, var_region == tag] = row[:4, None]
        crm, crp, lamm, lamp = coeffs
        self._crm, self._dcr = crm, crp - crm
        self._lamm, self._dlam = lamm, lamp - lamm
        # per-step buffers of the phase-change cells' values (each process
        # writes its own); _coeffs is the pair (lam, c)
        self._tm, self._coeffs = np.empty(mv), np.empty((2, mv))
        self._lam, self._c = self._coeffs
        self._band = np.empty((2, mv), dtype=bool)

        self._serial = self._pooled = None  # the steps' layouts (see _layout)
        self._pool: ForkPool | None = None

    # -- per-step fill -----------------------------------------------------

    def _fill(self, plan: _FillPlan, tau: float, bufs):
        """A = K + M/tau and the rhs (M/tau) T_prev of the plan's rows at the
        previous field.

        ``bufs`` is (T_prev, A out, rhs out).  The cell buffers are
        indexed by phase-change cell, so the products read only the plan's
        own cells; the constant cells' share is added after them.  The
        products are skipped while the plan's (lam, c) equal those of its
        last products: the same kernel on the same inputs gives the same bits.
        """
        cells, slots, rows = plan.cells, plan.slots, plan.rows
        t_prev, a_out, rhs_out = bufs
        matvec_into(plan.cmean, t_prev, self._tm[cells])
        # single-phase cells are constant, so every phase-change cell is
        # freezing-porous and carries the phase model's latent heat
        model = self.table.phase
        apparent_coefficients(
            self._tm[cells], model, self._crm[cells], self._dcr[cells], self._lamm[cells],
            self._dlam[cells], model.latent_volumetric,
            out=(self._c[cells], self._lam[cells], *self._band[:, cells]),
        )
        coeffs = self._coeffs[:, cells]
        if plan.coeffs is None or not np.array_equal(coeffs, plan.coeffs):
            plan.coeffs = None  # rows cut short by an error must not be reused
            if plan.k is None:
                plan.k, plan.m = np.empty_like(a_out[slots]), np.empty_like(rhs_out[rows])
            matvec_into(plan.gk, self._lam, plan.k)
            plan.k += self._k_const[slots]
            matvec_into(plan.gm, self._c, plan.m)
            plan.m += self._m_const[rows]
            plan.coeffs = coeffs.copy()
        # a copy: the caller may change A in place (DirichletPlan.apply)
        a_out[slots] = plan.k
        m_over_tau = plan.m / tau
        a_out[plan.diag] += m_over_tau
        np.multiply(m_over_tau, t_prev[rows], out=rhs_out[rows])

    # -- assembly ----------------------------------------------------------

    def capacity_diagonal(self, field_prev) -> np.ndarray:
        """Lumped capacity diagonal M = G_M @ c + M_const (J/K per node) at
        the previous level, from the operators: the bits of a fill, run none."""
        model = self.table.phase
        c, _ = apparent_coefficients(
            self._cmean @ self._field_array(field_prev), model, self._crm, self._dcr,
            self._lamm, self._dlam, model.latent_volumetric,
        )
        return self._gm @ c + self._m_const

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

    def _layout(self, nw: int):
        """(fill plans, CgShares, (T_prev, A, rhs)) of the step in nw row
        shares, cut by linalg.share_bounds: plan w fills the rows of CG share
        w.  One share fills from the operators themselves into np.zeros
        buffers, more from their rows into shared memory forked shares see."""
        alloc, run = (np.zeros, None) if nw == 1 else (ForkPool.shared_array, self._run_cg)
        bounds = share_bounds(self.row_offsets, nw)
        shares = CgShares(self._pattern.with_values(alloc(self.nnz)), bounds, alloc, run)
        plans = [self._plan(r0, r1) for r0, r1 in zip(bounds, bounds[1:])]
        n = self.mesh.n_nodes
        return plans, shares, (alloc(n), shares.values, shares.work.b[:n])

    def _values(self, t_prev: np.ndarray, tau: float, workers: int | None, reuse_buffers: bool):
        """(A values, rhs, CgShares or None) at the previous field.  The
        fill writes the layout's arrays (the rhs is the CG work vector b of
        the shares), which are returned with ``reuse_buffers``, else copied."""
        nw = self.effective_workers(workers)
        if nw > 1:
            self._ensure_pool(nw)
        elif self._serial is None:
            self._serial = self._layout(1)
        plans, shares, bufs = self._pooled if nw > 1 else self._serial
        bufs[0][:] = t_prev
        if nw > 1:
            self._cmd[:2] = (_FILL, tau)
            self._pool.dispatch()
        else:
            self._fill(plans[0], tau, bufs)
        if reuse_buffers:
            return (*bufs[1:], shares)
        return (*(a.copy() for a in bufs[1:]), None)

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
        a_vals, rhs, shares = self._values(t_prev, float(tau), workers, reuse_buffers)
        if source is not None:
            source = np.asarray(source, dtype=np.float64)
            if source.shape != rhs.shape:
                raise FemError(f"source shape {source.shape} does not match node count")
            rhs += self.node_volumes * source
        return LinearSystem(self._pattern.with_values(a_vals, shares), rhs)

    # -- worker pool -------------------------------------------------------

    def _ensure_pool(self, nw: int):
        if self._pool is not None and len(self._pooled[0]) == nw and self._pool.alive():
            return
        self.close()
        self._pooled = self._layout(nw)
        self._cmd = ForkPool.shared_array(3)  # (command, tau or tol, max_iter)
        self._sync = ShareSync(nw)
        self._pool = ForkPool(nw, self._share_task, self._sync)

    def _plan(self, r0: int, r1: int):
        """The fill plan of matrix rows [r0, r1) (see _fill)."""
        touched = self._gm.indices[self._gm.indptr[r0] : self._gm.indptr[r1]]
        c0, c1 = (int(touched.min()), int(touched.max()) + 1) if len(touched) else (0, 0)
        s0, s1 = int(self.row_offsets[r0]), int(self.row_offsets[r1])
        return _FillPlan(
            slice(c0, c1), slice(s0, s1), slice(r0, r1),
            _rows_of(self._cmean, c0, c1), _rows_of(self._gk, s0, s1), _rows_of(self._gm, r0, r1),
            self._pattern.diagonal_slots[r0:r1],
        )

    def _share_task(self, w: int):
        command, arg, max_iter = self._cmd
        plans, shares, bufs = self._pooled
        if command == _FILL:
            self._fill(plans[w], arg, bufs)
        else:
            barrier = self._sync.barrier
            self._cg_result = shares.share(w, arg, int(max_iter), lambda: barrier(w))

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
    the plan locates a node's value by binary search in this list, and
    their diagonal entries through matrix.diagonal_slots.
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

        self._diag_positions = matrix.diagonal_slots[nodes]

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

