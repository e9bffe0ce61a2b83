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
bit-identical for any split of the rows.  A step's rows are cut once, into
the CG's shares (linalg.share_bounds): each share fills its rows of A and M
from the row runs (linalg.matvec_into) of its spans of the operators' rows
and runs the CG loop on them, and the serial step is the one-share case.
With workers the shares run in the calling process plus forked ones,
writing disjoint row ranges of shared buffers; see cryoground.parallel and
cryoground.linalg.

What a step keeps, and what drops it:
- one record per layout of tau, the node classes (physics.node_limits)
  and the keys (cell means clipped to physics.band_limits) of the
  phase-change cells; a step re-keys only the cells of the nodes whose
  class moved and the uncertain cells, and an error in a call drops it;
- per share, its A rows (M/tau on the diagonal) as the last call left
  them, eliminated by its DirichletPlan if it had one, while tau, its
  cells' keys and that plan stay: no law, no products, and only the rhs
  is corrected, from the coupling A_ji its free rows j stored then;
- the CG's inverse diagonal and A x of the last solution, while its rows
  stay and x0 equals that solution off the constrained (identity) rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as _sp

from .linalg import CgShares, CsrMatrix, matvec_into, share_bounds
from .mesh import _GEOMETRY_BLOCK, Mesh, _adjugate, _volumes
from .parallel import ForkPool, ShareSync, WorkerFailure, pool_available, usable_cpus
from .physics import (
    MaterialTable, apparent_coefficients, band_limits, frozen_thawed_coeffs, node_limits
)

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


def check_assemblable(mesh: Mesh):
    """Raise FemError unless the mesh has a cell and every node belongs to one."""
    if mesh.n_cells == 0:
        raise FemError("cannot assemble on a mesh with no cells")
    uses = np.bincount(mesh.cells.ravel(), minlength=mesh.n_nodes)
    if not uses.all():  # name the first node no cell uses
        raise FemError(f"node {np.argmin(uses)} belongs to no cell; compact the mesh first")


def _element_matrices(p: np.ndarray, first: int):
    """Volumes (k,) and the 10 upper-triangle entries (li <= lj) of V *
    (grad_i . grad_j) (k, 10) of tets with corners p (axis, node, k), cell
    ``first`` first: gradients are adjugate rows over the determinant, and
    dot products are summed over the axes from +0, as np.einsum sums them."""
    adj, det = _adjugate(p)
    vols = _volumes(p, first, det)  # raises on degenerate cells
    g = np.empty((3, 4, p.shape[2]))  # (axis, node, k)
    np.divide(adj.transpose(1, 0, 2), det, out=g[:, 1:])
    g[:, 0] = -((g[:, 1] + g[:, 2]) + g[:, 3])
    kgeom = np.stack([(g[0, i] * g[0, j] + g[1, i] * g[1, j]) + g[2, i] * g[2, j] + 0.0
                      for i, j in zip(*np.triu_indices(4))], axis=1)
    kgeom *= vols[:, None]
    return vols, kgeom


def _leading_columns(op, ncols: int):
    """The first ``ncols`` columns of ``op``; each row keeps its entries in
    storage order, which must list each row's columns below ``ncols`` in
    ascending order.  Every row of ``op`` must hold an entry (as
    G_K's and G_M's do)."""
    kept = op.indices < ncols
    indptr = np.zeros(op.shape[0] + 1, dtype=np.int32)
    np.cumsum(np.add.reduceat(kept, op.indptr[:-1], dtype=np.int32), out=indptr[1:])
    sub = _sp.csr_matrix(
        (op.data[kept], op.indices[kept], indptr), shape=(op.shape[0], ncols), copy=False
    )
    sub.has_sorted_indices = True
    return sub


def _rows_of(op, rows: slice):
    """The row run of ``rows`` of scipy CSR ``op`` (see linalg.matvec_into)."""
    return op.indptr[rows.start : rows.stop + 1], op.indices, op.data


@dataclass(eq=False)
class _FillPlan:
    """One fill's rows (see Assembler._fill): its CG share, its spans of
    C's, G_K's and G_M's rows and the diagonal positions in its slots, with
    the M/tau of its last products."""

    share: int
    cells: slice
    slots: slice
    rows: slice
    diag: np.ndarray
    m_tau: np.ndarray


@dataclass(eq=False)
class _Kept:
    """What a layout keeps across steps: the record of its last fill (see
    Assembler._rekey), whose keys of the phase-change cells the shares read,
    and the DirichletPlan its A buffer holds eliminated (None: none) with
    the coupling values that elimination read.  A dropped record, as a new
    one, has every node moved (class -1) and every key and tau NaN."""

    classes: np.ndarray
    keys: np.ndarray
    retest: np.ndarray  # the uncertain cells, whose nodes are not all of class 0 or all 2
    tau: float = np.nan
    plan: object = None
    coupling: np.ndarray | None = None

    def drop(self):
        self.tau = np.nan
        self.classes.fill(-1)
        self.keys.fill(np.nan)


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
    re-keys the cells whose means may have moved (see _rekey) and refills
    the A rows whose keys, tau or elimination changed; a CSR product sums
    each row in storage order, so every value is bit-identical however the
    rows are split.

    A step runs in the contiguous row shares of linalg.share_bounds (whole
    dot-product chunks, balanced by stored entries): share w fills its rows
    of A and M from the span of phase-change cells they touch, the calling
    process forms the rhs, and the matrix an assemble(reuse_buffers=True)
    call returns carries the same shares, in which cg_solve runs its loop.
    The serial step is one share, whose rows are all of the operators';
    with workers > 1 the buffers are shared memory and forked worker
    processes run all shares but the last, which the calling process runs
    (see cryoground.parallel).
    """

    def __init__(self, mesh: Mesh, table: MaterialTable, workers: int = 1):
        self.mesh = mesh
        self.table = table
        self.workers = max(1, int(workers))
        self._cpus = usable_cpus()  # a system call: counted once, not per step

        check_assemblable(mesh)
        m = mesh.n_cells
        n = mesh.n_nodes
        cells = mesh.cells

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

        # K is symmetric, so G_K takes the 10 upper-triangle entries (li <= lj)
        # per cell, keyed min * n + max node.  One stable sort lists each
        # key's entries in cell order; it runs, and drops the keys, before
        # the element geometry V * (grad . grad) exists (in blocks of cells)
        keys = np.stack([np.minimum(a, b) * n + np.maximum(a, b)
                         for a, b in (cells.T[[i, j]] for i, j in zip(*np.triu_indices(4)))], axis=1)
        order = np.argsort(keys.ravel(), kind="stable")
        keys = keys.ravel()[order]
        starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
        ukeys = keys[starts]
        del keys
        axes = np.ascontiguousarray(mesh.nodes.T)
        vols = np.empty(m)
        kgeom = np.empty((m, 10))
        for c0 in range(0, m, _GEOMETRY_BLOCK):
            block = slice(c0, c0 + _GEOMETRY_BLOCK)
            vols[block], kgeom[block] = _element_matrices(axes.take(cells[block].T, axis=1), c0)

        # G_K over the upper triangle (row u: the entries of the u-th smallest
        # upper key); the index arrays are int32
        data = kgeom.ravel()[order]
        del kgeom
        order //= 10
        indptr = np.append(starts, len(order)).astype(np.int32)
        gk = _sp.csr_matrix((data, column[order], indptr), shape=(len(ukeys), m), copy=False)
        del order, starts, data, indptr
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

        # G_M (4 entries per cell onto node rows, each V / 4; row i lists
        # node i's cells in ascending order, from one stable sort) and the
        # geometric lumped volumes (for source terms)
        order = np.argsort(cells.ravel(), kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cells.ravel(), minlength=n), out=indptr[1:])
        gm = _sp.csr_matrix(
            (np.repeat(vols / 4.0, 4)[order], column[order // 4], indptr), shape=(n, m), copy=False
        )
        del order, indptr
        self.node_volumes = gm @ np.ones(m)
        self._m_const = gm @ fixed[1]
        self._gm = _leading_columns(gm, mv)
        del gm, fixed, column
        # every assembled matrix has this pattern (DirichletPlans are built on it)
        self.pattern = CsrMatrix(self.row_offsets, self.column_indices, np.zeros(nnz))

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
        self._law = np.empty((4, mv))
        var_region = region[var]
        for tag, row in rows.items():
            self._law[:, var_region == tag] = row[:4, None]
        self._law[1::2] -= self._law[::2]  # the law's (crm, dcr, lamm, dlam)
        # per-step buffers of the phase-change cells' values (each process
        # writes its own): c and lam, the band tests
        self._c, self._lam = np.empty(mv), np.empty(mv)
        self._band = np.empty((2, mv), dtype=bool)
        self._limits = band_limits(table.phase)
        self._node_limits = node_limits(table.phase)

        self._serial = self._pooled = None  # the steps' layouts (see _layout)
        self._pool: ForkPool | None = None

    # -- per-step fill -----------------------------------------------------

    def _fill(self, plan: _FillPlan, tau: float, bufs):
        """A = K + M/tau and M/tau on the plan's rows, at the record's keys,
        where its share is flagged to refill (see assemble), else nothing.

        ``bufs`` is (A, M/tau of all rows, the record's keys, refill flags
        per share).  The law runs on the plan's cells' keys (see _rekey),
        and the products, which read only its own cells of the cell
        buffers, write its rows of A in place; the constant cells' share is
        added to them."""
        a_out, _, keys, refill = bufs
        if not refill[plan.share]:
            return
        cells, slots, rows = plan.cells, plan.slots, plan.rows
        a = a_out[slots]
        # single-phase cells are constant, so every phase-change cell is
        # freezing-porous and carries the phase model's latent heat
        model = self.table.phase
        apparent_coefficients(
            keys[cells], model, *self._law[:, cells], model.latent_volumetric,
            out=(self._c[cells], self._lam[cells], *self._band[:, cells]),
        )
        matvec_into(*_rows_of(self._gk, slots), self._lam, a)
        a += self._k_const[slots]
        matvec_into(*_rows_of(self._gm, rows), self._c, plan.m_tau)
        plan.m_tau += self._m_const[rows]
        plan.m_tau /= tau
        a[plan.diag] += plan.m_tau

    def _rekey(self, plans, kept: _Kept, t_prev: np.ndarray, tau: float, refill: np.ndarray):
        """Bring the layout's record to t_prev and tau, and flag each plan
        whose tau or a key in whose cell span changed (see _fill).

        Node classes are 0 at or below physics.node_limits, 2 at or above
        and 1 between.  A cell whose nodes are all of class 0 (2) has key lo
        (hi), so a key can change only in the cells of the nodes whose class
        moved (their G_M row runs) and in the uncertain cells, and only the
        former can change which cells are uncertain.  Those cells are
        re-keyed as a row subset of C, each row summed from zero in storage
        order: the full product's bits."""
        lo_n, hi_n = self._node_limits
        classes = (t_prev > lo_n).view(np.int8) + (t_prev >= hi_n).view(np.int8)
        moved = np.flatnonzero(classes != kept.classes)
        kept.classes = classes
        refill[:] = tau != kept.tau
        kept.tau = tau
        cells = kept.retest
        if len(moved):
            starts, stops = self._gm.indptr[moved], self._gm.indptr[moved + 1]
            runs = stops - starts
            ends = np.cumsum(runs, dtype=np.int32)
            entries = np.arange(ends[-1], dtype=np.int32) + np.repeat(stops - ends, runs)
            touched = np.zeros(len(kept.keys), dtype=bool)
            touched[cells] = True
            touched[self._gm.indices[entries]] = True
            cells = np.flatnonzero(touched)
        if len(cells):
            c = self._cmean
            nodes = np.take(c.indices.reshape(-1, 4), cells, axis=0)
            if len(moved):
                # a cell's four node classes read as one int32: 0 when all
                # are of class 0, 0x02020202 when all are of class 2
                quads = np.take(classes, nodes).view(np.int32).ravel()
                kept.retest = cells[(quads != 0) & (quads != 0x02020202)]
            # C is built with 4 entries of 0.25 a row, so the gathered rows
            # take the offsets and weights of its first len(cells) rows
            keys = np.empty(len(cells))
            matvec_into(c.indptr[: len(cells) + 1], nodes.ravel(), c.data, t_prev, keys)
            np.clip(keys, *self._limits, out=keys)
            changed = keys != np.take(kept.keys, cells)
            kept.keys[cells] = keys
            spans = np.searchsorted(cells, [(p.cells.start, p.cells.stop) for p in plans])
            refill[[changed[a:b].any() for a, b in spans]] = 1.0

    # -- assembly ----------------------------------------------------------

    def capacity_diagonal(self, field_prev) -> np.ndarray:
        """Lumped capacity diagonal M = G_M @ c + M_const (J/K per node) at
        the previous level, from the operators: the bits of a fill, run none."""
        model = self.table.phase
        c, _ = apparent_coefficients(
            self._cmean @ self._field_array(field_prev), model, *self._law, model.latent_volumetric
        )
        return self._gm @ c + self._m_const

    def _field_array(self, field_prev) -> np.ndarray:
        if isinstance(field_prev, TemperatureField):
            vals = field_prev.values  # finite: checked when the field was built
        else:
            vals = np.asarray(field_prev, dtype=np.float64)
            if not np.isfinite(vals).all():
                raise FemError("field contains non-finite values")
        if vals.shape != (self.mesh.n_nodes,):
            raise FemError(
                f"field has shape {vals.shape}, mesh has {self.mesh.n_nodes} nodes"
            )
        return vals

    def effective_workers(self, workers: int | None = None) -> int:
        """Worker processes an assemble() call with this ``workers`` argument
        runs: the request (default: the assembler's own count) capped at the
        CPUs this process could run on when the assembler was built, and 1
        where the worker pool is unavailable (see parallel.pool_available)."""
        nw = self.workers if workers is None else max(1, int(workers))
        # extra processes beyond the usable CPUs only add convoy overhead
        nw = min(nw, self._cpus)
        return nw if pool_available() else 1

    def _layout(self, nw: int):
        """(fill plans, CgShares, buffers (see _fill), _Kept, the system the
        buffers hold) of the step in nw row shares, cut by
        linalg.share_bounds: plan w fills the rows of CG share w.  One share
        fills into np.zeros buffers, more into shared memory forked shares
        see."""
        alloc, run = (np.zeros, None) if nw == 1 else (ForkPool.shared_array, self._run_cg)
        bounds = share_bounds(self.row_offsets, nw)
        shares = CgShares(self.pattern.with_values(alloc(self.nnz)), bounds, alloc, run)
        n = self.mesh.n_nodes
        m_tau = alloc(n)
        plans = [self._plan(w, r0, r1, m_tau) for w, (r0, r1) in enumerate(zip(bounds, bounds[1:]))]
        kept = _Kept(np.empty(n, dtype=np.int8), alloc(self._cmean.shape[0]), np.empty(0, int))
        kept.drop()
        bufs = shares.values, m_tau, kept.keys, alloc(nw)
        system = LinearSystem(self.pattern.with_values(shares.values, shares), shares.work.rhs)
        return plans, shares, bufs, kept, system

    def assemble(
        self,
        field_prev,
        tau: float,
        source: np.ndarray | None = None,
        workers: int | None = None,
        reuse_buffers: bool = False,
        constraints: tuple | None = None,
    ) -> LinearSystem:
        """One implicit step system: A = M/tau + K, b = (M/tau) T_prev.

        ``source`` is an optional nodal volumetric heat source (W/m^3),
        integrated with the geometric lumped weights into the rhs.
        ``constraints`` = (DirichletPlan, values) are then eliminated as
        DirichletPlan.apply eliminates them.  ``reuse_buffers`` hands out the
        assembler's own buffers (and the row shares cg_solve then runs in),
        else copies; such a system is only valid until the next assemble()
        call (the time loop uses this) and must not be changed in place: the
        next call keeps the rows no key, tau or plan change refills.
        """
        if not 0 < tau < np.inf:
            raise FemError(f"tau must be > 0 and finite, got {tau}")
        t_prev = self._field_array(field_prev)
        if source is not None:
            source = np.asarray(source, dtype=np.float64)
            if source.shape != t_prev.shape:
                raise FemError(f"source shape {source.shape} does not match node count")
            if not np.isfinite(source).all():
                raise FemError("source contains non-finite values")
        nw = self.effective_workers(workers)
        if nw > 1:
            self._ensure_pool(nw)
        elif self._serial is None:
            self._serial = self._layout(1)
        layout = self._pooled if nw > 1 else self._serial
        plans, shares, bufs, kept, system = layout
        dplan, g = constraints or (None, None)
        if dplan is not None:
            g = dplan._checked(system.matrix, g)
        a_vals, m_tau, _, refill = bufs
        work = shares.work
        try:
            self._rekey(plans, kept, t_prev, tau, refill)
            if kept.plan is not dplan:
                refill[:] = 1.0  # the rows hold another elimination, or none
            if nw == 1:
                self._fill(plans[0], float(tau), bufs)
            elif refill.any():
                self._cmd[:2] = (_FILL, tau)
                self._pool.dispatch()
            # the CG shares keep what depends only on rows no plan refilled
            work.kept[:] = refill == 0.0
            work.valid[refill != 0.0] = 0.0
            rhs = np.multiply(m_tau, t_prev, out=work.rhs)
            if source is not None:
                rhs += self.node_volumes * source
            if dplan is not None:
                self._eliminate(plans, work, kept, system, dplan, g)
            kept.plan = dplan
            shares.fixed = np.empty(0, int) if dplan is None else dplan.nodes
        except BaseException:
            kept.drop()  # rows cut short by an error must not be reused
            raise
        if reuse_buffers:
            return system
        return LinearSystem(self.pattern.with_values(a_vals.copy()), rhs.copy())

    def _eliminate(self, plans, work, kept, system: LinearSystem, dplan, g: np.ndarray):
        """DirichletPlan.apply on the layout's system, keeping the coupling
        values (A_ji, j free, i constrained) it reads.  Each share that
        refilled its rows (see _fill; all of them on a full elimination)
        eliminates them, reading the coupling they store; the rhs correction
        takes it all."""
        if not work.kept.any():
            kept.coupling = np.empty(len(dplan._sym_positions))
        for plan in plans:
            if not work.kept[plan.share]:
                dplan._eliminate_slots(system.matrix.values, kept.coupling, plan.slots)
        dplan._correct(system.rhs, g, kept.coupling)

    # -- worker pool -------------------------------------------------------

    def _ensure_pool(self, nw: int):
        # a worker that died since the last dispatch fails the next one, which
        # closes the pool; the next assemble() then builds a new one
        if self._pool is not None and len(self._pooled[0]) == nw and not self._pool.closed:
            return
        self.close()
        self._pooled = self._layout(nw)
        self._cmd = ForkPool.shared_array(3)  # (command, tau or tol, max_iter)
        self._sync = ShareSync(nw)
        self._pool = ForkPool(nw, self._share_task, self._sync)

    def _plan(self, share: int, r0: int, r1: int, m_tau: np.ndarray):
        """The fill plan of matrix rows [r0, r1), CG share ``share``, whose
        M/tau is those rows of ``m_tau`` (see _fill)."""
        touched = self._gm.indices[self._gm.indptr[r0] : self._gm.indptr[r1]]
        c0, c1 = (int(touched.min()), int(touched.max()) + 1) if len(touched) else (0, 0)
        s0, s1 = int(self.row_offsets[r0]), int(self.row_offsets[r1])
        return _FillPlan(
            share, slice(c0, c1), slice(s0, s1), slice(r0, r1),
            self.pattern.diagonal_slots[r0:r1] - s0, m_tau[r0:r1],
        )

    def _share_task(self, w: int):
        command, arg, arg2 = self._cmd
        plans, shares, bufs = self._pooled[:3]
        if command == _FILL:
            self._fill(plans[w], arg, bufs)
        else:
            barrier = self._sync.barrier
            self._cg_result = shares.share(w, float(arg), int(arg2), lambda: barrier(w))

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
        self._pattern = offs, cols = matrix.row_offsets, matrix.column_indices
        constrained = np.zeros(n, dtype=bool)
        constrained[nodes] = True

        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
        in_row = constrained[rows]
        self._row_positions = np.flatnonzero(in_row)
        # the coupling entries (j free row, i constrained column), in storage
        # order: rows j ascending, columns i ascending within a row
        self._sym_positions = np.flatnonzero(~in_row & constrained[cols])
        sym_rows, sym_cols = rows[self._sym_positions], cols[self._sym_positions]
        cross = in_row & ~constrained[cols]  # their transposes (i, j)
        if not np.array_equal(np.sort(cols[cross] * n + rows[cross]), sym_rows * n + sym_cols):
            raise FemError("matrix sparsity is not structurally symmetric")
        self._diag_positions = matrix.diagonal_slots[nodes]

        # the rhs correction as a CSR product added onto the free rows j it
        # changes: row j holds -A_ji for its constrained columns i, ascending,
        # as np.add.at over the coupling entries subtracts them
        self._correction_rows, counts = np.unique(sym_rows, return_counts=True)
        self._correction = np.append(0, np.cumsum(counts)), np.searchsorted(nodes, sym_cols)

    def _checked(self, matrix: CsrMatrix, values) -> np.ndarray:
        """``values`` as float64, once the matrix has the plan's pattern
        (the same arrays, else equal ones) and there is one finite value per node."""
        (offs, cols), m_offs, m_cols = self._pattern, matrix.row_offsets, matrix.column_indices
        same = m_offs is offs and m_cols is cols  # Simulation builds plans on Assembler.pattern
        if not (same or np.array_equal(m_offs, offs) and np.array_equal(m_cols, cols)):
            raise FemError("the Dirichlet plan was built on another sparsity pattern")
        g = np.asarray(values, dtype=np.float64)
        if g.shape != self.nodes.shape:
            raise FemError("constraint value array does not match plan nodes")
        if not np.isfinite(g).all():
            raise FemError("constraint values contain non-finite values")
        return g

    def apply(self, system: LinearSystem, values: np.ndarray) -> LinearSystem:
        """Symmetric elimination of the constraints, in place.

        For each constrained node i with value g_i the rhs of every free row
        j loses A_ji g_i, then row i and column i are zeroed, A_ii = 1 and
        b_i = g_i.  Symmetry (hence SPD-ness for CG) is preserved.
        """
        g = self._checked(system.matrix, values)
        a, coupling = system.matrix.values, np.empty(len(self._sym_positions))
        self._eliminate_slots(a, coupling, slice(0, len(a)))
        self._correct(system.rhs, g, coupling)
        return system

    def _correct(self, b: np.ndarray, g: np.ndarray, coupling: np.ndarray):
        """The rhs part of apply, from the negated coupling values -A_ji that
        the matrix part read (see _eliminate_slots)."""
        (indptr, indices), rows = self._correction, self._correction_rows
        corrected = b[rows]
        matvec_into(indptr, indices, coupling, g, corrected, add=True)
        b[rows] = corrected
        b[self.nodes] = g

    def _eliminate_slots(self, a: np.ndarray, coupling: np.ndarray, slots: slice):
        """The matrix part of apply on the entries stored in ``slots``: the
        coupling values A_ji (j free row, i constrained column) stored there
        go negated into their slice of ``coupling`` (the correction's order is
        their storage order) before they are zeroed."""
        lo, hi = slots.start, slots.stop
        p0, p1 = np.searchsorted(self._sym_positions, (lo, hi))
        coupling[p0:p1] = np.negative(a[self._sym_positions[p0:p1]])
        for positions, value in (
            (self._row_positions, 0.0), (self._sym_positions, 0.0), (self._diag_positions, 1.0)
        ):
            p0, p1 = np.searchsorted(positions, (lo, hi))
            a[positions[p0:p1]] = value
