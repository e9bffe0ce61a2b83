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

The Assembler precomputes, per mesh, the element geometry factors and,
from one stable sort of the entries' (row, col) keys, the CSR pattern and
a scatter plan that groups CSR slots by how many element entries land in
them; per step the work is pure vectorized arithmetic plus segment sums in
a fixed per-slot order, so assembled values are bit-identical for any
worker count.  Workers (the calling process plus forked processes, writing
disjoint row ranges of shared buffers) are managed by cryoground.parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import CsrMatrix
from .mesh import Mesh, _volumes, tet_volume
from .parallel import ForkPool, fork_available, usable_cpus
from .physics import FREEZING_POROUS, MaterialTable, frozen_thawed_coeffs

# cells per block of the element-geometry pass in Assembler.__init__
_GEOMETRY_BLOCK = 4096


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
    values and rhs are owned by this system.
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


def _scatter_plan(key: np.ndarray):
    """Scatter plan of entries onto slots, the distinct keys ascending.

    One stable sort lists each slot's entries contiguously in entry order;
    a stable regroup by slot multiplicity (8-bit keys where they fit, which
    numpy radix-sorts) makes the slots receiving exactly k entries
    contiguous.  Returns (slot_keys, entry_perm, groups), groups holding
    (k, entry_start, entry_end, slot_ids).  A temporary key is freed as
    soon as its sorted copy exists.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    slot_keys = key[starts]
    del key, head
    counts = np.diff(starts, append=len(order))
    counts = counts.astype(np.min_scalar_type(counts.max()))
    perm = order[np.argsort(np.repeat(counts, counts), kind="stable")]
    del order
    slot_ids = np.argsort(counts, kind="stable")  # ascending within each k
    groups, e0, s0 = [], 0, 0
    for k, size in enumerate(np.bincount(counts).tolist()):
        if size:
            groups.append((k, e0, e0 + k * size, slot_ids[s0 : s0 + size]))
            e0, s0 = e0 + k * size, s0 + size
    return slot_keys, perm, groups


def _group_tasks(groups, cell_of_entry: np.ndarray, s0: int, s1: int, cell0: int):
    """Restrict multiplicity groups to the target slots [s0, s1).

    Returns (k, entry_start, entry_end, slot_ids, local_cells) per group
    that has slots in the range; group slots ascend, so the restriction is
    one contiguous entry range.  local_cells are entry cell ids minus cell0.
    """
    tasks = []
    for k, e0, _e1, slots in groups:
        i0, i1 = (int(i) for i in np.searchsorted(slots, (s0, s1)))
        if i1 > i0:
            a, b = e0 + i0 * k, e0 + i1 * k
            # a view when cell0 is 0, so the full-range plan copies nothing
            local = cell_of_entry[a:b] - cell0 if cell0 else cell_of_entry[a:b]
            tasks.append((k, a, b, slots[i0:i1], local))
    return tasks


class Assembler:
    """Reusable global assembler for a fixed mesh and material table.

    Building the assembler computes the element geometry in fixed blocks
    of cells, and sorts the (row, col) keys of the element entries once:
    the runs of equal keys give the CSR sparsity pattern, and their order
    is the deterministic stiffness scatter plan (the capacity plan comes
    likewise from one sort of the cell nodes).  Each assemble() call then
    only evaluates coefficients at the previous temperature and fills a
    fresh value array.  With workers > 1 the per-step fill is split into
    shares, each owning a contiguous range of matrix rows (balanced by
    stored entries) of shared buffers and evaluating the coefficients of
    the span of cells those rows touch; forked worker processes run all
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

        # CSR pattern and stiffness scatter plan from one sort of the 16
        # (row, col) keys of every element block (entry 16 c + 4 i + j)
        keys, perm_k, self._kgroups = _scatter_plan(
            (cells[:, :, None] * np.int64(n) + cells[:, None, :]).ravel()
        )
        self.nnz = nnz = len(keys)
        self.column_indices = keys % n
        urows = keys // n
        self.row_offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(urows, minlength=n), out=self.row_offsets[1:])
        for arr in (self.row_offsets, self.column_indices):
            arr.flags.writeable = False

        # diagonal slot of every row (always present for FEM patterns)
        self._diag_slots = np.flatnonzero(self.column_indices == urows)
        if len(self._diag_slots) != n:
            raise FemError("internal error: missing diagonal slot in pattern")
        self._pattern = CsrMatrix(
            self.row_offsets, self.column_indices, np.zeros(nnz), diagonal_slots=self._diag_slots
        )

        # element geometry, a block of cells at a time so that the
        # per-cell temporaries stay small; kgeom holds V * (grad . grad)
        vols = np.empty(m)
        kgeom = np.empty((m, 16))
        for c0 in range(0, m, _GEOMETRY_BLOCK):
            block = slice(c0, c0 + _GEOMETRY_BLOCK)
            p = mesh.nodes[cells[block]]
            vols[block] = _volumes(p, first=c0)  # raises on degenerate cells
            inv = np.linalg.inv(p[:, 1:] - p[:, :1])
            grads = np.empty((len(p), 3, 4))
            grads[:, :, 1:] = inv
            grads[:, :, 0] = -inv.sum(axis=2)
            kblock = kgeom[block].reshape(-1, 4, 4)
            np.einsum("mki,mkj->mij", grads, grads, out=kblock)
            kblock *= vols[block, None, None]
        self._kgeom_entries = kgeom.ravel()[perm_k]
        del kgeom
        self._kcell_of_entry = perm_k // 16
        del perm_k

        # per-cell material coefficient tables
        unknown = ~np.isin(mesh.cell_region, list(table.materials))
        if unknown.any():
            table.for_region(mesh.cell_region[unknown].min())  # raises UnknownRegionError
        coeffs = np.empty((5, m))
        for tag, mat in table.materials.items():
            row = [*frozen_thawed_coeffs(mat), table.latent_for(mat)]
            coeffs[:, mesh.cell_region == tag] = np.array(row)[:, None]
        self._crm, self._crp, self._lamm, self._lamp, self._lat = coeffs

        # lumped-mass scatter plan (4 entries per cell onto node slots) and
        # the geometric lumped volumes, for source terms
        nodes4 = cells.ravel()
        _, perm_m, self._mgroups = _scatter_plan(nodes4)
        quarter = np.repeat(vols / 4.0, 4)
        self._mgeom_entries = quarter[perm_m]
        self._mcell_of_entry = perm_m // 4
        self.node_volumes = np.bincount(nodes4, weights=quarter, minlength=n)

        self._phase = table.phase
        self._pool: ForkPool | None = None
        self._pool_workers = 0
        self._shared: dict[str, np.ndarray] = {}
        self._worker_plans: list[tuple] = []

        self._serial_plan = self._row_plan(0, n)

    # -- coefficient evaluation -------------------------------------------

    def _cell_coeff_arrays(self, t_prev: np.ndarray, cells: slice):
        """Vectorized (c_cell, lam_cell) over a contiguous span of cells."""
        model = self._phase
        tm = t_prev[self.mesh.cells[cells]].mean(axis=1)
        phi = np.clip((tm - model.t_star + model.delta) / (2.0 * model.delta), 0.0, 1.0)
        lam = self._lamm[cells] + phi * (self._lamp[cells] - self._lamm[cells])
        c = self._crm[cells] + phi * (self._crp[cells] - self._crm[cells])
        inside = (tm > model.t_star - model.delta) & (tm < model.t_star + model.delta)
        c = c + np.where(inside, self._lat[cells] / (2.0 * model.delta), 0.0)
        return c, lam

    def _row_plan(self, r0: int, r1: int):
        """Fill plan for matrix rows (and capacity nodes) [r0, r1): the span
        of cells those rows touch plus the stiffness and mass group tasks
        restricted to the rows (precomputed; static per mesh).

        Node and cell numbering of the box meshes both follow the same axis,
        so a row range touches one contiguous run of cells; on other meshes
        the span may include cells the rows do not need, which costs time
        but does not change any value.
        """
        touched = np.flatnonzero(((self.mesh.cells >= r0) & (self.mesh.cells < r1)).any(axis=1))
        c0 = int(touched[0]) if len(touched) else 0
        c1 = int(touched[-1]) + 1 if len(touched) else 0
        s0, s1 = int(self.row_offsets[r0]), int(self.row_offsets[r1])
        k_tasks = _group_tasks(self._kgroups, self._kcell_of_entry, s0, s1, c0)
        m_tasks = _group_tasks(self._mgroups, self._mcell_of_entry, r0, r1, c0)
        return slice(c0, c1), k_tasks, m_tasks

    def _fill(self, t_prev, plan, k_out, m_out):
        """Evaluate the plan's cell coefficients and write the K and M
        values of its rows; every slot sums its entries in a fixed order."""
        cells, k_tasks, m_tasks = plan
        c, lam = self._cell_coeff_arrays(t_prev, cells)
        for k, e0, e1, slots, local in k_tasks:
            vals = self._kgeom_entries[e0:e1] * lam[local]
            k_out[slots] = vals.reshape(-1, k).sum(axis=1)
        for k, e0, e1, slots, local in m_tasks:
            vals = self._mgeom_entries[e0:e1] * c[local]
            m_out[slots] = vals.reshape(-1, k).sum(axis=1)

    # -- assembly ----------------------------------------------------------

    def stiffness_values(self, field_prev, workers: int | None = None) -> np.ndarray:
        """CSR value array of K alone (used by property tests)."""
        k_vals, _ = self._raw_values(self._field_array(field_prev), workers, False)
        return k_vals

    def capacity_diagonal(self, field_prev, workers: int | None = None) -> np.ndarray:
        """Lumped capacity diagonal M (J/K per node) at the previous level."""
        _, m_vals = self._raw_values(self._field_array(field_prev), workers, False)
        return m_vals

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
        CPUs this process may run on, and 1 where fork is unavailable."""
        nw = self.workers if workers is None else max(1, int(workers))
        # extra processes beyond the usable CPUs only add convoy overhead
        nw = min(nw, usable_cpus())
        return nw if fork_available() else 1

    def _raw_values(self, t_prev: np.ndarray, workers: int | None, reuse_buffers: bool):
        nw = self.effective_workers(workers)
        if nw > 1:
            self._ensure_pool(nw)
            self._shared["t_prev"][:] = t_prev
            self._pool.dispatch()
            if reuse_buffers:
                return self._shared["k_vals"], self._shared["m_vals"]
            return self._shared["k_vals"].copy(), self._shared["m_vals"].copy()
        k_vals = np.empty(self.nnz)
        m_vals = np.empty(self.mesh.n_nodes)
        self._fill(t_prev, self._serial_plan, k_vals, m_vals)
        return k_vals, m_vals

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
        ``reuse_buffers`` lets a parallel assembler hand out its shared
        value buffer directly; the returned system is then only valid until
        the next assemble() call (the sequential time loop uses this).
        """
        if not tau > 0:
            raise FemError(f"tau must be > 0, got {tau}")
        t_prev = self._field_array(field_prev)
        k_vals, m_vals = self._raw_values(t_prev, workers, reuse_buffers)
        m_over_tau = m_vals / tau
        k_vals[self._diag_slots] += m_over_tau
        rhs = m_over_tau * t_prev
        if source is not None:
            source = np.asarray(source, dtype=np.float64)
            if source.shape != rhs.shape:
                raise FemError(f"source shape {source.shape} does not match node count")
            rhs += self.node_volumes * source
        return LinearSystem(self._pattern.with_values(k_vals), rhs)

    # -- worker pool -------------------------------------------------------

    def _ensure_pool(self, nw: int):
        if self._pool is not None and self._pool_workers == nw and self._pool.alive():
            return
        self.close()
        self._shared = {
            "t_prev": ForkPool.shared_array(self.mesh.n_nodes),
            "k_vals": ForkPool.shared_array(self.nnz),
            "m_vals": ForkPool.shared_array(self.mesh.n_nodes),
        }
        # contiguous row ranges holding about nnz / nw stored entries each
        cuts = np.searchsorted(self.row_offsets, self.nnz * np.arange(1, nw) / nw)
        bounds = [0, *(int(c) for c in cuts), self.mesh.n_nodes]
        self._worker_plans = [self._row_plan(r0, r1) for r0, r1 in zip(bounds, bounds[1:])]
        self._pool = ForkPool(nw, self._worker_task)
        self._pool_workers = nw

    def _worker_task(self, w: int):
        self._fill(
            self._shared["t_prev"],
            self._worker_plans[w],
            self._shared["k_vals"],
            self._shared["m_vals"],
        )

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

