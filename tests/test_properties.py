"""Property-based checks spanning assembly, constraints and the solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoground.fem import Assembler, DirichletPlan, nodes_for_tags
from cryoground.linalg import CsrMatrix, cg_solve
from cryoground.mesh import BoxMeshSpec, generate_box
from cryoground.physics import Material, MaterialTable, PhaseModel

from fem_oracle import scipy_view, stiffness_values

PLAIN = MaterialTable({1: Material.single_phase(1.0, 1.0)}, PhaseModel(0.0, 1.0, 0.0))

box_divisions = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
box_extents = st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0), st.floats(0.2, 8.0))


@given(box_divisions, box_extents)
@settings(max_examples=20, deadline=None)
def test_box_stiffness_offdiagonals_nonpositive(divisions, extents):
    """Path-tet subdivision of a box keeps the stiffness an M-matrix for any
    cell aspect ratio, which is what the maximum-principle runs rely on."""
    mesh = generate_box(BoxMeshSpec(extents, divisions))
    asm = Assembler(mesh, PLAIN)
    kv = stiffness_values(asm, np.zeros(mesh.n_nodes))
    k = CsrMatrix(asm.row_offsets, asm.column_indices, kv)
    rows = np.repeat(np.arange(k.n), np.diff(k.row_offsets))
    off = k.values[rows != k.column_indices]
    assert off.max() <= 1e-12 * np.abs(k.values).max()


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_dirichlet_elimination_properties(seed):
    """Symmetric elimination keeps the matrix symmetric and SPD, pins the
    constrained unknowns exactly and leaves a solvable system."""
    rng = np.random.default_rng(seed)
    divisions = tuple(int(v) for v in rng.integers(2, 4, 3))
    mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), divisions))
    field = rng.uniform(-8.0, 8.0, mesh.n_nodes)
    system = Assembler(mesh, PLAIN).assemble(field, tau=float(rng.uniform(0.01, 10.0)))

    k = int(rng.integers(1, mesh.n_nodes))
    nodes = np.sort(rng.choice(mesh.n_nodes, size=k, replace=False))
    values = rng.uniform(-30.0, 30.0, k)
    DirichletPlan(system.matrix, nodes).apply(system, values)

    dense = scipy_view(system.matrix).toarray()
    assert np.abs(dense - dense.T).max() == 0.0
    eigs = np.linalg.eigvalsh(dense)
    assert eigs.min() > 0.0

    x, report = cg_solve(system.matrix, system.rhs, tol=1e-12, max_iter=4 * mesh.n_nodes)
    assert report.converged
    assert np.abs(x[nodes] - values).max() <= 1e-9 * max(1.0, np.abs(values).max())


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_implicit_step_bounded_by_data(seed):
    """One unforced implicit step can create no new extremes beyond the
    initial field and the boundary data (cubic cells)."""
    rng = np.random.default_rng(seed)
    n_div = int(rng.integers(2, 5))
    mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (n_div, n_div, n_div)))
    t_prev = rng.uniform(-10.0, 10.0, mesh.n_nodes)
    system = Assembler(mesh, PLAIN).assemble(t_prev, tau=float(rng.uniform(0.001, 100.0)))

    g = float(rng.uniform(-25.0, 25.0))
    top = nodes_for_tags(mesh, [6])
    DirichletPlan(system.matrix, top).apply(system, np.full(len(top), g))
    x, report = cg_solve(system.matrix, system.rhs, tol=1e-12, max_iter=4 * mesh.n_nodes)
    assert report.converged
    lo = min(t_prev.min(), g) - 1e-9
    hi = max(t_prev.max(), g) + 1e-9
    assert x.min() >= lo and x.max() <= hi
