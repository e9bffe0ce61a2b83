"""Cross-check the vectorized assembler against a brute-force element loop.

The oracle builds the dense system cell by cell from the single-cell
operations of fem_oracle (element_stiffness, element_lumped_mass,
cell_coefficients), which share no code with the assembler's precomputed
operators.
"""

import numpy as np
import pytest

from cryoground.fem import Assembler, TemperatureField
from cryoground.mesh import BoxMeshSpec, Mesh, carve_box, generate_box, paint_region
from cryoground.physics import (
    Material,
    MaterialTable,
    PhaseModel,
    apparent_coefficients,
    frozen_thawed_coeffs,
)

from fem_oracle import cell_coefficients, element_lumped_mass, element_stiffness, scipy_view


def dense_oracle(mesh, field, table, tau):
    """Dense A and b assembled one cell at a time."""
    n = mesh.n_nodes
    a = np.zeros((n, n))
    m_diag = np.zeros(n)
    for cell in range(mesh.n_cells):
        c_cell, lam_cell = cell_coefficients(mesh, cell, field, table)
        k = element_stiffness(mesh, cell, lam_cell)
        m = element_lumped_mass(mesh, cell, c_cell)
        idx = mesh.cells[cell]
        a[np.ix_(idx, idx)] += k
        m_diag[idx] += m
    a[np.arange(n), np.arange(n)] += m_diag / tau
    return a, m_diag / tau * field.values


def lumpy_mesh():
    """Two-material box with a carved pocket and perturbed interior nodes."""
    mesh = generate_box(BoxMeshSpec((2.0, 2.0, 2.0), (4, 4, 4)))
    mesh = paint_region(mesh, (0.0, 2.0, 0.0, 2.0, 1.0, 2.0), 2)
    mesh = carve_box(mesh, (0.5, 1.0, 0.5, 1.0, 0.5, 1.0), 9)
    rng = np.random.default_rng(21)
    nodes = mesh.nodes.copy()
    interior = (
        (nodes[:, 0] % 2.0 != 0.0) & (nodes[:, 1] % 2.0 != 0.0) & (nodes[:, 2] % 2.0 != 0.0)
    )
    nodes[interior] += rng.uniform(-0.05, 0.05, (interior.sum(), 3))
    return Mesh(nodes, mesh.cells, mesh.cell_region, mesh.boundary_facets, mesh.facet_tag)


@pytest.fixture
def two_material_table():
    soil = Material.freezing_porous(0.4, 2.17e6, 2.42e6, 1.9e6, 2.43, 2.22, 2.2)
    sand = Material.single_phase(1.34e6, 0.47)
    return MaterialTable({1: soil, 2: sand}, PhaseModel(0.0, 0.8, 1.04e8))


def test_assembler_matches_element_loop(two_material_table):
    mesh = lumpy_mesh()
    rng = np.random.default_rng(33)
    # temperatures straddling the phase band so the latent spike is active
    field = TemperatureField(rng.uniform(-2.0, 2.0, mesh.n_nodes))
    tau = 7200.0

    system = Assembler(mesh, two_material_table).assemble(field, tau)
    a_exp, b_exp = dense_oracle(mesh, field, two_material_table, tau)

    a_got = scipy_view(system.matrix).toarray()
    scale = np.abs(a_exp).max()
    assert np.abs(a_got - a_exp).max() <= 1e-12 * scale
    assert np.abs(system.rhs - b_exp).max() <= 1e-12 * np.abs(b_exp).max()


def test_assembler_matches_element_loop_with_source(two_material_table):
    mesh = lumpy_mesh()
    rng = np.random.default_rng(34)
    field = TemperatureField(rng.uniform(-5.0, 1.0, mesh.n_nodes))
    source = rng.uniform(-100.0, 100.0, mesh.n_nodes)
    tau = 900.0

    asm = Assembler(mesh, two_material_table)
    system = asm.assemble(field, tau, source=source)
    a_exp, b_exp = dense_oracle(mesh, field, two_material_table, tau)
    # lumped source integration: geometric node volumes times nodal density
    vols = np.zeros(mesh.n_nodes)
    for cell in range(mesh.n_cells):
        from cryoground.mesh import tet_volume

        vols[mesh.cells[cell]] += tet_volume(mesh, cell) / 4.0
    b_exp = b_exp + vols * source

    a_got = scipy_view(system.matrix).toarray()
    assert np.abs(a_got - a_exp).max() <= 1e-12 * np.abs(a_exp).max()
    assert np.abs(system.rhs - b_exp).max() <= 1e-12 * np.abs(b_exp).max()


def test_capacity_diagonal_matches_element_loop(two_material_table):
    mesh = lumpy_mesh()
    rng = np.random.default_rng(35)
    field = TemperatureField(rng.uniform(-1.5, 1.5, mesh.n_nodes))
    asm = Assembler(mesh, two_material_table)
    got = asm.capacity_diagonal(field)
    _, b = dense_oracle(mesh, field, two_material_table, 1.0)
    # with tau = 1 the oracle rhs is exactly M diag times the field
    nonzero = field.values != 0.0
    expected = np.where(nonzero, b / np.where(nonzero, field.values, 1.0), 0.0)
    assert np.abs(got[nonzero] - expected[nonzero]).max() <= 1e-9 * got.max()


@pytest.mark.parametrize("porous", [True, False], ids=["freezing-porous", "single-phase"])
def test_law_matches_element_oracle_bit_for_bit(reference_tet, porous):
    """The coefficient law on per-cell arrays, called as the assembler calls
    it, gives the oracle's c and lam bit for bit at both band ends, one step
    inside each, at t_star and far outside: the band ends belong to the
    outer branches, and the spike is latent / (2 delta), which differs from
    latent * (1 / (2 delta)) in the last bit for this delta."""
    model = PhaseModel(t_star=-0.3, delta=0.42, latent_volumetric=1.04e8)
    if porous:
        mat = Material.freezing_porous(0.4, 2.17e6, 2.42e6, 1.9e6, 2.43, 2.22, 2.2)
    else:
        mat = Material.single_phase(1.34e6, 0.47)
    table = MaterialTable({1: mat}, model)
    lo, hi = model.t_star - model.delta, model.t_star + model.delta
    temps = np.array(
        [-40.0, lo, np.nextafter(lo, hi), model.t_star, np.nextafter(hi, lo), hi, 40.0]
    )
    n = len(temps)
    crm, crp, lamm, lamp = (np.full(n, v) for v in frozen_thawed_coeffs(mat))
    out = np.empty(n), np.empty(n), np.empty(n, bool), np.empty(n, bool)
    latent = table.latent_for(mat)
    c, lam = apparent_coefficients(temps, model, crm, crp - crm, lamm, lamp - lamm, latent, out=out)

    expected = np.array(
        [cell_coefficients(reference_tet, 0, TemperatureField(np.full(4, t)), table) for t in temps]
    )
    assert c.tobytes() == expected[:, 0].tobytes()
    assert lam.tobytes() == expected[:, 1].tobytes()
    inside = np.array([False, False, True, True, True, False, False])
    assert out[2].tolist() == inside.tolist()
    if porous:
        # the spike written as latent * (1 / (2 delta)) moves every inside value
        base, _ = apparent_coefficients(temps, model, crm, crp - crm, lamm, lamp - lamm, 0.0)
        other = base + latent * (1.0 / (2.0 * model.delta))
        assert (c[inside] != other[inside]).all()
