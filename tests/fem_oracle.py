"""Single-cell finite-element operations, written one cell at a time and
used only to check the package: the element-loop oracle of
test_assembly_oracle and the unit tests of the element operations.

They share no code with the assembler's precomputed operators or with
physics.apparent_coefficients, so agreement between the two is evidence,
not a tautology.  ``csr`` builds the package's CsrMatrix through scipy,
and ``scipy_view`` wraps one back into scipy for products and dense
copies.

``full_sort_setup`` is different: it builds the assembler's pattern and
G_K the direct way, from one stable sort of all 16 (row, col) keys of every
element matrix, where the assembler sorts the upper triangle and mirrors
it.  It shares the element geometry and the sort with the assembler, so it
checks the mirroring and nothing else.

``stiffness_values``, ``cell_volumes`` and ``boundary_face_counts`` are
checks of the assembled K and of mesh geometry and topology that the
package itself never needs.
"""

import numpy as np
import scipy.sparse as sp

import cryoground.fem as fem
from cryoground.fem import FemError, TemperatureField
from cryoground.linalg import CsrMatrix
from cryoground.mesh import Mesh, tet_volume
from cryoground.physics import (
    FREEZING_POROUS,
    MaterialTable,
    apparent_coefficients,
    frozen_thawed_coeffs,
)


def csr(*args, **kwargs) -> CsrMatrix:
    """CsrMatrix of scipy.sparse.csr_matrix(*args, **kwargs): a dense array
    (its zeros are not stored) or (values, (rows, cols)) triplets, whose
    duplicates are summed."""
    a = sp.csr_matrix(*args, **kwargs, dtype=np.float64)
    a.sum_duplicates()
    return CsrMatrix(a.indptr, a.indices, a.data)


def scipy_view(m: CsrMatrix):
    """scipy CSR wrapper of the CsrMatrix ``m`` that shares its values."""
    a = sp.csr_matrix((m.values, m.column_indices, m.row_offsets), shape=(m.n, m.n), copy=False)
    a.has_sorted_indices = True
    a.has_canonical_format = True
    return a


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


def full_sort_setup(mesh: Mesh, table: MaterialTable) -> dict:
    """The CSR pattern, diagonal slots, G_K, K_const and element matrices
    (cells, 4, 4) of an Assembler built from one stable sort of the 16
    (row, col) keys of every element matrix (entry 16 c + 4 i + j), with the
    geometry in blocks of fem._GEOMETRY_BLOCK cells."""
    m, n, cells = mesh.n_cells, mesh.n_nodes, mesh.cells
    # a constant cell's lam: equal frozen and thawed values, no latent heat
    lam_const = {}
    for tag, mat in table.materials.items():
        crm, crp, lamm, lamp = frozen_thawed_coeffs(mat)
        if crp == crm and lamp == lamm and table.latent_for(mat) == 0.0:
            lam_const[tag] = lamm
    var = ~np.isin(mesh.cell_region, list(lam_const))
    mv = int(np.count_nonzero(var))
    column = np.where(var, np.cumsum(var) - 1, mv + np.cumsum(~var) - 1).astype(np.int32)
    block = fem._GEOMETRY_BLOCK
    kmat = np.concatenate([
        fem._element_matrices(mesh.nodes[cells[c0 : c0 + block]], c0)[1]
        for c0 in range(0, m, block)
    ])
    gk, keys = fem._sum_operator(
        (cells[:, :, None] * np.int64(n) + cells[:, None, :]).ravel(), kmat.ravel(), 16, column
    )
    rows, cols = keys // n, keys % n
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_offsets[1:])
    fixed = np.zeros(m)
    for tag, lam in lam_const.items():
        fixed[column[mesh.cell_region == tag]] = lam
    return {
        "row_offsets": row_offsets,
        "column_indices": cols,
        "diag_slots": np.flatnonzero(cols == rows),
        "gk": fem._leading_columns(gk, mv),
        "k_const": gk @ fixed,
        "element_matrices": kmat,
    }


def stiffness_values(asm: fem.Assembler, field) -> np.ndarray:
    """CSR value array of K alone at the previous ``field``: G_K @ lam +
    K_const from the assembler's operators, as capacity_diagonal forms M."""
    model = asm.table.phase
    _, lam = apparent_coefficients(
        asm._cmean @ asm._field_array(field), model, asm._crm, asm._dcr, asm._lamm,
        asm._dlam, model.latent_volumetric,
    )
    return asm._gk @ lam + asm._k_const


def cell_volumes(mesh: Mesh) -> np.ndarray:
    """Volume of every cell, |det(edge matrix)| / 6."""
    p = mesh.nodes[mesh.cells]
    return np.abs(np.linalg.det(p[:, 1:] - p[:, :1])) / 6.0


def boundary_face_counts(mesh: Mesh) -> np.ndarray:
    """For each boundary facet, the number of cells it is a face of."""
    n = np.int64(mesh.n_nodes)

    def key(triples):
        t = np.sort(triples, axis=1).astype(np.int64)
        return (t[:, 0] * n + t[:, 1]) * n + t[:, 2]

    faces = mesh.cells[:, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]].reshape(-1, 3)
    unique, counts = np.unique(key(faces), return_counts=True)
    want = key(mesh.boundary_facets)
    pos = np.minimum(np.searchsorted(unique, want), len(unique) - 1)
    return np.where(unique[pos] == want, counts[pos], 0)
