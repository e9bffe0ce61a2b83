"""Single-cell finite-element operations, written one cell at a time and
used only to check the package: the element-loop oracle of
test_assembly_oracle and the unit tests of the element operations.

They share no code with the assembler's precomputed operators or with
physics.apparent_coefficients, so agreement between the two is evidence,
not a tautology.  ``csr`` builds the package's CsrMatrix through scipy.
"""

import numpy as np
import scipy.sparse as sp

from cryoground.fem import FemError, TemperatureField
from cryoground.linalg import CsrMatrix
from cryoground.mesh import Mesh, tet_volume
from cryoground.physics import FREEZING_POROUS, MaterialTable, frozen_thawed_coeffs


def csr(*args, **kwargs) -> CsrMatrix:
    """CsrMatrix of scipy.sparse.csr_matrix(*args, **kwargs): a dense array
    (its zeros are not stored) or (values, (rows, cols)) triplets, whose
    duplicates are summed."""
    a = sp.csr_matrix(*args, **kwargs, dtype=np.float64)
    a.sum_duplicates()
    return CsrMatrix(a.indptr, a.indices, a.data)


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
