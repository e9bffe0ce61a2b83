"""Unstructured tetrahedral meshes with region and boundary labeling.

Meshes are either read from Gmsh MSH 2.2 ASCII files or generated as
structured boxes (each hexahedral cell split into 6 tetrahedra).  A mesh is
immutable after construction; all arrays are flagged read-only so it can be
shared freely between assembly workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (bad indices, inconsistent array lengths)."""


class MshFormatError(MeshError):
    """Malformed or unsupported content in a Gmsh MSH file."""


class DegenerateCellError(MeshError):
    """A tetrahedron with (numerically) zero volume."""


# Boundary tags assigned by generate_box to the six box faces.
BOX_FACE_TAGS = {"-x": 1, "+x": 2, "-y": 3, "+y": 4, "-z": 5, "+z": 6}

# The six permutations of (x, y, z) that define the Kuhn subdivision of a
# hexahedron into tetrahedra sharing the main diagonal.
_KUHN_PATHS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]

_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# local node triples of the four faces of a tet
_TET_FACES = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def _signed_volumes(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Signed volume det(edge matrix)/6 for every cell, vectorized."""
    p = nodes[cells]  # (m, 4, 3)
    e = p[:, 1:] - p[:, :1]  # (m, 3, 3)
    return np.linalg.det(e) / 6.0


@dataclass
class Mesh:
    """Tetrahedral mesh: node coordinates, tet4 cells with region tags and
    boundary triangles with boundary tags.

    Construction rejects a non-finite node coordinate and re-orients any
    cell with negative signed volume (two node swap) so that assembly can
    assume positive Jacobians.  Arrays are made read-only afterwards.
    """

    nodes: np.ndarray
    cells: np.ndarray
    cell_region: np.ndarray
    boundary_facets: np.ndarray
    facet_tag: np.ndarray

    def __post_init__(self):
        # own copies: the orientation fix-up below writes into cells, and the
        # arrays are frozen afterwards, so no caller array may be aliased
        self.nodes = np.array(self.nodes, dtype=np.float64, order="C")
        self.cells = np.array(self.cells, dtype=np.int64, order="C")
        self.cell_region = np.array(self.cell_region, dtype=np.int64, order="C")
        self.boundary_facets = np.array(self.boundary_facets, np.int64, order="C").reshape(-1, 3)
        self.facet_tag = np.array(self.facet_tag, dtype=np.int64, order="C")

        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise MeshError(f"nodes must be (n, 3), got {self.nodes.shape}")
        if not np.isfinite(self.nodes).all():
            i = int(np.argmin(np.isfinite(self.nodes).all(axis=1)))
            raise MeshError(f"node {i} has a non-finite coordinate {self.nodes[i].tolist()}")
        self.cells = self.cells.reshape(-1, 4)
        n = len(self.nodes)
        if len(self.cell_region) != len(self.cells):
            raise MeshError(
                f"cell_region has {len(self.cell_region)} entries for {len(self.cells)} cells"
            )
        if len(self.facet_tag) != len(self.boundary_facets):
            raise MeshError(
                f"facet_tag has {len(self.facet_tag)} entries for "
                f"{len(self.boundary_facets)} facets"
            )
        for name, arr in (("cells", self.cells), ("boundary_facets", self.boundary_facets)):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise MeshError(f"{name} reference node indices outside [0, {n})")

        # Canonical orientation fix-up: swap the last two nodes of any cell
        # with negative signed volume.
        if len(self.cells):
            vols = _signed_volumes(self.nodes, self.cells)
            flip = vols < 0.0
            if flip.any():
                self.cells[flip, 2:] = self.cells[flip][:, [3, 2]]

        for arr in (self.nodes, self.cells, self.cell_region, self.boundary_facets, self.facet_tag):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_facets(self) -> int:
        return len(self.boundary_facets)


@dataclass(frozen=True)
class BoxMeshSpec:
    """Axis-aligned box: per-axis extents (m) and cell counts."""

    extents: tuple[float, float, float]
    divisions: tuple[int, int, int]

    def __post_init__(self):
        if len(self.extents) != 3 or len(self.divisions) != 3:
            raise MeshError("extents and divisions must each have 3 entries")
        if any(e <= 0 for e in self.extents):
            raise MeshError(f"extents must be positive, got {self.extents}")
        if any(int(d) != d or d < 1 for d in self.divisions):
            raise MeshError(f"divisions must be integers >= 1, got {self.divisions}")


def _volumes(p: np.ndarray, first: int = 0, det: np.ndarray | None = None) -> np.ndarray:
    """Positive volumes of tets from their (m, 4, 3) corners, or from the
    determinants ``det`` of their edge matrices when the caller has them.
    Raises DegenerateCellError, naming tet ``first + i``, when some |volume|
    is at most 1e-14 (longest edge)^3; one edge at a time keeps temporaries
    (m, 3)."""
    vols = (np.linalg.det(p[:, 1:] - p[:, :1]) if det is None else det) / 6.0
    longest2 = np.zeros(len(p))
    for i, j in _TET_EDGES:
        np.maximum(longest2, ((p[:, i] - p[:, j]) ** 2).sum(axis=1), out=longest2)
    bad = np.flatnonzero(np.abs(vols) <= 1e-14 * np.sqrt(longest2) ** 3)
    if len(bad):
        raise DegenerateCellError(
            f"cell {first + bad[0]} is degenerate (volume {vols[bad[0]]:.3e})"
        )
    return np.abs(vols)


def tet_volume(mesh: Mesh, cell: int) -> float:
    """Volume of one tetrahedral cell.

    Raises DegenerateCellError when the four nodes are (numerically)
    coplanar; the threshold is relative to the longest edge.
    """
    if not 0 <= cell < mesh.n_cells:
        raise IndexError(f"cell index {cell} out of range [0, {mesh.n_cells})")
    return float(_volumes(mesh.nodes[mesh.cells[cell : cell + 1]], first=cell)[0])


def generate_box(spec: BoxMeshSpec, region: int = 1) -> Mesh:
    """Structured tet mesh of a box via Kuhn subdivision (6 tets per hex).

    Produces (nx+1)(ny+1)(nz+1) nodes and 6*nx*ny*nz cells, all tagged
    ``region``.  The six box faces carry facet tags 1..6 in the order
    -x, +x, -y, +y, -z, +z.
    """
    return _generate(spec, region)[0]


def _generate(spec: BoxMeshSpec, region: int) -> tuple[Mesh, tuple]:
    """generate_box, also returning the _faces of its cells, so that a
    carve of the box needs no second sort."""
    nx, ny, nz = (int(d) for d in spec.divisions)
    # node id = i + (nx+1) * (j + (ny+1) * k), x fastest
    axes = [np.linspace(0.0, float(e), d + 1) for e, d in zip(spec.extents, (nx, ny, nz))]
    gz, gy, gx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    nodes = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    kk, jj, ii = np.meshgrid(np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij")
    origin = (ii + (nx + 1) * (jj + (ny + 1) * kk)).ravel()  # hex corner (0, 0, 0)
    stride = (1, nx + 1, (nx + 1) * (ny + 1))
    cells = np.empty((len(origin), 6, 4), dtype=np.int64)
    for t, path in enumerate(_KUHN_PATHS):
        cells[:, t] = origin[:, None] + np.cumsum([0] + [stride[a] for a in path])
    cells = cells.reshape(-1, 4)
    cell_region = np.full(len(cells), int(region), dtype=np.int64)

    faces = _faces(cells)
    unique, _, _, counts = faces
    bfaces = unique[counts == 1]

    # classify each boundary face by the grid plane all three nodes share
    grid = (bfaces % (nx + 1), (bfaces // (nx + 1)) % (ny + 1), bfaces // stride[2])
    tags = np.zeros(len(bfaces), dtype=np.int64)
    for axis, (coord, n) in enumerate(zip(grid, (nx, ny, nz))):
        for sign, value in (("-", 0), ("+", n)):
            on = (coord == value).all(axis=1) & (tags == 0)
            tags[on] = BOX_FACE_TAGS[sign + "xyz"[axis]]
    if (tags == 0).any():
        raise MeshError("internal error: unclassified boundary facet in generate_box")

    # Mesh may swap two nodes of a cell; that leaves its face triples as they are
    return Mesh(nodes, cells, cell_region, bfaces, tags), faces


def _sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable lexicographic order of integer triples, and the start and
    length of each run of equal rows in that order.  lexsort compares the
    columns one by one, so no packed key can overflow."""
    order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
    s = rows[order]
    new = np.ones(len(s), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    return order, starts, np.diff(np.append(starts, len(s)))


def _faces(cells: np.ndarray) -> tuple:
    """Sort the 4m faces of m cells, as sorted node triples, once.  Returns
    (unique, owner, starts, counts): the distinct triples in lexicographic
    order, the cell of each face in that order, and the position of each
    distinct triple's first face and its number of faces."""
    faces = np.sort(cells[:, _TET_FACES].reshape(-1, 3), axis=1)
    order, starts, counts = _sorted_runs(faces)
    return faces[order[starts]], order // 4, starts, counts


def _find(table: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row of ``table`` equal to each ``query`` row, or -1.  Rows are sorted
    node triples, unique in ``table``; the stable sort puts a table row
    first in its run."""
    both = np.concatenate([table, query])
    order, starts, counts = _sorted_runs(both)
    first = np.repeat(order[starts], counts)
    is_query = order >= len(table)
    out = np.empty(len(query), dtype=np.int64)
    out[order[is_query] - len(table)] = np.where(first < len(table), first, -1)[is_query]
    return out


# ---------------------------------------------------------------------------
# Gmsh MSH 2.2 ASCII
# ---------------------------------------------------------------------------

_MSH_TET = 4
_MSH_TRIANGLE = 2
_MSH_NODES_PER_TYPE = {_MSH_TRIANGLE: 3, _MSH_TET: 4}


def read_msh(path) -> Mesh:
    """Read a Gmsh MSH 2.2 ASCII file.

    Only element types 2 (3-node triangle, kept as boundary facet) and
    4 (4-node tetrahedron, kept as cell) are accepted; anything else is
    rejected naming the offending type id.  The first physical tag of each
    element becomes the region / facet tag.  Node ids are remapped to
    0-based contiguous indices in file order.  A malformed file raises
    MshFormatError naming the file (and the line of a malformed number).
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as e:
        raise MshFormatError(f"{path}: not a text file ({e.reason} at byte {e.start})") from None
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            s = lines[pos].strip()
            pos += 1
            if s:
                return s
        return None

    def number(kind, text, what="number"):  # text is None past the end of the file
        try:
            return kind(text)
        except (TypeError, ValueError):
            raise MshFormatError(f"{path}: line {pos}: malformed {what} {text!r}") from None

    s = next_line()
    if s != "$MeshFormat":
        raise MshFormatError(f"{path}: expected $MeshFormat first, got {s!r}")
    fmt = next_line()
    parts = (fmt or "").split()
    if len(parts) != 3:
        raise MshFormatError(f"{path}: malformed $MeshFormat line {fmt!r}")
    version, file_type = parts[0], parts[1]
    if version != "2.2":
        raise MshFormatError(f"{path}: unsupported MSH version {version} (need 2.2)")
    if file_type != "0":
        raise MshFormatError(f"{path}: binary MSH not supported (file-type {file_type})")
    if next_line() != "$EndMeshFormat":
        raise MshFormatError(f"{path}: missing $EndMeshFormat")

    node_ids: list[int] = []
    coords: list[tuple[float, float, float]] = []
    elements: list[tuple[int, int, list[int]]] = []  # (type, tag, node ids)

    while True:
        s = next_line()
        if s is None:
            break
        if s == "$Nodes":
            for _ in range(number(int, next_line(), "$Nodes count")):
                row = (next_line() or "").split()
                if len(row) != 4:
                    raise MshFormatError(f"{path}: malformed node line {row}")
                node_ids.append(number(int, row[0]))
                coords.append(tuple(number(float, v) for v in row[1:]))
            if next_line() != "$EndNodes":
                raise MshFormatError(f"{path}: missing $EndNodes")
        elif s == "$Elements":
            for _ in range(number(int, next_line(), "$Elements count")):
                row = (next_line() or "").split()
                if len(row) < 3:
                    raise MshFormatError(f"{path}: malformed element line {row}")
                etype = number(int, row[1])
                if etype not in _MSH_NODES_PER_TYPE:
                    raise MshFormatError(
                        f"{path}: unsupported element type {etype} (only 2 and 4 accepted)"
                    )
                ntags = number(int, row[2])
                nn = _MSH_NODES_PER_TYPE[etype]
                if len(row) != 3 + ntags + nn:
                    raise MshFormatError(f"{path}: element line has wrong field count: {row}")
                tag = number(int, row[3]) if ntags >= 1 else 0
                elements.append((etype, tag, [number(int, v) for v in row[3 + ntags :]]))
            if next_line() != "$EndElements":
                raise MshFormatError(f"{path}: missing $EndElements")
        elif s.startswith("$End"):
            raise MshFormatError(f"{path}: unexpected {s}")
        elif s.startswith("$"):
            # skip unknown section (e.g. $PhysicalNames)
            name = s[1:]
            while (t := next_line()) != f"$End{name}":
                if t is None:
                    raise MshFormatError(f"{path}: section ${name} not terminated")
        else:
            raise MshFormatError(f"{path}: unexpected content {s!r}")

    if not node_ids:
        raise MshFormatError(f"{path}: no $Nodes section")
    id_map = {nid: i for i, nid in enumerate(node_ids)}
    if len(id_map) != len(node_ids):
        raise MshFormatError(f"{path}: duplicate node ids")

    kept = {etype: ([], []) for etype in _MSH_NODES_PER_TYPE}  # (node ids, tags) per type
    for etype, tag, nids in elements:
        try:
            kept[etype][0].append([id_map[v] for v in nids])
        except KeyError as e:
            raise MshFormatError(f"{path}: element references unknown node id {e.args[0]}") from None
        kept[etype][1].append(tag)
    (cells, cregion), (facets, ftag) = kept[_MSH_TET], kept[_MSH_TRIANGLE]
    return Mesh(
        np.array(coords, dtype=np.float64).reshape(-1, 3),
        np.array(cells, dtype=np.int64).reshape(-1, 4),
        np.array(cregion, dtype=np.int64),
        np.array(facets, dtype=np.int64).reshape(-1, 3),
        np.array(ftag, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# region painting and prism carving (desk-scale geometry stand-ins)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxMeshPlan:
    """A box mesh plus axis-aligned region paints and prism cutouts.

    ``paint`` entries are (region_tag, (x0, x1, y0, y1, z0, z1)) applied in
    order to cells whose centroid falls inside the bounds; ``carve`` entries
    remove such cells and tag the newly exposed boundary triangles with the
    given facet tag.
    """

    box: BoxMeshSpec
    region: int = 1
    paint: tuple = ()
    carve: tuple = ()


def _inside(centroids: np.ndarray, bounds) -> np.ndarray:
    """Mask of centroids inside (x0, x1, y0, y1, z0, z1), faces included."""
    lo, hi = np.asarray(bounds, dtype=np.float64).reshape(3, 2).T
    return ((centroids >= lo) & (centroids <= hi)).all(axis=1)


def paint_region(mesh: Mesh, bounds, tag: int) -> Mesh:
    """Retag all cells whose centroid lies inside the axis-aligned bounds."""
    inside = _inside(mesh.nodes[mesh.cells].mean(axis=1), bounds)
    region = mesh.cell_region.copy()
    region[inside] = int(tag)
    return Mesh(mesh.nodes, mesh.cells, region, mesh.boundary_facets, mesh.facet_tag)


def carve_box(mesh: Mesh, bounds, facet_tag: int) -> Mesh:
    """Remove all cells with centroid inside the bounds.

    Boundary triangles exposed by the removal receive ``facet_tag``, as do
    boundary faces missing from the mesh's facet list; listed facets keep
    their tags.  Nodes no longer referenced by any cell are dropped and
    indices compacted in order.  Raises MeshError when the bounds hold no
    cell centroid, or all of them.
    """
    stage = (_inside(mesh.nodes[mesh.cells].mean(axis=1), bounds), facet_tag, bounds)
    return _carve(mesh, _faces(mesh.cells), mesh.cell_region, [stage])


def _carve(mesh: Mesh, faces: tuple, region: np.ndarray, stages) -> Mesh:
    """carve_box for each stage in order, each a (mask, facet tag, bounds),
    done at once on the _faces of ``mesh.cells``: a face that joins the
    boundary at stage k gets the tag of stage k, and one on the boundary
    after the first stage keeps its listed tag or takes the first stage's."""
    unique, owner, starts, _ = faces
    keep = np.ones(mesh.n_cells, dtype=bool)
    removed_at = np.zeros(mesh.n_cells, dtype=np.int64)  # 0 for cells that stay
    for k, (mask, _, bounds) in enumerate(stages, start=1):
        hit = mask & keep
        if not hit.any():
            raise MeshError(f"carve bounds {tuple(bounds)} contain no cell centroid")
        keep &= ~hit
        if not keep.any():
            raise MeshError(f"carve bounds {tuple(bounds)} remove every remaining cell")
        removed_at[hit] = k

    # A face is on the final boundary when exactly one of its cells stays.
    # It joined the boundary at the last stage that removed another of its
    # cells, or before the first stage if it has no other cell.
    outer = np.flatnonzero(np.add.reduceat(keep[owner], starts, dtype=np.int64) == 1)
    joined = np.maximum(np.maximum.reduceat(removed_at[owner], starts)[outer], 1)
    tags = np.array([int(tag) for _, tag, _ in stages], dtype=np.int64)[joined - 1]

    # a listed facet on the boundary since the first stage keeps its tag
    # (from its last listing, if listed twice)
    bfaces = unique[outer]
    listed = _find(bfaces, np.sort(mesh.boundary_facets, axis=1))
    at = np.flatnonzero(listed >= 0)[::-1]
    runs, last = np.unique(listed[at], return_index=True)
    first = joined[runs] == 1
    tags[runs[first]] = mesh.facet_tag[at[last]][first]

    cells = mesh.cells[keep]
    used = np.zeros(mesh.n_nodes, dtype=bool)
    used[cells.ravel()] = True
    remap = np.cumsum(used) - 1
    return Mesh(mesh.nodes[used], remap[cells], region[keep], remap[bfaces], tags)


def build_planned_box(plan: BoxMeshPlan) -> Mesh:
    """Generate, paint and carve a box mesh according to the plan.

    The result equals generate_box followed by each paint_region and then
    each carve_box of the plan, in order.  The faces are sorted once and
    the carves applied together as stages: each exposed face gets the tag
    of the carve that exposed it, and the box faces keep theirs.  A carve
    that holds no remaining cell centroid, or leaves no cell, raises
    MeshError naming its bounds.
    """
    mesh, faces = _generate(plan.box, plan.region)
    centroids = mesh.nodes[mesh.cells].mean(axis=1)
    region = mesh.cell_region.copy()
    for tag, bounds in plan.paint:
        region[_inside(centroids, bounds)] = int(tag)
    if not plan.carve:
        return Mesh(mesh.nodes, mesh.cells, region, mesh.boundary_facets, mesh.facet_tag)
    stages = [(_inside(centroids, bounds), tag, bounds) for tag, bounds in plan.carve]
    return _carve(mesh, faces, region, stages)


def write_msh(mesh: Mesh, path) -> None:
    """Write a mesh as Gmsh MSH 2.2 ASCII (inverse of read_msh).

    Coordinates are written with 17 significant digits so that a
    read_msh round trip reproduces them bit-exactly.
    """
    path = Path(path)
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(mesh.n_nodes)]
    for i, (x, y, z) in enumerate(mesh.nodes, start=1):
        out.append(f"{i} {x:.17g} {y:.17g} {z:.17g}")
    out += ["$EndNodes", "$Elements", str(mesh.n_facets + mesh.n_cells)]
    elements = [(_MSH_TRIANGLE, f, t) for f, t in zip(mesh.boundary_facets, mesh.facet_tag)]
    elements += [(_MSH_TET, c, t) for c, t in zip(mesh.cells, mesh.cell_region)]
    for eid, (etype, ids, tag) in enumerate(elements, start=1):
        ids = " ".join(str(int(v) + 1) for v in ids)
        out.append(f"{eid} {etype} 2 {int(tag)} {int(tag)} {ids}")
    out.append("$EndElements")
    path.write_text("\n".join(out) + "\n")
