import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryoground.mesh import (
    BoxMeshPlan,
    BoxMeshSpec,
    DegenerateCellError,
    Mesh,
    MeshError,
    MshFormatError,
    build_planned_box,
    carve_box,
    generate_box,
    paint_region,
    read_msh,
    tet_volume,
    write_msh,
)
from cryoground.mesh import _sorted_runs
from cryoground.scenario import well_mesh_plan

from fem_oracle import boundary_face_counts, cell_volumes

SINGLE_TET_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 0 1 0
4 0 0 1
$EndNodes
$Elements
1
1 4 2 7 7 1 2 3 4
$EndElements
"""


class TestReadMsh:
    def test_single_tet(self, tmp_path):
        path = tmp_path / "one.msh"
        path.write_text(SINGLE_TET_MSH)
        mesh = read_msh(path)
        assert mesh.n_nodes == 4
        assert mesh.n_cells == 1
        assert mesh.cell_region.tolist() == [7]
        assert mesh.n_facets == 0

    def test_line_element_rejected(self, tmp_path):
        path = tmp_path / "line.msh"
        path.write_text(
            SINGLE_TET_MSH.replace("1\n1 4 2 7 7 1 2 3 4", "1\n1 1 2 5 5 1 2")
        )
        with pytest.raises(MshFormatError, match="element type 1"):
            read_msh(path)

    def test_unit_cube(self, tmp_path):
        # a cube has 6 faces, each split into 2 triangles: 12 boundary facets
        cube = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (1, 1, 1)))
        path = tmp_path / "cube.msh"
        write_msh(cube, path)
        mesh = read_msh(path)
        assert mesh.n_nodes == 8
        assert mesh.n_cells == 6
        assert mesh.n_facets == 12

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "v41.msh"
        path.write_text(SINGLE_TET_MSH.replace("2.2 0 8", "4.1 0 8"))
        with pytest.raises(MshFormatError, match="4.1"):
            read_msh(path)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "bin.msh"
        path.write_text(SINGLE_TET_MSH.replace("2.2 0 8", "2.2 1 8"))
        with pytest.raises(MshFormatError, match="binary"):
            read_msh(path)

    def test_dangling_node_reference(self, tmp_path):
        path = tmp_path / "dangling.msh"
        path.write_text(SINGLE_TET_MSH.replace("7 1 2 3 4", "7 1 2 3 99"))
        with pytest.raises(MshFormatError, match="99"):
            read_msh(path)

    def test_missing_terminator(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text(SINGLE_TET_MSH.replace("$EndNodes", "$EndNodez"))
        with pytest.raises(MshFormatError):
            read_msh(path)

    def test_unknown_section_skipped(self, tmp_path):
        extra = '$PhysicalNames\n1\n3 7 "soil"\n$EndPhysicalNames\n'
        path = tmp_path / "phys.msh"
        text = SINGLE_TET_MSH.replace("$Nodes", extra + "$Nodes")
        path.write_text(text)
        assert read_msh(path).n_cells == 1

    @pytest.mark.parametrize(
        "old, new, line, bad",
        [
            ("3 0 1 0", "3 0 x 0", 8, "x"),
            ("2 1 0 0", "2.5 1 0 0", 7, "2.5"),
            ("1 4 2 7 7 1 2 3 4", "1 tet 2 7 7 1 2 3 4", 13, "tet"),
            ("1 4 2 7 7 1 2 3 4", "1 4 two 7 7 1 2 3 4", 13, "two"),
            ("1 4 2 7 7 1 2 3 4", "1 4 2 seven 7 1 2 3 4", 13, "seven"),
            ("1 4 2 7 7 1 2 3 4", "1 4 2 7 7 1 2 3 q", 13, "q"),
        ],
        ids=["coordinate", "node-id", "element-type", "tag-count", "tag", "node-reference"],
    )
    def test_malformed_number_names_file_and_line(self, tmp_path, old, new, line, bad):
        path = tmp_path / "bad.msh"
        assert old in SINGLE_TET_MSH
        path.write_text(SINGLE_TET_MSH.replace(old, new))
        with pytest.raises(MshFormatError) as info:
            read_msh(path)
        assert str(info.value) == f"{path}: line {line}: malformed number {bad!r}"

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        mesh = generate_box(BoxMeshSpec((1.7, 0.3, 2.9), (3, 2, 2)))
        # perturb interior coordinates to irrational-looking values
        nodes = mesh.nodes.copy()
        nodes += rng.uniform(-1e-3, 1e-3, nodes.shape)
        mesh = Mesh(nodes, mesh.cells, mesh.cell_region, mesh.boundary_facets, mesh.facet_tag)
        path = tmp_path / "rt.msh"
        write_msh(mesh, path)
        back = read_msh(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.cell_region, mesh.cell_region)
        assert np.array_equal(back.facet_tag, mesh.facet_tag)


class TestGenerateBox:
    def test_single_cell_counts(self):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (1, 1, 1)))
        assert mesh.n_nodes == 8
        assert mesh.n_cells == 6
        assert mesh.n_facets == 12

    def test_2x2x2_counts(self):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        assert mesh.n_nodes == 27
        assert mesh.n_cells == 48

    def test_face_tags(self):
        mesh = generate_box(BoxMeshSpec((2.0, 3.0, 4.0), (2, 3, 4)))
        for tag, axis, value in [(1, 0, 0.0), (2, 0, 2.0), (3, 1, 0.0), (4, 1, 3.0),
                                 (5, 2, 0.0), (6, 2, 4.0)]:
            facets = mesh.boundary_facets[mesh.facet_tag == tag]
            assert len(facets), f"no facets with tag {tag}"
            assert np.allclose(mesh.nodes[facets][..., axis], value)

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        st.tuples(
            st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_volume_sum_matches_box(self, divisions, extents):
        mesh = generate_box(BoxMeshSpec(extents, divisions))
        total = sum(tet_volume(mesh, c) for c in range(mesh.n_cells))
        expected = extents[0] * extents[1] * extents[2]
        assert abs(total - expected) <= 1e-12 * expected

    def test_every_facet_is_face_of_one_cell(self):
        mesh = generate_box(BoxMeshSpec((1.0, 2.0, 1.5), (3, 2, 2)))
        assert (boundary_face_counts(mesh) == 1).all()

    def test_facets_subset_of_cells(self, unit_box):
        cell_sets = [set(c) for c in unit_box.cells.tolist()]
        for f in unit_box.boundary_facets.tolist():
            assert any(set(f) <= cs for cs in cell_sets)

    def test_all_volumes_positive(self, unit_box):
        from cryoground.mesh import _signed_volumes

        assert (_signed_volumes(unit_box.nodes, unit_box.cells) > 0).all()


class TestTetVolume:
    def test_reference_tet(self, reference_tet):
        assert tet_volume(reference_tet, 0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_scaling(self, reference_tet):
        scaled = Mesh(
            reference_tet.nodes * 2.0,
            reference_tet.cells,
            reference_tet.cell_region,
            reference_tet.boundary_facets,
            reference_tet.facet_tag,
        )
        assert tet_volume(scaled, 0) == pytest.approx(8.0 / 6.0, rel=1e-15)

    def test_coplanar_points_degenerate(self):
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        mesh = Mesh(nodes, [[0, 1, 2, 3]], [1], np.empty((0, 3), int), [])
        with pytest.raises(DegenerateCellError, match="cell 0"):
            tet_volume(mesh, 0)

    def test_bad_cell_index(self, reference_tet):
        with pytest.raises(IndexError):
            tet_volume(reference_tet, 5)


class TestMeshValidation:
    def test_negative_cell_reoriented(self):
        # swapped last two nodes gives negative signed volume
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        mesh = Mesh(nodes, [[0, 1, 3, 2]], [1], np.empty((0, 3), int), [])
        from cryoground.mesh import _signed_volumes

        assert _signed_volumes(mesh.nodes, mesh.cells)[0] > 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_orientation_matches_linalg_det(self, seed):
        """The orientation test's triple product flips exactly the cells
        whose np.linalg.det is negative, on a lumpy box whose cells list
        their nodes in random orders."""
        rng = np.random.default_rng(seed)
        box = generate_box(BoxMeshSpec((1.0, 1.5, 2.0), (3, 4, 5)))
        nodes = box.nodes + rng.uniform(-0.04, 0.04, box.nodes.shape)
        cells = rng.permuted(box.cells, axis=1)
        want = cells.copy()
        p = nodes[cells]
        flip = np.linalg.det(p[:, 1:] - p[:, :1]) < 0.0
        want[flip, 2:] = want[flip][:, [3, 2]]
        mesh = Mesh(nodes, cells, box.cell_region, box.boundary_facets, box.facet_tag)
        assert mesh.cells.tobytes() == want.tobytes()

    def test_out_of_range_node(self):
        nodes = np.zeros((3, 3))
        with pytest.raises(MeshError, match="node indices"):
            Mesh(nodes, [[0, 1, 2, 3]], [1], np.empty((0, 3), int), [])

    def test_region_length_mismatch(self, reference_tet):
        with pytest.raises(MeshError, match="cell_region"):
            Mesh(
                reference_tet.nodes,
                reference_tet.cells,
                [1, 2],
                reference_tet.boundary_facets,
                reference_tet.facet_tag,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_rejected(self, reference_tet, bad):
        nodes = reference_tet.nodes.copy()
        nodes[2, 1] = bad
        with pytest.raises(MeshError, match="node 2 has a non-finite coordinate"):
            Mesh(nodes, reference_tet.cells, [1], reference_tet.boundary_facets, [1, 2, 3, 4])

    def test_mesh_arrays_read_only(self, unit_box):
        with pytest.raises(ValueError):
            unit_box.nodes[0, 0] = 42.0

    def test_caller_arrays_not_aliased(self):
        """The orientation fix-up works on the mesh's own copy: the caller's
        cells stay as passed and writable, and read-only input builds."""
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        cells = np.array([[0, 1, 3, 2]])
        mesh = Mesh(nodes, cells, [1], np.empty((0, 3), int), [])
        assert cells.tolist() == [[0, 1, 3, 2]] and cells.flags.writeable
        assert nodes.flags.writeable
        assert mesh.cells.tolist() == [[0, 1, 2, 3]]

        cells.flags.writeable = False
        nodes.flags.writeable = False
        frozen = Mesh(nodes, cells, [1], np.empty((0, 3), int), [])
        assert frozen.cells.tolist() == [[0, 1, 2, 3]]
        assert cells.tolist() == [[0, 1, 3, 2]]

    def test_box_spec_invariants(self):
        with pytest.raises(MeshError):
            BoxMeshSpec((1.0, 1.0, 1.0), (0, 1, 1))
        with pytest.raises(MeshError):
            BoxMeshSpec((-1.0, 1.0, 1.0), (1, 1, 1))


class TestPaintAndCarve:
    def test_paint_retags_by_centroid(self):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        painted = paint_region(mesh, (0.0, 1.0, 0.0, 1.0, 0.5, 1.0), 9)
        ctr = painted.nodes[painted.cells].mean(axis=1)
        assert ((painted.cell_region == 9) == (ctr[:, 2] > 0.5)).all()

    def test_carve_removes_and_tags(self):
        mesh = generate_box(BoxMeshSpec((3.0, 3.0, 3.0), (3, 3, 3)))
        carved = carve_box(mesh, (1.0, 2.0, 1.0, 2.0, 1.0, 2.0), 77)
        # removed the center hex: 6 tets gone
        assert carved.n_cells == mesh.n_cells - 6
        total = sum(tet_volume(carved, c) for c in range(carved.n_cells))
        assert total == pytest.approx(27.0 - 1.0, rel=1e-12)
        # the cavity wall: 6 quad faces = 12 triangles with the new tag
        assert (carved.facet_tag == 77).sum() == 12
        assert (boundary_face_counts(carved) == 1).all()
        # no orphan nodes
        assert len(np.unique(carved.cells)) == carved.n_nodes

    def test_carve_keeps_outer_tags(self):
        mesh = generate_box(BoxMeshSpec((3.0, 3.0, 3.0), (3, 3, 3)))
        carved = carve_box(mesh, (1.0, 2.0, 1.0, 2.0, 2.0, 3.0), 77)
        # top face loses two triangles to the cavity opening
        assert (carved.facet_tag == 6).sum() == (mesh.facet_tag == 6).sum() - 2
        assert (carved.facet_tag == 5).sum() == (mesh.facet_tag == 5).sum()

    def test_carve_empty_bounds_error(self):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        with pytest.raises(MeshError, match="no cell"):
            carve_box(mesh, (5.0, 6.0, 5.0, 6.0, 5.0, 6.0), 1)

    def test_planned_box(self):
        plan = BoxMeshPlan(
            box=BoxMeshSpec((2.0, 2.0, 2.0), (2, 2, 2)),
            region=1,
            paint=((2, (0.0, 2.0, 0.0, 2.0, 1.0, 2.0)),),
            carve=((50, (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)),),
        )
        mesh = build_planned_box(plan)
        assert set(np.unique(mesh.cell_region)) == {1, 2}
        assert 50 in np.unique(mesh.facet_tag)


def reference_carve(mesh: Mesh, bounds, tag: int) -> tuple:
    """carve_box by explicit loops and dicts, as the reference for the sorted
    version: the five arrays of the carved mesh."""
    lo, hi = np.reshape(bounds, (3, 2)).T
    centroids = mesh.nodes[mesh.cells].mean(axis=1)
    keep = [i for i, c in enumerate(centroids) if not ((c >= lo) & (c <= hi)).all()]
    cells = mesh.cells[keep]
    counts = Counter(
        tuple(sorted(int(cell[v]) for v in face))
        for cell in cells
        for face in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    )
    bfaces = sorted(f for f, n in counts.items() if n == 1)
    listed = {tuple(sorted(f)): int(t) for f, t in zip(mesh.boundary_facets.tolist(), mesh.facet_tag)}
    tags = [listed.get(f, tag) for f in bfaces]
    used = sorted(set(cells.ravel().tolist()))
    remap = {old: new for new, old in enumerate(used)}
    return (
        mesh.nodes[used],
        np.array([[remap[v] for v in c] for c in cells.tolist()]).reshape(-1, 4),
        mesh.cell_region[keep],
        np.array([[remap[v] for v in f] for f in bfaces]).reshape(-1, 3),
        np.array(tags),
    )


MESH_ARRAYS = ("nodes", "cells", "cell_region", "boundary_facets", "facet_tag")


def assert_same_mesh(mesh: Mesh, arrays) -> None:
    for name, expected in zip(MESH_ARRAYS, arrays):
        actual = getattr(mesh, name)
        assert actual.shape == np.shape(expected), name
        assert np.array_equal(actual, expected), name


PLAN_BOX = BoxMeshSpec((4.0, 3.0, 3.0), (4, 3, 3))
PLANS = {
    # the second prism shares a face with the first: that face is exposed by
    # the first carve and gone after the second
    "adjacent": BoxMeshPlan(
        box=PLAN_BOX,
        carve=((7, (1.0, 2.0, 1.0, 2.0, 1.0, 2.0)), (8, (2.0, 3.0, 1.0, 2.0, 1.0, 2.0))),
    ),
    # a column through the -z and +z box faces, then a pocket against its side
    "through-box-face": BoxMeshPlan(
        box=PLAN_BOX,
        region=3,
        carve=((9, (0.0, 1.0, 0.0, 1.0, 0.0, 3.0)), (10, (1.0, 2.0, 0.0, 1.0, 1.0, 2.0))),
    ),
    # overlapping paints, and a carve overlapping an earlier one
    "overlapping": BoxMeshPlan(
        box=PLAN_BOX,
        paint=((2, (0.0, 4.0, 0.0, 3.0, 1.5, 3.0)), (5, (1.0, 3.0, 0.0, 3.0, 0.0, 2.0))),
        carve=((11, (1.0, 3.0, 1.0, 2.0, 1.0, 2.0)), (12, (2.0, 4.0, 1.0, 2.0, 0.0, 3.0))),
    ),
}


class TestOnePassBuild:
    # sha256 of the five arrays of the 20^3 well mesh, recorded from the
    # build that carved prism by prism with np.unique face sets
    WELL_SHA256 = {
        "nodes": "9f592d34c006796cffc2b05745fa42bcdf80a968ae3ed262e4fcebb65571b197",
        "cells": "b391c9349828aef204c9b0ad52ddfd0af94acebf61b8a7f7135ed5c9537a73e1",
        "cell_region": "a254b85d9986df0a3eecee332a402c42c881b3a7e309d635f6b25f36d1a9fabb",
        "boundary_facets": "dc0a71a09cb958e8c5c455ddcdefc2de03c5f4e66a6850201020dbfc9e331a57",
        "facet_tag": "a47775372477f286c85947462ecca0ef9bc3cfdc64d7cca9c819bff82c596126",
    }

    def test_well_mesh_arrays_pinned(self):
        mesh = build_planned_box(well_mesh_plan())
        for name, digest in self.WELL_SHA256.items():
            arr = getattr(mesh, name)
            assert arr.dtype.byteorder in "=<", name
            assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, name

    # sha256 of the five arrays of plain boxes (numpy 2.4, x86-64), recorded
    # from the build that found boundary faces by a lexsort of all face triples
    BOX_SHA256 = {
        ((1.0, 1.0, 1.0), (8, 8, 8)): {
            "nodes": "f14c8e29e84f9f032ca3407f111d03b57c85987b0c013d56a5111853ff81beba",
            "cells": "36aac58c1364f57091c1aa1d825e6884f1630bbd1c6958b4c2e94dc6d521d45a",
            "cell_region": "917e4da8f850635ab48ff08553144a383450d5ec2bc6d568c0bc75d15f8d2f76",
            "boundary_facets": "2f6c33c91ae90c060d7e1d581c6638ad8a28bacd44fbbbd0828ee356e8ad519f",
            "facet_tag": "8dca84c7938dc5bceaccfd411922d3cfad8fa27173143ab9ac92d08dae317231",
        },
        ((1.0, 1.0, 1.0), (32, 32, 32)): {
            "nodes": "517467be3ba6b7a8afe71a05c847061dc597f0ea92e41b422164b579fbc74291",
            "cells": "0d948149ee7f92811f0e890600effa71bd67b566a28ee45e350a3022fb2b11cf",
            "cell_region": "419677209a8bb6665bf1be5512f6c4c43b02d0ab2694954267b63029ca7af97c",
            "boundary_facets": "541b48d39c03aa9fec9db46c6d33ba84413ba1279d7a3f312466fa5e7feb4d91",
            "facet_tag": "7f4dbe353dd4abb5edff1446c701b68862592c1a4d36089d1bf9144e93800e72",
        },
        ((1.0, 2.0, 1.5), (5, 3, 4)): {
            "nodes": "fe70b060aface40a0da1526a2ee3ec41615a14b2f66cfd747770b4be85eadd43",
            "cells": "ade272e3754dcb3fe9899a5b2b6d23d08e8d15ea9e044cf0d570f03d69580fb4",
            "cell_region": "b67cb5005afeab478193eee00aeab5523f6527105b7105632fbe74a635b9ecc1",
            "boundary_facets": "e074fb30625a8a5e61198656378534e60c8b858b8aacafed23477010f54dcf6f",
            "facet_tag": "02368825b8a70c7d3ca40343da114a4ca3206dfa146775359ff3525bc26536a3",
        },
    }

    @pytest.mark.parametrize("box", BOX_SHA256, ids=["8^3", "32^3", "5x3x4"])
    def test_box_mesh_arrays_pinned(self, box):
        mesh = generate_box(BoxMeshSpec(*box))
        for name, digest in self.BOX_SHA256[box].items():
            arr = getattr(mesh, name)
            assert hashlib.sha256(arr.tobytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("top", [2**21, 2**21 + 1, 2**40])
    def test_sorted_runs_equal_lexsort_at_any_node_range(self, top):
        """Triples of integers below 2^21 are sorted by one packed int64 key,
        whose largest value is then 2^63 - 1; larger ones by a lexsort.  Both
        give the order and runs of a lexsort of the three columns."""
        values = np.array([0, 1, 2, top - 2, top - 1])
        rows = values[np.random.default_rng(top % 97).integers(0, 5, (600, 3))]
        rows[:5] = top - 1  # the largest triple, in a run
        order, starts, counts = _sorted_runs(rows)
        want = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
        assert np.array_equal(order, want)
        s = rows[want]
        want_starts = np.flatnonzero(np.append(True, (s[1:] != s[:-1]).any(axis=1)))
        assert np.array_equal(starts, want_starts)
        assert np.array_equal(counts, np.diff(np.append(want_starts, len(rows))))
        assert counts[-1] == (rows == top - 1).all(axis=1).sum() >= 5

    @pytest.mark.parametrize("name", PLANS)
    def test_planned_box_equals_fold(self, name):
        plan = PLANS[name]
        mesh = generate_box(plan.box, region=plan.region)
        for tag, bounds in plan.paint:
            mesh = paint_region(mesh, bounds, tag)
        for tag, bounds in plan.carve:
            expected = reference_carve(mesh, bounds, tag)
            mesh = carve_box(mesh, bounds, tag)
            assert_same_mesh(mesh, expected)
        built = build_planned_box(plan)
        assert_same_mesh(built, [getattr(mesh, a) for a in MESH_ARRAYS])
        assert set(np.unique(built.facet_tag)) >= {tag for tag, _ in plan.carve}
        assert (boundary_face_counts(built) == 1).all()

    def test_carve_msh_with_partial_facet_list(self, tmp_path):
        box = generate_box(BoxMeshSpec((3.0, 3.0, 3.0), (3, 3, 3)))
        # list every other facet, with its nodes in reverse order
        partial = Mesh(
            box.nodes, box.cells, box.cell_region,
            box.boundary_facets[::2, ::-1], box.facet_tag[::2],
        )
        path = tmp_path / "partial.msh"
        write_msh(partial, path)
        mesh = read_msh(path)
        assert mesh.n_facets == (box.n_facets + 1) // 2
        bounds = (1.0, 2.0, 1.0, 2.0, 2.0, 3.0)
        carved = carve_box(mesh, bounds, 40)
        assert_same_mesh(carved, reference_carve(mesh, bounds, 40))
        # the 54 unlisted outer triangles less the one in the opening, and the
        # 10 cavity wall triangles, take the carve's tag
        assert (carved.facet_tag == 40).sum() == 53 + 10
        assert (boundary_face_counts(carved) == 1).all()

    def test_carving_every_cell_raises(self):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        with pytest.raises(MeshError, match=r"\(0.0, 1.0, 0.0, 1.0, 0.0, 1.0\).*every"):
            carve_box(mesh, (0.0, 1.0, 0.0, 1.0, 0.0, 1.0), 9)

    def test_planned_carve_emptying_the_mesh_raises(self):
        plan = BoxMeshPlan(
            box=BoxMeshSpec((2.0, 2.0, 2.0), (2, 2, 2)),
            carve=((7, (0.0, 1.0, 0.0, 2.0, 0.0, 2.0)), (8, (0.5, 2.0, 0.0, 2.0, 0.0, 2.0))),
        )
        with pytest.raises(MeshError, match=r"\(0.5, 2.0, 0.0, 2.0, 0.0, 2.0\).*every"):
            build_planned_box(plan)

    def test_planned_carve_inside_an_earlier_one_raises(self):
        plan = BoxMeshPlan(
            box=BoxMeshSpec((2.0, 2.0, 2.0), (2, 2, 2)),
            carve=((7, (0.0, 1.0, 0.0, 1.0, 0.0, 1.0)), (8, (0.1, 0.9, 0.1, 0.9, 0.1, 0.9))),
        )
        with pytest.raises(MeshError, match=r"\(0.1, 0.9, 0.1, 0.9, 0.1, 0.9\).*no cell"):
            build_planned_box(plan)

    def test_refined_well_mesh_is_watertight(self):
        mesh = build_planned_box(well_mesh_plan((40, 40, 40)))
        assert mesh.n_cells == 377_472
        assert (boundary_face_counts(mesh) == 1).all()
        # 40^3 box less the 4 x 4 x 40 well and eight 2 x 2 x 14 columns
        assert cell_volumes(mesh).sum() == pytest.approx(64_000 - 640 - 8 * 56, rel=1e-12)
