import numpy as np
import pytest

from cryoground.fem import TemperatureField
from cryoground.io import (
    SnapshotError,
    snapshot_header,
    snapshot_read,
    snapshot_write,
    write_probes,
    write_vtk,
)
from cryoground.mesh import BoxMeshSpec, generate_box
from cryoground.simulate import StepRecord

from vtk_oracle import read_legacy_vtk


def make_record(step, t=0.0, probe=0.0):
    return StepRecord(
        step=step,
        t_cur=t,
        t_air=-10.0,
        columns_active=bool(step % 2),
        solver=None,
        t_min=-20.0,
        t_max=5.0,
        t_mean=-7.5,
    )


class TestWriteVtk:
    def test_single_tet_format(self, reference_tet, tmp_path):
        path = tmp_path / "tet.vtk"
        write_vtk(reference_tet, TemperatureField(np.array([0.0, 1.0, 2.0, 3.0])), path)
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0\n")
        assert "\nASCII\n" in text
        assert "\nDATASET UNSTRUCTURED_GRID\n" in text
        assert "\nCELLS 1 5\n" in text
        assert "\n4 0 1 2 3\n" in text
        assert "\nCELL_TYPES 1\n10\n" in text
        assert "\nPOINT_DATA 4\n" in text
        assert "\nSCALARS temperature double 1\nLOOKUP_TABLE default\n" in text

    def test_points_count(self, tmp_path):
        mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (2, 2, 2)))
        path = tmp_path / "box.vtk"
        write_vtk(mesh, TemperatureField(np.zeros(mesh.n_nodes)), path)
        points, cells, types, _ = read_legacy_vtk(path)
        assert len(points) == mesh.n_nodes
        assert len(cells) == mesh.n_cells

    def test_roundtrip_through_independent_reader(self, tmp_path):
        mesh = generate_box(BoxMeshSpec((1.3, 0.7, 2.1), (3, 2, 4)))
        rng = np.random.default_rng(0)
        field = TemperatureField(rng.uniform(-30, 30, mesh.n_nodes), time=123.0)
        path = tmp_path / "rt.vtk"
        write_vtk(mesh, field, path)
        points, cells, types, data = read_legacy_vtk(path)
        assert np.abs(points - mesh.nodes).max() <= 1e-15
        assert all(t == 10 for t in types)
        assert np.array_equal(np.array(cells), mesh.cells)
        assert np.abs(data["temperature"] - field.values).max() <= 1e-15

    def test_size_mismatch(self, reference_tet, tmp_path):
        with pytest.raises(ValueError, match="4 nodes"):
            write_vtk(reference_tet, TemperatureField(np.zeros(7)), tmp_path / "x.vtk")


class TestWriteProbes:
    def test_zero_steps_header_only(self, tmp_path):
        path = tmp_path / "p.csv"
        write_probes([], np.empty(0), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("step,t_seconds,T_air,columns_active")

    def test_three_steps_one_probe(self, tmp_path):
        path = tmp_path / "p.csv"
        records = [make_record(i, t=i * 10.0) for i in (1, 2, 3)]
        write_probes(records, np.array([[1.0], [2.0], [3.0]]), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "step,t_seconds,T_air,columns_active,probe_0,min,max,mean"
        assert lines[1].split(",")[0] == "1"
        assert lines[1].split(",")[4] == "1"

    def test_row_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="probe rows"):
            write_probes([make_record(1)], np.zeros((2, 1)), tmp_path / "p.csv")


class TestSnapshots:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        field = TemperatureField(rng.standard_normal(97) * 1e3, time=7.75e5)
        path = tmp_path / "snap.bin"
        snapshot_write(path, field)
        back = snapshot_read(path)
        assert back.time == field.time
        assert np.array_equal(back.values, field.values)

    def test_previous_level_roundtrip_bit_exact(self, tmp_path):
        """A field with a previous level is written as version 2 and read
        back with both levels; one without stays version 1."""
        rng = np.random.default_rng(2)
        values, previous = rng.standard_normal((2, 97)) * 1e3
        path = tmp_path / "snap.bin"
        snapshot_write(path, TemperatureField(values, 7.75e5, previous))
        assert path.read_bytes()[8] == 2
        assert snapshot_header(path) == (2, 97, 7.75e5)
        back = snapshot_read(path)
        assert back.values.tobytes() == values.tobytes()
        assert back.previous.tobytes() == previous.tobytes()
        snapshot_write(path, TemperatureField(values, 7.75e5))
        assert path.read_bytes()[8] == 1
        assert snapshot_read(path).previous is None

    def test_truncated_previous_level(self, tmp_path):
        path = tmp_path / "snap.bin"
        snapshot_write(path, TemperatureField(np.arange(5.0), 7200.0, np.arange(5.0) - 1.0))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotError, match=r"truncated snapshot \(9 of 10 values\)"):
            snapshot_read(path)

    def test_header_gives_count_and_time(self, tmp_path):
        path = tmp_path / "snap.bin"
        snapshot_write(path, TemperatureField(np.arange(5.0), time=7200.0))
        assert snapshot_header(path) == (1, 5, 7200.0)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SnapshotError, match=r"truncated snapshot \(4 of 5 values\)"):
            snapshot_header(path)

    def test_version_mismatch_names_both(self, tmp_path):
        path = tmp_path / "snap.bin"
        snapshot_write(path, TemperatureField(np.zeros(3)))
        raw = bytearray(path.read_bytes())
        raw[8] = 9  # bump the version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="version 9.*version 1"):
            snapshot_read(path)

    def test_node_count_mismatch(self, tmp_path):
        path = tmp_path / "snap.bin"
        snapshot_write(path, TemperatureField(np.zeros(3)))
        with pytest.raises(SnapshotError, match="3 nodes.*8"):
            snapshot_read(path, expected_nodes=8)

    def test_not_a_snapshot(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"this is not a snapshot")
        with pytest.raises(SnapshotError, match="not a restart snapshot"):
            snapshot_read(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "snap.bin"
        snapshot_write(path, TemperatureField(np.arange(10.0)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(SnapshotError, match="truncated"):
            snapshot_read(path)
