"""Output writers: legacy VTK snapshots, probe CSV, binary restart dumps.

Legacy ASCII VTK (DataFile version 3.0) is the simplest format ParaView
ingests and needs no libraries.  All floats are written with 17 significant
digits, so emitted files are bit-reproducible for identical runs and
restart round trips are exact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fem import TemperatureField
from .mesh import Mesh

VTK_FILE_PATTERN = "step_%06d.vtk"
RESTART_FILE_PATTERN = "restart_%06d.bin"
PROBES_FILE_NAME = "probes.csv"
_VTK_CHUNK = 4096  # rows formatted per string of vtk_geometry

_SNAPSHOT_MAGIC = b"CRYOGRND"
# version 1 holds one level, version 2 also the previous one
_SNAPSHOT_VERSIONS = (1, 2)
_SNAPSHOT_HEAD_LEN = len(_SNAPSHOT_MAGIC) + struct.calcsize("<IQd")


class SnapshotError(ValueError):
    """Unreadable or incompatible restart snapshot."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _rows(fmt: str, table: np.ndarray) -> str:
    """``fmt`` filled with each row of ``table``, formatted in chunks of rows."""
    return "".join("".join(map(fmt.format, *table[r0 : r0 + _VTK_CHUNK].T.tolist()))
                   for r0 in range(0, len(table), _VTK_CHUNK))


def vtk_geometry(mesh: Mesh) -> str:
    """The POINTS, CELLS and CELL_TYPES lines of write_vtk's file for ``mesh``."""
    n, m = mesh.n_nodes, mesh.n_cells
    return "".join([
        f"POINTS {n} double\n", _rows("{:.17g} {:.17g} {:.17g}\n", mesh.nodes),
        f"CELLS {m} {5 * m}\n", _rows("4 {} {} {} {}\n", mesh.cells),
        f"CELL_TYPES {m}\n", "10\n" * m,
    ])


def write_vtk(mesh: Mesh, field: TemperatureField, path, geometry: str | None = None) -> None:
    """Write the mesh and nodal temperatures as a legacy VTK unstructured
    grid; ``geometry`` is vtk_geometry(mesh), formatted here if not given."""
    if len(field.values) != mesh.n_nodes:
        raise ValueError(
            f"field has {len(field.values)} values for {mesh.n_nodes} nodes"
        )
    with open(path, "w") as f:
        f.write(f"# vtk DataFile Version 3.0\ntemperature field at t = {_fmt(field.time)} s\n"
                "ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(vtk_geometry(mesh) if geometry is None else geometry)
        f.write(f"POINT_DATA {mesh.n_nodes}\nSCALARS temperature double 1\nLOOKUP_TABLE default\n")
        f.write("".join(map("{:.17g}\n".format, field.values.tolist())))


def write_probes(records, probe_values, path) -> None:
    """Write one CSV row per step record.

    Columns: step, t_seconds, T_air, columns_active (0/1), one column per
    probe, then min/max/mean of the field.  probe_values has one row per
    record (possibly with zero columns).
    """
    probe_values = np.asarray(probe_values, dtype=np.float64)
    if probe_values.ndim == 1:
        probe_values = (
            probe_values.reshape(len(records), -1) if len(records) else probe_values.reshape(0, 0)
        )
    if len(probe_values) != len(records):
        raise ValueError(
            f"{len(probe_values)} probe rows for {len(records)} records"
        )
    n_probes = probe_values.shape[1]
    header = ["step", "t_seconds", "T_air", "columns_active"]
    header += [f"probe_{i}" for i in range(n_probes)]
    header += ["min", "max", "mean"]
    lines = [",".join(header)]
    for rec, probes in zip(records, probe_values):
        row = [
            str(rec.step),
            _fmt(rec.t_cur),
            _fmt(rec.t_air),
            "1" if rec.columns_active else "0",
        ]
        row += [_fmt(v) for v in probes]
        row += [_fmt(rec.t_min), _fmt(rec.t_max), _fmt(rec.t_mean)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def snapshot_write(path, field: TemperatureField) -> None:
    """Binary restart dump of (time, nodal values), followed by the values
    of the previous level when the field carries one (version 2, else
    version 1); round trips bit-exactly."""
    levels = [field.values] if field.previous is None else [field.values, field.previous]
    version = len(levels)
    body = b"".join(np.ascontiguousarray(v, dtype="<f8").tobytes() for v in levels)
    head = _SNAPSHOT_MAGIC + struct.pack("<IQd", version, len(field.values), field.time)
    Path(path).write_bytes(head + body)


def snapshot_header(path) -> tuple[int, int, float]:
    """(version, node count, time) of a restart dump written by
    snapshot_write.

    Reads only the header.  Raises SnapshotError on a magic or version
    mismatch and when the file holds fewer values than it declares.
    """
    with open(path, "rb") as f:
        head = f.read(_SNAPSHOT_HEAD_LEN)
        size = os.fstat(f.fileno()).st_size
    if len(head) < _SNAPSHOT_HEAD_LEN or head[: len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path}: not a restart snapshot")
    version, count, time = struct.unpack_from("<IQd", head, len(_SNAPSHOT_MAGIC))
    if version not in _SNAPSHOT_VERSIONS:
        raise SnapshotError(
            f"{path}: snapshot version {version}, this build reads version 1 or 2"
        )
    available = (size - _SNAPSHOT_HEAD_LEN) // 8
    if available < version * count:
        raise SnapshotError(
            f"{path}: truncated snapshot ({available} of {version * count} values)"
        )
    return version, count, time


def snapshot_read(path, expected_nodes: int | None = None) -> TemperatureField:
    """Read a restart dump written by snapshot_write, with its previous
    level when it holds one (version 2).

    Raises SnapshotError as snapshot_header does or, when expected_nodes
    is given, on a node-count mismatch with the target mesh.
    """
    version, count, time = snapshot_header(path)
    if expected_nodes is not None and count != expected_nodes:
        raise SnapshotError(
            f"{path}: snapshot has {count} nodes, mesh has {expected_nodes}"
        )
    levels = np.fromfile(path, "<f8", count=version * count, offset=_SNAPSHOT_HEAD_LEN)
    previous = levels[count:] if version == 2 else None
    return TemperatureField(levels[:count], time, previous)
