"""Setup memory at refinement scale: what building a mesh and its Assembler
costs on the 32^3 box of the MMS order study (196,608 cells, every cell
constant) and on the 20^3 and 40^3 wells (47,184 and 377,472 cells).

Each case runs in fresh processes.  Printed per case, in bytes per cell:
the traced peak and the held bytes (tracemalloc, numpy's arrays included)
of the mesh build and of Assembler.__init__; then the peak resident set
(ru_maxrss) of an untraced process after it built the mesh and after it
built the Assembler, which also counts what tracemalloc does not see (the
interpreter and libraries, numpy's sort buffers).  Takes about 20 s.
"""

import resource
import subprocess
import sys
import tracemalloc

from cryoground.fem import Assembler
from cryoground.mesh import BoxMeshSpec, build_planned_box, generate_box
from cryoground.scenario import default_materials, well_mesh_plan
from cryoground.verify import MmsCase

CASES = {
    "box 32^3 (MMS)": (
        lambda: generate_box(BoxMeshSpec(MmsCase().lengths, (32, 32, 32))),
        lambda: MmsCase().table(),
    ),
    "well 20^3": (lambda: build_planned_box(well_mesh_plan((20, 20, 20))), default_materials),
    "well 40^3": (lambda: build_planned_box(well_mesh_plan((40, 40, 40))), default_materials),
}


def traced(build):
    """(build(), its traced peak, the bytes it holds)."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = build()
    held, peak = tracemalloc.get_traced_memory()
    return out, peak - base, held - base


def measure(name: str, trace: bool):
    make_mesh, make_table = CASES[name]
    if not trace:
        mesh = make_mesh()
        after_mesh = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        Assembler(mesh, make_table())
        after_init = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f" {after_mesh:9.1f} {after_init:9.1f}")
        return
    tracemalloc.start()
    mesh, mesh_peak, mesh_held = traced(make_mesh)
    table = make_table()
    _, init_peak, init_held = traced(lambda: Assembler(mesh, table))
    m = mesh.n_cells
    figures = (mesh_peak, mesh_held, init_peak, init_held)
    print(f"{name:<16} {m:>8,}" + "".join(f" {f / m:9.0f}" for f in figures), end="")


if len(sys.argv) > 1:
    measure(sys.argv[1], sys.argv[2] == "traced")
else:
    print(f"{'':<16} {'':>8} {'mesh build, B/cell':>19} {'Assembler, B/cell':>19}"
          f" {'ru_maxrss after, MB':>19}")
    print(f"{'case':<16} {'cells':>8} {'peak':>9} {'held':>9} {'peak':>9} {'held':>9}"
          f" {'mesh':>9} {'Assembler':>9}")
    for name in CASES:
        for mode in ("traced", "rss"):
            sys.stdout.flush()
            subprocess.run([sys.executable, __file__, name, mode], check=True)
