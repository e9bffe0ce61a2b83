"""Spans around cryoground's layer entry points, installed from outside the package.

Every wrapper is placed at the name the program actually calls: ``simulate``
and ``verify`` bind ``cg_solve``, ``generate_box`` and ``build_planned_box``
by name at import, so those module attributes are patched, not only the
defining module's.  A span is ``[name, start, end, parent, info]``; spans stay
in memory until the run ends.  Calls on one thread nest strictly, so a span's
self time is its duration minus the durations of its direct children.

Two sets of entry points exist.  ``LIGHT`` holds the few boundaries the
end-to-end metrics need (step times, solve iterations, assembler sizes) and
is installed in every run; ``FULL`` adds every layer boundary and is
installed only in traced repetitions.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import cryoground.fem as fem
import cryoground.io as cgio
import cryoground.linalg as linalg
import cryoground.mesh as mesh
import cryoground.parallel as parallel
import cryoground.simulate as simulate
import cryoground.verify as verify

NAME, START, END, PARENT, INFO = range(5)


def _mesh_info(args, kwargs, out):
    return {"cells": out.n_cells, "nodes": out.n_nodes}


def _assembler_info(args, kwargs, out):
    a = args[0]
    return {"cells": a.mesh.n_cells, "nodes": a.mesh.n_nodes, "nnz": a.nnz}


def _cells_info(args, kwargs, out):
    return {"cells": args[0].mesh.n_cells}


def _cg_info(args, kwargs, out):
    report = out[1]
    return {"iters": report.iterations, "converged": report.converged}


def _pool_info(args, kwargs, out):
    return {"workers": int(args[1] if len(args) > 1 else kwargs["nworkers"])}


def _vtk_info(args, kwargs, out):
    path = args[2] if len(args) > 2 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (owner, attribute, span name, info callback)
LIGHT = (
    (simulate.Simulation, "step", "simulate.step", _cells_info),
    (fem.Assembler, "__init__", "fem.assembler_init", _assembler_info),
    (fem.Assembler, "assemble", "fem.assemble", _cells_info),
    (simulate, "cg_solve", "linalg.cg_solve", _cg_info),
    (verify, "cg_solve", "linalg.cg_solve", _cg_info),
)

FULL = LIGHT + (
    (simulate.Simulation, "__init__", "simulate.init", None),
    (simulate, "build_planned_box", "mesh.build", _mesh_info),
    (simulate, "generate_box", "mesh.build", _mesh_info),
    (simulate, "read_msh", "mesh.build", _mesh_info),
    (verify, "generate_box", "mesh.build", _mesh_info),
    (mesh, "generate_box", "mesh.generate_box", None),
    (mesh, "paint_region", "mesh.paint_region", None),
    (mesh, "carve_box", "mesh.carve_box", None),
    (fem.DirichletPlan, "__init__", "fem.dirichlet_plan", None),
    (fem.DirichletPlan, "apply", "fem.dirichlet", None),
    (linalg, "cg_solve", "linalg.cg_solve", _cg_info),
    (parallel.ForkPool, "__init__", "parallel.pool_start", _pool_info),
    (parallel.ForkPool, "dispatch", "parallel.dispatch", None),
    (cgio, "write_vtk", "io.write_vtk", _vtk_info),
    (cgio, "write_probes", "io.write_probes", None),
    (cgio, "snapshot_read", "io.snapshot_read", None),
    (verify, "neumann_convergence", "verify.study", None),
    (verify, "spatial_order_study", "verify.study", None),
    (verify, "run_neumann_benchmark", "verify.level", None),
    (verify, "run_mms", "verify.level", None),
)


class Recorder:
    """Collects spans from patched entry points; one per benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.paused = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def pause(self):
        """Run code that the repetition's figures must not see."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self, entries):
        for owner, attr, name, info in entries:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, info))
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, info):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if info is not None:
                rec.spans[idx][INFO] = info(args, kwargs, out)
            return out

        return wrapper


def self_times(spans: list[list], indices: list[int]) -> dict[int, float]:
    """Self time of each listed span: duration minus its direct children."""
    own = {i: spans[i][END] - spans[i][START] for i in indices}
    for i in indices:
        p = spans[i][PARENT]
        if p in own:
            own[p] -= spans[i][END] - spans[i][START]
    return own
