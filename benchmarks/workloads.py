"""The four benchmark workloads: what each runs, why it was chosen, and the
checks on its outputs.

Each ``*_rep`` function runs one repetition through cryoground's public API
and returns a dict with its wall times, its operation count, the failures
its output checks found, and the counts that must repeat exactly between
repetitions of the same seed.  Step times are read from the spans that
``spans.LIGHT`` records in every repetition.
"""

from __future__ import annotations

import math
import shutil
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from cryoground import scenario, verify
from cryoground.fem import TemperatureField
from cryoground.io import PROBES_FILE_NAME
from cryoground.simulate import AIR_VALUE, Simulation, SolverFailure

from spans import END, INFO, NAME, START

WELL_STEPS = 365
WELL_CADENCE = 30
WELL_NOISE = 0.5  # deg C; -5 +- 0.5 keeps every cell frozen and outside the phase band
ENVELOPE_SLACK = 1e-9
NEUMANN_FINEST_MAX = 0.05
MMS_ORDER_MIN = 1.8


def _spans_named(spans, indices, name):
    return [spans[i] for i in indices if spans[i][NAME] == name]


def simulation_steps(spans, indices):
    """(duration_s, cells) of every Simulation.step() call."""
    return [(s[END] - s[START], s[INFO]["cells"]) for s in _spans_named(spans, indices, "simulate.step")]


def solve_windows(spans, indices):
    """(duration_s, cells) of every implicit step of a study that does not go
    through Simulation.step(): from the first assemble() after the previous
    solve to the end of the next solve."""
    out, start, cells = [], None, 0
    for i in indices:
        s = spans[i]
        if s[NAME] == "fem.assemble" and start is None:
            start, cells = s[START], s[INFO]["cells"]
        elif s[NAME] == "linalg.cg_solve" and start is not None:
            out.append((s[END] - start, cells))
            start = None
    return out


def span_counts(spans, indices):
    """Counts that must repeat exactly for a fixed seed."""
    cg = _spans_named(spans, indices, "linalg.cg_solve")
    inits = _spans_named(spans, indices, "fem.assembler_init")
    return {
        "linalg.cg_iters_total": sum(s[INFO]["iters"] for s in cg),
        "fem.assemble_calls": len(_spans_named(spans, indices, "fem.assemble")),
        "mesh.cells": sum(s[INFO]["cells"] for s in inits),
        "fem.nnz": sum(s[INFO]["nnz"] for s in inits),
    }


def _column_switches(records):
    """Changes of the controller state between consecutive steps."""
    return sum(a.columns_active != b.columns_active for a, b in zip(records, records[1:]))


def _check_well_records(records, config, initial, problems):
    """Per-step checks; returns the number of failed steps.

    A step fails when its solve did not converge, its field extremes are not
    finite, or they leave the envelope of the initial field and every
    Dirichlet value applied so far (the discrete maximum principle).
    """
    lo, hi = float(initial.min()), float(initial.max())
    failed = 0
    for rec in records:
        applied = [rec.t_air if v == AIR_VALUE else float(v) for v in config.dirichlet.values()]
        if rec.columns_active:
            col = config.controller.column_temperature
            applied.append(rec.t_air if col is None else float(col))
        lo, hi = min([lo, *applied]), max([hi, *applied])
        bad = []
        if not rec.solver.converged:
            bad.append("CG did not converge")
        if not (math.isfinite(rec.t_min) and math.isfinite(rec.t_max)):
            bad.append("non-finite field")
        elif rec.t_min < lo - ENVELOPE_SLACK or rec.t_max > hi + ENVELOPE_SLACK:
            bad.append(f"field [{rec.t_min:.6g}, {rec.t_max:.6g}] outside envelope [{lo:.6g}, {hi:.6g}]")
        if bad:
            failed += 1
            if len(problems) < 10:
                problems.append(f"step {rec.step}: " + "; ".join(bad))
    return failed


def _assemble_speedup(sim, calls=15):
    """Median serial assemble() time over the median with the run's own
    worker count, on the final field (1 for a serial run, by construction
    of the same measurement)."""
    tau = float(sim.config.tau)
    serial, pooled = [], []
    for _ in range(calls):
        t0 = time.perf_counter()
        sim.assembler.assemble(sim.field, tau, workers=1)
        t1 = time.perf_counter()
        sim.assembler.assemble(sim.field, tau, reuse_buffers=True)
        t2 = time.perf_counter()
        serial.append(t1 - t0)
        pooled.append(t2 - t1)
    return float(np.median(serial) / np.median(pooled))


def well_rep(rec, seed, workers, out_dir, measure_speedup):
    t0 = time.perf_counter()
    config = scenario.build_well_scenario(
        years=WELL_STEPS / 365.0, workers=workers, output_dir=out_dir, cadence=WELL_CADENCE
    )
    t_setup = time.perf_counter()
    sim = Simulation(config)
    setup_s = time.perf_counter() - t_setup
    rng = np.random.default_rng(seed)
    initial = scenario.INITIAL_TEMPERATURE + rng.uniform(-WELL_NOISE, WELL_NOISE, sim.mesh.n_nodes)
    sim.field = TemperatureField(initial, 0.0)

    problems, speedup, side_s = [], None, 0.0
    try:
        t_march = time.perf_counter()
        try:
            for _ in range(WELL_STEPS):
                sim.step()
        except SolverFailure as exc:
            problems.append(str(exc))
        march_s = time.perf_counter() - t_march
        sim.flush_probes()
        if measure_speedup:
            t_side = time.perf_counter()
            with rec.pause():
                speedup = _assemble_speedup(sim)
            side_s = time.perf_counter() - t_side
        finite = bool(np.isfinite(sim.field.values).all())
    finally:
        sim.close()
    run_s = time.perf_counter() - t0 - side_s

    records = sim.records
    failed = _check_well_records(records, config, initial, problems)
    failed += WELL_STEPS - len(records)
    if not finite:
        problems.append("final field is not finite")
        failed += 1
    vtk_bytes = 0
    if out_dir is not None:
        files = sorted(Path(out_dir).glob("*.vtk"))
        vtk_bytes = sum(f.stat().st_size for f in files)
        expect = len(records) // WELL_CADENCE
        probe_lines = (Path(out_dir) / PROBES_FILE_NAME).read_text().count("\n")
        if len(files) != expect or probe_lines != expect + 1:
            problems.append(
                f"{len(files)} VTK files and {probe_lines} probe lines, expected {expect} and {expect + 1}"
            )
            failed += 1
        shutil.rmtree(out_dir)
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "march_s": march_s,
        "attempted": WELL_STEPS,
        "failed": min(failed, WELL_STEPS),
        "problems": problems,
        "counts": {"io.vtk_bytes": vtk_bytes, "physics.column_switches": _column_switches(records)},
        "extra": {},
        "speedup": speedup,
    }


def neumann_rep(rec, seed, workers, out_dir, measure_speedup):
    problems = []
    t0 = time.perf_counter()
    try:
        reports = verify.neumann_convergence(levels=3, cells=40, tau=2000.0, delta=0.1, beta=1.0)
    except (SolverFailure, verify.VerifyError) as exc:
        problems.append(str(exc))
        reports = []
    run_s = time.perf_counter() - t0
    errors = [r.max_rel_error for r in reports]
    bad = len(errors) != 3 or not (errors[0] > errors[1] > errors[2]) or errors[-1] > NEUMANN_FINEST_MAX
    if reports and bad:
        problems.append(f"front errors {errors} not decreasing to <= {NEUMANN_FINEST_MAX}")
    return {
        "run_s": run_s,
        "march_s": None,
        "attempted": None,
        "failed": len(problems),
        "problems": problems,
        "counts": {"io.vtk_bytes": 0, "physics.column_switches": 0, "result": repr(errors)},
        "extra": {"front_err_max": errors[-1] if errors else None},
        "speedup": None,
    }


def mms_rep(rec, seed, workers, out_dir, measure_speedup):
    problems = []
    t0 = time.perf_counter()
    try:
        errors, orders = verify.spatial_order_study(base_divisions=8, levels=3)
    except verify.VerifyError as exc:
        problems.append(str(exc))
        errors, orders = [], []
    run_s = time.perf_counter() - t0
    if errors and (len(orders) != 2 or min(orders) < MMS_ORDER_MIN):
        problems.append(f"observed orders {orders} below {MMS_ORDER_MIN}")
    return {
        "run_s": run_s,
        "march_s": None,
        "attempted": None,
        "failed": len(problems),
        "problems": problems,
        "counts": {"io.vtk_bytes": 0, "physics.column_switches": 0, "result": repr(errors)},
        "extra": {"mms_l2_err": errors[-1] if errors else None, "mms_orders": orders},
        "speedup": None,
    }


class Workload(NamedTuple):
    rep: Callable  # (recorder, seed, workers, out_dir, measure_speedup) -> dict
    steps: Callable  # (spans, indices) -> [(duration_s, cells)] of each implicit step
    workers: int
    writes_output: bool
    seeded: bool
    why: str


WORKLOADS = {
    "well_year": Workload(
        well_rep,
        simulation_steps,
        1,
        True,
        True,
        "The product run: the 47k-cell well scenario, seasonal controller, 365 daily "
        "steps, VTK and probes every 30 steps. Setup is the carve-heavy mesh build; the "
        "march is mostly assembly; snapshot steps set the step tail; the columns switch "
        "on and off, so both Dirichlet plans are built and used.",
    ),
    "well_fork2": Workload(
        well_rep,
        simulation_steps,
        2,
        False,
        True,
        "Same scenario and steps with workers=min(2, nproc) and no output: the only "
        "workload through parallel.ForkPool, and the io-free twin of well_year.",
    ),
    "neumann_ladder": Workload(
        neumann_rep,
        simulation_steps,
        1,
        False,
        False,
        "Neumann melting-front oracle at 3 levels, 1,459 cheap steps on 960-3,840-cell "
        "bars: CG and per-call overhead dominate, setup is near zero; carries the "
        "latent-heat accuracy.",
    ),
    "mms_space": Workload(
        mms_rep,
        solve_windows,
        1,
        False,
        False,
        "MMS spatial order study, 8^3 to 32^3 boxes: setup (generate_box, Assembler "
        "init) dominates at the largest working set; the box is uncarved, so a "
        "carve-only mesh change should not move it.",
    ),
}
