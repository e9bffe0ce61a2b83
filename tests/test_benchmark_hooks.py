"""The benchmark's tracer patches program entry points by module attribute
name (benchmarks/spans.py).  Installing its full set here makes a change
that removes or renames one of those names fail the test suite, not only a
later benchmark run.  Only reads benchmarks/."""

import math
import sys
from pathlib import Path

import pytest

from cryoground.mesh import BoxMeshSpec
from cryoground.simulate import Simulation, SimulationConfig
from cryoground.verify import MmsCase, run_mms

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    import spans

    return spans


@pytest.fixture
def workloads(spans, monkeypatch):
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads

    return workloads


def test_full_span_set_installs_and_uninstalls(spans):
    rec = spans.Recorder()
    originals = [owner.__dict__[attr] for owner, attr, _name, _info in spans.FULL]
    rec.install(spans.FULL)
    try:
        patched = [owner.__dict__[attr] for owner, attr, _name, _info in spans.FULL]
        assert all(p is not o for p, o in zip(patched, originals))
    finally:
        rec.uninstall()
    restored = [owner.__dict__[attr] for owner, attr, _name, _info in spans.FULL]
    assert all(r is o for r, o in zip(restored, originals))


@pytest.mark.parametrize("workers", [1, 2])
def test_assemble_speedup_side_measurement(workloads, soil_table, workers):
    """The traced well runs time assemble() with workers=1, which returns
    copies, against the run's own reuse_buffers call; no other benchmark
    path runs the former."""
    config = SimulationConfig(
        mesh=BoxMeshSpec((1.0, 1.0, 1.0), (4, 4, 4)), table=soil_table, tau=100.0,
        t_max=1000.0, initial_temperature=-0.5, workers=workers,
    )
    sim = Simulation(config)
    try:
        ratio = workloads._assemble_speedup(sim, calls=2)
    finally:
        sim.close()
    assert math.isfinite(ratio) and ratio > 0.0


def test_mms_step_windows(spans, workloads):
    """mms_space times each implicit step as the window from assemble() to
    the end of the next solve (workloads.solve_windows): a change that
    moved the solve into assemble() would turn that step time into setup
    time.  Four steps give four windows and four Simulation.step spans."""
    rec = spans.Recorder()
    rec.install(spans.LIGHT)
    try:
        run_mms((3, 3, 3), 0.025, 0.1, MmsCase())
    finally:
        rec.uninstall()
    indices = range(len(rec.spans))
    assert len(workloads.solve_windows(rec.spans, indices)) == 4
    assert len(workloads.simulation_steps(rec.spans, indices)) == 4
