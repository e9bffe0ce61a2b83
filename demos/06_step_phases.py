"""Where a step's time goes: steady steps against steps on an active front.

Runs the 20^3 well scenario (9,240 nodes, 47,184 cells) four ways and prints,
per run, the median step, assembly (fill plus Dirichlet elimination) and CG
times from the StepRecords, and the CG iterations per step:

- the default well, year 1 (no cell changes its key in most steps) and
  year 3 (a few cells change their key in every step);
- the well with the columns off, year 2 (a front in the ground);
- the well from -1.2 +- 0.5 degC (rng seed 5), year 1 (hundreds of cells
  in the phase band in every step).

A step whose cells keep their keys reuses its matrix rows, its elimination
and the CG's inverse diagonal and start product; a step on a front refills
and refactors all of them.  The first 20 steps of a run are warm-up and
left out.  Runs serially; pass a worker count to run the pooled step, e.g.
``python demos/06_step_phases.py 2``.  Takes about half a minute serially.
"""

import sys
import time

import numpy as np

from cryoground.fem import TemperatureField
from cryoground.scenario import build_well_scenario
from cryoground.simulate import Simulation

WORKERS = int(sys.argv[1]) if len(sys.argv) > 1 else 1
DAYS = 365
WARM_UP = 20


def march(label, years, report_years, mode="seasonal", start=None):
    """Step the well for ``years`` and print one line per year in report_years."""
    sim = Simulation(build_well_scenario(years=years, controller_mode=mode, workers=WORKERS))
    if start is not None:
        sim.field = TemperatureField(start(sim.mesh.n_nodes), 0.0)
    rows = []
    try:
        for _ in range(int(years * DAYS)):
            t0 = time.perf_counter()
            rec = sim.step()
            rows.append((time.perf_counter() - t0, rec.assemble_seconds,
                         rec.solver.wall_seconds, rec.solver.iterations))
    finally:
        sim.close()
    for year in report_years:
        first = (year - 1) * DAYS + (WARM_UP if year == 1 else 0)
        step, assemble, cg, iters = np.array(rows[first : year * DAYS]).T
        print(f"{label + f', year {year}':<36} {len(step):5d} {1e3 * np.median(step):8.2f} "
              f"{1e3 * np.median(assemble):9.2f} {1e3 * np.median(cg):7.2f} {iters.mean():8.2f}")


print(f"well 20^3, daily steps, {WORKERS} worker(s)")
print(f"{'run':<36} {'steps':>5} {'step ms':>8} {'assem ms':>9} {'cg ms':>7} {'cg iter':>8}")
march("default well", 3, (1, 3))
march("columns off", 2, (2,), mode="always_off")
march("-1.2 +- 0.5 degC (seed 5)", 1, (1,),
      start=lambda n: -1.2 + np.random.default_rng(5).uniform(-0.5, 0.5, n))
