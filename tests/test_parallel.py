import os
import time

import numpy as np
import pytest

import cryoground.fem as fem
import cryoground.linalg as linalg
import cryoground.parallel as parallel
from cryoground.fem import Assembler
from cryoground.linalg import cg_solve
from cryoground.mesh import BoxMeshSpec, generate_box
from cryoground.parallel import ForkPool, WorkerFailure, pool_available
from cryoground.physics import Material, MaterialTable, PhaseModel

pytestmark = pytest.mark.skipif(not pool_available(), reason="needs the worker pool")


def test_shared_array_visible_to_workers():
    arr = ForkPool.shared_array(16)
    arr[:] = 0.0

    def task(w):
        arr[w] = w + 1.0

    pool = ForkPool(4, task)
    pool.dispatch()
    pool.close()
    assert arr[:4].tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity")
    or parallel._current_cpu() is None
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs 2 usable CPUs and the CPU a process runs on",
)
def test_workers_pinned_off_the_callers_cpu(monkeypatch):
    """Each worker runs on one usable CPU, not the one the calling process
    ran on when the pool started (read once here, and by the pool)."""
    caller = parallel._current_cpu()
    monkeypatch.setattr(parallel, "_current_cpu", lambda: caller)
    pool = ForkPool(3, lambda w: None)
    try:
        pool.dispatch()  # a worker pins itself before its first task
        pinned = [os.sched_getaffinity(p.pid) for p in pool._procs]
    finally:
        pool.close()
    for cpus in pinned:
        assert len(cpus) == 1 and caller not in cpus and cpus <= os.sched_getaffinity(0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("case", ["one-cpu", "cpu-unknown"])
def test_workers_not_pinned_without_another_cpu(case, monkeypatch):
    """Where the calling process may run on one CPU only, or its CPU cannot
    be read, a worker keeps the affinity it was forked with."""
    own, affinity = os.sched_getaffinity(0), os.sched_getaffinity
    cpu = min(own)
    monkeypatch.setattr(parallel, "_current_cpu", lambda: None if case == "cpu-unknown" else cpu)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpu})
    pool = ForkPool(2, lambda w: None)
    try:
        pool.dispatch()
        assert affinity(pool._procs[0].pid) == own
    finally:
        pool.close()


def test_repeated_dispatch_accumulates():
    arr = ForkPool.shared_array(4)
    arr[:] = 0.0

    def task(w):
        arr[w] += 1.0

    pool = ForkPool(2, task)
    for _ in range(5):
        pool.dispatch()
    pool.close()
    assert arr[:2].tolist() == [5.0, 5.0]


def test_worker_exception_surfaces():
    def task(w):
        raise RuntimeError("boom")

    pool = ForkPool(2, task)
    with pytest.raises(WorkerFailure, match="worker 0"):
        pool.dispatch()


def test_calling_process_share_failure_surfaces():
    arr = ForkPool.shared_array(2)
    arr[:] = 0.0

    def task(w):
        arr[w] = 1.0
        if w == 1:
            raise RuntimeError("boom")

    pool = ForkPool(2, task)
    with pytest.raises(WorkerFailure, match="worker 1"):
        pool.dispatch()
    # the forked share still ran, and the failed pool refuses further work
    assert arr[0] == 1.0
    with pytest.raises(WorkerFailure, match="closed"):
        pool.dispatch()
    pool.close()


def test_idle_worker_wakes_for_each_dispatch():
    """Dispatches far enough apart that the worker stops spinning and sleeps
    on its pipe, and others close together, all run every share once."""
    arr = ForkPool.shared_array(2)
    arr[:] = 0.0

    def task(w):
        arr[w] += 1.0

    pool = ForkPool(2, task)
    for gap in (0.0, 0.05, 0.0, 0.0, 0.05, 0.0):
        time.sleep(gap)
        pool.dispatch()
    pool.close()
    assert arr.tolist() == [6.0, 6.0]


def test_dispatches_beyond_the_pipe_capacity_complete():
    """A worker that spins through every dispatch reads no wake-up byte; once
    the unread bytes fill its pipe, the dispatch blocked on it still
    completes (the worker's spin runs out and it drains the pipe)."""
    arr = ForkPool.shared_array(2)
    arr[:] = 0.0

    def task(w):
        arr[w] += 1.0

    pool = ForkPool(2, task)
    capacity = 65536  # bytes in a Linux pipe; other systems hold fewer
    for _ in range(capacity + 100):
        pool.dispatch()
    pool.close()
    assert arr.tolist() == [capacity + 100.0] * 2


def test_worker_dead_before_dispatch_surfaces():
    """A worker that died between dispatches fails the next one, which
    closes the pool."""
    pool = ForkPool(2, lambda w: None)
    pool.dispatch()
    pool._procs[0].terminate()
    pool._procs[0].join()
    assert not pool.alive() and not pool.closed
    with pytest.raises(WorkerFailure, match="worker 0 died"):
        pool.dispatch()
    assert pool.closed


def test_assembler_rebuilds_pool_after_worker_death(monkeypatch):
    """The assemble() whose dispatch finds a dead worker fails; the next one
    runs in a new pool and gives the same system.  A call at the same field
    and tau keeps its rows and dispatches nothing, so the failing call
    changes tau."""
    monkeypatch.setattr(fem, "usable_cpus", lambda: 2)
    mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (10, 10, 10)))
    asm = Assembler(mesh, MaterialTable({1: Material.single_phase(1.0, 1.0)}, PhaseModel()), 2)
    field = np.random.default_rng(3).uniform(-1.0, 1.0, mesh.n_nodes)
    want = asm.assemble(field, tau=0.01)
    pool = asm._pooled.pool
    pool._procs[0].terminate()
    pool._procs[0].join()
    with pytest.raises(WorkerFailure, match="worker 0 died"):
        asm.assemble(field, tau=0.02)
    got = asm.assemble(field, tau=0.01)
    assert asm._pooled.pool is not pool and asm._pooled.pool.alive()
    assert got.matrix.values.tobytes() == want.matrix.values.tobytes()
    assert got.rhs.tobytes() == want.rhs.tobytes()
    asm.close()


def test_dispatch_returns_the_calling_process_result():
    """dispatch() returns what the task returned in the calling process,
    which runs the last share; the forked shares' results stay with them."""
    arr = ForkPool.shared_array(3)

    def task(w):
        arr[w] = w + 1.0
        return f"share {w}"

    pool = ForkPool(3, task)
    try:
        assert pool.dispatch() == "share 2"
        assert arr.tolist() == [1.0, 2.0, 3.0]
    finally:
        pool.close()


def test_dispatch_after_close_rejected():
    pool = ForkPool(1, lambda w: None)
    pool.close()
    with pytest.raises(WorkerFailure, match="closed"):
        pool.dispatch()


def _pooled_system(monkeypatch, fault):
    """A 2-share assembler of a 10^3 box (1,331 nodes, both shares own rows)
    whose CG share 0 runs ``fault(barrier)`` after its first barrier, and
    the system of one step for it."""
    real = linalg.CgShares.share

    def faulty(self, s, tol, max_iter, barrier):
        if s == 0:
            barrier()
            fault()
        return real(self, s, tol, max_iter, barrier)

    monkeypatch.setattr(linalg.CgShares, "share", faulty)  # before the pool forks
    monkeypatch.setattr(fem, "usable_cpus", lambda: 2)
    mesh = generate_box(BoxMeshSpec((1.0, 1.0, 1.0), (10, 10, 10)))
    asm = Assembler(mesh, MaterialTable({1: Material.single_phase(1.0, 1.0)}, PhaseModel()), 2)
    field = np.random.default_rng(3).uniform(-1.0, 1.0, mesh.n_nodes)
    return asm, asm.assemble(field, tau=0.01, reuse_buffers=True)


def _boom():
    raise RuntimeError("boom inside CG")


@pytest.mark.parametrize(
    "fault, message",
    [(_boom, "worker 0 failed"), (lambda: os._exit(7), "worker 0 died")],
    ids=["raises", "exits"],
)
def test_share_failure_inside_cg_surfaces(monkeypatch, fault, message):
    asm, system = _pooled_system(monkeypatch, fault)
    pool = asm._pooled.pool
    procs = list(pool._procs)
    assert len(system.matrix.shares.bounds) == 3
    t0 = time.perf_counter()
    with pytest.raises(WorkerFailure, match=message):
        cg_solve(system.matrix, system.rhs)
    assert time.perf_counter() - t0 < 10.0
    assert not pool.alive() and not any(p.is_alive() for p in procs)
    with pytest.raises(WorkerFailure, match="closed"):
        pool.dispatch()
    asm.close()
