"""Forked worker processes sharing anonymous memory maps.

Parallel assembly and CG need workers that (a) see the large precomputed
operators without copying them and (b) write results into buffers the
parent can read.  Forked children inherit the operators through
copy-on-write and the result buffers through MAP_SHARED anonymous mmaps;
the parent runs one share itself.

Every dispatch writes one wake-up byte to each worker's command pipe and
then publishes its dispatch number.  A worker spins on the dispatch number
for a bounded time and runs its share as soon as the number changes,
without a system call; only a worker whose spin ran out sleeps on the
pipe, reading the bytes of the dispatches it ran meanwhile until it finds
one of a dispatch not yet run, and then waits for that dispatch's number.
Inside a task the shares meet through polled flags in one more shared map
(ShareSync): a completion number and status per share, per-share barrier
counters and an abort flag.  A polling loop spins a bounded number of
times, then falls back to short sleeps that also check that its peers are
alive, so a descheduled share cannot stall the others and a dead one is
noticed.  A failed share is reported as WorkerFailure.

The flags carry no fences: a share publishes data with plain stores and
then a flag, and its peers read the flag and then the data.  That is
correct only where the CPU keeps stores in order with stores and loads in
order with loads, as x86 and x86-64 do; weakly ordered CPUs (ARM, POWER)
may show a peer the flag before the data.  pool_available() is therefore
false there, as it is without fork (the task closure is inherited, never
pickled), and callers fall back to serial execution.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import multiprocessing
import os
import platform
import sys
import time
import traceback
import weakref

import numpy as np

_WAKE = b"W"
_QUIT = b"Q"
_SPIN = 20_000  # polls before a wait falls back to sleeping
_NAP = 1e-4  # seconds per sleep of a wait that fell back
_LINE = 8  # int64 slots per 64-byte cache line; each flag has its own line
# slots of ShareSync: global lines, then per share the lines below
_SEQ, _ABORT = 0, 1
_ARRIVE, _DONE, _FAILED = 0, 1, 2
_PER_SHARE = 3
# CPUs whose memory model keeps the flag protocol above in order
_ORDERED_MACHINES = {"x86_64", "amd64", "i386", "i486", "i586", "i686", "x86"}


@functools.cache
def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@functools.cache
def pool_available() -> bool:
    """Whether ForkPool can run here: fork exists and the CPU orders the
    shared-flag stores and loads as the pool needs (x86 and x86-64)."""
    return fork_available() and platform.machine().lower() in _ORDERED_MACHINES


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of Linux's
    /proc/self/stat), or None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one, else all CPUs of the machine)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerFailure(RuntimeError):
    """A worker process reported an exception or died."""


class ShareAborted(Exception):
    """Another share failed; raised in a share waiting at a barrier."""


class ShareSync:
    """Flags in shared memory through which the shares of a pool meet.

    Create it before the pool forks (ForkPool makes its own when given
    none), so that a task can call barrier() from any share.
    """

    def __init__(self, nshares: int):
        self.nshares = int(nshares)
        self._map = mmap.mmap(-1, 8 * _LINE * (2 + _PER_SHARE * self.nshares))
        self._mv = memoryview(self._map).cast("q")
        self._arrive = [self.slot(s, _ARRIVE) for s in range(self.nshares)]
        # per-process check that the peers are alive; ForkPool sets it
        self.check_peers = lambda: True

    def slot(self, share: int, kind: int) -> int:
        return _LINE * (2 + _PER_SHARE * share + kind)

    def get(self, index: int) -> int:
        return self._mv[index]

    def set(self, index: int, value: int):
        self._mv[index] = value

    def abort(self):
        self._mv[_ABORT * _LINE] = 1

    def wait(self, index: int, target: int):
        """Poll until slot ``index`` reaches ``target``: spin, then sleep.

        Raises ShareAborted when another share failed, or when check_peers
        finds a peer dead (the abort flag is then set for the others).
        """
        mv, abort_at = self._mv, _ABORT * _LINE
        spins = 0
        while mv[index] < target:
            if mv[abort_at]:
                raise ShareAborted
            spins += 1
            if spins > _SPIN:
                time.sleep(_NAP)
                if not self.check_peers():
                    self.abort()
                    raise ShareAborted

    def barrier(self, share: int):
        """Return once every share has called barrier() as often as this one."""
        mv, arrive = self._mv, self._arrive
        target = mv[arrive[share]] + 1
        mv[arrive[share]] = target
        for index in arrive:
            if mv[index] < target:
                self.wait(index, target)


class ForkPool:
    """Persistent fork-based pool executing ``task(worker_index)`` on demand.

    dispatch() runs ``task(w)`` for every w in range(nworkers) concurrently
    and, once all are done, returns what it returned in the calling process,
    which runs the last share itself instead of idling; shares 0 ..
    nworkers - 2 run on forked worker processes.  Shares communicate results
    through shared arrays created with shared_array() before the pool is
    constructed, and may meet inside a task at ``sync.barrier(w)``.  Each
    worker pins itself to a usable CPU other than the one the calling
    process runs on when the pool starts, where there is one: two shares on
    one CPU take turns at every barrier, and a scheduler that does not
    balance load (as in some containers) leaves them so for the whole run.
    """

    @staticmethod
    def shared_array(size: int, dtype=np.float64) -> np.ndarray:
        """Zeroed array backed by an anonymous shared mmap (visible to later
        forks).

        The returned array keeps the map alive through its .base reference.
        A view that writes must stay within the allocated size.
        """
        nbytes = int(size) * np.dtype(dtype).itemsize
        buf = mmap.mmap(-1, max(nbytes, 1))
        return np.frombuffer(buf, dtype=dtype, count=int(size))

    def __init__(self, nworkers: int, task, sync: ShareSync | None = None):
        if not pool_available():
            raise WorkerFailure(
                f"no worker pool on this platform (fork: {fork_available()}, "
                f"CPU: {platform.machine()!r})"
            )
        if int(nworkers) < 1:
            raise ValueError(f"a pool needs at least one share, got {nworkers}")
        self._nworkers = int(nworkers)
        self._task = task
        self.sync = ShareSync(self._nworkers) if sync is None else sync
        if self.sync.nshares != self._nworkers:
            raise ValueError(f"sync has {self.sync.nshares} shares, pool {self._nworkers}")
        self._seq = 0
        self._closed = False
        self._procs = []
        self._cmd_w = []
        ctx = multiprocessing.get_context("fork")
        # the usable CPUs other than the caller's, where a process can be pinned
        caller = _current_cpu() if hasattr(os, "sched_setaffinity") else None
        cpus = [] if caller is None else sorted(os.sched_getaffinity(0) - {caller})
        for w in range(self._nworkers - 1):
            cmd_r, cmd_w = os.pipe()
            cpu = cpus[w % len(cpus)] if cpus else None
            proc = ctx.Process(target=self._worker_main, args=(w, cmd_r, cmd_w, cpu), daemon=True)
            proc.start()
            os.close(cmd_r)
            self._procs.append(proc)
            self._cmd_w.append(cmd_w)
        procs = self._procs  # not self: the finalizer below must not keep the pool alive
        self.sync.check_peers = lambda: all(p.is_alive() for p in procs)
        self._finalizer = weakref.finalize(
            self, ForkPool._cleanup, self.sync, self._procs, self._cmd_w
        )

    def _worker_main(self, w: int, cmd_r: int, cmd_w: int, cpu: int | None):
        # child: drop the inherited parent-side descriptors, its own pipe's
        # write end included, so that the read below sees end-of-file once
        # the parent is gone
        for fd in [*self._cmd_w, cmd_w]:
            try:
                os.close(fd)
            except OSError:
                pass
        if cpu is not None:
            with contextlib.suppress(OSError):  # a CPU taken away meanwhile
                os.sched_setaffinity(0, {cpu})
        sync = self.sync
        parent = os.getppid()
        sync.check_peers = lambda: os.getppid() == parent
        seq_at, seq, woken = _SEQ * _LINE, 0, 0  # dispatches run, wake-up bytes read
        while True:
            for _ in range(_SPIN):
                if sync.get(seq_at) != seq:
                    break
            else:
                # idle: sleep on the pipe until it holds the byte of a dispatch
                # not run yet (those of dispatches seen while spinning are
                # read here too, so the pipe never fills)
                while woken <= seq:
                    data = os.read(cmd_r, 4096)
                    if not data or _QUIT in data:
                        os._exit(0)
                    woken += len(data)
            try:  # the byte is written before the dispatch number
                sync.wait(seq_at, seq + 1)
            except ShareAborted:
                os._exit(0)
            seq += 1
            failed = 0
            try:
                self._task(w)
            except ShareAborted:
                pass
            except BaseException:
                traceback.print_exc(file=sys.stderr)
                failed = 1
                sync.abort()
            sync.set(sync.slot(w, _FAILED), failed)
            sync.set(sync.slot(w, _DONE), seq)

    @property
    def closed(self) -> bool:
        return self._closed

    def alive(self) -> bool:
        return not self._closed and all(p.is_alive() for p in self._procs)

    def dispatch(self):
        if self._closed:
            raise WorkerFailure("pool is closed")
        sync = self.sync
        self._seq += 1
        for fd in self._cmd_w:
            try:
                os.write(fd, _WAKE)
            except OSError:  # the worker is dead; the wait below reports it
                pass
        sync.set(_SEQ * _LINE, self._seq)
        own_error = result = None
        try:
            result = self._task(self._nworkers - 1)
        except ShareAborted:
            pass
        except Exception as exc:
            own_error = exc
            sync.abort()
        # wait for every worker, so none is left inside the task
        failures = []
        for w, proc in enumerate(self._procs):
            done, spins = sync.slot(w, _DONE), 0
            while sync.get(done) != self._seq:
                spins += 1
                if spins > _SPIN:
                    time.sleep(_NAP)
                    if not proc.is_alive():
                        sync.abort()
                        failures.append(f"assembly worker {w} died")
                        break
            else:
                if sync.get(sync.slot(w, _FAILED)):
                    failures.append(f"assembly worker {w} failed (see its traceback on stderr)")
        if failures:
            self.close()
            raise WorkerFailure("; ".join(failures))
        if own_error is not None:
            self.close()
            raise WorkerFailure(
                f"assembly worker {self._nworkers - 1} failed: {own_error!r}"
            ) from own_error
        if sync.get(_ABORT * _LINE):
            self.close()
            raise WorkerFailure("a share aborted without a reported cause")
        return result

    @staticmethod
    def _cleanup(sync, procs, cmd_w):
        sync.set(_SEQ * _LINE, -1)
        sync.abort()
        for fd in cmd_w:
            try:
                os.write(fd, _QUIT)
            except OSError:
                pass
        for p in procs:
            p.join(timeout=2.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        for fd in cmd_w:
            try:
                os.close(fd)
            except OSError:
                pass
        procs.clear()
        cmd_w.clear()

    def close(self):
        self._closed = True
        self._finalizer()
