"""Benchmark of cryoground: end-to-end and per-layer figures for four workloads.

    python3 benchmarks/run.py --workload well_year --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the repository root.  One invocation runs one workload (``all``
runs each in its own process and prints one table).  It repeats the workload
until ``--seconds`` would be exceeded, at least twice, and reports medians.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates plain and traced repetitions and reports per-layer metrics from
the traced ones, plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Full results (host, sample counts, counts per repetition) and,
when traced, the span file go to ``benchmarks/out/``.

Exit codes: 0 all checks passed; 1 an output check failed (the result is
still printed); 2 the package source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
NAMES = ("well_year", "well_fork2", "neumann_ladder", "mms_space")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("mesh", "fem", "linalg", "parallel", "simulate", "io", "verify")
MIN_REPS = 2
# End-to-end metrics that BENCHMARK.json bounds and the JSON line carries.  The
# others are printed and saved; their ten-run spreads on a shared 2-CPU host
# exceeded the largest bound BENCHMARK.json allows, 0.25 (see README.md).
GATED = ("setup_s", "step_ms_p50", "peak_rss_mb")
TAIL_SAMPLES = 10


def limit_threads() -> int:
    """Cap BLAS/OpenMP pools at one thread (never more than nproc); must run
    before numpy is imported.  threadpoolctl is not a dependency, so the
    environment is the only lever."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, "1"))
        except ValueError:
            n = 1
        os.environ[var] = str(max(1, min(n, nproc)))
    return nproc


def fail_setup(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import cryoground from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cryoground" / "__init__.py").is_file():
        fail_setup(f"no package source at {SRC.relative_to(ROOT)}/cryoground")
    sys.path.insert(0, str(SRC))
    import cryoground

    if Path(cryoground.__file__).resolve().parent != SRC / "cryoground":
        fail_setup(f"cryoground imported from {cryoground.__file__}, not this checkout")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def host_info(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        import threadpoolctl  # noqa: F401

        tpc = True
    except ImportError:
        tpc = False
    return {
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "threadpoolctl": tpc,
        "machine": platform.machine(),
    }


def pct(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def med(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


# -- one workload in this process --------------------------------------------


def run_reps(name: str, seed: int, seconds: float, traced_mode: bool):
    from spans import END, FULL, LIGHT, START, Recorder
    from workloads import WORKLOADS, span_counts

    workload = WORKLOADS[name]
    workers = min(workload.workers, os.cpu_count() or 1)
    rec = Recorder()
    reps = []
    t_begin = time.perf_counter()
    while True:
        traced = traced_mode and len(reps) % 2 == 1
        out_dir = OUT / f"tmp-{name}-{os.getpid()}-{len(reps)}" if workload.writes_output else None
        gc.collect()
        rec.install(FULL if traced else LIGHT)
        root = rec.open("bench.rep")
        try:
            r = workload.rep(rec, seed, workers, out_dir, traced)
        finally:
            rec.close(root)
            rec.uninstall()
        r["traced"] = traced
        r["wall_s"] = rec.spans[root][END] - rec.spans[root][START]
        r["indices"] = range(root, len(rec.spans))  # the repetition's spans come last
        steps = workload.steps(rec.spans, r["indices"])
        r["step_s"] = [d for d, _ in steps]
        if r.get("setup_s") is None:
            # the studies set up inside the study call: setup is the time
            # the call spends outside its implicit steps
            r["setup_s"] = r["run_s"] - sum(r["step_s"])
            r["march_s"] = r["run_s"]
        r["cell_steps"] = sum(c for _, c in steps)
        r["attempted"] = max(1, r["attempted"] or len(steps))
        r["counts"].update(span_counts(rec.spans, r["indices"]))
        if not traced:
            # plain spans only carry the figures just taken; dropping them
            # keeps peak RSS independent of the repetition count
            del rec.spans[root:]
            r["indices"] = None
        reps.append(r)
        elapsed = time.perf_counter() - t_begin
        typical = med([x["wall_s"] for x in reps])
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
    return rec, reps


def determinism_problems(reps) -> list[str]:
    problems = []
    for key in reps[0]["counts"]:
        values = [r["counts"][key] for r in reps]
        if any(v != values[0] for v in values):
            problems.append(f"{key} differs between repetitions of one seed: {values}")
    return problems


def tail_percentile(reps) -> float:
    """97, or lower when a run of MIN_REPS repetitions would have fewer than
    TAIL_SAMPLES steps beyond p97; fixed per workload, not per run speed."""
    n = MIN_REPS * len(reps[0]["step_s"])
    return max(50.0, min(97.0, 100.0 * (1.0 - TAIL_SAMPLES / n)))


def end_to_end(reps) -> list[tuple]:
    """(name, value, unit, samples) from the untraced repetitions."""
    steps = [d for r in reps for d in r["step_s"]]
    rows = [
        ("setup_s", med([r["setup_s"] for r in reps]), "s", len(reps)),
        ("run_s", med([r["run_s"] for r in reps]), "s", len(reps)),
        ("step_ms_p50", 1e3 * pct(steps, 50), "ms", len(steps)),
        ("step_ms_p97", 1e3 * pct(steps, tail_percentile(reps)), "ms", len(steps)),
        (
            "cell_steps_per_s",
            med([r["cell_steps"] / r["march_s"] for r in reps]),
            "1/s",
            len(reps),
        ),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    ]
    return rows


def per_layer(spans, traced, plain) -> list[tuple]:
    """(name, value, unit, samples) from the traced repetitions: per-rep
    totals are medians over repetitions, per-call times pool every call."""
    from spans import END, INFO, NAME, START, self_times

    per_rep: dict[str, list] = {}
    calls: dict[str, list] = {}

    def add(key, value):
        per_rep.setdefault(key, []).append(value)

    for r in traced:
        idx = r["indices"]
        own = self_times(spans, idx)
        by: dict[str, list] = {}
        for i in idx:
            by.setdefault(spans[i][NAME], []).append(i)

        def dur(name):
            return [spans[i][END] - spans[i][START] for i in by.get(name, [])]

        def info(name, key):
            return [spans[i][INFO][key] for i in by.get(name, [])]

        add("mesh.build_s", sum(dur("mesh.build")))
        add("mesh.cells", sum(info("mesh.build", "cells")))
        add("mesh.nodes", sum(info("mesh.build", "nodes")))
        add("fem.assembler_init_s", sum(dur("fem.assembler_init")))
        add("fem.nnz", sum(info("fem.assembler_init", "nnz")))
        add("fem.assemble_calls", len(by.get("fem.assemble", [])))
        add("fem.assemble_first_ms", 1e3 * (dur("fem.assemble") or [0.0])[0])
        add("fem.dirichlet_plan_s", sum(dur("fem.dirichlet_plan")))
        iters = info("linalg.cg_solve", "iters")
        add("linalg.cg_calls", len(iters))
        add("linalg.cg_iters_total", sum(iters))
        add("linalg.cg_iters_max", max(iters, default=0))
        add("linalg.cg_unconverged", info("linalg.cg_solve", "converged").count(False))
        add("simulate.init_s", sum(own[i] for i in by.get("simulate.init", [])))
        add("physics.column_switches", r["counts"]["physics.column_switches"])
        add("parallel.workers_effective", max(info("parallel.pool_start", "workers"), default=1))
        add("parallel.assemble_speedup", 1.0 if r["speedup"] is None else r["speedup"])
        add("io.vtk_calls", len(by.get("io.write_vtk", [])))
        add("io.vtk_bytes", sum(info("io.write_vtk", "bytes")))
        add("io.probes_ms", 1e3 * sum(dur("io.write_probes")))
        for layer in LAYERS:
            add(f"{layer}.self_s", sum(t for i, t in own.items() if spans[i][NAME].startswith(layer + ".")))
        calls.setdefault("assemble", []).extend(dur("fem.assemble"))
        calls.setdefault("dirichlet", []).extend(dur("fem.dirichlet"))
        calls.setdefault("cg", []).extend(dur("linalg.cg_solve"))
        calls.setdefault("cg_iters", []).extend(iters)
        calls.setdefault("step_self", []).extend(own[i] for i in by.get("simulate.step", []))
        calls.setdefault("vtk", []).extend(dur("io.write_vtk"))

    n = len(traced)
    units = {"_s": "s", "_ms": "ms", "_bytes": "bytes", "_speedup": "ratio"}
    rows = []
    for key, values in per_rep.items():
        unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
        rows.append((key, med(values), unit, n))
    cg_iters = sum(calls["cg_iters"])
    rows += [
        ("fem.assemble_ms_p50", 1e3 * pct(calls["assemble"], 50), "ms", len(calls["assemble"])),
        ("fem.assemble_ms_p97", 1e3 * pct(calls["assemble"], 97), "ms", len(calls["assemble"])),
        ("fem.dirichlet_ms_p50", 1e3 * pct(calls["dirichlet"], 50), "ms", len(calls["dirichlet"])),
        ("linalg.cg_ms_p50", 1e3 * pct(calls["cg"], 50), "ms", len(calls["cg"])),
        ("linalg.cg_ms_p97", 1e3 * pct(calls["cg"], 97), "ms", len(calls["cg"])),
        ("linalg.cg_us_per_iter", 1e6 * sum(calls["cg"]) / cg_iters if cg_iters else 0.0, "us", cg_iters),
        ("simulate.step_self_ms_p50", 1e3 * pct(calls["step_self"], 50), "ms", len(calls["step_self"])),
        ("io.vtk_ms_p50", 1e3 * pct(calls["vtk"], 50), "ms", len(calls["vtk"])),
        (
            "trace.overhead_frac",
            med([r["run_s"] for r in traced]) / med([r["run_s"] for r in plain]) - 1.0,
            "ratio",
            len(traced) + len(plain),
        ),
    ]
    return sorted(rows)


def write_spans(path: Path, spans, reps, meta):
    t0 = spans[0][1] if spans else 0.0
    rows = [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in spans]
    doc = dict(meta, columns=["name", "start_s", "end_s", "parent", "info"], spans=rows)
    doc["traced_roots"] = [r["indices"][0] for r in reps if r["traced"]]
    path.write_text(json.dumps(doc))


def run_one(args) -> int:
    nproc = limit_threads()
    import_package()
    from workloads import WORKLOADS

    seeded = WORKLOADS[args.workload].seeded
    OUT.mkdir(exist_ok=True)
    rec, reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]

    mismatches = determinism_problems(reps)
    problems = [p for r in reps for p in r["problems"]] + mismatches
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(r["failed"] for r in reps) + len(mismatches))

    if args.trace:
        rows, extra = per_layer(rec.spans, traced, plain), []
    else:
        e2e = end_to_end(reps)
        rows = [row for row in e2e if row[0] in GATED]
        extra = [row for row in e2e if row[0] not in GATED]
    extra.append(("fail_frac", failed / attempted, "ratio", attempted))
    for key, label in (("front_err_max", "ratio"), ("mms_l2_err", "K")):
        values = [r["extra"][key] for r in reps if r["extra"].get(key) is not None]
        if values:
            extra.append((key, values[-1], label, len(values)))

    meta = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seed_used": seeded,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(nproc),
    }
    result = dict(
        meta,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=[list(row) for row in rows],
        extra=[list(row) for row in extra],
        step_tail_percentile=tail_percentile(reps),
        repetitions=[
            {k: r[k] for k in ("traced", "run_s", "setup_s", "march_s", "cell_steps", "counts", "extra")}
            for r in reps
        ],
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    if args.trace:
        write_spans(OUT / f"spans-{stem}.json", rec.spans, reps, meta)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if not seeded:
        print(f"{args.workload}: fixed inputs, the seed is ignored")
    for name, value, unit, n in rows + extra:
        print(f"{args.workload:15s} {name:28s} {value:14.6g} {unit:6s} n={n}")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


# -- every workload, each in its own process ----------------------------------


def run_all(args) -> int:
    status, results = 0, {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result_file = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        result_file.unlink(missing_ok=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        status = max(status, proc.returncode)
        if not result_file.is_file():
            print(f"{name}: exited with code {proc.returncode} and no result", file=sys.stderr)
            continue
        results[name] = json.loads(result_file.read_text())

    metrics = []
    for res in results.values():
        for name, _, unit, _ in res["metrics"] + res["extra"]:
            if (name, unit) not in metrics:
                metrics.append((name, unit))
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{w:>26s}" for w in results))
    for name, unit in metrics:
        cells = []
        for res in results.values():
            row = next((m for m in res["metrics"] + res["extra"] if m[0] == name), None)
            cells.append(f"{row[1]:.6g} (n={row[3]})" if row else "-")
        print(f"{name:28s} {unit:6s} " + " ".join(f"{c:>26s}" for c in cells))
    verdict = {name: res["correct"] for name, res in results.items()}
    print(json.dumps({"correct": status == 0 and len(results) == len(NAMES), "workloads": verdict}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
