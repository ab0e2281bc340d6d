#!/usr/bin/env python3
"""communifind benchmark: run latency, parallel speed-up and recovery rate.

Usage:
    python3 perfbench/run.py --workload er-sparse-n40 [--seed 11] [--seconds 36] [--trace 0|1] [--tiny]

The run is a closed loop of short rounds for ``--seconds``: each round runs
``2 * nproc`` ops single-threaded (``jobs=1``) and the same runs of every
row in one call at ``jobs=nproc``, the two passes in alternating order.
With ``--trace 0`` it reports the end-to-end metrics with tracing off.
With ``--trace 1`` it reports the per-layer metrics: each op runs once
untraced and once under the span recorder of ``spans.py`` (the order
alternates), and the parallel calls give the CPU utilisation.  Every run checks its outputs: per-run invariants, identical
results at ``jobs=1`` and ``jobs=nproc``, and Krylov scores against
``scipy.sparse.linalg.expm_multiply``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine facts and details, which also go to ``perfbench/out/``.
A run that raises is counted as failed and does not stop the benchmark.

numpy is imported inside functions only: the BLAS thread count is pinned
in ``main`` before its first import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"

MIN_OPS = 40  # guarantees ten samples beyond the 75th percentile
TAIL_PERCENTILE = 75
SETUP_SAMPLES = 5
RUNS_PER_WORKER = 2  # a round's jobs=nproc call gives each worker this many runs
ORACLE_RTOL = 1e-6

END_TO_END = {
    "run_s_mean": "s",
    "run_s_tail": "s",
    "par_speedup": "x",
    "mean_rate": "fraction",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "rng.u64_draws_per_run": "count",
    "graphs.generate_s.er": "s",
    "graphs.generate_s.sw": "s",
    "graphs.generate_s.ba": "s",
    "graphs.edges_per_s": "edges/s",
    "graphs.generate_calls": "count",
    "identify.apply_embedding_s": "s",
    "identify.draw_embedding_s": "s",
    "identify.top_k_s": "s",
    "identify.driver_self_s": "s",
    "identify.par_cpu_util": "fraction",
    "communicability.total_communicability_s": "s",
    "communicability.overhead_s": "s",
    "communicability.accumulate_s": "s",
    "expm.expm_action_s": "s",
    "expm.solves": "count",
    "expm.steps_per_solve": "count",
    "expm.s_per_step": "s",
    "expm.spmv_nnz_per_solve": "count",
    "expm.max_est_error": "ratio",
    "expm.unconverged": "count",
    "modularity.modularity_matrix_s": "s",
    "modularity.temporal_filter_s": "s",
    "modularity.eigen_l1_scores_s": "s",
    "modularity.two_means_split_s": "s",
    "modularity.dense_bytes": "B",
    "trace.overhead_frac": "fraction",
}


def pin_blas_threads(limit: int) -> None:
    """Cap BLAS/OpenMP threads at ``limit``; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(max(1, min(wanted, limit)))


# ---------------------------------------------------------------- facts


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def machine_facts(nproc: int) -> dict:
    import ctypes

    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind, size, shared = (_read(base + f) for f in ("level", "type", "size", "shared_cpu_list"))
        if level is None:
            break
        caches[f"L{level.strip()} {kind.strip()}"] = {"size": (size or "").strip(), "shared_cpu_list": (shared or "").strip()}
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    blas_threads = {}
    maps = _read("/proc/self/maps") or ""
    for lib_path in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads[Path(lib_path).name] = fn()
                break
    return {
        "nproc": nproc,
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "config": blas.get("openblas configuration")},
        "blas_threads": blas_threads,
        "env_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------- passes


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"run failed: {what}\n{traceback.format_exc()}", file=sys.stderr)

    def problem(self, what: str) -> None:
        self.problems += 1
        print(f"check failed: {what}", file=sys.stderr)


def check_run(res, row, tally: Tally, where: str) -> None:
    """Invariants of one RunResult; pipeline runs also return exactly top-k ids."""
    import numpy as np
    from workloads import TOP_K

    cand = res.candidates
    n = row.background.n
    ok = (
        cand.ndim == 1
        and cand.size >= 1
        and np.all(np.diff(cand) > 0)
        and cand[0] >= 0
        and cand[-1] < n
        and res.embedding.t == row.target.t
        and res.hits == int(np.isin(res.embedding.map, cand).sum())
        and res.rate == res.hits / row.target.t
    )
    if row.method == "pipeline":
        ok = ok and cand.size == min(TOP_K, n)
    if not ok:
        tally.problem(f"{where}: invalid run result")


def same_run(a, b) -> bool:
    import numpy as np

    return np.array_equal(a.candidates, b.candidates) and np.array_equal(a.embedding.map, b.embedding.map) and a.rate == b.rate


def run_op(wl, base: int, i: int, tally: Tally, tracer=None):
    """Op i: every row once at jobs=1. Returns (seconds, results); seconds is None if a run raised."""
    results = []
    seconds = 0.0
    for row in wl.rows:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = row.run(base + i, 1, 1)[0]
            else:
                with tracer.span("identify.run", label=row.label):
                    res = row.run(base + i, 1, 1)[0]
        except Exception:
            tally.fail(f"op {i} row {row.label!r}")
            results.append(None)
            continue
        seconds += time.perf_counter() - t0
        check_run(res, row, tally, f"op {i} row {row.label!r}")
        results.append(res)
    return (None if any(r is None for r in results) else seconds), results


def parallel_batch(wl, base: int, start: int, count: int, jobs: int, tally: Tally, par: dict):
    """Runs start .. start+count-1 of every row, one call per row at jobs=nproc.

    Returns each row's results (None for a row whose call raised) and the
    wall seconds of the calls, which are also added to ``par``.
    """
    per_row = []
    wall = 0.0
    for row in wl.rows:
        tally.attempted += count
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            results = row.run(base + start, count, jobs)
        except Exception:
            tally.fail(f"parallel batch at op {start} row {row.label!r}")
            tally.failed += count - 1
            per_row.append(None)
            continue
        wall += time.perf_counter() - t0
        par["cpu_s"] += time.process_time() - c0
        par["runs"] += count
        per_row.append(results)
    par["wall_s"] += wall
    return per_row, wall


def compare_batch(wl, ops: list, per_row: list, start: int, jobs: int, tally: Tally) -> None:
    """The determinism invariant: jobs=nproc returns what jobs=1 returned, run for run."""
    for ri, results in enumerate(per_row):
        if results is None:
            continue
        for i, res in enumerate(results):
            ref = ops[i][1][ri]
            if ref is not None and not same_run(ref, res):
                tally.problem(f"op {start + i} row {wl.rows[ri].label!r}: jobs={jobs} differs from jobs=1")


def traced_pair(wl, base: int, i: int, tally: Tally, tracer, timing: dict):
    """Op i untraced and traced, in alternating order; returns the untraced outcome."""
    pair = {}
    for traced in ((False, True) if i % 2 == 0 else (True, False)):
        if not traced:
            pair[traced] = run_op(wl, base, i, tally)
            continue
        tracer.op = i
        tracer.install()
        try:
            pair[traced] = run_op(wl, base, i, tally, tracer)
        finally:
            tracer.uninstall()
    for a, b in zip(pair[False][1], pair[True][1]):
        if a is not None and b is not None and not same_run(a, b):
            tally.problem(f"op {i}: traced run differs from untraced run")
    if pair[False][0] is not None and pair[True][0] is not None:
        timing["untraced_s"] += pair[False][0]
        timing["traced_s"] += pair[True][0]
    return pair[False]


def oracle_check(wl, base: int, tally: Tally) -> dict:
    """Krylov row sums of each row's first host against scipy's expm_multiply.

    The solver's tolerance is on the relative change of the whole iterate, so
    agreement is checked norm-wise, together with an identical top-k set;
    the largest entrywise relative error is recorded, not checked.
    """
    import dataclasses

    import numpy as np
    import scipy.sparse
    from scipy.sparse.linalg import expm_multiply

    from communifind import ScoreVector, apply_embedding, draw_embedding, generate, top_k, total_communicability
    from communifind.identify import background_seed, embedding_seed
    from workloads import TOP_K

    worst = {"norm_rel_err": 0.0, "max_entry_rel_err": 0.0}
    for row in wl.rows:
        n = row.background.n
        emb = draw_embedding(n, row.target.t, embedding_seed(base, 0))
        spec = dataclasses.replace(row.background, seed=background_seed(base, 0, 0))
        host = apply_embedding(generate(spec), row.target, emb)
        got = total_communicability(host)
        adj = scipy.sparse.csr_matrix((np.ones(host.indices.size), host.indices, host.indptr), shape=(n, n))
        want = expm_multiply(adj, np.ones(n))
        err = float(np.linalg.norm(got.scores - want) / np.linalg.norm(want))
        worst["norm_rel_err"] = max(worst["norm_rel_err"], err)
        worst["max_entry_rel_err"] = max(worst["max_entry_rel_err"], float(np.max(np.abs(got.scores - want) / want)))
        if not err <= ORACLE_RTOL:
            tally.problem(f"row {row.label!r}: total_communicability off expm_multiply by {err:.3g} relative")
        if not np.array_equal(top_k(got, TOP_K), top_k(ScoreVector(want, "tc"), TOP_K)):
            tally.problem(f"row {row.label!r}: top-{TOP_K} of total_communicability differs from expm_multiply's")
    return worst


def setup_seconds(name: str, tiny: bool) -> list[float]:
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------- metrics


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    idx = max(0, -(-len(ordered) * pct // 100) - 1)
    return ordered[int(idx)]


def median0(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer, par: dict, jobs: int, untraced_s: float, traced_s: float) -> dict:
    from spans import U64_COUNTER

    spans = tracer.spans
    self_time = tracer.self_times()
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def durations(name, **attrs):
        return [sp.duration for sp in by_name.get(name, []) if all(sp.attrs.get(k) == v for k, v in attrs.items())]

    runs = max(1, len(by_name.get("identify.run", [])))
    gens = by_name.get("graphs.generate", [])
    solves = by_name.get("expm.expm_action", [])
    gen_time = sum(sp.duration for sp in gens)
    m = {
        "rng.u64_draws_per_run": tracer.counts[U64_COUNTER] / runs,
        "graphs.generate_s.er": median0(durations("graphs.generate", model="er")),
        "graphs.generate_s.sw": median0(durations("graphs.generate", model="sw")),
        "graphs.generate_s.ba": median0(durations("graphs.generate", model="ba")),
        "graphs.edges_per_s": sum(sp.attrs["edges"] for sp in gens) / gen_time if gen_time > 0 else 0.0,
        "graphs.generate_calls": len(gens) / runs,
        "identify.apply_embedding_s": median0(durations("identify.apply_embedding")),
        "identify.draw_embedding_s": median0(durations("identify.draw_embedding")),
        "identify.top_k_s": median0(durations("identify.top_k")),
        "identify.driver_self_s": median0(self_time[sp.id] for sp in by_name.get("identify.run", [])),
        "identify.par_cpu_util": par["cpu_s"] / (par["wall_s"] * jobs) if par["wall_s"] > 0 else 0.0,
        "communicability.total_communicability_s": median0(durations("communicability.total_communicability")),
        "communicability.overhead_s": median0(
            self_time[sp.id] for sp in by_name.get("communicability.total_communicability", [])
        ),
        "communicability.accumulate_s": median0(durations("communicability.accumulate")),
        "expm.expm_action_s": median0(durations("expm.expm_action")),
        "expm.solves": len(solves) / runs,
        "expm.steps_per_solve": median0(sp.attrs["iterations"] for sp in solves),
        "expm.s_per_step": median0(sp.duration / sp.attrs["iterations"] for sp in solves),
        "expm.spmv_nnz_per_solve": median0(sp.attrs["iterations"] * 2 * sp.attrs["edges"] for sp in solves),
        "expm.max_est_error": max((sp.attrs["est_error"] for sp in solves), default=0.0),
        "expm.unconverged": sum(1 for sp in solves if sp.attrs["est_error"] > sp.attrs["tol"]),
        "modularity.modularity_matrix_s": median0(durations("modularity.modularity_matrix")),
        "modularity.temporal_filter_s": median0(durations("modularity.temporal_filter")),
        "modularity.eigen_l1_scores_s": median0(durations("modularity.eigen_l1_scores")),
        "modularity.two_means_split_s": median0(durations("modularity.two_means_split")),
        "modularity.dense_bytes": median0(
            (sp.attrs["window"] + 1) * sp.attrs["n"] ** 2 * 8 for sp in by_name.get("modularity.baseline_candidates", [])
        ),
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    return {name: {"value": float(m[name]), "unit": unit} for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("er-sparse-n40", "dense-clique", "baseline-er"))
    parser.add_argument("--seed", type=int, default=11, help="workload seed; run i uses base seed seed*1e6 + i")
    parser.add_argument("--seconds", type=int, default=36, help="measured seconds per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n=128 graphs, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    nproc = len(os.sched_getaffinity(0))
    jobs = nproc
    # jobs concurrent eigh calls of baseline-er must not oversubscribe the cores
    pin_blas_threads(max(1, nproc // jobs))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the communifind package from src/: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer

    wl = workloads.build(args.workload, tiny=args.tiny)
    base = workloads.base_seed(args.seed)
    tally = Tally()
    details: dict = {"workload": wl.name, "seed": args.seed, "base_seed": base, "seconds": args.seconds, "jobs": jobs}

    setup = setup_seconds(wl.name, args.tiny) if not args.trace else []
    run_op(wl, base, 0, Tally())  # warm-up: lazy imports and first-call costs

    # Rounds of `batch` ops at jobs=1 and the same runs in one jobs=nproc
    # call per row, the two passes in alternating order.  The machine's slow
    # phases last seconds, so short rounds let a phase hit both passes alike.
    # A round starts only if one as long as the last still fits --seconds.
    tracer = Tracer() if args.trace else None
    timing = {"untraced_s": 0.0, "traced_s": 0.0}
    par = {"runs": 0, "wall_s": 0.0, "cpu_s": 0.0}
    paired = []  # (jobs=1 seconds, jobs=nproc seconds) of rounds where every run of both passes completed
    ops: list = []
    batch = RUNS_PER_WORKER * jobs
    min_rounds = 1 if args.trace else -(-MIN_OPS // batch)
    rounds = 0
    last = 0.0
    began = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - began + last <= args.seconds:
        t_round = time.perf_counter()
        start = len(ops)
        par_first = rounds % 2 == 1
        if par_first:
            per_row, par_s = parallel_batch(wl, base, start, batch, jobs, tally, par)
        for i in range(start, start + batch):
            ops.append(traced_pair(wl, base, i, tally, tracer, timing) if tracer else run_op(wl, base, i, tally))
        if not par_first:
            per_row, par_s = parallel_batch(wl, base, start, batch, jobs, tally, par)
        compare_batch(wl, ops[start:], per_row, start, jobs, tally)
        serial_s = [s for s, _ in ops[start:]]
        if None not in serial_s and None not in per_row:
            paired.append((sum(serial_s), par_s))
        rounds += 1
        last = time.perf_counter() - t_round
    measured = time.perf_counter() - began
    details["oracle"] = oracle_check(wl, base, tally)

    latencies = [s for s, _ in ops if s is not None]
    rates = [r.rate for _, results in ops for r in results if r is not None]
    if not latencies:
        print("no op completed; no metrics to report", file=sys.stderr)
        return 1
    details.update(
        ops=len(ops),
        ops_ok=len(latencies),
        tail_percentile=TAIL_PERCENTILE,
        tail_samples_beyond=len(latencies) - -(-len(latencies) * TAIL_PERCENTILE // 100),
        rounds=rounds,
        measured_s=measured,
        parallel=dict(par, rounds_paired=paired),
        problems=tally.problems,
    )

    if args.trace:
        metrics = layer_metrics(tracer, par, jobs, timing["untraced_s"], timing["traced_s"])
    else:
        details["setup_samples_s"] = setup
        details["latencies_s"] = latencies
        details["run_s_p50"] = statistics.median(latencies)
        values = {
            # the mean, not the median: see "Limits" in README.md
            "run_s_mean": statistics.fmean(latencies),
            "run_s_tail": nearest_rank(latencies, TAIL_PERCENTILE),
            # the same runs, timed in the same rounds: sum(jobs=1 s) / sum(jobs=nproc s)
            "par_speedup": sum(a for a, _ in paired) / sum(b for _, b in paired) if paired else 0.0,
            "mean_rate": statistics.fmean(rates),
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}

    facts = machine_facts(nproc)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    record = {"facts": facts, "details": details, "metrics": metrics}
    if tracer is not None:
        record["trace"] = tracer.to_json()
    out_path.write_text(json.dumps(record, indent=1))

    print(json.dumps({"facts": facts, "details": {k: v for k, v in details.items() if k != "latencies_s"}}))
    result = {
        "correct": tally.problems == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
