"""One perf-benchmark workload, run in a fresh process by ``run.py``.

Usage (``run.py`` sets PYTHONPATH to ``src`` and the BLAS thread count)::

    python benchmarks/perf/workloads.py --workload fit-dense --seed 5 --seconds 15 --trace 0

The program under test receives only arrays generated here from the seed.
Every layer is measured from outside: wall time around calls into its public
functions, plus what its result objects already expose (``KMeansResult``
phase totals, ``iteration_stats`` and counters, ``extras["ipc"/"pool"]``,
``Predictor.stats()``, ``MicroBatcher.stats``).  The last stdout line is one
JSON object: timed samples, per-layer values, and the op and failure counts
of the correctness checks.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import queue
import re
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from measure import Recorder, layer_totals, percentile

D = 16
FIT_DENSE = {"n": 200_000, "centers": 32,
             "kmeans": {"k": 64, "algorithm": "lloyd", "backend": "vectorized", "max_iter": 10}}
#: ``draws`` is how many inputs the timed fits cycle through.  Draw r uses
#: seed + DRAW_SEED_STRIDE * r for both the data and the k-means++ seeding;
#: draw 0 is the workload's own seed.  The pruning algorithms' work depends
#: on the draw (Yinyang's scan blocks grow with its largest centroid group,
#: which the seeding decides; UniK's tree pruning with the blob layout), so
#: one draw per run would make the run's median a property of its seed.
FIT = {
    "fit-dense": FIT_DENSE,
    "fit-pruned": {**FIT_DENSE, "draws": 2,
                   "kmeans": {**FIT_DENSE["kmeans"], "algorithm": "yinyang"}},
    "fit-sharded": {**FIT_DENSE, "kmeans": {**FIT_DENSE["kmeans"], "shards": 2}},
    # KMeans at its defaults (UniK, reference backend) except two arguments
    # that would make the work per fit vary between runs: convergence takes
    # 20 to 50+ iterations depending on the draw, and the default adaptive
    # traversal picks single or multiple (twice the distances) by comparing
    # the wall times of iterations 0 and 1, which are nearly equal here.
    # "single" is what adaptive picks in most fits.
    "fit-default": {"n": 20_000, "centers": 12, "draws": 6,
                    "kmeans": {"k": 16, "max_iter": 10, "traversal": "single"}},
}
DRAW_SEED_STRIDE = 10_000
SERVE = {**FIT_DENSE, "bulk_points": 100_000, "bulk_request": 64,
         "rates": (250, 1000, 4000), "max_request": 32}
WORKLOADS = (*FIT, "serve-open")
#: modules each workload imports; setup_s times importing them
MODULES = {"fit-sharded": ["repro", "repro.exec.sharded"], "serve-open": ["repro", "repro.serve"]}
#: layers whose metrics read 0 on workloads that do not exercise them
OPTIONAL_LAYERS = ("exec", "batching")

MIN_REPEATS = 3
MIN_ROUNDS = 2
MAX_SAMPLES = 200
SETUP_REPEATS = 9
PROBE_REPEATS = 3
REQUEST_PROBE_CALLS = 1000
RESULT_TIMEOUT = 60.0
#: latency limit on p99 for batching.max_rps
P99_LIMIT_S = 0.025


def modules_for(workload: str) -> List[str]:
    return MODULES.get(workload, ["repro"])


def digest(array: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def leaked_segments() -> int:
    """Shared-memory segments this process's sharded fits left behind."""
    pattern = re.compile(rf"rpx[0-9a-f]{{8}}p{os.getpid() % 10_000_000}s")
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return 0
    return sum(1 for name in names if pattern.match(name))


def median_time(call: Callable[[], Any], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """State of one workload process: inputs, recorder, samples, checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.scale = args.scale
        self.plant = args.plant_wrong_label
        self.rec = Recorder(args.workload, enabled=bool(args.trace))
        self.untraced = Recorder(args.workload, enabled=False)
        self.samples: Dict[str, List[float]] = {}
        self.layer: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.work = Path(__file__).resolve().parent / ".work" / str(os.getpid())

    def traced(self, index: int) -> Recorder:
        """Trace every other op so the traced run also measures its own overhead."""
        return self.rec if index % 2 == 0 else self.untraced

    def size(self, n: int, floor: int) -> int:
        return max(int(round(n * self.scale)), floor)

    def blobs(self, n: int, centers: int, seed: int) -> np.ndarray:
        from repro.datasets.synthetic import make_blobs

        return make_blobs(n, D, centers, seed=seed)[0]

    def check(self, op: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: {'; '.join(problems)}")

    def mark_peak_rss(self) -> None:
        """High-water mark at the end of the timed ops, before checks and probes."""
        self.layer["process.peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )

    def overhead(self, traced: Sequence[float], untraced: Sequence[float]) -> None:
        if self.rec.enabled and traced and untraced:
            self.layer["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1.0
            )


# ----------------------------------------------------------------------
# Fits.
# ----------------------------------------------------------------------


def fit_attrs(result) -> Dict[str, Any]:
    attrs = dict(result.summary())
    for key in ("ipc", "pool"):
        if key in result.extras:
            attrs[key] = result.extras[key]
    return attrs


def core_metrics(run: Run, results: Sequence[Any]) -> None:
    """Per-layer ``core.*`` from the fits' own phase timers and counters."""
    def med(value: Callable[[Any], float]) -> float:
        return statistics.median(value(r) for r in results)

    def rest(r) -> float:
        later = [s.assignment_time for s in r.iteration_stats[1:]]
        return statistics.median(later) if later else 0.0

    first = results[0]
    counters = first.counters
    assign_s = med(lambda r: r.assignment_time)
    run.layer.update({
        "core.setup_s": med(lambda r: r.setup_time),
        "core.init_s": med(lambda r: r.init_time),
        "core.assign_s": assign_s,
        "core.assign_iter0_s": med(lambda r: r.iteration_stats[0].assignment_time),
        "core.assign_iter_rest_median_s": med(rest),
        "core.refine_s": med(lambda r: r.refinement_time),
        "core.n_iter": first.n_iter,
        "core.distance_computations": counters.distance_computations,
        "core.pruning_ratio": first.pruning_ratio,
        "core.bound_accesses": counters.bound_accesses,
        "core.bound_updates": counters.bound_updates,
        "core.node_accesses": counters.node_accesses,
        "core.point_accesses": counters.point_accesses,
        "core.modeled_cost": first.modeled_cost,
        "core.footprint_floats": first.footprint_floats,
        "core.assign_ns_per_distance": assign_s / max(counters.distance_computations, 1) * 1e9,
    })


def run_fit(run: Run) -> None:
    from repro import KMeans
    from repro.core import compute_sse

    spec = FIT[run.workload]
    k = spec["kmeans"]["k"]
    draws = []
    for r in range(spec.get("draws", 1)):
        seed = run.seed + DRAW_SEED_STRIDE * r
        draws.append((run.blobs(run.size(spec["n"], 10 * k), spec["centers"], seed),
                      dict(spec["kmeans"], seed=seed)))

    # Warm-up: the same op on a tenth of X warms BLAS threads, the allocator
    # and (sharded) the pool spawn path without raising the RSS high-water
    # mark above what the timed fits reach.
    X, params = draws[0]
    part = X[: max(len(X) // 10, 2 * k)]
    warm = KMeans(**params).fit(part)
    run.check("warm-up fit", [] if warm.sse == compute_sse(part, warm.labels, warm.centroids)
              else ["sse disagrees with compute_sse"])

    # Timed fits run in rounds of one fit per draw, so every draw weighs
    # equally in the median; rounds alternate traced and untraced.
    fits: List[Dict[str, Any]] = []
    traced_results, times = [], {True: [], False: []}
    round_times: List[float] = []
    min_rounds = max(MIN_ROUNDS, -(-MIN_REPEATS // len(draws)))
    start = time.perf_counter()
    while len(fits) < MAX_SAMPLES:
        rec = run.traced(len(round_times))
        round_start = time.perf_counter()
        for draw, (X, params) in enumerate(draws):
            op = len(fits)
            with rec.span("bench.op", op=op):
                t0 = time.perf_counter()
                with rec.span("core.construct", op=op):
                    model = KMeans(**params)
                t1 = time.perf_counter()
                with rec.span("core.fit", op=op) as attrs:
                    result = model.fit(X)
                t2 = time.perf_counter()
            if rec.enabled:
                attrs.update(fit_attrs(result))
                if draw == 0:
                    traced_results.append(result)
            if run.plant and not fits:
                result.labels[0] = (result.labels[0] + 1) % k
            problems = []
            if result.sse != compute_sse(X, result.labels, result.centroids):
                problems.append("sse disagrees with compute_sse")
            leaked = leaked_segments()
            if leaked:
                problems.append(f"{leaked} shared-memory segments left in /dev/shm")
            fits.append({"draw": draw, "labels": digest(result.labels),
                         "centroids": digest(result.centroids), "problems": problems,
                         "leaked": leaked})
            run.samples.setdefault("setup.prep_s", []).append(t1 - t0)
            run.samples.setdefault("latency_ms", []).append((t2 - t1) * 1e3)
            run.samples.setdefault("throughput_pts_s", []).append(
                len(X) * result.n_iter / (t2 - t1))
            times[rec.enabled].append(t2 - t1)
        round_times.append(time.perf_counter() - round_start)
        next_end = time.perf_counter() - start + statistics.median(round_times)
        if len(round_times) >= min_rounds and next_end > run.seconds:
            break
    run.mark_peak_rss()
    run.overhead(times[True], times[False])

    # Cross-checks against an untimed single-process vectorized Lloyd fit
    # per draw: every exact algorithm must reproduce its labels, and the
    # sharded engine its centroids bit for bit.
    firsts, references = [], []
    for draw, (X, params) in enumerate(draws):
        first = next(fit for fit in fits if fit["draw"] == draw)
        reference_params = dict(FIT_DENSE["kmeans"], k=k, max_iter=params["max_iter"],
                                seed=params["seed"])
        if reference_params == params:
            reference = first
        else:
            fitted = KMeans(**reference_params).fit(X)
            reference = {"labels": digest(fitted.labels), "centroids": digest(fitted.centroids)}
        firsts.append(first)
        references.append(reference)
    for index, fit in enumerate(fits):
        problems = list(fit["problems"])
        first, reference = firsts[fit["draw"]], references[fit["draw"]]
        if fit["labels"] != first["labels"] or fit["centroids"] != first["centroids"]:
            problems.append("not bit-identical to the first timed fit of its draw")
        if fit["labels"] != reference["labels"]:
            problems.append("labels differ from the single-process Lloyd fit")
        if spec["kmeans"].get("shards") and fit["centroids"] != reference["centroids"]:
            problems.append("centroids differ from the single-process fit")
        run.check(f"timed fit {index}", problems)

    if run.rec.enabled:
        X, params = draws[0]
        first = traced_results[0]
        core_metrics(run, traced_results)
        exec_metrics(run, first, max(fit["leaked"] for fit in fits))
        probe_kernels(run, X, first.centroids, first.labels, params)
        probe_serving(run, first)


def exec_metrics(run: Run, result, leaked: int) -> None:
    ipc = result.extras.get("ipc", {})
    pool = result.extras.get("pool", {})
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    run.layer.update({
        "exec.ipc_bytes_per_iter": ipc.get("bytes_per_iter", 0),
        "exec.ipc_setup_bytes": ipc.get("setup_bytes", 0),
        "exec.ipc_messages": ipc.get("messages", 0),
        "exec.data_plane_bytes": ipc.get("data_plane_bytes", 0),
        "exec.spawned_processes": pool.get("spawned_processes", 0),
        "exec.respawns": pool.get("respawns", 0),
        "exec.degraded_iterations": len(result.extras.get("degraded_iterations", [])),
        "exec.shm_leaked_segments": leaked,
        "exec.children_peak_rss_mb": children,
    })


# ----------------------------------------------------------------------
# Probes of single layers (traced run only, after the timed ops).
# ----------------------------------------------------------------------


def probe_kernels(run: Run, X: np.ndarray, C: np.ndarray, labels: np.ndarray,
                  params: Dict[str, Any]) -> None:
    """Seeding, assignment-kernel and refinement probes on the final model."""
    from repro.common.distance import chunked_sq_distances, sq_norms
    from repro.core import init_kmeans_plus_plus
    from repro.core.refinement import accumulate_cluster_sums
    from repro.core.vectorized import lloyd_assign_rows
    from repro.instrumentation.counters import OpCounters

    rec, k = run.rec, len(C)
    backend = params.get("backend", "reference")
    with rec.span("bench.probe"):
        def seeding():
            with rec.span("initialization.kmeanspp"):
                init_kmeans_plus_plus(X, k, seed=run.seed, backend=backend)

        run.layer["initialization.kmeanspp_s"] = median_time(seeding, PROBE_REPEATS)

        x_sq = sq_norms(X)
        out: Dict[str, np.ndarray] = {}
        passes = {
            "exact": lambda: np.argmin(chunked_sq_distances(X, C), axis=1),
            "lloyd": lambda: lloyd_assign_rows(X, C, x_sq, sq_norms(C), OpCounters()),
            # The floor is plain NumPy owned by the benchmark: one GEMM and
            # argmin over |c|^2 - 2 x.c (|x|^2 is constant along each row).
            "gemm": lambda: np.argmin(
                np.einsum("ij,ij->i", C, C)[None, :] - 2.0 * (X @ C.T), axis=1),
        }
        times: Dict[str, List[float]] = {name: [] for name in passes}
        for _ in range(PROBE_REPEATS):
            for name, call in passes.items():
                with rec.span(f"distance.{name}_pass"):
                    t0 = time.perf_counter()
                    out[name] = call()
                    times[name].append(time.perf_counter() - t0)
        run.check("distance probe", [] if np.array_equal(out["exact"], out["lloyd"])
                  else ["exact and Lloyd kernels disagree"])
        exact, lloyd, floor = (statistics.median(times[n]) for n in ("exact", "lloyd", "gemm"))
        n, d = X.shape
        run.layer.update({
            "distance.exact_pass_s": exact,
            "distance.lloyd_pass_s": lloyd,
            "distance.gemm_floor_s": floor,
            "distance.exact_over_floor": exact / floor,
            "distance.lloyd_over_floor": lloyd / floor,
            "distance.flops_computed": 2 * n * k * d,
            "distance.bytes_computed": 8 * (n * d + k * d + n * k),
        })

        def accumulate():
            with rec.span("refinement.accumulate"):
                accumulate_cluster_sums(X, labels, k)

        run.layer["refinement.accumulate_s"] = median_time(accumulate, PROBE_REPEATS)


def probe_serving(run: Run, result) -> None:
    """Registry round trip and direct predictor calls on a fitted model."""
    from repro.serve import ModelRegistry, Predictor

    rec = run.rec
    Q = run.blobs(run.size(SERVE["bulk_points"], 10), SERVE["centers"], run.seed + 1)
    save, load, verify = [], [], []
    with rec.span("bench.probe"):
        for i in range(PROBE_REPEATS):
            registry = ModelRegistry(run.work / f"probe{i}")
            t0 = time.perf_counter()
            with rec.span("registry.save_model"):
                key = registry.save_model(result, seed=run.seed)
            t1 = time.perf_counter()
            with rec.span("registry.load"):
                predictor = Predictor(registry, key)
            t2 = time.perf_counter()
            with rec.span("registry.verify"):
                registry.verify(key)
            save.append(t1 - t0)
            load.append(t2 - t1)
            verify.append(time.perf_counter() - t2)
        run.layer.update({
            "registry.save_s": statistics.median(save),
            "registry.load_s": statistics.median(load),
            "registry.verify_s": statistics.median(verify),
        })
        probe_predictor(run, predictor, Q)
        run.layer["predictor.distance_computations"] = predictor.stats()["distance_computations"]


def probe_predictor(run: Run, predictor, Q: np.ndarray) -> None:
    """``predictor.bulk_s`` (one call over Q) and the 16-row request time."""
    rec = run.rec

    def bulk():
        with rec.span("predictor.predict"):
            predictor.predict(Q)

    run.layer["predictor.bulk_s"] = median_time(bulk, PROBE_REPEATS)
    rows = Q[:16]
    calls = []
    for _ in range(REQUEST_PROBE_CALLS):
        t0 = time.perf_counter()
        predictor.predict(rows)
        calls.append(time.perf_counter() - t0)
    run.layer["predictor.request_us.m16"] = statistics.median(calls) * 1e6


# ----------------------------------------------------------------------
# Serving.
# ----------------------------------------------------------------------


def run_serve(run: Run) -> None:
    from repro import KMeans
    from repro.serve import FailedRequest, MicroBatcher, ModelRegistry, Predictor

    params = dict(SERVE["kmeans"], seed=run.seed)
    k = params["k"]
    X = run.blobs(run.size(SERVE["n"], 10 * k), SERVE["centers"], run.seed)
    Q = run.blobs(run.size(SERVE["bulk_points"], 10), SERVE["centers"], run.seed + 1)
    with run.rec.span("core.fit") as attrs:
        model = KMeans(**params).fit(X)  # training: untimed, outside setup_s
        attrs.update(fit_attrs(model))

    save, load = [], []
    batcher = None
    for i in range(SETUP_REPEATS):
        if batcher is not None:
            batcher.close()
        registry = ModelRegistry(run.work / f"registry{i}")
        with run.rec.span("bench.setup", op=i):
            t0 = time.perf_counter()
            with run.rec.span("registry.save_model", op=i):
                key = registry.save_model(model, seed=run.seed)
            t1 = time.perf_counter()
            with run.rec.span("registry.load", op=i):
                predictor = Predictor(registry, key)
            t2 = time.perf_counter()
            with run.rec.span("batching.start", op=i):
                batcher = MicroBatcher(predictor)
            t3 = time.perf_counter()
        save.append(t1 - t0)
        load.append(t2 - t1)
        run.samples.setdefault("setup.prep_s", []).append(t3 - t0)
        run.check(f"setup {i}", [] if np.array_equal(predictor.centroids, model.centroids)
                  else ["served centroids differ from the fitted model"])

    offline_predictor = Predictor(registry, key)
    offline = offline_predictor.predict(Q)

    def verify(op: str, rows: slice, out) -> None:
        if isinstance(out, FailedRequest):
            run.check(op, [f"{out.error_type}: {out.message}"])
        elif not np.array_equal(out, offline[rows]):
            run.check(op, ["labels differ from offline Predictor.predict"])
        else:
            run.check(op, [])

    try:
        measure_start = time.perf_counter()
        bulk_budget = 0.25 * run.seconds
        size = SERVE["bulk_request"]
        rep = 0
        while rep < MAX_SAMPLES:
            rec = run.traced(rep)
            with rec.span("bench.bulk", op=rep):
                t0 = time.perf_counter()
                tickets = []
                for lo in range(0, len(Q), size):
                    with rec.span("batching.submit", op=lo):
                        tickets.append(batcher.submit(Q[lo:lo + size]))
                outs = []
                for lo, ticket in zip(range(0, len(Q), size), tickets):
                    with rec.span("batching.result", op=lo):
                        outs.append(ticket.result(timeout=RESULT_TIMEOUT))
                elapsed = time.perf_counter() - t0
            if run.plant and rep == 0:
                outs[0][0] = (outs[0][0] + 1) % k
            for lo, out in zip(range(0, len(Q), size), outs):
                verify(f"bulk {rep} request {lo // size}", slice(lo, lo + size), out)
            run.samples.setdefault("throughput_pts_s", []).append(len(Q) / elapsed)
            rep += 1
            if rep >= MIN_REPEATS and time.perf_counter() - measure_start > bulk_budget:
                break

        step_seconds = max(0.2, (run.seconds - (time.perf_counter() - measure_start)) / 3)
        rng = np.random.default_rng(run.seed)
        steps = {}
        for rate in SERVE["rates"]:
            steps[rate] = open_loop(run, batcher, Q, rate, step_seconds, rng, verify)
        run.mark_peak_rss()
        run.samples["latency_ms"] = [lat * 1e3 for lat in steps[1000]["latencies"]]
        predictor_stats = predictor.stats()
    finally:
        batcher.close()

    if run.rec.enabled:
        batching_metrics(run, steps)
        run.layer.update({
            "registry.save_s": statistics.median(save),
            "registry.load_s": statistics.median(load),
            "predictor.distance_computations": predictor_stats["distance_computations"],
        })
        t0 = time.perf_counter()
        with run.rec.span("registry.verify"):
            registry.verify(key)
        run.layer["registry.verify_s"] = time.perf_counter() - t0
        core_metrics(run, [model])
        exec_metrics(run, model, leaked_segments())
        probe_kernels(run, X, model.centroids, model.labels, params)
        probe_predictor(run, offline_predictor, Q)


def open_loop(run: Run, batcher, Q: np.ndarray, rate: int, seconds: float,
              rng: np.random.Generator, verify) -> Dict[str, Any]:
    """One open-loop step: requests due every 1/rate s, timed from due time.

    A sender thread submits on schedule regardless of replies; a collector
    thread waits for the replies in submission order.
    """
    count = max(1, int(rate * seconds))
    sizes = rng.integers(1, SERVE["max_request"] + 1, size=count)
    starts = rng.integers(0, len(Q) - SERVE["max_request"] + 1, size=count)
    handoff: "queue.SimpleQueue" = queue.SimpleQueue()
    latencies = [0.0] * count
    lags = [0.0] * count
    outs: List[Any] = [None] * count
    resolved = [0]
    backlog = [0]
    batches_before = batcher.stats["batches"]
    origin = time.perf_counter() + 0.01

    def sender() -> None:
        for i in range(count):
            due = origin + i / rate
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            submitted = time.perf_counter()
            ticket = batcher.submit(Q[starts[i]:starts[i] + sizes[i]])
            handoff.put((i, due, submitted, time.perf_counter(), ticket))
        backlog[0] = count - resolved[0]
        handoff.put(None)

    def collector() -> None:
        while True:
            item = handoff.get()
            if item is None:
                return
            i, due, submitted, accepted, ticket = item
            waited = time.perf_counter()
            outs[i] = ticket.result(timeout=RESULT_TIMEOUT)
            done = time.perf_counter()
            latencies[i] = done - due
            lags[i] = submitted - due
            resolved[0] += 1
            rec = run.traced(i)
            parent = rec.add("serve.request", due, done, op=f"r{rate}.{i}")
            rec.add("batching.submit", submitted, accepted, op=f"r{rate}.{i}", parent=parent)
            rec.add("batching.result", waited, done, op=f"r{rate}.{i}", parent=parent)

    threads = [threading.Thread(target=sender, daemon=True),
               threading.Thread(target=collector, daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * RESULT_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError(f"open-loop step at {rate} req/s did not finish")
    failed_before = len(run.failures)
    for i in range(count):
        verify(f"r{rate} request {i}", slice(starts[i], starts[i] + sizes[i]), outs[i])
    return {
        "latencies": latencies,
        "lag_max": max(lags),
        "backlog": backlog[0],
        "batches": batcher.stats["batches"] - batches_before,
        "failed": len(run.failures) - failed_before,
        "count": count,
    }


def batching_metrics(run: Run, steps: Dict[int, Dict[str, Any]]) -> None:
    max_rps = 0
    for rate, step in steps.items():
        lat = step["latencies"]
        p99 = percentile(lat, 99)
        run.layer.update({
            f"batching.latency_p50_ms.r{rate}": percentile(lat, 50) * 1e3,
            f"batching.latency_p99_ms.r{rate}": p99 * 1e3,
            f"batching.batches.r{rate}": step["batches"],
            f"batching.mean_batch_requests.r{rate}": step["count"] / max(step["batches"], 1),
            f"batching.failed.r{rate}": step["failed"],
            f"batching.sender_lag_max_ms.r{rate}": step["lag_max"] * 1e3,
            f"batching.backlog_end.r{rate}": step["backlog"],
        })
        # A backlog longer than the latency limit's worth of arrivals is
        # a queue that grows.
        if p99 <= P99_LIMIT_S and step["backlog"] <= rate * P99_LIMIT_S and step["failed"] == 0:
            max_rps = max(max_rps, rate)
    run.layer["batching.latency_p999_ms.r4000"] = percentile(steps[4000]["latencies"], 99.9) * 1e3
    run.layer["batching.max_rps"] = max_rps
    # Every other request was traced: compare the two halves at 1000 req/s.
    lat = steps[1000]["latencies"]
    run.overhead(lat[0::2], lat[1::2])


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="append spans as JSONL")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--plant-wrong-label", action="store_true",
                        help="corrupt one output label (self-test of the checks)")
    args = parser.parse_args(argv)
    run = Run(args)
    for module in modules_for(run.workload):
        importlib.import_module(module)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        (run_serve if run.workload == "serve-open" else run_fit)(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if args.trace_out:
        run.rec.write_jsonl(args.trace_out)
    print(json.dumps({
        "workload": run.workload,
        "samples": run.samples,
        "layer": run.layer,
        "trace": {"layers": layer_totals(run.rec.spans), "spans": len(run.rec.spans)},
        "attempted": run.attempted,
        "failures": run.failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
