"""Command-line interface: ``python -m repro <command>``.

Mirrors the original artifact's terminal workflow (paper Section A.4):
run clustering tasks from the terminal, watch the per-method results, and
write machine-readable logs for later analysis.

Commands
--------
``datasets``
    List the surrogate dataset registry (Table 2).
``cluster``
    Run one algorithm on one dataset and print the instrumented summary.
``compare``
    Run several algorithms under a shared initialization and print the
    speedup/pruning table (the Figure 8 view).
``tune``
    Generate ground truth over the registry, train UTune, report MRR
    against the BDT baseline, and print per-task predictions.
``bench``
    Run a fault-tolerant benchmark campaign over datasets × k values ×
    algorithms with per-run timeouts, crash containment and
    checkpoint/resume against a JSONL log; failed cells are recorded, not
    fatal (see docs/robustness.md).
``lint``
    Run the repo-contract static analyzer (R001–R010) over source trees
    and fail on any finding or unused suppression (see
    docs/static_analysis.md).
``registry``
    Manage the on-disk model registry: ``save`` (fit + persist), ``list``,
    ``show``, and ``verify`` (re-digest payloads; a flipped byte exits
    non-zero with the classified error).  See docs/serving.md.
``serve``
    Serve batched nearest-centroid assignment from a saved model through
    the micro-batching front end (docs/serving.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.common.exceptions import ConfigurationError
from repro.core import ALGORITHMS, BACKENDS, make_algorithm
from repro.datasets import dataset_names, get_dataset_spec, load_dataset
from repro.datasets.loaders import append_jsonl, load_points_csv
from repro.eval import compare_algorithms, format_table, speedup_table
from repro.eval.tables import format_speedup_rows


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse ``type=`` for durations that must be > 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _k_list(text: str) -> List[int]:
    """argparse ``type=`` for ``--ks``: comma-separated k values, each >= 1."""
    try:
        ks = [int(k) for k in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(ks) < 1:
        raise argparse.ArgumentTypeError(f"values must be >= 1, got {text!r}")
    return ks


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="reference", choices=list(BACKENDS),
                        help="execution backend; 'vectorized' is NumPy-batched "
                             "and counter/trajectory-identical to 'reference' "
                             "(see docs/backends.md)")


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=1,
                        help="split the fit's row work (seeding, assignment, "
                             "refinement) across this many shards, run on "
                             "threads in-process; requires "
                             "--backend vectorized and results stay "
                             "bit-identical (see docs/sharding.md)")


#: ``--algorithms`` defaults, before filtering by --backend and --shards
COMPARE_ALGORITHMS = ("lloyd", "yinyang", "index", "unik")
BENCH_ALGORITHMS = ("lloyd", "hamerly", "yinyang")


def _algorithm_names(args: argparse.Namespace, default: Sequence[str]) -> List[str]:
    """The ``--algorithms`` list, else the names of ``default`` that
    ``make_algorithm`` builds under ``--backend`` and ``--shards``.

    When it builds none of them (a bad shard count), the whole default
    comes back, so the argument check reports ``make_algorithm``'s error.
    """
    if args.algorithms is not None:
        return [name.strip() for name in args.algorithms.split(",") if name.strip()]
    names = [name for name in default if _check_algorithm_arguments(args, [name]) is None]
    return names or list(default)


def _check_algorithm_arguments(args: argparse.Namespace, names) -> Optional[str]:
    """Validate algorithm names against --backend and --shards.

    Builds each algorithm once, unfitted, so the CLI reports exactly the
    ConfigurationError that ``make_algorithm`` raises: an unknown name, an
    algorithm with no implementation on the backend, or a bad shard count.
    """
    try:
        for name in names:
            make_algorithm(name, backend=args.backend, shards=args.shards)
    except ConfigurationError as exc:
        return str(exc)
    return None


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="BigCross",
                        help="registry dataset name, or a CSV path with --csv")
    parser.add_argument("--csv", action="store_true",
                        help="treat --dataset as a CSV file of points")
    parser.add_argument("--n", type=_positive_int, default=None,
                        help="surrogate point count (registry datasets only)")
    parser.add_argument("--seed", type=int, default=0)


def _load(args: argparse.Namespace):
    if args.csv:
        return load_points_csv(args.dataset)
    return load_dataset(args.dataset, n=args.n, seed=args.seed)


def _k_exceeds_points(ks: Sequence[int], X, dataset: str) -> bool:
    """Report on stderr, and return True, when a k exceeds ``len(X)``."""
    if max(ks) <= len(X):
        return False
    print(f"k={max(ks)} exceeds the {len(X)} points loaded from {dataset}",
          file=sys.stderr)
    return True


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        spec = get_dataset_spec(name)
        rows.append([name, f"{spec.n_paper:,}", spec.d, spec.kind,
                     spec.default_n(), spec.description])
    print(format_table(
        ["name", "n(paper)", "d", "kind", "n(default)", "description"], rows,
        title="Surrogate dataset registry (paper Table 2)",
    ))
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    error = _check_algorithm_arguments(args, [args.algorithm])
    if error:
        print(error, file=sys.stderr)
        return 2
    X = _load(args)
    if _k_exceeds_points([args.k], X, args.dataset):
        return 2
    algorithm = make_algorithm(
        args.algorithm, backend=args.backend, shards=args.shards
    )
    result = algorithm.fit(X, args.k, max_iter=args.max_iter, seed=args.seed)
    summary = result.summary()
    if args.save_model:
        from repro.serve import ModelRegistry

        key = ModelRegistry(args.save_model).save_model(
            result, dataset=args.dataset, backend=args.backend,
            shards=args.shards, seed=args.seed,
        )
        summary["model_key"] = key
        summary["model_registry"] = args.save_model
        print(f"saved model {key} to {args.save_model}", file=sys.stderr)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        rows = [[key, value] for key, value in summary.items()]
        print(format_table(["metric", "value"], rows,
                           title=f"{args.algorithm} on {args.dataset}"))
    if args.log:
        append_jsonl(args.log, [summary])
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = _algorithm_names(args, COMPARE_ALGORITHMS)
    if "lloyd" not in names:
        # speedup_table needs the Lloyd baseline; it runs on the selected
        # backend like everything else, so vectorized comparisons measure
        # speedups against vectorized Lloyd, not the scalar reference.
        names.insert(0, "lloyd")
    error = _check_algorithm_arguments(args, names)
    if error:
        print(error, file=sys.stderr)
        return 2
    X = _load(args)
    if _k_exceeds_points([args.k], X, args.dataset):
        return 2
    records = compare_algorithms(
        names, X, args.k,
        repeats=args.repeats, max_iter=args.max_iter,
        seed=args.seed, backend=args.backend, shards=args.shards,
    )
    table = speedup_table(records)
    rows = format_speedup_rows(table, order=names)
    print(format_table(
        ["method", "time_x", "assign_x", "refine_x", "work_x", "pruned"],
        rows,
        title=(
            f"{args.dataset}: n={len(X)}, d={X.shape[1]}, k={args.k}, "
            f"backend={args.backend}"
        ),
    ))
    if args.log:
        append_jsonl(args.log, [record.as_dict() for record in records])
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.tuning import UTune, evaluate_bdt, generate_ground_truth

    names = (
        [name.strip() for name in args.datasets.split(",")]
        if args.datasets
        else dataset_names()[:6]
    )
    tasks = []
    for name in names:
        X = load_dataset(name, n=args.n, seed=args.seed)
        if _k_exceeds_points(args.ks, X, name):
            return 2
        for k in args.ks:
            tasks.append((name, X, k))
    print(f"labeling {len(tasks)} tasks (selective={not args.full}) ...")
    records = generate_ground_truth(
        tasks, selective=not args.full, max_iter=args.max_iter,
        metric=args.metric,
    )
    tuner = UTune(model=args.model).fit(records)
    learned = tuner.evaluate(records)
    rules = evaluate_bdt(records)
    if args.save_selector:
        from repro.serve import ModelRegistry

        key = ModelRegistry(args.save_selector).save_selector(
            tuner,
            meta={"records": len(records), "metric": args.metric,
                  "datasets": ",".join(names)},
        )
        print(f"saved selector {key} to {args.save_selector}", file=sys.stderr)
    print(format_table(
        ["selector", "Bound@MRR", "Index@MRR"],
        [
            [args.model, round(learned["bound_mrr"], 3), round(learned["index_mrr"], 3)],
            ["BDT", round(rules["bound_mrr"], 3), round(rules["index_mrr"], 3)],
        ],
        title=f"UTune training report ({len(records)} records)",
    ))
    rows = [
        [record.dataset, record.k, record.best_bound, record.best_index]
        for record in records
    ]
    print(format_table(["dataset", "k", "best bound", "best index"], rows,
                       title="ground-truth winners"))
    if args.log:
        append_jsonl(args.log, [record.as_dict() for record in records])
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.eval.logdb import EvaluationLog
    from repro.eval.parallel import parallel_compare
    from repro.eval.runtime import is_failed_record

    names = _algorithm_names(args, BENCH_ALGORITHMS)
    if args.resume and not args.log:
        print("--resume requires --log (the checkpoint to resume from)",
              file=sys.stderr)
        return 2
    error = _check_algorithm_arguments(args, names)
    if error:
        print(error, file=sys.stderr)
        return 2
    datasets = {
        name: load_dataset(name, n=args.n, seed=args.seed)
        for name in (d.strip() for d in args.datasets.split(",")) if name
    }
    if any(_k_exceeds_points(args.ks, X, name) for name, X in datasets.items()):
        return 2
    log = EvaluationLog(args.log) if args.log else EvaluationLog()
    rows = []
    ok_count = failed_count = resumed_count = 0
    for dataset, X in datasets.items():
        for k in args.ks:
            records = parallel_compare(
                names, X, k,
                repeats=args.repeats, max_iter=args.max_iter, seed=args.seed,
                max_workers=args.max_workers, timeout=args.timeout,
                dataset=dataset, log=log, resume=args.resume,
                backend=args.backend, shards=args.shards,
                save_model=args.save_model,
            )
            for record in records:
                if is_failed_record(record):
                    failed_count += 1
                    rows.append([
                        dataset, k, record.key.algorithm, "FAILED",
                        record.error_type,
                    ])
                else:
                    resumed = bool(record.extras.get("resumed"))
                    ok_count += 1
                    resumed_count += resumed
                    rows.append([
                        dataset, k, record.algorithm,
                        "resumed" if resumed else "ok",
                        round(record.total_time, 4),
                    ])
    print(format_table(
        ["dataset", "k", "algorithm", "status", "time/error"], rows,
        title=(f"bench: {ok_count} ok ({resumed_count} resumed), "
               f"{failed_count} failed"),
    ))
    if failed_count and args.log:
        print(f"{failed_count} cell(s) failed; rerun with --resume --log "
              f"{args.log} to re-run only those", file=sys.stderr)
    return 1 if (args.strict and failed_count) else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        analyze_paths,
        format_findings_json,
        format_findings_sarif,
        format_findings_text,
    )

    paths = [Path(p) for p in (args.paths or ["src"])]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2
    report = analyze_paths(paths, root=Path.cwd())
    formatters = {
        "text": format_findings_text,
        "json": format_findings_json,
        "sarif": format_findings_sarif,
    }
    print(formatters[args.format](report))
    return 0 if report.ok else 1


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.common.exceptions import RegistryError
    from repro.serve import ModelRegistry

    registry = ModelRegistry(args.root)
    if args.registry_command == "save":
        error = _check_algorithm_arguments(args, [args.algorithm])
        if error:
            print(error, file=sys.stderr)
            return 2
        X = _load(args)
        if _k_exceeds_points([args.k], X, args.dataset):
            return 2
        algorithm = make_algorithm(
            args.algorithm, backend=args.backend, shards=args.shards
        )
        result = algorithm.fit(X, args.k, max_iter=args.max_iter, seed=args.seed)
        key = registry.save_model(
            result, dataset=args.dataset, backend=args.backend,
            shards=args.shards, seed=args.seed,
        )
        print(key)
        return 0
    if args.registry_command == "list":
        rows = []
        for entry in registry.list_entries(
                kind=args.kind if args.kind != "all" else None):
            meta = entry.meta
            rows.append([
                entry.key, entry.kind,
                meta.get("algorithm") or meta.get("class") or "?",
                meta.get("k", ""), meta.get("dataset", ""),
                round(meta["sse"], 4) if isinstance(meta.get("sse"), float) else "",
            ])
        print(format_table(
            ["key", "kind", "algorithm", "k", "dataset", "sse"], rows,
            title=f"registry {args.root}: {len(rows)} entr(ies)",
        ))
        return 0
    if args.registry_command == "show":
        try:
            entry = registry.load(args.key)
        except RegistryError as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(entry.record, indent=2, sort_keys=True))
        return 0
    # verify: re-digest payloads; a tampered artifact exits non-zero with
    # the classified error class on stderr (the serving-smoke contract).
    try:
        checked = registry.verify(args.key)
    except RegistryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    scope = f"entry {args.key}" if args.key else "all entries"
    print(f"verified {scope}: {checked} payload(s) match their digests")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    import numpy as np

    from repro.common.exceptions import RegistryError
    from repro.serve import MicroBatcher, ModelRegistry, Predictor

    registry = ModelRegistry(args.root)
    try:
        predictor = Predictor(registry, args.key)
    except RegistryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.points:
        X = load_points_csv(args.points)
    else:
        X = _load(args)
    if X.shape[1] != predictor.d:
        print(f"query points have d={X.shape[1]}, model expects "
              f"d={predictor.d}", file=sys.stderr)
        return 2
    begin = time.perf_counter()
    failed = 0
    outputs = []
    with MicroBatcher(predictor, max_batch=args.batch) as batcher:
        tickets = [
            batcher.submit(X[start:start + args.request_size],
                           deadline=args.deadline)
            for start in range(0, X.shape[0], args.request_size)
        ]
        for ticket in tickets:
            outcome = ticket.result(timeout=60.0)
            if isinstance(outcome, np.ndarray):
                outputs.append(outcome)
            else:
                failed += 1
                print(f"request {outcome.request_id} failed: "
                      f"{outcome.error_type}: {outcome.message}",
                      file=sys.stderr)
    elapsed = time.perf_counter() - begin
    labels = np.concatenate(outputs) if outputs else np.empty(0, dtype=np.int64)
    if args.output:
        with open(args.output, "w") as handle:
            handle.writelines(f"{int(label)}\n" for label in labels)
    summary = {
        "model_key": predictor.entry.key,
        "k": predictor.k,
        "d": predictor.d,
        "points": int(X.shape[0]),
        "served": int(labels.shape[0]),
        "requests": len(tickets),
        "failed_requests": failed,
        "batches": batcher.stats["batches"],
        "elapsed_s": round(elapsed, 5),
        "points_per_s": round(labels.shape[0] / elapsed, 1) if elapsed else 0.0,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_table(
            ["metric", "value"], [[k, v] for k, v in summary.items()],
            title=f"serve: model {predictor.entry.key} on {X.shape[0]} points",
        ))
    return 1 if (args.strict and failed) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast k-means evaluation framework (UniK + UTune reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the dataset registry")

    cluster = sub.add_parser("cluster", help="run one algorithm on one dataset")
    _add_data_arguments(cluster)
    cluster.add_argument("--algorithm", default="unik", choices=sorted(ALGORITHMS))
    _add_backend_argument(cluster)
    _add_shard_arguments(cluster)
    cluster.add_argument("--k", type=_positive_int, default=10)
    cluster.add_argument("--max-iter", type=_positive_int, default=10)
    cluster.add_argument("--json", action="store_true", help="JSON output")
    cluster.add_argument("--log", default=None, help="append summary to a JSONL log")
    cluster.add_argument("--save-model", default=None, metavar="DIR",
                         help="persist the fitted model to this registry "
                              "directory (see docs/serving.md)")

    compare = sub.add_parser("compare", help="compare algorithms on one dataset")
    _add_data_arguments(compare)
    compare.add_argument("--algorithms", default=None,
                         help="comma-separated names; default: those of "
                              f"{','.join(COMPARE_ALGORITHMS)} that --backend "
                              "and --shards support")
    _add_backend_argument(compare)
    _add_shard_arguments(compare)
    compare.add_argument("--k", type=_positive_int, default=10)
    compare.add_argument("--max-iter", type=_positive_int, default=10)
    compare.add_argument("--repeats", type=_positive_int, default=2)
    compare.add_argument("--log", default=None)

    tune = sub.add_parser("tune", help="train and evaluate the UTune selector")
    tune.add_argument("--datasets", default=None, help="comma-separated registry names")
    tune.add_argument("--ks", type=_k_list, default="5,15",
                      help="comma-separated k values")
    tune.add_argument("--n", type=_positive_int, default=600)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--max-iter", type=_positive_int, default=5)
    tune.add_argument("--model", default="dt",
                      choices=["dt", "rf", "knn", "svm", "rc", "ranker"])
    tune.add_argument("--metric", default="total_time",
                      choices=["total_time", "modeled_cost"])
    tune.add_argument("--full", action="store_true",
                      help="full running instead of selective (Algorithm 2)")
    tune.add_argument("--log", default=None)
    tune.add_argument("--save-selector", default=None, metavar="DIR",
                      help="persist the trained UTune selector to this "
                           "registry directory (see docs/serving.md)")

    bench = sub.add_parser(
        "bench",
        help="fault-tolerant benchmark campaign (timeouts, crash "
             "containment, resume)",
    )
    bench.add_argument("--datasets", default="Skin",
                       help="comma-separated registry dataset names")
    bench.add_argument("--algorithms", default=None,
                       help="comma-separated names; default: those of "
                            f"{','.join(BENCH_ALGORITHMS)} that --backend "
                            "and --shards support")
    _add_backend_argument(bench)
    _add_shard_arguments(bench)
    bench.add_argument("--ks", type=_k_list, default="4",
                       help="comma-separated k values")
    bench.add_argument("--n", type=_positive_int, default=300,
                       help="surrogate point count per dataset")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--repeats", type=_positive_int, default=1)
    bench.add_argument("--max-iter", type=_positive_int, default=5)
    bench.add_argument("--timeout", type=_positive_float, default=None,
                       help="wall-clock seconds per run; hung workers are killed")
    bench.add_argument("--max-workers", type=_positive_int, default=None)
    bench.add_argument("--log", default=None,
                       help="JSONL evaluation log (checkpoint for --resume)")
    bench.add_argument("--resume", action="store_true",
                       help="skip cells already completed in --log")
    bench.add_argument("--strict", action="store_true",
                       help="exit 1 when any cell failed (default: exit 0, "
                            "failures recorded)")
    bench.add_argument("--save-model", default=None, metavar="DIR",
                       help="persist each cell's first-repeat fitted model "
                            "to this registry directory")

    registry = sub.add_parser(
        "registry",
        help="manage the on-disk model registry (see docs/serving.md)",
    )
    registry_sub = registry.add_subparsers(dest="registry_command",
                                           required=True)
    reg_save = registry_sub.add_parser(
        "save", help="fit one algorithm and persist the model")
    reg_save.add_argument("root", help="registry directory")
    _add_data_arguments(reg_save)
    reg_save.add_argument("--algorithm", default="lloyd",
                          choices=sorted(ALGORITHMS))
    _add_backend_argument(reg_save)
    _add_shard_arguments(reg_save)
    reg_save.add_argument("--k", type=_positive_int, default=10)
    reg_save.add_argument("--max-iter", type=_positive_int, default=50)
    reg_list = registry_sub.add_parser("list", help="list stored entries")
    reg_list.add_argument("root", help="registry directory")
    reg_list.add_argument("--kind", default="all",
                          choices=["all", "model", "selector"])
    reg_show = registry_sub.add_parser(
        "show", help="print one entry's manifest record as JSON")
    reg_show.add_argument("root", help="registry directory")
    reg_show.add_argument("key", help="entry key")
    reg_verify = registry_sub.add_parser(
        "verify",
        help="re-digest stored payloads; tampering exits non-zero")
    reg_verify.add_argument("root", help="registry directory")
    reg_verify.add_argument("key", nargs="?", default=None,
                            help="verify one entry (default: all)")

    serve = sub.add_parser(
        "serve",
        help="serve batched assignment from a saved model (docs/serving.md)",
    )
    serve.add_argument("root", help="registry directory")
    serve.add_argument("--key", default=None,
                       help="model entry key (default: latest model)")
    _add_data_arguments(serve)
    serve.add_argument("--points", default=None, metavar="CSV",
                       help="CSV of query points (default: the --dataset "
                            "surrogate)")
    serve.add_argument("--request-size", type=_positive_int, default=64,
                       help="points per simulated client request")
    serve.add_argument("--batch", type=_positive_int, default=256,
                       help="max requests coalesced into one kernel call; "
                            "the batcher serves what is queued as soon as "
                            "it is free, without waiting for batchmates")
    serve.add_argument("--deadline", type=_positive_float, default=None,
                       help="per-request deadline in seconds (expired "
                            "requests degrade to FailedRequest)")
    serve.add_argument("--output", default=None, metavar="FILE",
                       help="write served labels here, one per line")
    serve.add_argument("--json", action="store_true", help="JSON summary")
    serve.add_argument("--strict", action="store_true",
                       help="exit 1 when any request failed")

    lint = sub.add_parser(
        "lint", help="run the repo-contract static analyzer (R001–R010); "
                     "exit 1 on findings or unused suppressions"
    )
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to analyze (default: src)")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="report format (sarif for GitHub code scanning)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "cluster": _cmd_cluster,
        "compare": _cmd_compare,
        "tune": _cmd_tune,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "registry": _cmd_registry,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
