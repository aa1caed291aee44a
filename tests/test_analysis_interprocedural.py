"""Fixture-package tests for the interprocedural rules R007–R010.

Each fixture is a tiny source tree written to ``tmp_path`` in the repo's
``src/repro/...`` layout (the rules scope by path), run through the real
:func:`repro.analysis.analyze_paths` with just the rules under test active
— one positive fixture that must fire and one negative that must not.
"""

import textwrap

from repro.analysis import analyze_paths, get_rules
from repro.cli import main


def run_fixture(tmp_path, files, rule_ids):
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return analyze_paths(
        [tmp_path / "src"], root=tmp_path, rules=get_rules(rule_ids)
    )


# ----------------------------------------------------------------------
# R007 — parallel-safety
# ----------------------------------------------------------------------


class TestParallelSafety:
    def test_transitive_global_mutation_flagged(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/eval/work.py": """\
                TOTALS = {}

                def mutate():
                    TOTALS["x"] = 1

                def worker(item):
                    mutate()
                    return item

                def run(items):
                    return supervised_map(worker, items)
                """,
        }, ["R007"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule_id == "R007"
        assert "'mutate'" in finding.message
        assert "chain:" in finding.message
        # Reported at the offender's definition, with the dispatch site named.
        assert finding.line == 3
        assert "work.py:11" in finding.message

    def test_lambda_and_nested_dispatch_flagged(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/eval/work.py": """\
                def run(items):
                    def inner(x):
                        return x
                    supervised_map(lambda x: x, items)
                    return supervised_map(inner, items)
                """,
        }, ["R007"])
        messages = [f.message for f in report.findings]
        assert any("lambda" in m for m in messages)
        assert any("unpicklable closure" in m for m in messages)

    def test_process_target_checked(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/eval/work.py": """\
                STATE = []

                def child():
                    STATE.append(1)

                def launch(ctx):
                    proc = ctx.Process(target=child)
                    proc.start()
                """,
        }, ["R007"])
        assert len(report.findings) == 1
        assert "'child'" in report.findings[0].message

    def test_thread_target_checked(self, tmp_path):
        # The serving micro-batcher dispatches its worker via
        # Thread(target=...); thread targets share memory, so a
        # module-global mutation races exactly like a pool kernel's.
        report = run_fixture(tmp_path, {
            "src/repro/serve/work.py": """\
                from threading import Thread

                PENDING = []

                def drain():
                    PENDING.clear()

                def start():
                    worker = Thread(target=drain, daemon=True)
                    worker.start()
                """,
        }, ["R007"])
        assert len(report.findings) == 1
        assert "'drain'" in report.findings[0].message

    def test_thread_lambda_target_passes(self, tmp_path):
        # A thread target pickles nothing: a lambda is fine there.
        report = run_fixture(tmp_path, {
            "src/repro/serve/work.py": """\
                import queue
                from threading import Thread

                def start():
                    q = queue.Queue()
                    worker = Thread(target=lambda: q.put(1), daemon=True)
                    worker.start()
                    return q
                """,
        }, ["R007"])
        assert report.findings == []

    def test_thread_lambda_walks_its_callees(self, tmp_path):
        # ... but what the lambda calls is still walked for mutation.
        report = run_fixture(tmp_path, {
            "src/repro/serve/work.py": """\
                from threading import Thread

                PENDING = []

                def drain():
                    PENDING.clear()

                def start():
                    worker = Thread(target=lambda: drain(), daemon=True)
                    worker.start()
                """,
        }, ["R007"])
        assert len(report.findings) == 1
        assert "'drain'" in report.findings[0].message

    def test_instance_state_thread_target_passes(self, tmp_path):
        # All mutable state on the instance handed to the worker (the
        # MicroBatcher idiom) — nothing module-global, nothing to flag.
        report = run_fixture(tmp_path, {
            "src/repro/serve/work.py": """\
                from threading import Thread

                def drain(batcher):
                    batcher.queue.clear()

                class Batcher:
                    def __init__(self):
                        self.queue = []
                        self.worker = Thread(target=drain, args=(self,))
                """,
        }, ["R007"])
        assert report.findings == []

    def test_clean_worker_passes(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/eval/work.py": """\
                def helper(item):
                    return item * 2

                def worker(item):
                    local = {}
                    local["x"] = helper(item)
                    return local

                def run(items):
                    return supervised_map(worker, items)
                """,
        }, ["R007"])
        assert report.findings == []

    def test_shard_pass_on_parameter_reaches_every_override(self, tmp_path):
        # The sharded engine's thread target calls the per-shard method on
        # the fit object it was handed: a call on a parameter has no known
        # receiver type, so R007 follows it to every override and flags
        # the one that reaches a module-global mutation.
        report = run_fixture(tmp_path, {
            "src/repro/exec/work.py": """\
                import threading

                SEEN = []

                def remember(rows):
                    SEEN.append(rows)

                class Sharded:
                    def _assign_shard(self, rank, counters):
                        raise NotImplementedError

                class CleanShards(Sharded):
                    def _assign_shard(self, rank, counters):
                        return rank

                class DirtyShards(Sharded):
                    def _assign_shard(self, rank, counters):
                        remember(rank)

                def run_shard(fit, rank, counters):
                    fit._assign_shard(rank, counters)

                def fan_out(fit, counters):
                    thread = threading.Thread(target=run_shard, args=(fit, 1, counters))
                    thread.start()
                    thread.join()
                """,
        }, ["R007"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert "'remember'" in finding.message
        assert "DirtyShards._assign_shard" in finding.message

    def test_work_callable_handed_to_the_target_is_followed(self, tmp_path):
        # The target calls a per-rank ``work`` callable it was handed
        # through the runner's parameter: R007 follows the argument back
        # to the bound methods passed in and flags the one that mutates.
        report = run_fixture(tmp_path, {
            "src/repro/exec/work.py": """\
                import threading

                SEEN = []

                def remember(rows):
                    SEEN.append(rows)

                def stride(work, first):
                    work(first, None)

                def run_shards(work):
                    thread = threading.Thread(target=stride, args=(work, 1))
                    thread.start()
                    stride(work, 0)
                    thread.join()

                class Fit:
                    def fit(self):
                        run_shards(self._clean_pass)
                        run_shards(self._dirty_pass)

                    def _clean_pass(self, rank, counters):
                        return rank

                    def _dirty_pass(self, rank, counters):
                        remember(rank)
                """,
        }, ["R007"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert "'remember'" in finding.message
        assert "Fit._dirty_pass" in finding.message


# ----------------------------------------------------------------------
# R008 — transitive-uncounted-distance
# ----------------------------------------------------------------------


_RAW_NORM = """\
    import numpy as np

    def raw_norm(a, b):
        return np.linalg.norm(a - b, axis=1)
    """

_ROUTED = _RAW_NORM + """\

    def routed(a, b):
        return raw_norm(a, b)
    """


class TestBackendPurity:
    """R008: in-scope code reaches distances only through the counted
    kernels, behind however many helper calls."""

    def test_unflagged_module_reaches_uncounted_helper(self, tmp_path):
        # Any function in the instrumented scope is checked, with no
        # opt-in; the helper sits outside R001's scope, so only R008 sees it.
        report = run_fixture(tmp_path, {
            "src/repro/common/helpers.py": _RAW_NORM,
            "src/repro/core/vec.py": """\
                from repro.common.helpers import raw_norm

                def assign(a, b):
                    return raw_norm(a, b)
                """,
        }, ["R001", "R008"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule_id == "R008"
        assert finding.path == "src/repro/core/vec.py"
        assert finding.line == 3
        assert "raw_norm" in finding.message
        assert "helpers.py:4" in finding.message

    def test_direct_and_inherited_flagged(self, tmp_path):
        report = run_fixture(
            tmp_path, {"src/repro/serve/vec.py": _ROUTED}, ["R001", "R008"]
        )
        by_line = {f.line: f.rule_id for f in report.findings}
        # Direct offense at the arithmetic, inherited one at the def line.
        assert by_line == {4: "R001", 6: "R008"}

    def test_justified_suppression_clears_effect(self, tmp_path):
        suppressed = _ROUTED.replace(
            "return np.linalg.norm(a - b, axis=1)",
            "return np.linalg.norm(a - b, axis=1)  # repro: ignore[R001]",
        )
        report = run_fixture(
            tmp_path, {"src/repro/core/vec.py": suppressed}, ["R001", "R008"]
        )
        # The suppressed line contributes no uncounted-distance effect, so
        # the caller inherits nothing either.
        assert report.findings == []
        assert report.unused_suppressions == []


# ----------------------------------------------------------------------
# R009 — rng-provenance
# ----------------------------------------------------------------------


class TestRngProvenance:
    def test_hardcoded_seed_flagged(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/tuning/sel.py": """\
                from repro.common.rng import ensure_rng

                def pick():
                    rng = ensure_rng(42)
                    return rng
                """,
        }, ["R009"])
        assert len(report.findings) == 1
        assert "hard-codes the seed" in report.findings[0].message

    def test_acquired_from_nothing_flagged(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/tuning/sel.py": """\
                from repro.common.rng import ensure_rng

                def pick():
                    rng = ensure_rng()
                    return rng
                """,
        }, ["R009"])
        assert len(report.findings) == 1
        assert "from nothing" in report.findings[0].message

    def test_module_level_generator_draw_flagged(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/tuning/sel.py": """\
                _SHARED_RNG = object()

                def draw(n):
                    return _SHARED_RNG.integers(n)
                """,
        }, ["R009"])
        assert len(report.findings) == 1
        assert "_SHARED_RNG" in report.findings[0].message

    def test_parameter_derived_rng_passes(self, tmp_path):
        report = run_fixture(tmp_path, {
            "src/repro/tuning/sel.py": """\
                from repro.common.rng import ensure_rng, spawn_rng

                def pick(seed, k):
                    rng = ensure_rng(seed)
                    child_rng = spawn_rng(rng)
                    return [child_rng.integers(10) for _ in range(k)]

                class Model:
                    def sample(self, n):
                        rng = ensure_rng(self.seed)
                        return rng.integers(n)
                """,
        }, ["R009"])
        assert report.findings == []


# ----------------------------------------------------------------------
# R010 — transitive counter discipline
# ----------------------------------------------------------------------


_R010_BAD = """\
    class Algo:
        def __init__(self, X, counters):
            self.X = X
            self.counters = counters

        def assign(self, counters):
            return self._gather()

        def _gather(self):
            return self.X[0]
    """


class TestTransitiveCounterDiscipline:
    def test_uncharged_helper_read_flagged(self, tmp_path):
        report = run_fixture(
            tmp_path, {"src/repro/core/algo.py": _R010_BAD}, ["R010"]
        )
        assert len(report.findings) == 1
        finding = report.findings[0]
        # Lands on the counter-accepting function's def, naming the helper.
        assert finding.line == 6
        assert "_gather" in finding.message
        assert "algo.py:10" in finding.message

    def test_charging_helper_passes(self, tmp_path):
        charged = _R010_BAD.replace(
            "            return self.X[0]",
            "            self.counters.add_point_accesses(1)\n"
            "            return self.X[0]",
        )
        report = run_fixture(
            tmp_path, {"src/repro/core/algo.py": charged}, ["R010"]
        )
        assert report.findings == []

    def test_suppressed_read_passes(self, tmp_path):
        suppressed = _R010_BAD.replace(
            "return self.X[0]",
            "return self.X[0]  # repro: ignore[R010] -- build-time gather",
        )
        report = run_fixture(
            tmp_path, {"src/repro/core/algo.py": suppressed}, ["R010"]
        )
        assert report.findings == []

    def test_outside_instrumented_scope_ignored(self, tmp_path):
        report = run_fixture(
            tmp_path, {"src/repro/tuning/algo.py": _R010_BAD}, ["R010"]
        )
        assert report.findings == []


# ----------------------------------------------------------------------
# Suppression audit: a stale suppression fails the run
# ----------------------------------------------------------------------


class TestStrictSuppressions:
    def _write_stale(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1  # repro: ignore[R004]\n")
        return target

    def test_unused_suppression_reported(self, tmp_path):
        self._write_stale(tmp_path)
        report = analyze_paths([tmp_path], root=tmp_path)
        assert report.findings == []  # no findings ...
        assert not report.ok  # ... but a stale suppression
        assert len(report.unused_suppressions) == 1
        unused = report.unused_suppressions[0]
        assert unused.rule_ids == ("R004",)
        assert "unused suppression" in unused.format()

    def test_cli_exits_nonzero_on_stale_suppression(self, tmp_path, capsys):
        self._write_stale(tmp_path)
        assert main(["lint", str(tmp_path)]) == 1
        assert "unused suppression" in capsys.readouterr().out

    def test_suppression_of_rule_not_run_is_not_judged(self, tmp_path):
        # The stale comment names R004; a run of R001 alone cannot judge it.
        self._write_stale(tmp_path)
        report = analyze_paths([tmp_path], root=tmp_path, rules=get_rules(["R001"]))
        assert report.unused_suppressions == []
        assert report.ok

    def test_used_suppression_not_reported(self, tmp_path):
        target = tmp_path / "src" / "repro" / "core" / "kern.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import numpy as np\n"
            "def d(a, b):\n"
            "    return np.linalg.norm(a - b)  # repro: ignore[R001]\n"
        )
        report = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert report.findings == []
        assert report.suppressed == 1
        assert report.unused_suppressions == []

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        target = tmp_path / "doc.py"
        target.write_text(
            '"""Use ``# repro: ignore[R001]`` to silence a finding."""\n'
            "x = 1\n"
        )
        report = analyze_paths([tmp_path], root=tmp_path)
        assert report.unused_suppressions == []
