"""Call-graph construction and direct effects.

The project rules assume that building the graph twice from the same
sources yields identical objects (no set-iteration leakage into the
output), that edges resolve across modules, through ``self`` and around
cycles, and that ``mutates-global`` labels the mutating function only.
"""

import textwrap

from repro.analysis.effects import compute_direct_effects
from repro.analysis.graph import build_call_graph, load_project, module_name_for_path
from repro.analysis.rules import ParsedModule

_FIXTURE = {
    "src/repro/core/a.py": """\
        from repro.core.b import helper

        GLOBAL = {}

        class Algo:
            def fit(self, X):
                return self.step(X)

            def step(self, X):
                return helper(X)

        def mutate():
            GLOBAL["x"] = 1
            mutate_again()

        def mutate_again():
            mutate()
        """,
    "src/repro/core/b.py": """\
        def helper(X):
            return X
        """,
}


def _parse_fixture():
    return {
        path: ParsedModule.parse(path, textwrap.dedent(source))
        for path, source in _FIXTURE.items()
    }


def _build():
    project = load_project(_parse_fixture())
    return project, build_call_graph(project)


class TestModuleNames:
    def test_src_prefix_dropped(self):
        assert module_name_for_path("src/repro/core/base.py") == "repro.core.base"

    def test_init_maps_to_package(self):
        assert module_name_for_path("src/repro/__init__.py") == "repro"

    def test_no_src_segment(self):
        assert module_name_for_path("repro/core/base.py") == "repro.core.base"


class TestDeterminism:
    def test_two_builds_are_identical(self):
        project_a, graph_a = _build()
        project_b, graph_b = _build()
        assert graph_a.edges == graph_b.edges
        assert sorted(project_a.functions) == sorted(project_b.functions)

    def test_cross_module_and_self_edges_resolved(self):
        _, graph = _build()
        assert "repro.core.b.helper" in graph.callees("repro.core.a.Algo.step")
        assert "repro.core.a.Algo.step" in graph.callees("repro.core.a.Algo.fit")

    def test_mutual_recursion_is_one_component(self):
        # Each function of the cycle reaches the other, and the walk
        # terminates on the cycle.
        _, graph = _build()
        cycle = {"repro.core.a.mutate", "repro.core.a.mutate_again"}
        for node in cycle:
            assert set(graph.reachable([node])) == cycle


class TestDirectEffects:
    def test_mutation_labels_only_the_mutator(self):
        project, _ = _build()
        direct = compute_direct_effects(project)
        assert "mutates-global" in direct.get("repro.core.a.mutate")
        # Effects are direct: the caller in the cycle is not labeled.
        assert not direct.get("repro.core.a.mutate_again")
        assert not direct.get("repro.core.b.helper")


_CALLABLE_ARGUMENTS = {
    "src/repro/exec/fan.py": """\
        import threading

        def stride(work, first):
            work(first)

        def run(work):
            thread = threading.Thread(target=stride, args=(work, 1))
            thread.start()
            stride(work, 0)
            thread.join()

        def by_thread_only(work):
            threading.Thread(target=stride, args=(work, 1)).start()

        def kernel(rank):
            return rank

        def lone(rank):
            return rank

        class Fit:
            def go(self):
                run(self.part)
                by_thread_only(lambda rank: kernel(rank))

            def part(self, rank):
                return rank
        """,
}


class TestCallableArguments:
    """A call on a parameter reaches every function passed in for it."""

    def _graph(self):
        modules = {
            path: ParsedModule.parse(path, textwrap.dedent(source))
            for path, source in _CALLABLE_ARGUMENTS.items()
        }
        return build_call_graph(load_project(modules))

    def test_forwarded_arguments_reach_the_caller_of_the_parameter(self):
        graph = self._graph()
        callees = set(graph.callees("repro.exec.fan.stride", fuzzy=True))
        # self.part through run's parameter; kernel through a lambda
        # handed over in a Thread's args.
        assert callees == {"repro.exec.fan.Fit.part", "repro.exec.fan.kernel"}

    def test_edges_are_fuzzy_only(self):
        graph = self._graph()
        assert graph.callees("repro.exec.fan.stride") == []

    def test_functions_never_passed_stay_unreached(self):
        graph = self._graph()
        reached = graph.reachable(["repro.exec.fan.stride"], fuzzy=True)
        assert "repro.exec.fan.lone" not in reached
