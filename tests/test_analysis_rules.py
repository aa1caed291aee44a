"""Unit tests for the repo-contract static analyzer (``repro.analysis``).

Each rule must fire on a minimal synthetic offender, stay quiet on the
instrumented/clean counterpart, and respect ``# repro: ignore[...]``
suppressions — the acceptance contract of the linter itself.
"""

import json

import pytest

from repro.analysis import (
    ALL_RULE_IDS,
    analyze_paths,
    analyze_source,
    format_findings_json,
    format_findings_text,
    get_rules,
)
from repro.analysis.findings import Finding
from repro.analysis.runner import AnalysisReport
from repro.analysis.suppressions import parse_suppressions

CORE_PATH = "src/repro/core/fake.py"  # inside the instrumented scope
SERVE_PATH = "src/repro/serve/fake.py"  # inside it too
OUTSIDE_PATH = "src/repro/eval/fake.py"  # outside it


def rule_ids(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# R001 — uninstrumented-distance
# ----------------------------------------------------------------------


class TestR001:
    def test_linalg_norm_fires(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            "    return np.linalg.norm(x - y)\n"
        )
        findings = analyze_source(src, CORE_PATH)
        assert rule_ids(findings) == ["R001"]
        assert findings[0].line == 3
        assert "np.linalg.norm" in findings[0].snippet

    def test_import_alias_resolved(self):
        src = (
            "from numpy import linalg as la\n"
            "def f(d):\n"
            "    return la.norm(d)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_scipy_spatial_fires(self):
        src = (
            "from scipy.spatial import distance\n"
            "def f(x, y):\n"
            "    return distance.euclidean(x, y)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_matmul_inner_product_fires(self):
        src = (
            "def f(x, y):\n"
            "    diff = x - y\n"
            "    return (diff @ diff) ** 0.5\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_matmul_different_operands_clean(self):
        src = "def f(a, b):\n    return a @ b\n"
        assert analyze_source(src, CORE_PATH) == []

    def test_same_operand_einsum_fires(self):
        src = (
            "import numpy as np\n"
            "def f(diff):\n"
            "    return np.einsum('ij,ij->i', diff, diff)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_other_einsum_clean(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.einsum('ij,jk->ik', a, b)\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_instrumented_kernel_clean(self):
        src = (
            "from repro.common.distance import euclidean\n"
            "def f(x, y, counters):\n"
            "    return euclidean(x, y, counters)\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_out_of_scope_path_ignored(self):
        src = "import numpy as np\nr = np.linalg.norm([1.0, 2.0])\n"
        assert analyze_source(src, OUTSIDE_PATH) == []

    def test_serve_path_in_scope(self):
        # The serving path answers with the same counted kernels as the
        # fit; any module under repro/serve/ is checked, with no opt-in.
        src = "import numpy as np\nr = np.linalg.norm([1.0, 2.0])\n"
        assert rule_ids(analyze_source(src, SERVE_PATH)) == ["R001"]

    # -- vectorized-backend idioms (ISSUE 3) ---------------------------

    def test_same_root_batched_matmul_fires(self):
        # The _rowwise_sq_norms idiom hand-rolled inside the core.
        src = (
            "import numpy as np\n"
            "def f(diff):\n"
            "    return np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_plain_same_operand_matmul_fires(self):
        src = (
            "import numpy as np\n"
            "def f(diff):\n"
            "    return np.matmul(diff, diff)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_matmul_distinct_roots_clean(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.matmul(a[:, None, :], b[:, :, None])\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_sq_diff_method_sum_fires(self):
        src = "def f(a, b):\n    return ((a - b) ** 2).sum(axis=1)\n"
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_sq_diff_np_sum_fires(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.sum((a - b) ** 2)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_sq_sum_without_difference_clean(self):
        # A plain norm table (no subtraction) is not a distance.
        src = "def f(a):\n    return (a ** 2).sum(axis=1)\n"
        assert analyze_source(src, CORE_PATH) == []

    # -- frontier / scatter-add batching idioms (ISSUE 5) --------------

    def test_np_square_diff_sum_fires(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.square(a - b).sum(axis=-1)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_np_sum_of_np_square_diff_fires(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.sum(np.square(a - b), axis=1)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_same_operand_product_diff_sum_fires(self):
        src = "def f(a, b):\n    return ((a - b) * (a - b)).sum(axis=1)\n"
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_distinct_operand_product_sum_clean(self):
        src = "def f(a, b, w):\n    return ((a - b) * w).sum(axis=1)\n"
        assert analyze_source(src, CORE_PATH) == []

    def test_np_square_without_difference_clean(self):
        src = (
            "import numpy as np\n"
            "def f(a):\n"
            "    return np.square(a).sum(axis=1)\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_same_operand_np_dot_fires(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            "    diff = x - y\n"
            "    return np.dot(diff, diff)\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_distinct_operand_np_dot_clean(self):
        src = (
            "import numpy as np\n"
            "def f(a, b):\n"
            "    return np.dot(a, b)\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_sq_diff_sum_suppressible(self):
        src = (
            "import numpy as np\n"
            "def f(a, b, counters):\n"
            "    counters.add_distances(1)\n"
            "    # repro: ignore[R001] — charged manually above\n"
            "    return np.sum((a - b) ** 2)\n"
        )
        assert analyze_source(src, CORE_PATH) == []


# ----------------------------------------------------------------------
# R002 — global-rng
# ----------------------------------------------------------------------


class TestR002:
    def test_global_numpy_rng_fires(self):
        src = "import numpy as np\nv = np.random.rand(3)\n"
        assert rule_ids(analyze_source(src, OUTSIDE_PATH)) == ["R002"]

    def test_stdlib_random_fires(self):
        src = "import random\nv = random.random()\n"
        assert rule_ids(analyze_source(src, OUTSIDE_PATH)) == ["R002"]

    def test_unseeded_default_rng_fires(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rule_ids(analyze_source(src, OUTSIDE_PATH)) == ["R002"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert analyze_source(src, OUTSIDE_PATH) == []

    def test_rng_module_exempt(self):
        src = "import numpy as np\nv = np.random.rand(3)\n"
        assert analyze_source(src, "src/repro/common/rng.py") == []


# ----------------------------------------------------------------------
# R003 — counter-discipline
# ----------------------------------------------------------------------


class TestR003:
    OFFENDER = (
        "class A:\n"
        "    def f(self, i, counters):\n"
        "        return self.X[i]\n"
    )

    def test_uncharged_point_read_fires(self):
        findings = analyze_source(self.OFFENDER, CORE_PATH)
        assert rule_ids(findings) == ["R003"]
        assert "point_accesses" in findings[0].message

    def test_charged_point_read_clean(self):
        src = (
            "class A:\n"
            "    def f(self, i, counters):\n"
            "        counters.add_point_accesses(1)\n"
            "        return self.X[i]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_uncharged_bound_read_fires(self):
        src = (
            "class A:\n"
            "    def f(self, i, counters):\n"
            "        return self._ub[i]\n"
        )
        findings = analyze_source(src, CORE_PATH)
        assert rule_ids(findings) == ["R003"]
        assert "bound_accesses" in findings[0].message

    def test_no_counters_param_clean(self):
        src = (
            "class A:\n"
            "    def f(self, i):\n"
            "        return self.X[i]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    # -- vectorized-backend methods (ISSUE 3): self.counters + aliases --

    def test_self_counters_method_fires_on_uncharged_read(self):
        # Vectorized _assign methods take no counters parameter; touching
        # self.counters is what marks them as measured.
        src = (
            "class A:\n"
            "    def _assign(self, i):\n"
            "        self.counters.add_distances(1)\n"
            "        return self.X[i]\n"
        )
        findings = analyze_source(src, CORE_PATH)
        assert rule_ids(findings) == ["R003"]
        assert "point_accesses" in findings[0].message

    def test_self_counters_method_charged_clean(self):
        src = (
            "class A:\n"
            "    def _assign(self, i):\n"
            "        self.counters.add_point_accesses(1)\n"
            "        return self.X[i]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_bound_read_through_local_alias_fires(self):
        # The hoist-to-local idiom of repro.core.vectorized.
        src = (
            "class A:\n"
            "    def _assign(self, active):\n"
            "        lb = self._lb\n"
            "        self.counters.add_distances(1)\n"
            "        return lb[active]\n"
        )
        findings = analyze_source(src, CORE_PATH)
        assert rule_ids(findings) == ["R003"]
        assert "bound_accesses" in findings[0].message

    def test_point_read_through_local_alias_charged_clean(self):
        src = (
            "class A:\n"
            "    def _assign(self, active):\n"
            "        X = self.X\n"
            "        self.counters.add_point_accesses(len(active))\n"
            "        return X[active]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_unrelated_local_subscript_clean(self):
        src = (
            "class A:\n"
            "    def _assign(self, active):\n"
            "        self.counters.add_distances(1)\n"
            "        scratch = [1, 2, 3]\n"
            "        return scratch[0]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_method_without_counters_use_stays_clean(self):
        src = (
            "class A:\n"
            "    def helper(self, i):\n"
            "        lb = self._lb\n"
            "        return lb[i]\n"
        )
        assert analyze_source(src, CORE_PATH) == []


# ----------------------------------------------------------------------
# R004 — float-equality
# ----------------------------------------------------------------------


class TestR004:
    def test_float_literal_equality_fires(self):
        src = "def f(x):\n    return x == 0.5\n"
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R004"]

    def test_float_call_inequality_fires(self):
        src = "def f(x, y):\n    return float(x) != y\n"
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R004"]

    def test_int_equality_clean(self):
        src = "def f(x):\n    return x == 0\n"
        assert analyze_source(src, CORE_PATH) == []

    def test_ordered_comparison_clean(self):
        src = "def f(x):\n    return x <= 0.5\n"
        assert analyze_source(src, CORE_PATH) == []


# ----------------------------------------------------------------------
# R005 — mutable-default-arg
# ----------------------------------------------------------------------


class TestR005:
    def test_list_default_fires(self):
        src = "def f(items=[]):\n    return items\n"
        findings = analyze_source(src, OUTSIDE_PATH)
        assert rule_ids(findings) == ["R005"]

    def test_dict_factory_default_fires(self):
        src = "def f(cfg=dict()):\n    return cfg\n"
        assert rule_ids(analyze_source(src, OUTSIDE_PATH)) == ["R005"]

    def test_none_default_clean(self):
        src = "def f(items=None):\n    return items or []\n"
        assert analyze_source(src, OUTSIDE_PATH) == []


# ----------------------------------------------------------------------
# R006 — no-swallowed-exception
# ----------------------------------------------------------------------


class TestR006:
    def test_bare_except_pass_fires(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except:\n"
            "        pass\n"
        )
        findings = analyze_source(src, OUTSIDE_PATH)
        assert rule_ids(findings) == ["R006"]
        assert "bare except" in findings[0].message

    def test_broad_except_ellipsis_fires(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        ...\n"
        )
        findings = analyze_source(src, OUTSIDE_PATH)
        assert rule_ids(findings) == ["R006"]
        assert "broad except" in findings[0].message

    def test_broad_except_in_tuple_fires(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except (ValueError, Exception):\n"
            "        continue_marker = None\n"
            "        pass\n"
        )
        # A tuple containing Exception is broad, but the body assigns — no
        # swallow, so it's clean; pure pass bodies do fire.
        assert analyze_source(src, OUTSIDE_PATH) == []
        swallowed = src.replace("        continue_marker = None\n", "")
        assert rule_ids(analyze_source(swallowed, OUTSIDE_PATH)) == ["R006"]

    def test_narrow_except_clean(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert analyze_source(src, OUTSIDE_PATH) == []

    def test_handled_broad_except_clean(self):
        src = (
            "def f(log):\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception as exc:\n"
            "        log.add(exc)\n"
        )
        assert analyze_source(src, OUTSIDE_PATH) == []

    def test_reraise_clean(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        assert analyze_source(src, OUTSIDE_PATH) == []

    def test_suppression_comment_respected(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:  # repro: ignore[R006]\n"
            "        pass\n"
        )
        assert analyze_source(src, OUTSIDE_PATH) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------


class TestSuppressions:
    OFFENDING_LINE = "    return np.linalg.norm(x - y)"

    def test_trailing_suppression(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            f"{self.OFFENDING_LINE}  # repro: ignore[R001]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_banner_suppression_covers_next_code_line(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            "    # repro: ignore[R001] — deliberately uncounted\n"
            f"{self.OFFENDING_LINE}\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_bare_ignore_suppresses_all_rules(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            f"{self.OFFENDING_LINE}  # repro: ignore\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            f"{self.OFFENDING_LINE}  # repro: ignore[R005]\n"
        )
        assert rule_ids(analyze_source(src, CORE_PATH)) == ["R001"]

    def test_multiple_rule_ids(self):
        src = (
            "import numpy as np\n"
            "def f(x, y):\n"
            f"{self.OFFENDING_LINE}  # repro: ignore[R001, R004]\n"
        )
        assert analyze_source(src, CORE_PATH) == []

    def test_parse_suppressions_map(self):
        src = "x = 1  # repro: ignore[R001]\ny = 2\n"
        supp = parse_suppressions(src)
        assert supp[1] == frozenset({"R001"})
        assert 2 not in supp


# ----------------------------------------------------------------------
# Baseline round-trip, registry, reporters
# ----------------------------------------------------------------------


def _finding(path="src/repro/core/a.py", rule="R001", snippet="x = bad()"):
    return Finding(path=path, line=3, col=5, rule_id=rule,
                   message="msg", snippet=snippet)


class TestRegistryAndReporters:
    def test_all_rules_registered(self):
        assert ALL_RULE_IDS == (
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R008", "R009", "R010",
        )

    def test_get_rules_subset_and_unknown(self):
        assert [r.rule_id for r in get_rules(["r004"])] == ["R004"]
        with pytest.raises(KeyError):
            get_rules(["R999"])

    def test_text_reporter_mentions_findings(self):
        report = AnalysisReport(findings=[_finding()], files_scanned=1)
        text = format_findings_text(report)
        assert "src/repro/core/a.py:3:5: R001" in text
        assert "1 finding(s)" in text

    def test_json_reporter_is_valid_json(self):
        report = AnalysisReport(findings=[_finding()], files_scanned=1)
        payload = json.loads(format_findings_json(report))
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "R001"

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = analyze_paths([bad], root=tmp_path)
        assert report.parse_errors and report.ok is False
