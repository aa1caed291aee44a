"""SARIF reporter: golden output, schema shape, docs/rule-table parity.

The golden file pins the exact SARIF 2.1.0 document produced for a fixed
report — regenerate with ``python tests/golden/generate_sarif.py`` after a
deliberate format change.  The docs-parity test is what the CI ``lint``
job runs to fail the build when ``ALL_RULE_IDS`` and the rule table in
``docs/static_analysis.md`` drift apart.
"""

import json
import re
from pathlib import Path

from repro.analysis import ALL_RULE_IDS, format_findings_sarif
from repro.analysis.findings import Finding
from repro.analysis.runner import AnalysisReport

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "sarif_report.json"


def fixed_report() -> AnalysisReport:
    """The frozen input behind the golden file (keep in sync with
    ``tests/golden/generate_sarif.py``)."""
    return AnalysisReport(
        findings=[
            Finding(
                path="src/repro/core/sample.py",
                line=12,
                col=5,
                rule_id="R001",
                message="distance computed outside the instrumented kernels",
                snippet="d = np.linalg.norm(a - b)",
            ),
            Finding(
                path="src/repro/eval/sample.py",
                line=7,
                col=1,
                rule_id="R007",
                message="'worker' mutates module-global state",
                snippet="TOTALS[key] = value",
            ),
        ],
        files_scanned=2,
        parse_errors=["src/repro/broken.py:3: invalid syntax"],
    )


class TestSarifGolden:
    def test_matches_golden_document(self):
        produced = json.loads(format_findings_sarif(fixed_report()))
        golden = json.loads(GOLDEN.read_text())
        assert produced == golden

    def test_is_deterministic(self):
        assert format_findings_sarif(fixed_report()) == format_findings_sarif(
            fixed_report()
        )


class TestSarifShape:
    def test_schema_and_version(self):
        doc = json.loads(format_findings_sarif(AnalysisReport()))
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert len(doc["runs"]) == 1

    def test_every_rule_described_even_without_findings(self):
        doc = json.loads(format_findings_sarif(AnalysisReport()))
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert tuple(r["id"] for r in driver["rules"]) == ALL_RULE_IDS
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["invocations"][0]["executionSuccessful"] is True

    def test_results_carry_fingerprint_and_location(self):
        doc = json.loads(format_findings_sarif(fixed_report()))
        run = doc["runs"][0]
        assert run["invocations"][0]["executionSuccessful"] is False
        result = run["results"][0]
        assert result["ruleId"] == "R001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/sample.py"
        assert location["region"]["startLine"] == 12
        fingerprint = result["partialFingerprints"]["reproStatementHash/v1"]
        assert fingerprint == fixed_report().findings[0].content_hash
        # ruleIndex points back into the driver's rules array.
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "R001"


class TestDocsRuleTableParity:
    def test_docs_table_lists_exactly_the_registered_rules(self):
        docs = (REPO_ROOT / "docs" / "static_analysis.md").read_text()
        documented = set()
        for line in docs.splitlines():
            match = re.match(r"\|\s*(R\d{3})\s*\|", line)
            if match:
                documented.add(match.group(1))
        assert documented == set(ALL_RULE_IDS), (
            "docs/static_analysis.md rule table out of sync with "
            f"ALL_RULE_IDS: docs={sorted(documented)} "
            f"registered={list(ALL_RULE_IDS)}"
        )
