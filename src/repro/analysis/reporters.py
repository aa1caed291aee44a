"""Text, JSON, and SARIF rendering of analysis reports."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List

from repro.analysis.rules import RULES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.runner import AnalysisReport

#: tool identity stamped into SARIF output
SARIF_TOOL_NAME = "repro-lint"
SARIF_TOOL_VERSION = "2.0.0"
SARIF_INFO_URI = "https://github.com/repro/repro/blob/main/docs/static_analysis.md"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"

#: partialFingerprints key carrying the statement content hash
SARIF_FINGERPRINT_KEY = "reproStatementHash/v1"


def format_findings_text(report: "AnalysisReport") -> str:
    """Human-oriented report: one line per finding plus a summary."""
    lines = []
    for finding in report.findings:
        lines.append(finding.format())
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    for error in report.parse_errors:
        lines.append(f"{error} [parse-error]")
    for unused in report.unused_suppressions:
        lines.append(unused.format())
    summary = (
        f"{len(report.findings)} finding(s) in {report.files_scanned} file(s)"
        f" ({report.suppressed} suppressed)"
    )
    if report.unused_suppressions:
        summary += f", {len(report.unused_suppressions)} unused suppression(s)"
    lines.append(summary)
    return "\n".join(lines)


def format_findings_json(report: "AnalysisReport") -> str:
    """Machine-oriented report mirroring the text output."""
    payload = {
        "findings": [finding.as_dict() for finding in report.findings],
        "parse_errors": list(report.parse_errors),
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed,
        "unused_suppressions": [
            {
                "path": unused.path,
                "comment_line": unused.comment_line,
                "target_line": unused.target_line,
                "rules": list(unused.rule_ids),
            }
            for unused in report.unused_suppressions
        ],
        "rules": {
            rule_id: {"name": cls.name, "description": cls.description}
            for rule_id, cls in sorted(RULES.items())
        },
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2)


def format_findings_sarif(report: "AnalysisReport") -> str:
    """SARIF 2.1.0 — the interchange format GitHub code scanning ingests.

    Every registered rule is described in the tool driver (so the
    code-scanning UI can render rule help even for rules with no current
    findings); results carry the statement content hash as a
    ``partialFingerprints`` entry, which keeps alert identity stable
    across line drift.
    """
    rule_ids = sorted(RULES)
    rule_index: Dict[str, int] = {rid: i for i, rid in enumerate(rule_ids)}
    rules_payload = [
        {
            "id": rule_id,
            "name": RULES[rule_id].name,
            "shortDescription": {"text": RULES[rule_id].description},
            "helpUri": SARIF_INFO_URI,
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id in rule_ids
    ]
    results: List[Dict] = []
    for finding in report.findings:
        result: Dict = {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index.get(finding.rule_id, -1),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
            "partialFingerprints": {
                SARIF_FINGERPRINT_KEY: finding.content_hash,
            },
        }
        if finding.snippet:
            result["locations"][0]["physicalLocation"]["region"]["snippet"] = {
                "text": finding.snippet
            }
        results.append(result)
    notifications = [
        {
            "level": "error",
            "message": {"text": error},
        }
        for error in report.parse_errors
    ]
    run: Dict = {
        "tool": {
            "driver": {
                "name": SARIF_TOOL_NAME,
                "version": SARIF_TOOL_VERSION,
                "informationUri": SARIF_INFO_URI,
                "rules": rules_payload,
            }
        },
        "results": results,
        "columnKind": "unicodeCodePoints",
        "invocations": [
            {
                "executionSuccessful": not report.parse_errors,
                "toolExecutionNotifications": notifications,
            }
        ],
    }
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [run],
    }
    return json.dumps(payload, indent=2)
