"""The analyzer's own acceptance gate: the shipped tree is clean.

Runs the full rule set over ``src/`` exactly as ``python -m repro lint src``
does and asserts zero findings and zero unused suppressions, so a
regression in the instrumentation contract fails tier-1, not just CI lint.
"""

from pathlib import Path

from repro.analysis import analyze_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def test_src_tree_has_no_unbaselined_findings():
    report = analyze_paths([SRC], root=REPO_ROOT)
    assert report.files_scanned > 50
    details = "\n".join(f.format() for f in report.findings)
    assert report.parse_errors == []
    assert not report.findings, f"findings:\n{details}"


def test_src_tree_has_no_unused_suppressions():
    # Every ``# repro: ignore[...]`` in the tree must still silence a
    # live finding; `repro lint` fails on a stale one.
    report = analyze_paths([SRC], root=REPO_ROOT)
    stale = "\n".join(u.format() for u in report.unused_suppressions)
    assert report.unused_suppressions == [], f"stale suppressions:\n{stale}"
    assert report.suppressed > 0  # justified suppressions exist and are used


def test_lint_cli_exits_zero_on_clean_tree(capsys):
    import os

    from repro.cli import main

    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        exit_code = main(["lint", "src"])
    finally:
        os.chdir(cwd)
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
