"""Inline suppression comments: ``# repro: ignore[R001]``.

A suppression applies to findings reported on

* the physical line carrying the comment (trailing comment style), or
* the first following code line, when the comment stands alone (banner
  style for statements that do not fit on one line).

``# repro: ignore`` without a bracket list silences every rule on that line;
``# repro: ignore[R001, R004]`` silences only the listed rules.  The linter
deliberately has no file-level escape hatch — blanket exemptions belong in
the rule's scope definition, not scattered through the tree.

Comments are located with :mod:`tokenize`, not a raw-line regex, so the
marker written inside a string or docstring (as in this very file's
documentation) is never mistaken for a live suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List

#: sentinel meaning "all rules suppressed on this line"
ALL_RULES: FrozenSet[str] = frozenset({"*"})

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)

#: token types that do not count as "code" when resolving a banner target
_NON_CODE_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


@dataclass(frozen=True)
class SuppressionRecord:
    """One suppression comment: where it sits and what it silences.

    ``comment_line`` is the physical line carrying the comment;
    ``target_line`` is the code line the suppression applies to (the same
    line for trailing comments, the next code line for banners).  Used by
    the unused-suppression audit to point at the comment itself, not the
    code it annotates.
    """

    comment_line: int
    target_line: int
    rules: FrozenSet[str]


def _parse_rules(comment_text: str) -> FrozenSet[str]:
    match = _SUPPRESS_RE.search(comment_text)
    if not match:
        return frozenset()
    listed = match.group("rules")
    if listed is None or not listed.strip():
        return ALL_RULES
    return frozenset(
        item.strip().upper() for item in listed.split(",") if item.strip()
    )


def parse_suppression_records(source: str) -> List[SuppressionRecord]:
    """Every suppression comment in ``source``, in order of appearance.

    A banner comment with no following code line (end of file) produces no
    record — it cannot silence anything.  Unparsable source yields no
    records (the runner reports the syntax error separately).
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []
    records: List[SuppressionRecord] = []
    #: banner comments waiting for their first code line
    pending: List[SuppressionRecord] = []
    for token in tokens:
        if token.type == tokenize.COMMENT:
            rules = _parse_rules(token.string)
            if not rules:
                continue
            lineno = token.start[0]
            prefix = token.line[: token.start[1]]
            if prefix.strip():
                # Trailing comment: applies to its own line.
                records.append(SuppressionRecord(lineno, lineno, rules))
            else:
                pending.append(SuppressionRecord(lineno, 0, rules))
        elif pending and token.type not in _NON_CODE_TOKENS:
            target = token.start[0]
            for banner in pending:
                records.append(
                    SuppressionRecord(banner.comment_line, target, banner.rules)
                )
            pending = []
    return records


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule ids suppressed on them."""
    suppressed: Dict[int, FrozenSet[str]] = {}
    for record in parse_suppression_records(source):
        suppressed[record.target_line] = (
            suppressed.get(record.target_line, frozenset()) | record.rules
        )
    return suppressed


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule_id: str
) -> bool:
    """True when ``rule_id`` is silenced on ``line``."""
    rules = suppressions.get(line)
    if not rules:
        return False
    return rules == ALL_RULES or "*" in rules or rule_id.upper() in rules
