"""The :class:`Finding` record emitted by every analysis rule."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict


def statement_content_hash(snippet: str) -> str:
    """Whitespace-insensitive content hash of a flagged statement.

    SARIF's ``partialFingerprints`` key findings by this hash rather than
    by line number, so unrelated edits above an offender — or a re-indent
    of the offender itself — keep its code-scanning alert identity.
    """
    normalized = "".join(snippet.split())
    return hashlib.sha256(normalized.encode()).hexdigest()[:16]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored repo-relative (posix separators) so findings are
    stable across machines; ``snippet`` is the stripped source line whose
    content hash is the location-insensitive identity SARIF reports (line
    numbers drift under unrelated edits, the offending code itself rarely
    does).
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    snippet: str = ""

    @property
    def content_hash(self) -> str:
        return statement_content_hash(self.snippet)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "snippet": self.snippet,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
