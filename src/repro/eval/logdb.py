"""Evaluation-log store: the offline record UTune learns from.

The paper trains its selector "based on our evaluation data ... using the
offline evaluation logs" (Section 6).  :class:`EvaluationLog` is that
artifact: an append-only JSONL-backed store of harness records with query
and aggregation helpers, so long benchmark campaigns accumulate across
runs and training data generation can reuse them instead of re-timing.

The log is also the harness's *checkpoint*: every record carrying the run
key fields ``(algorithm, dataset, n, d, k, seed, max_iter)`` is indexed,
failed cells (``status="failed"``, see :class:`repro.eval.runtime.FailedRun`)
are tracked separately, and a resumed campaign consults
:meth:`completed_keys` to skip work already banked.  Appends are atomic at
line granularity (flush+fsync per batch); a crash mid-append leaves at
worst one truncated final line, which loading quarantines instead of
raising — see ``docs/robustness.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Union

from repro.common import FAILED_STATUS
from repro.datasets.loaders import append_jsonl, read_jsonl
from repro.eval.harness import RunRecord
from repro.eval.runtime import FailedRun, RunKey, is_failed_record

PathLike = Union[str, Path]

Recordable = Union[RunRecord, FailedRun, Dict[str, Any]]


class EvaluationLog:
    """Append-only store of run records with querying and a resume index."""

    def __init__(self, path: Optional[PathLike] = None, *,
                 truncated: str = "quarantine") -> None:
        self.path = Path(path) if path is not None else None
        self._records: List[Dict[str, Any]] = []
        #: run key -> "ok" | "failed"; a success wins over any failure
        self._statuses: Dict[RunKey, str] = {}
        if self.path is not None:
            # repair=True drops the crash artifact from the file itself, so
            # subsequent appends extend a clean log.
            self._records = read_jsonl(self.path, truncated=truncated, repair=True)
        for record in self._records:
            self._index(record)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Writing.
    # ------------------------------------------------------------------

    def add(self, record: Recordable, **context: Any) -> None:
        """Append one record (RunRecord, FailedRun, or plain dict) with
        extra context keys (dataset name, seed, ...)."""
        data = record.as_dict() if isinstance(record, (RunRecord, FailedRun)) else dict(record)
        data.update(context)
        self._records.append(data)
        self._index(data)
        if self.path is not None:
            append_jsonl(self.path, [data])

    def add_many(self, records: Iterable[Recordable], **context: Any) -> int:
        count = 0
        for record in records:
            self.add(record, **context)
            count += 1
        return count

    def _index(self, record: Dict[str, Any]) -> None:
        key = RunKey.from_record(record)
        if key is None:
            return
        status = FAILED_STATUS if is_failed_record(record) else "ok"
        if status == "ok" or self._statuses.get(key) != "ok":
            self._statuses[key] = status

    # ------------------------------------------------------------------
    # Checkpoint / resume index.
    # ------------------------------------------------------------------

    def completed_keys(self) -> Set[RunKey]:
        """Run keys with at least one successful record — resume skips these."""
        return {key for key, status in self._statuses.items() if status == "ok"}

    def failed_keys(self) -> Set[RunKey]:
        """Run keys with failures and no success — resume re-runs these."""
        return {key for key, status in self._statuses.items() if status == FAILED_STATUS}

    def has_completed(self, key: RunKey) -> bool:
        return self._statuses.get(key) == "ok"

    def latest_success(self, key: RunKey) -> Optional[Dict[str, Any]]:
        """The most recent successful record for ``key``, if any."""
        for record in reversed(self._records):
            if not is_failed_record(record) and RunKey.from_record(record) == key:
                return dict(record)
        return None

    def successes(self) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._records if not is_failed_record(r)]

    def failures(self) -> List[Dict[str, Any]]:
        return [dict(r) for r in self._records if is_failed_record(r)]

    # ------------------------------------------------------------------
    # Querying.
    # ------------------------------------------------------------------

    def query(self, **filters: Any) -> List[Dict[str, Any]]:
        """Records whose fields equal every filter value.

        Callable filter values act as predicates:
        ``log.query(k=lambda k: k >= 100)``.

        Null vs. missing is explicit: a record *missing* a filtered field
        never matches, while ``field=None`` matches records whose field is
        present with an explicit null.  Predicates likewise see every
        present value — including ``None`` — and never run on missing
        fields.  (Historically both cases were conflated through
        ``record.get``, so ``status=None`` silently matched every record
        without a ``status`` field.)
        """
        out = []
        for record in self._records:
            ok = True
            for key, expected in filters.items():
                if key not in record:
                    ok = False
                    break
                actual = record[key]
                if callable(expected):
                    if not expected(actual):
                        ok = False
                        break
                elif actual != expected:
                    ok = False
                    break
            if ok:
                out.append(dict(record))
        return out

    def algorithms(self) -> List[str]:
        return sorted({r.get("algorithm", "?") for r in self._records})

    def mean(self, field: str, **filters: Any) -> float:
        """Mean of a numeric field over matching records (failures carry no
        metric fields, so they drop out naturally)."""
        values = [r[field] for r in self.query(**filters) if field in r]
        if not values:
            raise KeyError(f"no records with field {field!r} match {filters}")
        return float(sum(values) / len(values))

    def best(
        self, field: str = "total_time", *, minimize: bool = True, **filters: Any
    ) -> Dict[str, Any]:
        """The matching record with the extreme value of ``field``."""
        matching = [r for r in self.query(**filters) if field in r]
        if not matching:
            raise KeyError(f"no records with field {field!r} match {filters}")
        chooser: Callable = min if minimize else max
        return chooser(matching, key=lambda r: r[field])
