"""Crash-resumable orchestration progress: an atomic JSONL journal.

The journal is append-only JSONL — one event object per line, the first
line identifying the plan (journal version + plan fingerprint), every
later line a stage-status transition.  Each append rewrites the whole
file through the same ``tempfile.mkstemp`` + ``os.replace`` discipline
as the executor's record cache, so a reader never sees a torn line: a
crash between appends loses at most the event being written, never the
journal.  Losing a ``completed`` event only means the stage re-runs on
resume — and sweep stages re-run against the per-record JSON cache, so
the retry serves its finished scenarios from disk instead of
recomputing them.  Re-invoking the orchestrator with ``--resume``
replays the journal onto a fresh stage graph (:func:`replay`) and
continues from the first non-completed stage.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import List, Optional

from repro.orchestrator.dag import RUNNING, STATUSES, StageGraph

#: bump when the journal event layout changes
JOURNAL_VERSION = 1


class StateError(RuntimeError):
    """The journal is missing, malformed, or belongs to another plan."""


def plan_fingerprint(payload: dict) -> str:
    """Stable fingerprint of the run-defining part of a plan.

    Hashed over the canonical JSON form, same convention as scenario
    hashes; resuming against a journal whose fingerprint disagrees is
    refused (the journal describes a different run).
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Journal:
    """Atomic append-only JSONL journal of stage-status events."""

    def __init__(self, path: object) -> None:
        self.path = pathlib.Path(path)

    def exists(self) -> bool:
        """Whether a journal file is present at :attr:`path`."""
        return self.path.exists()

    # ------------------------------------------------------------------
    def events(self) -> List[dict]:
        """Every journaled event, in append order (empty if no journal)."""
        if not self.path.exists():
            return []
        try:
            text = self.path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise StateError(
                f"corrupt journal {self.path}: not UTF-8 text: {exc}") from exc
        events = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StateError(
                    f"corrupt journal {self.path} at line {lineno}: {exc}"
                ) from exc
            if not isinstance(event, dict) or "event" not in event:
                raise StateError(
                    f"corrupt journal {self.path} at line {lineno}: "
                    f"not an event object"
                )
            events.append(event)
        return events

    def _append(self, event: dict) -> None:
        events = self.events()
        events.append(dict(event, seq=len(events)))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Unique per-writer tmp + atomic replace (the executor-cache
        # discipline): a crash mid-write leaves the old journal intact.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=f"{self.path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                for entry in events:
                    fh.write(json.dumps(entry, sort_keys=True,
                                        separators=(",", ":")) + "\n")
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def open_run(self, fingerprint: str) -> None:
        """Start a fresh journal for a plan (must not already exist)."""
        if self.exists():
            raise StateError(f"journal {self.path} already exists")
        self._append({
            "event": "plan",
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
        })

    def fingerprint(self) -> Optional[str]:
        """The journaled plan fingerprint (``None`` for no/empty journal)."""
        for event in self.events():
            if event.get("event") == "plan":
                if event.get("version") != JOURNAL_VERSION:
                    raise StateError(
                        f"journal {self.path} has version "
                        f"{event.get('version')!r}, expected "
                        f"{JOURNAL_VERSION}; remove the state dir to start "
                        f"over"
                    )
                return event.get("fingerprint")
        return None

    def check_plan(self, fingerprint: str) -> None:
        """Refuse to resume a journal written by a different plan."""
        recorded = self.fingerprint()
        if recorded is None:
            raise StateError(
                f"journal {self.path} has no plan header; remove the state "
                f"dir to start over"
            )
        if recorded != fingerprint:
            raise StateError(
                f"journal {self.path} was written by a different plan "
                f"(fingerprint {recorded} != {fingerprint}); point state_dir "
                f"somewhere fresh or restore the original config"
            )

    def record_stage(
        self,
        stage: str,
        status: str,
        detail: str = "",
        failures: object = (),
    ) -> None:
        """Append one stage-status transition."""
        if status not in STATUSES:
            raise StateError(f"unknown stage status {status!r}")
        event = {"event": "stage", "stage": stage, "status": status}
        if detail:
            event["detail"] = detail
        failures = list(failures)
        if failures:
            event["failures"] = failures
        self._append(event)


def replay(journal: Journal, graph: StageGraph) -> List[str]:
    """Apply a journal's stage events onto a fresh graph.

    Later events supersede earlier ones (the journal is append-only).
    Stages left ``running`` — the orchestrator died mid-stage — are
    reset to ``not_started`` so resume retries them; the per-record
    cache turns that retry into a cheap top-up.  Returns the names of
    the stages that were reset.
    """
    for event in journal.events():
        if event.get("event") != "stage":
            continue
        name = event.get("stage")
        if name not in graph:
            raise StateError(
                f"journal {journal.path} names unknown stage {name!r}; "
                f"it was written by a different plan shape"
            )
        graph.mark(name, event["status"], detail=event.get("detail", ""),
                   failures=event.get("failures", ()))
    interrupted = [s.name for s in graph.stages if s.status == RUNNING]
    for name in interrupted:
        graph.mark(name, "not_started",
                   detail="reset: interrupted mid-stage (crash recovery)")
    return interrupted


__all__ = [
    "JOURNAL_VERSION",
    "Journal",
    "StateError",
    "plan_fingerprint",
    "replay",
]
