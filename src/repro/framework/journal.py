"""Sweep journal: a checkpoint manifest so interrupted sweeps resume.

One JSON line per finished (or finally-failed) repetition, written alongside
the result cache. The journal answers "which repetitions of *this grid* are
already settled?" — the heavy results themselves live in the
:class:`~repro.framework.cache.ResultCache`; a journal line only records the
outcome, the repetition's derived seed, and (for successes) the result's
``fingerprint()`` so a resumed run can prove bit-identity with the
uninterrupted one. A sweep that writes a
:class:`~repro.framework.store.ResultStore` journals failures only: its
committed rows are the checkpoint of its successes.

Durability. The first update of an invocation writes the header and every
entry known so far through a temporary sibling and ``os.replace``; every
later update appends one line, so a sweep writes O(repetitions) bytes in
total. A kill at any instant loses at most the repetition that was being
recorded, never the file. A repetition recorded twice (a failure, then the
success of a later retry) is two lines, and the last one wins. Loading is
tolerant: undecodable lines (torn by a kill or an unclean filesystem) are
skipped, and a journal whose header names a different grid or format version
is discarded wholesale rather than misapplied.

Resume semantics. On resume, successful repetitions are restored through the
cache (a cache miss simply recomputes — determinism makes that equivalent),
and recorded failures are carried forward verbatim instead of being retried;
pass ``fresh=True`` (CLI ``--no-resume``) to discard the journal and re-run
everything.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.framework.config import ExperimentConfig
from repro.framework.supervision import RepFailure

__all__ = ["JournalEntry", "SweepJournal", "grid_key"]

JOURNAL_VERSION = 1


def grid_key(grid: Mapping[str, ExperimentConfig]) -> str:
    """Content hash identifying a sweep: every name and full config key.

    Unlike the cache's per-repetition keys, ``repetitions`` participates —
    growing a grid is a different sweep (the cache still serves the shared
    prefix; only the journal starts over).
    """
    payload = json.dumps(
        sorted((name, config.cache_key(), config.repetitions) for name, config in grid.items())
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class JournalEntry:
    name: str
    rep: int
    seed: int
    status: str  # "ok" | "failed"
    fingerprint: Optional[str] = None
    failure: Optional[RepFailure] = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "rep": self.rep, "seed": self.seed, "status": self.status}
        if self.fingerprint is not None:
            out["fingerprint"] = self.fingerprint
        if self.failure is not None:
            out["failure"] = self.failure.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JournalEntry":
        failure = data.get("failure")
        return cls(
            name=data["name"],
            rep=int(data["rep"]),
            seed=int(data["seed"]),
            status=data["status"],
            fingerprint=data.get("fingerprint"),
            failure=RepFailure.from_dict(failure) if failure else None,
        )


class SweepJournal:
    """Append-only JSONL manifest of settled repetitions for one grid."""

    def __init__(self, path: Union[str, Path], key: str, stream=None):
        self.path = Path(path)
        self.key = key
        self.stream = stream
        self._entries: Dict[Tuple[str, int], JournalEntry] = {}
        #: Entries present when the journal was opened (resume candidates),
        #: as opposed to ones recorded by the current run.
        self.resumed_entries = 0
        #: Torn/undecodable lines skipped while loading (those reps re-run).
        self.skipped_lines = 0
        #: Whether this object has written the file (header included), so
        #: further entries are appended to it.
        self._appending = False

    @classmethod
    def for_grid(
        cls,
        directory: Union[str, Path],
        grid: Mapping[str, ExperimentConfig],
        fresh: bool = False,
        stream=None,
        shard: Tuple[int, int] = (0, 1),
    ) -> "SweepJournal":
        """Open (or start) the journal for ``grid`` under ``directory``.

        Each shard of a split campaign (``shard=(i, n)``, ``n > 1``) gets a
        file of its own: the first write of an invocation replaces the file
        with the entries that invocation knows, so two shards sharing a cache
        directory must never share a journal.
        """
        key = grid_key(grid)
        index, count = shard
        stem = key[:16] if count == 1 else f"{key[:16]}.shard-{index}-of-{count}"
        journal = cls(Path(directory) / f"{stem}.jsonl", key, stream=stream)
        if fresh:
            journal._discard()
        else:
            journal._load()
        return journal

    # -- persistence -------------------------------------------------------

    def _discard(self) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except OSError:
            return
        lines = text.splitlines()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return
        if header.get("journal") != JOURNAL_VERSION or header.get("grid_key") != self.key:
            # A different grid or format hashed to this path (or the file
            # predates a format change): start over rather than misapply it.
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                entry = JournalEntry.from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.skipped_lines += 1
                continue  # torn tail line: the rep simply re-runs
            self._entries[(entry.name, entry.rep)] = entry
        self.resumed_entries = len(self._entries)
        if self.skipped_lines:
            # A SIGKILL mid-append can tear the final line; resume must
            # survive that, losing only the torn repetition(s).
            print(
                f"[journal] warning: skipped {self.skipped_lines} torn/undecodable "
                f"line(s) in {self.path}; the affected repetition(s) will re-run",
                file=self.stream if self.stream is not None else sys.stderr,
                flush=True,
            )

    def _append(self, entry: JournalEntry) -> None:
        """Persist ``entry`` (already in ``_entries``) as one more line.

        The first write of this object replaces the file atomically with the
        header and every entry known so far: that starts a new journal,
        supersedes one for another grid or format, and compacts a resumed one
        (dropping superseded and torn lines, so the tail is a whole line
        again). Every later write appends a single line.
        """
        if self._appending:
            with open(self.path, "a") as handle:
                handle.write(json.dumps(entry.as_dict()) + "\n")
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps({"journal": JOURNAL_VERSION, "grid_key": self.key})]
        lines.extend(json.dumps(e.as_dict()) for e in self._entries.values())
        fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._appending = True

    # -- recording ---------------------------------------------------------

    def get(self, name: str, rep: int) -> Optional[JournalEntry]:
        return self._entries.get((name, rep))

    def __len__(self) -> int:
        return len(self._entries)

    def record_success(self, name: str, rep: int, seed: int, fingerprint: str) -> None:
        entry = JournalEntry(name=name, rep=rep, seed=seed, status="ok", fingerprint=fingerprint)
        existing = self._entries.get((name, rep))
        if existing == entry:
            return  # e.g. a cache hit re-confirming a journaled rep
        self._entries[(name, rep)] = entry
        self._append(entry)

    def record_failure(self, failure: RepFailure) -> None:
        entry = JournalEntry(
            name=failure.name,
            rep=failure.rep,
            seed=failure.seed,
            status="failed",
            failure=failure,
        )
        self._entries[(failure.name, failure.rep)] = entry
        self._append(entry)
