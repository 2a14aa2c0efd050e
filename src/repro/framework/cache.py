"""Persistent on-disk cache for experiment results.

Full-grid reproduction (4 stacks × 3 CCAs × 4 qdiscs × 3 GSO modes × 20
repetitions) is only practical when completed simulations are reused across
sessions, so every repetition can be stored under a content-addressed key and
served back instead of recomputed.

Keying. Entries are stored per *repetition*: the key hashes the complete
configuration via :meth:`ExperimentConfig.cache_key` (every field, nested
network config included) with ``repetitions`` normalized out, plus the
repetition's derived seed. Normalizing ``repetitions`` means growing a sweep
from 5 to 20 repetitions reuses the first 5 instead of recomputing them — the
per-rep seed already encodes everything rep-specific. A hit is served as the
requesting grid's repetition: the result comes back carrying the config
object it was asked for (``repetitions`` included), so it fingerprints and
stores exactly as a fresh run of that grid would. An entry whose config
differs from the request in anything but ``repetitions`` is a stale entry:
quarantined, counted and treated as a miss.

Layout and robustness. Entries live under ``<root>/<key[:2]>/<key>.pkl``
(``~/.cache/repro`` by default, overridable with ``$REPRO_CACHE_DIR`` or an
explicit root). Each file is a pickle of ``(CACHE_VERSION, result)``; an
entry with a stale version or one that fails to unpickle is *evicted* and
treated as a miss, so format changes and torn writes degrade to
recomputation, never to wrong results. Eviction is never silent: the bad
file is moved to ``<root>/quarantine/`` (not deleted) so a torn write can be
inspected post-hoc, the eviction is counted on :attr:`stats`, and one
warning line goes to the progress ``stream``. Writes go through a temporary
file and ``os.replace`` so concurrent workers can share one cache directory.
Hit/miss/store/eviction counters are kept on :attr:`stats`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO, Union

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import ExperimentResult
from repro.framework.population import PopulationResult

#: Bump whenever the on-disk entry format or ``ExperimentResult`` shape
#: changes incompatibly; older entries are evicted on first touch.
#: v2: ExperimentResult gained injected_drops / impairment_stats.
#: v3: captures are CaptureColumns, not lists of CaptureRecord.
CACHE_VERSION = 3

#: Result types the cache will serve back; anything else in an entry is
#: treated as stale and quarantined.
_RESULT_TYPES = (ExperimentResult, PopulationResult)


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Corrupt/stale entries moved aside to ``<root>/quarantine/`` for
    #: inspection (every eviction is also a quarantine unless the move fails).
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
        }

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores, {self.evictions} evictions"
        )


class ResultCache:
    """Content-addressed store of :class:`ExperimentResult` pickles.

    ``stream`` (e.g. ``sys.stderr``) receives one warning line whenever a
    corrupt or stale entry is quarantined; ``None`` keeps eviction counted
    but quiet.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        version: int = CACHE_VERSION,
        stream: Optional[TextIO] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = version
        self.stream = stream
        self.stats = CacheStats()

    @staticmethod
    def entry_key(config: ExperimentConfig, seed: int) -> str:
        """Per-repetition key: full config (repetitions normalized) + seed."""
        return hashlib.sha256(f"{config.per_rep.cache_key()}/{seed}".encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, config: ExperimentConfig, seed: int) -> Optional[ExperimentResult]:
        """The stored result for (config, seed), or None on miss/stale/corrupt.

        A hit's ``config`` is ``config`` itself, whichever sweep length first
        computed it; its memoized encodings then serve every hit.
        """
        path = self._path(self.entry_key(config, seed))
        try:
            payload = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            version, result = pickle.loads(payload)
            if version != self.version or not isinstance(result, _RESULT_TYPES):
                raise ValueError(f"stale cache entry (version {version!r})")
            if result.config.per_rep != config.per_rep:
                raise ValueError("stale cache entry (computed for another config)")
        except Exception as exc:
            self._evict(path, reason=f"{type(exc).__name__}: {exc}")
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        result.config = config
        return result

    def put(self, config: ExperimentConfig, seed: int, result: ExperimentResult) -> Path:
        """Store one repetition's result atomically; returns the entry path."""
        path = self._path(self.entry_key(config, seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump((self.version, result), handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    def invalidate(self, config: ExperimentConfig, seed: int, reason: str = "invalidated") -> None:
        """Quarantine the entry for (config, seed), e.g. after it failed
        result validation — the next :meth:`get` will miss and recompute."""
        self._evict(self._path(self.entry_key(config, seed)), reason=reason)

    def _evict(self, path: Path, reason: str = "corrupt entry") -> None:
        """Move a bad entry to ``<root>/quarantine/`` (same filesystem, so the
        move is an atomic rename) instead of destroying the evidence."""
        quarantine = self.root / "quarantine" / path.name
        try:
            quarantine.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine)
            self.stats.quarantined += 1
            if self.stream is not None:
                print(
                    f"[cache] warning: quarantined {path.name} -> {quarantine} ({reason})",
                    file=self.stream,
                    flush=True,
                )
        except OSError:
            # Quarantine dir not writable (or the file vanished under us):
            # fall back to plain deletion so the bad entry cannot be re-read.
            try:
                path.unlink()
            except OSError:
                pass
        self.stats.evictions += 1

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, version={self.version}, {self.stats})"
