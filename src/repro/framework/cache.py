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
object it was asked for (``repetitions`` included). An entry whose config
differs from the request in anything but ``repetitions`` is a stale entry:
quarantined, counted and treated as a miss.

Fingerprints. A result is digested once, when it is computed: the entry
stores its ``fingerprint()`` beside it, and every hit serves that stored
digest, whichever sweep length asks. The fingerprint is behaviour (the seed
and the outputs, never the config), so a hit of a shorter sweep is the
longer sweep's repetition as it stands: a warm or grown sweep digests no hit.

Layout and robustness. Entries live under ``<root>/<key[:2]>/<key>.pkl``
(``~/.cache/repro`` by default, overridable with ``$REPRO_CACHE_DIR`` or an
explicit root). Each file is one header line followed by the pickled result::

    repro-cache <CACHE_VERSION> <digest> <fingerprint>\\n<pickle>

where ``<digest>`` is the sha256 of every byte after it, so it binds the
stored fingerprint to the bytes it is served with. A
:class:`~repro.framework.store.ResultStore` row keeps its result in the same
format (pickled without its config, then the per-repetition config's pickle)
and reads it with the same :func:`_unpack`. An entry of another
format or version, with a digest mismatch, that fails to unpickle, or that
:meth:`ResultCache.get`'s ``validate`` rejects is *evicted* and treated as a
miss, so format changes and torn or flipped bytes degrade to recomputation,
never to wrong results. Eviction is never silent: the bad file is moved to
``<root>/quarantine/`` (not deleted) so a torn write can be inspected
post-hoc, the eviction is counted on :attr:`stats`, and one warning line goes
to the progress ``stream``. Writes go through a temporary file and
``os.replace`` so concurrent workers can share one cache directory.
Hit/miss/store/eviction counters are kept on :attr:`stats`.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, TextIO, Tuple, Union

from repro.framework.config import ExperimentConfig
from repro.framework.experiment import ExperimentResult
from repro.framework.population import PopulationResult

#: Bump whenever the on-disk entry format, the ``ExperimentResult`` shape or
#: the byte encoding ``fingerprint()`` hashes changes incompatibly; older
#: entries are evicted on first touch.
#: v2: ExperimentResult gained injected_drops / impairment_stats.
#: v3: captures are CaptureColumns, not lists of CaptureRecord.
#: v4: a header line with the result's fingerprint, its config encoding and a
#: sha256 over both and the pickle, instead of a pickled ``(version, result)``.
#: v5: the fingerprint no longer covers the config, and the header no longer
#: names the config encoding.
#: v6: a pickled config carries its ``params`` instead of five override fields.
#: v7: a multi-flow run's flow 0 has the single-flow ports and RNG streams (its
#: digests moved), and a ``FlowResult`` carries the flow's own outputs.
#: v8: the expected-send log is a columnar ``SendLog``, not a list of tuples.
CACHE_VERSION = 8

#: Result types the cache will serve back; anything else in an entry is
#: treated as stale and quarantined.
_RESULT_TYPES = (ExperimentResult, PopulationResult)

_MAGIC = b"repro-cache"


def _pack(version: int, fingerprint: str, body: bytes) -> bytes:
    """One entry file: the header line, then ``body`` (the pickled result)."""
    rest = f"{fingerprint}\n".encode() + body
    return b"%s %d %s %s" % (_MAGIC, version, hashlib.sha256(rest).hexdigest().encode(), rest)


def _unpack(payload: bytes, version: int, bind: bool = False) -> Tuple[Any, str]:
    """``(result, fingerprint)`` of one entry file; raises ``ValueError`` on a
    file of another format or version or a digest mismatch, before anything
    is unpickled. ``pickle.loads`` stops at the result's end, so bytes after
    it (a store row's config pickle) are read only with ``bind``, which binds
    them to the result as its config."""
    fields = payload[: payload.find(b"\n")].split(b" ")
    if fields[0] != _MAGIC or len(fields) < 2:
        raise ValueError("stale cache entry (no repro-cache header)")
    if fields[1] != b"%d" % version or len(fields) != 4:
        raise ValueError(f"stale cache entry (version {fields[1].decode(errors='replace')})")
    view = memoryview(payload)
    # The digest covers everything after "<magic> <version> <digest> ".
    signed = len(_MAGIC) + len(fields[1]) + len(fields[2]) + 3
    if hashlib.sha256(view[signed:]).hexdigest().encode() != fields[2]:
        raise ValueError("corrupt cache entry (digest mismatch)")
    body = view[payload.index(b"\n") + 1 :]
    if bind:
        stream = io.BytesIO(body)
        result = pickle.load(stream)
        result.config = pickle.load(stream)
    else:
        result = pickle.loads(body)
    if not isinstance(result, _RESULT_TYPES):
        raise ValueError(f"stale cache entry (holds a {type(result).__name__})")
    return result, fields[3].decode()


class CacheHit(NamedTuple):
    """A result read from the cache, with its fingerprint."""

    result: Union[ExperimentResult, PopulationResult]
    #: ``result.fingerprint()`` as stored with the entry.
    fingerprint: str


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

    def get(
        self,
        config: ExperimentConfig,
        seed: int,
        validate: Optional[Callable[[Any], None]] = None,
    ) -> Optional[CacheHit]:
        """The stored result for (config, seed), or None on miss/stale/corrupt.

        A hit's ``config`` is ``config`` itself, whichever sweep length first
        computed it; its memoized encodings then serve every hit. The stored
        fingerprint comes with it. ``validate`` (e.g.
        :func:`~repro.framework.validate.validate_result`) runs on the result
        before it is served: an entry it rejects is quarantined and counted
        as a miss, like a torn one.
        """
        path = self._path(self.entry_key(config, seed))
        try:
            payload = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            result, fingerprint = _unpack(payload, self.version)
            if result.config.per_rep != config.per_rep:
                raise ValueError("stale cache entry (computed for another config)")
            result.config = config
            if validate is not None:
                validate(result)
        except Exception as exc:
            self._evict(path, reason=f"{type(exc).__name__}: {exc}")
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return CacheHit(result, fingerprint)

    def read(self, path: Union[str, Path]) -> CacheHit:
        """One entry file as stored: its result, carrying the config it was
        computed for, and that result's fingerprint. Raises on an entry
        :meth:`get` would quarantine for its format, version, digest or
        contents; nothing is moved or counted."""
        return CacheHit(*_unpack(Path(path).read_bytes(), self.version))

    def put(
        self, config: ExperimentConfig, seed: int, result: ExperimentResult, fingerprint: str
    ) -> Path:
        """Store one repetition's result with its ``fingerprint()``
        atomically; returns the entry path."""
        path = self._path(self.entry_key(config, seed))
        body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        entry = _pack(self.version, fingerprint, body)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(entry)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    def _evict(self, path: Path, reason: str) -> None:
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
