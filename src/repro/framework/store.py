"""Queryable columnar result store: one SQLite row per settled repetition.

Campaign-scale sweeps (stacks × CCAs × qdiscs × pacing × impairments × seeds
is 10^4-10^6 repetitions) outgrow per-repetition JSON files: answering "p99
goodput of quiche/fq under burst loss" must be one SQL query, not a walk over
a hundred thousand files. The store is the canonical artifact a sweep streams
settled repetitions into; a JSON artifact is an *export* of its rows,
byte-for-byte what :func:`repro.framework.artifacts.save_summary` writes for
the same run.

Layout. One ``reps`` row per repetition: the per-repetition config key
(``config.per_rep.cache_key()``, the normalization the
:class:`~repro.framework.cache.ResultCache` uses), seed, the result's
behaviour digest ``fingerprint()``, the queryable scalars (goodput, drops,
gap/train/precision metrics) as real columns, and one ``result`` blob that
holds the repetition whole. ``precision_ns`` is NULL exactly when the result
does not measure it (no expected-send log). Failed repetitions land in a
``failures`` table mirroring :class:`~repro.framework.supervision.RepFailure`,
and a ``campaigns`` row records each ``(grid_key, shard)`` a sweep ran into
the store.

The blob is the repetition's cache entry: the
:class:`~repro.framework.cache.ResultCache` entry header (fingerprint, and a
sha256 over it and the rest), the result pickled without its config, then the
per-repetition config's pickle (``repetitions`` normalized to 1, so one
repetition has one blob whichever sweep length computed it).
:meth:`ResultStore.served` reads one grid entry's rows in one ``SELECT`` and
serves those that are the request's repetition, checked as a cache hit is
(digest, unpickle, validation); it unpickles the result alone and binds the
requesting config, so a sweep over its own store opens no cache file and
writes nothing, and a sweep grown from 3 to 20 repetitions simulates only the
17 it lacks. The same ``SELECT``
returns the failures recorded for the request's repetitions, which a resumed
sweep carries forward. A row whose blob fails those checks is deleted,
counted on :attr:`ResultStore.evictions` and reported on ``stream``. An
export (:meth:`ResultStore.payloads`) unpickles the config too and renders
:func:`~repro.framework.artifacts.rep_to_dict` of the result.

Identity and idempotence. Identity is the key: rows are keyed
``(config_key, seed)``, and every column is a function of the result's
behaviour digest plus ``(name, label, rep)``. No column depends on the sweep
length, so a grown store holds the rows and exports the JSON of a fresh one.
:meth:`ResultStore.record_result` is the only writer of rows. It first looks
the key up: a row with the same name, label, rep and fingerprint and no
failure beside it is already the row the record would write, and is kept
without a write. Anything else is written with ``INSERT OR REPLACE``; a row
of another fingerprint is replaced with a warning on ``stream`` (a
determinism regression). So re-recording a repetition — a cache hit
confirming its row, a migration — is a no-op rather than a duplicate, and an
interrupted-then-resumed campaign converges to a store *bit-identical* in
content to an uninterrupted one (:meth:`ResultStore.content_fingerprint`; the
chaos suite pins this). A success supersedes a failure for the same key,
whichever is recorded first.

Commits. Each write is its own transaction, committed (and fsynced) before
the call returns, unless it runs inside :meth:`ResultStore.batch`: then the
block's writes share one commit at its end, and a block that wrote nothing
commits nothing. A sweep batches one grid entry's cache hits, so a grid
entry whose rows are all present commits nothing; cache migration batches
its source. A sweep's new campaign row rides its first write. A crash inside
a batch loses at most that batch's rows, which a resume records again.

Versioning. The schema version lives in SQLite's ``user_version`` pragma. A
store of any other version is refused on open, and left as it is: a store is
never upgraded, because its rows are pure functions of ``(config, seed)``
that a sweep into a new store recomputes. :meth:`ResultStore.migrate_cache`
records every readable entry of a
:class:`~repro.framework.cache.ResultCache` directory. Deliberately *not*
stored in a column: wall-clock times, host names, or any other
nondeterministic execution detail — equal campaigns must produce equal stores
regardless of backend, worker count, or interruption history. (The blob, like
a cache entry, keeps the result whole, its wall time included; it is outside
the content fingerprint.)
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import json
import pickle
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple, Union,
)

import sqlite3

from repro.errors import ConfigError
from repro.framework.artifacts import rep_to_dict
from repro.framework.cache import CACHE_VERSION, ResultCache, _pack, _unpack
from repro.framework.supervision import RepFailure
from repro.metrics.gaps import Distribution
from repro.metrics.precision import pacing_precision_ns
from repro.metrics.stats import summarize
from repro.net.impairments import ImpairmentSpec
from repro.sim.random import derive_seed

__all__ = ["STORE_VERSION", "ResultStore", "grid_key"]

#: Bump on any incompatible change to the schema or the blob; a store of
#: another version is refused on open, never misread or upgraded.
#: v4: one ``result`` blob per row (the JSON payload column went) that also
#: holds the config, so every row can render its export.
#: v5: the fingerprint is the behaviour digest (no config), and the blob holds
#: the per-repetition config.
#: v6: a blob's config carries its ``params`` instead of five override fields.
#: v7: multi-flow digests moved (flow 0 has the single-flow ports and RNG
#: streams), and a ``FlowResult`` carries the flow's own outputs.
#: v8: a blob's expected-send log is a columnar ``SendLog``.
#: v9: every digest is a run's, its frames folded at the tap (``wire_digest``).
STORE_VERSION = 9

#: Bounded retry for writes that race a concurrent reader/writer: SQLite's
#: own ``busy_timeout`` handles in-transaction lock waits, this handles the
#: "database is locked" that still escapes (e.g. a reader holding the lock
#: longer than the timeout). Total worst-case wait ≈ 3 s on top of the
#: per-attempt busy timeout.
_LOCK_RETRIES = 6
_LOCK_RETRY_BASE_S = 0.05
_BUSY_TIMEOUT_MS = 5_000

#: Columns exposed to ``query``/``aggregate`` as filterable/aggregatable.
FILTER_COLUMNS = ("name", "label", "kind", "stack", "cca", "qdisc", "gso")
METRIC_COLUMNS = (
    "goodput_mbps",
    "dropped",
    "injected_drops",
    "duration_ns",
    "packets_on_wire",
    "b2b_share",
    "trains_leq5_share",
    "precision_ns",
    "flows",
    "completed_flows",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS reps (
    config_key          TEXT    NOT NULL,
    seed                INTEGER NOT NULL,
    name                TEXT    NOT NULL,
    label               TEXT    NOT NULL,
    kind                TEXT    NOT NULL,
    rep                 INTEGER NOT NULL,
    fingerprint         TEXT    NOT NULL,
    completed           INTEGER NOT NULL,
    duration_ns         INTEGER NOT NULL,
    stack               TEXT,
    cca                 TEXT,
    qdisc               TEXT,
    gso                 TEXT,
    impairments         TEXT    NOT NULL DEFAULT '',
    goodput_mbps        REAL    NOT NULL,
    dropped             INTEGER NOT NULL,
    injected_drops      INTEGER NOT NULL,
    packets_on_wire     INTEGER,
    gap_count           INTEGER,
    b2b_count           INTEGER,
    b2b_share           REAL,
    train_packets       INTEGER,
    trains_leq5_packets INTEGER,
    trains_leq5_share   REAL,
    precision_ns        REAL,
    flows               INTEGER,
    completed_flows     INTEGER,
    result              BLOB    NOT NULL,
    PRIMARY KEY (config_key, seed)
);
CREATE INDEX IF NOT EXISTS reps_by_name  ON reps (name, rep);
CREATE INDEX IF NOT EXISTS reps_by_shape ON reps (stack, cca, qdisc, gso);
CREATE TABLE IF NOT EXISTS failures (
    config_key  TEXT    NOT NULL,
    seed        INTEGER NOT NULL,
    name        TEXT    NOT NULL,
    label       TEXT    NOT NULL,
    rep         INTEGER NOT NULL,
    error_type  TEXT    NOT NULL,
    message     TEXT    NOT NULL,
    traceback   TEXT    NOT NULL,
    attempts    INTEGER NOT NULL,
    wall_time_s REAL    NOT NULL,
    quarantined INTEGER NOT NULL,
    PRIMARY KEY (config_key, seed)
);
-- One row per ``(grid_key, shard)`` a sweep ran into the store.
CREATE TABLE IF NOT EXISTS campaigns (
    grid_key    TEXT    NOT NULL,
    shard_index INTEGER NOT NULL,
    shard_count INTEGER NOT NULL,
    PRIMARY KEY (grid_key, shard_index, shard_count)
);
"""

#: The ``reps`` columns :meth:`ResultStore.content_fingerprint` digests:
#: every one but the blob.
_SCALARS = (
    "config_key, seed, name, label, kind, rep, fingerprint, completed, duration_ns, stack, cca,"
    " qdisc, gso, impairments, goodput_mbps, dropped, injected_drops, packets_on_wire,"
    " gap_count, b2b_count, b2b_share, train_packets, trains_leq5_packets, trains_leq5_share,"
    " precision_ns, flows, completed_flows"
)


def grid_key(grid: Mapping[str, Any]) -> str:
    """Content hash identifying a sweep: every name and full config key.

    Unlike the per-repetition keys, ``repetitions`` participates: growing a
    grid makes another campaign.
    """
    payload = json.dumps(
        sorted((name, config.cache_key(), config.repetitions) for name, config in grid.items())
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _impairments_slug(network: Dict[str, Any]) -> str:
    """Comma-joined impairment slugs (reverse-path prefixed ``r-``)."""
    slugs = []
    for spec in network.get("forward_impairments", ()) or ():
        slugs.append(ImpairmentSpec(**dict(spec)).slug)
    for spec in network.get("reverse_impairments", ()) or ():
        slugs.append("r-" + ImpairmentSpec(**dict(spec)).slug)
    return ",".join(slugs)


def _db_seed(seed: int) -> int:
    """Two's-complement view of a 64-bit seed (SQLite INTEGER is signed).

    :func:`~repro.sim.random.derive_seed` mixes into the full unsigned
    64-bit range; the top half would overflow SQLite's signed INTEGER, so
    seeds are stored as their signed reinterpretation and mapped back on
    read. The mapping is a bijection, so key identity is preserved.
    """
    return seed - (1 << 64) if seed >= (1 << 63) else seed


def _from_db_seed(value: int) -> int:
    return value + (1 << 64) if value < 0 else value


def _failure_from_row(row: sqlite3.Row) -> RepFailure:
    """The :class:`RepFailure` a ``failures`` row records."""
    fields = {field: row[field] for field in RepFailure.__dataclass_fields__}
    fields.update(seed=_from_db_seed(row["seed"]), quarantined=bool(row["quarantined"]))
    return RepFailure(**fields)


def _refusal(path, version: int) -> ConfigError:
    """The error for a store of another schema version than this build's."""
    if version > STORE_VERSION:
        why = f"newer than this build's {STORE_VERSION}; refusing to misread it"
    else:
        why = (
            f"not this build's {STORE_VERSION}; a store is never upgraded: "
            "sweep its grid into a new store"
        )
    return ConfigError(f"store {path} has schema version {version}, {why}")


def _pack_result(result, fingerprint: str) -> bytes:
    """A row's ``result`` blob: the cache entry format, with the result
    pickled without its config (a sweep's reader binds the requesting one),
    then the per-repetition config's pickle (an export binds it)."""
    bare = copy.copy(result)
    bare.config = None
    body = pickle.dumps(bare, protocol=pickle.HIGHEST_PROTOCOL)
    body += pickle.dumps(result.config.per_rep, protocol=pickle.HIGHEST_PROTOCOL)
    return _pack(CACHE_VERSION, fingerprint, body)


def _measures_precision(result) -> bool:
    """Whether ``result`` carries what ``precision_ns`` is computed from."""
    return bool(
        getattr(result, "expected_send_log", None) and getattr(result, "server_records", None)
    )


class ResultStore:
    """SQLite-backed store of settled repetitions (results and failures)."""

    def __init__(self, path: Union[str, Path], stream: Optional[TextIO] = None):
        self.path = Path(path)
        self.stream = stream
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Result blobs :meth:`served` found bad and cleared.
        self.evictions = 0
        #: Inside :meth:`batch`: writes leave their transaction open.
        self._batched = False
        #: A ``campaigns`` row the next write inserts (see :meth:`campaign`).
        self._campaign: Optional[Tuple[str, int, int]] = None
        self._conn = sqlite3.connect(str(self.path))
        self._conn.row_factory = sqlite3.Row
        self._conn.execute(f"PRAGMA busy_timeout = {_BUSY_TIMEOUT_MS}")
        # Read before anything is set, so a refused store is left as it is.
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, STORE_VERSION):
            self._conn.close()
            raise _refusal(self.path, version)
        try:
            # WAL lets `query`/`report` read a store while a campaign is
            # still streaming into it (readers never block the writer).
            self._conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:  # pragma: no cover - e.g. NFS
            pass
        if version == 0:
            def _create() -> None:
                with self._conn:
                    self._conn.executescript(_SCHEMA)
                    self._conn.execute(f"PRAGMA user_version = {STORE_VERSION}")

            self._retry_locked_write(_create)

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _retry_locked_write(write: Callable[[], None]) -> None:
        """Run one transactional write, retrying bounded on lock contention.

        A campaign streaming into the store must survive a concurrent
        ``query``/``report`` reader holding the database briefly; anything
        other than lock/busy contention propagates immediately.
        """
        for attempt in range(_LOCK_RETRIES + 1):
            try:
                return write()
            except sqlite3.OperationalError as exc:
                text = str(exc).lower()
                if "locked" not in text and "busy" not in text:
                    raise
                if attempt >= _LOCK_RETRIES:
                    raise
                time.sleep(_LOCK_RETRY_BASE_S * 2**attempt)
        return None

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Commit every write of the block once, when the block ends.

        One commit (one fsync) instead of one per row, and none when the
        block wrote nothing: no transaction is open then. A block left by an
        exception still commits the rows written before it.
        """
        self._batched = True
        try:
            yield
        finally:
            self._batched = False
            self._retry_locked_write(self._conn.commit)

    @contextlib.contextmanager
    def campaign(self, key: str, shard: Tuple[int, int] = (0, 1)) -> Iterator[None]:
        """Record that the sweep of grid ``key`` runs as part ``shard`` here.

        A held row costs one ``SELECT``. A new one is inserted by the block's
        first write, in that write's transaction, so it adds no commit; a
        block that wrote nothing commits it alone when it ends.
        """
        row = (key, *shard)
        held = self._conn.execute(
            "SELECT 1 FROM campaigns WHERE grid_key = ? AND shard_index = ? AND shard_count = ?",
            row,
        ).fetchone()
        self._campaign = None if held else row
        try:
            yield
        finally:
            if self._campaign is not None:
                self._write()

    def _write(self, *statements: Tuple[str, Sequence[Any]]) -> None:
        """Run one record's statements: a transaction of their own, or part
        of the open :meth:`batch`. A pending :meth:`campaign` row rides along."""
        if self._campaign is not None:
            statements = (
                ("INSERT OR IGNORE INTO campaigns VALUES (?, ?, ?)", self._campaign),
                *statements,
            )

        def write() -> None:
            with contextlib.nullcontext() if self._batched else self._conn:
                for sql, params in statements:
                    self._conn.execute(sql, params)

        self._retry_locked_write(write)
        self._campaign = None

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- recording ---------------------------------------------------------

    def record_result(self, name: str, rep: int, result, fingerprint: Optional[str] = None) -> None:
        """Record one successful repetition, or confirm the row already held.

        The one writer of ``reps`` rows. ``fingerprint`` is
        ``result.fingerprint()`` when the caller already computed it for this
        repetition; ``None`` computes it here. A row with this name, label,
        rep and fingerprint and no failure beside it is already the row this
        record would write: every column is a function of the fingerprinted
        result plus ``(name, label, rep)``. It costs one ``SELECT`` and
        nothing is written. A row of another fingerprint is a determinism
        regression, whichever sweep wrote it: it is rewritten with a warning.
        """
        if fingerprint is None:
            fingerprint = result.fingerprint()
        label = result.config.label
        key, seed = result.config.per_rep.cache_key(), result.seed
        stored = self._conn.execute(
            "SELECT name, label, rep, fingerprint, EXISTS (SELECT 1 FROM failures"
            " WHERE config_key = ?1 AND seed = ?2) AS failed"
            " FROM reps WHERE config_key = ?1 AND seed = ?2",
            (key, _db_seed(seed)),
        ).fetchone()
        if stored is not None:
            if not stored["failed"] and tuple(stored)[:4] == (name, label, rep, fingerprint):
                return
            if stored["fingerprint"] != fingerprint:
                self._warn(
                    f"{name} rep {rep} recomputed with a different fingerprint than "
                    f"the stored row (determinism regression?)"
                )
        # The scalar columns are read off the export's view of the result.
        view = rep_to_dict(result, fingerprint=fingerprint)
        config = view["config"]
        population = "aggregate_goodput_mbps" in view
        row: Dict[str, Any] = {
            "config_key": key,
            "seed": _db_seed(seed),
            "name": name,
            "label": label,
            "kind": "population" if population else "experiment",
            "rep": rep,
            "fingerprint": fingerprint,
            "completed": int(bool(view["completed"])),
            "duration_ns": int(view["duration_ns"]),
            "stack": None if population else config.get("stack"),
            "cca": None if population else config.get("cca"),
            "qdisc": None if population else config.get("qdisc"),
            "gso": None if population else config.get("gso"),
            "impairments": _impairments_slug(config.get("network", {}) or {}),
            "dropped": int(view["dropped"]),
            "injected_drops": int(view["injected_drops"]),
            "precision_ns": (
                pacing_precision_ns(result.expected_send_log, result.server_records)
                if _measures_precision(result)
                else None
            ),
            "result": _pack_result(result, fingerprint),
        }
        if population:
            row.update(
                goodput_mbps=float(view["aggregate_goodput_mbps"]),
                packets_on_wire=None,
                gap_count=None,
                b2b_count=None,
                b2b_share=None,
                train_packets=None,
                trains_leq5_packets=None,
                trains_leq5_share=None,
                flows=int(view["flows"]),
                completed_flows=int(view["completed_flows"]),
            )
        else:
            metrics = view["metrics"]
            trains = metrics["packets_by_train_length"]
            gap_count = max(int(view["packets_on_wire"]) - 1, 0)
            b2b_share = float(metrics["back_to_back_share"])
            row.update(
                goodput_mbps=float(view["goodput_mbps"]),
                packets_on_wire=int(view["packets_on_wire"]),
                gap_count=gap_count,
                # The share is a ratio of integer counts; recover the count
                # exactly so pooled (cross-repetition) shares can be computed
                # from integer sums, as the sweep CLI does.
                b2b_count=round(b2b_share * gap_count),
                b2b_share=b2b_share,
                train_packets=sum(trains.values()),
                trains_leq5_packets=sum(
                    count for length, count in trains.items() if int(length) <= 5
                ),
                trains_leq5_share=float(metrics["trains_leq5_share"]),
                flows=None,
                completed_flows=None,
            )
        self._write(
            (
                f"INSERT OR REPLACE INTO reps ({', '.join(row)})"
                f" VALUES ({', '.join('?' * len(row))})",
                tuple(row.values()),
            ),
            # A success supersedes any stale failure for the same repetition
            # (e.g. re-run after --no-resume healed a crash-looping config).
            ("DELETE FROM failures WHERE config_key = ? AND seed = ?", (key, _db_seed(seed))),
        )

    def served(
        self,
        name: str,
        config,
        reps: Sequence[int],
        validate: Optional[Callable[[Any], None]] = None,
    ) -> Dict[int, Any]:
        """The repetitions ``reps`` of grid entry ``name`` that the store
        holds, by repetition, from one ``SELECT``: a result, or the
        :class:`RepFailure` recorded for it.

        A row serves its repetition when it has the request's name, label
        and rep, its fingerprint is its blob's and no failure sits beside it,
        whichever sweep length wrote it. The blob's digest is checked, the
        result (not the config after it) unpickled and bound to ``config``
        (as a cache hit is), then ``validate`` runs. A row whose blob fails those checks is
        deleted and counted; any other row is left for the caller to
        rewrite. A failure with the request's name, label and rep, and no
        row beside it, is returned as recorded.
        """
        seeds = {_db_seed(derive_seed(config.seed, rep)): rep for rep in reps}
        if not seeds:
            return {}
        key = config.per_rep.cache_key()
        among = "config_key = ?1 AND seed IN ({})".format(
            ", ".join(f"?{number}" for number in range(2, len(seeds) + 2))
        )
        rows = self._conn.execute(
            "SELECT seed, name, label, rep, fingerprint, result, NULL AS error_type,"
            " NULL AS message, NULL AS traceback, NULL AS attempts, NULL AS wall_time_s,"
            f" NULL AS quarantined FROM reps WHERE {among} UNION ALL SELECT seed, name, label,"
            " rep, NULL, NULL, error_type, message, traceback, attempts, wall_time_s,"
            f" quarantined FROM failures WHERE {among}",
            (key, *seeds),
        ).fetchall()
        failed = {row["seed"] for row in rows if row["error_type"] is not None}
        stored = {row["seed"] for row in rows if row["error_type"] is None}
        label = config.label
        out: Dict[int, Any] = {}
        bad: List[Tuple[int, str]] = []
        for row in rows:
            rep, blob = seeds[row["seed"]], row["result"]
            same = (row["name"], row["label"], row["rep"]) == (name, label, rep)
            if row["error_type"] is not None:
                if same and row["seed"] not in stored:
                    out[rep] = _failure_from_row(row)
                continue
            if not same or row["seed"] in failed:
                continue
            try:
                result, its_fingerprint = _unpack(blob, CACHE_VERSION)
                if its_fingerprint != row["fingerprint"]:
                    continue  # a rewritten row: recorded again, with a warning
                result.config = config
                if validate is not None:
                    validate(result)
            except Exception as exc:
                bad.append((row["seed"], f"{name} rep {rep} ({type(exc).__name__}: {exc})"))
                continue
            out[rep] = result
        for seed, reason in bad:
            # Deleted as the cache quarantines a bad entry: counted, reported
            # and never read again; the caller's rewrite records it anew.
            self._write(("DELETE FROM reps WHERE config_key = ? AND seed = ?", (key, seed)))
            self.evictions += 1
            self._warn(f"cleared the result blob of {reason}")
        return out

    def _warn(self, text: str) -> None:
        if self.stream is not None:
            print(f"[store] warning: {text}", file=self.stream, flush=True)

    def record_failure(self, failure: RepFailure, config) -> None:
        """Insert (or idempotently re-insert) one finally-failed repetition.

        A key that already holds a success is left alone: a success
        supersedes a failure whichever is recorded first, as in
        :meth:`merge_from`.
        """
        key, seed = config.per_rep.cache_key(), _db_seed(failure.seed)
        self._write(
            (
                "INSERT OR REPLACE INTO failures (config_key, seed, name, label,"
                " rep, error_type, message, traceback, attempts, wall_time_s,"
                " quarantined) SELECT ?,?,?,?,?,?,?,?,?,?,? WHERE NOT EXISTS"
                " (SELECT 1 FROM reps WHERE config_key = ? AND seed = ?)",
                (
                    key,
                    seed,
                    failure.name,
                    failure.label,
                    failure.rep,
                    failure.error_type,
                    failure.message,
                    failure.traceback,
                    failure.attempts,
                    failure.wall_time_s,
                    int(failure.quarantined),
                    key,
                    seed,
                ),
            )
        )

    def migrate_cache(self, cache_root: Union[str, Path]) -> int:
        """Migrate every readable repetition out of a result-cache directory.

        Walks the cache's two-level ``<key[:2]>/<key>.pkl`` layout (skipping
        its quarantine) and reads each entry through
        :meth:`~repro.framework.cache.ResultCache.read`, so an entry of
        another version or whose digest does not match is not ingested; the
        rest are recorded under the fingerprint stored with them, each row
        with its result blob. Returns the number of repetitions ingested,
        committed together; unreadable or stale entries are skipped with a
        warning on ``stream``, never propagated.
        """
        cache = ResultCache(cache_root)
        count = 0
        with self.batch():
            for path in sorted(cache.root.glob("??/*.pkl")):
                try:
                    result, fingerprint = cache.read(path)
                    config = result.config
                    rep = self._recover_rep(config, result.seed)
                    self.record_result(
                        name=config.label, rep=rep, result=result, fingerprint=fingerprint
                    )
                    count += 1
                except Exception as exc:  # noqa: BLE001 - per-entry isolation
                    self._warn(
                        f"skipped {path.name} during migration ({type(exc).__name__}: {exc})"
                    )
        return count

    @staticmethod
    def _recover_rep(config, seed: int) -> int:
        """Invert ``derive_seed``: which repetition index produced ``seed``?

        Cache entries do not store the repetition index; scan the config's
        repetition range (0 when no index matches — e.g. an entry cached
        from a later-grown sweep).
        """
        for rep in range(max(int(getattr(config, "repetitions", 1)), 1)):
            if derive_seed(config.seed, rep) == seed:
                return rep
        return 0

    def merge_from(self, path: Union[str, Path]) -> Dict[str, int]:
        """Union another store (one shard's part) into this one.

        Rows are a pure function of their ``(config_key, seed)`` key, so this
        is idempotent and order-independent; a success in either store
        supersedes the other's failure (as recording does), and campaign rows
        are copied. A part holding shards (``n > 1``) of a grid this store
        holds no shards of is refused while it holds shards of other grids.
        Returns the repetition rows read per grid name.
        """
        part = Path(path)
        if not part.is_file():
            raise ConfigError(f"no result store at {str(part)!r} to merge")
        if part.resolve() == self.path.resolve():
            raise ConfigError(f"cannot merge store {str(part)!r} into itself")
        self._conn.execute("ATTACH DATABASE ? AS part", (str(part),))
        try:
            version = self._conn.execute("PRAGMA part.user_version").fetchone()[0]
            if version != STORE_VERSION:
                raise _refusal(part, version)
            sharded = "SELECT DISTINCT grid_key FROM {}.campaigns WHERE shard_count > 1"
            ours = {row[0] for row in self._conn.execute(sharded.format("main"))}
            foreign = sorted({row[0] for row in self._conn.execute(sharded.format("part"))} - ours)
            if ours and foreign:
                raise ConfigError(
                    f"store {part} holds shards of grid {foreign[0][:12]}, but "
                    f"{self.path} holds shards only of grid "
                    f"{', '.join(key[:12] for key in sorted(ours))}; refusing to mix campaigns"
                )
            merged = dict(
                self._conn.execute("SELECT name, COUNT(*) FROM part.reps GROUP BY name")
            )

            def _write() -> None:
                # By name, not position: the schema version fixes a part's
                # columns, not the order they were declared in.
                with self._conn:
                    for table in ("reps", "failures", "campaigns"):
                        columns = ", ".join(
                            row[1]
                            for row in self._conn.execute(f"PRAGMA main.table_info({table})")
                        )
                        self._conn.execute(
                            f"INSERT OR REPLACE INTO {table} ({columns})"
                            f" SELECT {columns} FROM part.{table}"
                        )
                    self._conn.execute(
                        "DELETE FROM failures WHERE (config_key, seed) IN"
                        " (SELECT config_key, seed FROM reps)"
                    )

            self._retry_locked_write(_write)
        finally:
            self._conn.execute("DETACH DATABASE part")
        return merged

    # -- querying ----------------------------------------------------------

    def _where(self, filters: Dict[str, Any]) -> Tuple[str, List[Any]]:
        clauses: List[str] = []
        params: List[Any] = []
        for column, value in filters.items():
            if value is None:
                continue
            if column == "impairment":
                clauses.append("impairments LIKE ?")
                params.append(f"%{value}%")
            elif column == "completed":
                clauses.append("completed = ?")
                params.append(int(bool(value)))
            elif column in FILTER_COLUMNS:
                clauses.append(f"{column} = ?")
                params.append(value)
            else:
                raise ConfigError(
                    f"unknown filter {column!r}; expected one of "
                    f"{FILTER_COLUMNS + ('impairment', 'completed')}"
                )
        return (" WHERE " + " AND ".join(clauses)) if clauses else "", params

    def query(self, **filters: Any) -> List[Dict[str, Any]]:
        """Repetition rows (scalar columns only) matching the filters."""
        where, params = self._where(filters)
        cursor = self._conn.execute(
            "SELECT name, label, kind, rep, seed, fingerprint, completed,"
            " duration_ns, stack, cca, qdisc, gso, impairments, goodput_mbps,"
            " dropped, injected_drops, packets_on_wire, b2b_share,"
            " trains_leq5_share, precision_ns, flows, completed_flows"
            f" FROM reps{where} ORDER BY name, rep, seed",
            params,
        )
        return [
            {**dict(row), "seed": _from_db_seed(row["seed"])}
            for row in cursor.fetchall()
        ]

    def aggregate(
        self,
        metric: str,
        percentiles: Sequence[float] = (0.5, 0.9, 0.99),
        **filters: Any,
    ) -> Dict[str, Any]:
        """Mean/std/percentiles of one metric column over matching rows."""
        if metric not in METRIC_COLUMNS:
            raise ConfigError(
                f"unknown metric {metric!r}; expected one of {METRIC_COLUMNS}"
            )
        where, params = self._where(filters)
        values = [
            row[0]
            for row in self._conn.execute(
                f"SELECT {metric} FROM reps{where} ORDER BY name, rep, seed", params
            )
            if row[0] is not None
        ]
        out: Dict[str, Any] = {"metric": metric, "n": len(values)}
        if values:
            summary = summarize([float(v) for v in values])
            out["mean"] = summary.mean
            out["std"] = summary.std
            dist = Distribution(values)
            for p in percentiles:
                out[f"p{int(round(p * 100)):02d}"] = dist.percentile(p)
        return out

    def names(self) -> List[str]:
        """Grid names, sorted: how the rows were written (merge order, pooled
        completion order) must not show."""
        cursor = self._conn.execute("SELECT name FROM reps UNION SELECT name FROM failures")
        return sorted(row[0] for row in cursor)

    def failures(self, name: Optional[str] = None) -> List[RepFailure]:
        """Failure records (ordered by name then repetition)."""
        where = " WHERE name = ?" if name is not None else ""
        params = (name,) if name is not None else ()
        cursor = self._conn.execute(
            "SELECT name, label, rep, seed, error_type, message, traceback,"
            f" attempts, wall_time_s, quarantined FROM failures{where}"
            " ORDER BY name, rep, seed",
            params,
        )
        return [_failure_from_row(row) for row in cursor.fetchall()]

    def group_summaries(self, **filters: Any) -> Dict[str, Dict[str, Any]]:
        """Per-grid-name aggregates, shaped like the sweep CLI's table rows.

        Pooled gap/train shares are computed from integer counts summed
        across repetitions — numerically identical to pooling the raw gaps
        (the sweep CLI's method), not a mean of per-repetition ratios.
        """
        where, params = self._where(filters)
        # One pass, one filter: a name's lists and pooled counts come from the
        # same matching rows. Names arrive sorted (as :meth:`names` lists
        # them), their rows in repetition order, one name in memory at a time.
        cursor = self._conn.execute(
            "SELECT name, label, kind, goodput_mbps, dropped, injected_drops,"
            " gap_count, b2b_count, train_packets, trains_leq5_packets"
            f" FROM reps{where} ORDER BY name, rep, seed",
            params,
        )
        out: Dict[str, Dict[str, Any]] = {}
        for name, group in itertools.groupby(cursor, key=lambda row: row["name"]):
            rows = list(group)

            def total(column: str) -> int:
                return sum(row[column] or 0 for row in rows)

            gaps, train_pkts = total("gap_count"), total("train_packets")
            out[name] = {
                "label": rows[0]["label"],
                "kind": rows[0]["kind"],
                "reps": len(rows),
                "goodput": summarize([row["goodput_mbps"] for row in rows]),
                "dropped": summarize([float(row["dropped"]) for row in rows]),
                "injected": total("injected_drops"),
                "b2b_share": total("b2b_count") / gaps if gaps else None,
                "trains_leq5_share": (
                    total("trains_leq5_packets") / train_pkts if train_pkts else None
                ),
                "failed": 0,
            }
        # Grid entries where *every* repetition failed have no reps rows.
        for failure in self.failures():
            if failure.name not in out:
                out[failure.name] = {
                    "label": failure.label,
                    "kind": "experiment",
                    "reps": 0,
                    "goodput": None,
                    "dropped": None,
                    "injected": 0,
                    "b2b_share": None,
                    "trains_leq5_share": None,
                    "failed": 0,
                }
            out[failure.name]["failed"] += 1
        return dict(sorted(out.items()))

    # -- export ------------------------------------------------------------

    def payloads(self, name: str) -> List[Dict[str, Any]]:
        """The JSON form of each repetition of one grid name, in rep order:
        :func:`~repro.framework.artifacts.rep_to_dict` of the result its
        blob holds, bound to the config stored with it. Raises
        ``ValueError`` on a blob that fails its digest."""
        cursor = self._conn.execute(
            "SELECT fingerprint, result FROM reps WHERE name = ? ORDER BY rep, seed", (name,)
        )
        return [
            rep_to_dict(_unpack(blob, CACHE_VERSION, bind=True)[0], fingerprint=fingerprint)
            for fingerprint, blob in cursor.fetchall()
        ]

    def export_summary_dict(self, name: str) -> Dict[str, Any]:
        """The JSON-artifact form of one grid entry, from store rows alone.

        Matches :func:`repro.framework.artifacts.summary_to_dict` of the
        live :class:`RunSummary` field for field (failures ordered by
        repetition here; the live summary keeps completion order).
        """
        payloads = self.payloads(name)
        failures = self.failures(name)
        if not payloads and not failures:
            raise ConfigError(f"store has no repetitions named {name!r}")
        label = None
        row = self._conn.execute(
            "SELECT label FROM reps WHERE name = ? LIMIT 1", (name,)
        ).fetchone()
        if row is not None:
            label = row[0]
        elif failures:
            label = failures[0].label
        goodput = [
            p["aggregate_goodput_mbps"] if "aggregate_goodput_mbps" in p else p["goodput_mbps"]
            for p in payloads
        ]
        dropped = [float(p["dropped"]) for p in payloads]
        nan = float("nan")
        return {
            "label": label,
            "goodput_mbps": (
                {"mean": summarize(goodput).mean, "std": summarize(goodput).std}
                if goodput
                else {"mean": nan, "std": nan}
            ),
            "dropped": (
                {"mean": summarize(dropped).mean, "std": summarize(dropped).std}
                if dropped
                else {"mean": nan, "std": nan}
            ),
            "repetitions": payloads,
            "failures": [f.as_dict() for f in failures],
        }

    def export_summary_json(self, name: str, path: Union[str, Path]) -> Path:
        """Write one grid entry back out in the legacy JSON-artifact layout."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.export_summary_dict(name), indent=2))
        return path

    # -- identity ----------------------------------------------------------

    def rep_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM reps").fetchone()[0]

    def failure_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM failures").fetchone()[0]

    def info(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "version": STORE_VERSION,
            "reps": self.rep_count(),
            "failures": self.failure_count(),
            "names": self.names(),
            "campaigns": [
                {"grid_key": key, "shard": f"{index}/{count}"}
                for key, index, count in self._conn.execute(
                    "SELECT * FROM campaigns ORDER BY grid_key, shard_count, shard_index"
                )
            ],
        }

    def content_fingerprint(self) -> str:
        """Digest of every row's content, insertion-order independent.

        Two stores of the same campaign — uninterrupted, or killed and
        resumed, sharded and merged, on any backend — must digest equal.
        Row iteration is ordered by key columns, never rowid, so replay
        order cannot leak in. Every column but the blob is digested: the
        ``fingerprint`` column covers the result's content, while the blob
        keeps its wall time. ``campaigns`` rows (how the work was split)
        stay out.
        """
        digest = hashlib.sha256()
        for row in self._conn.execute(f"SELECT {_SCALARS} FROM reps ORDER BY config_key, seed"):
            digest.update(repr(tuple(row)).encode())
        for row in self._conn.execute(
            "SELECT config_key, seed, name, label, rep, error_type, attempts,"
            " quarantined FROM failures ORDER BY config_key, seed"
        ):
            digest.update(repr(tuple(row)).encode())
        return digest.hexdigest()
