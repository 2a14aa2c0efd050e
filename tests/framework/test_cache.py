"""On-disk result cache: identity on hit, versioning, corruption fallback."""

import dataclasses
import pickle

import pytest

from repro.framework.cache import CACHE_VERSION, ResultCache, _pack
from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment
from repro.framework.runner import derive_seed, run_repetitions
from repro.framework.validate import validate_result
from repro.stacks.base import SendLog
from repro.units import kib
from tests.conftest import flip_capture_byte

CFG = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=1)


@pytest.fixture
def result():
    return Experiment(CFG, seed=derive_seed(CFG.seed, 0)).run()


def _entry_path(cache, config, seed):
    return cache._path(cache.entry_key(config, seed))


def _put(cache, result, config=CFG):
    return cache.put(config, result.seed, result, result.fingerprint())


def test_hit_returns_identical_result(tmp_path, result):
    cache = ResultCache(tmp_path)
    assert cache.get(CFG, result.seed) is None  # cold
    _put(cache, result)
    loaded, fingerprint = cache.get(CFG, result.seed)
    assert loaded == result  # dataclass equality covers records, traces, stats
    assert fingerprint == result.fingerprint()  # stored, not re-digested
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


def test_a_columnar_send_log_survives_the_entry(tmp_path, result):
    cache = ResultCache(tmp_path)
    _put(cache, result)
    loaded = cache.get(CFG, result.seed).result
    assert isinstance(loaded.expected_send_log, SendLog)
    assert len(loaded.expected_send_log) > 10
    assert loaded.expected_send_log == result.expected_send_log


@pytest.mark.parametrize("field,value", [
    ("seed", 2),
    ("cca", "bbr"),
    ("gso_segments", 11),
    pytest.param("params", (("client_ack_threshold", 4),), id="client_ack_threshold-4"),
    ("trace_cwnd", True),
    ("ecn", True),
])
def test_any_config_field_changes_the_key(tmp_path, field, value):
    import dataclasses

    base = ResultCache.entry_key(CFG, 7)
    changed = dataclasses.replace(CFG, **{field: value})
    assert ResultCache.entry_key(changed, 7) != base


def test_repetitions_normalized_out_of_key():
    # Growing a sweep from 5 to 20 reps must reuse the first 5 entries.
    short = ExperimentConfig(stack="quiche", repetitions=5)
    long = ExperimentConfig(stack="quiche", repetitions=20)
    assert ResultCache.entry_key(short, 7) == ResultCache.entry_key(long, 7)


def test_version_bump_invalidates(tmp_path, result):
    writer = ResultCache(tmp_path, version=CACHE_VERSION)
    _put(writer, result)
    reader = ResultCache(tmp_path, version=CACHE_VERSION + 1)
    assert reader.get(CFG, result.seed) is None
    assert reader.stats.evictions == 1
    # The stale file is gone, so even the old version now misses.
    assert not _entry_path(writer, CFG, result.seed).exists()


def test_corrupted_entry_falls_back(tmp_path, result):
    cache = ResultCache(tmp_path)
    path = _put(cache, result)
    path.write_bytes(b"not a pickle")
    assert cache.get(CFG, result.seed) is None
    assert cache.stats.evictions == 1
    assert not path.exists()


def test_eviction_quarantines_instead_of_deleting(tmp_path, result):
    import io

    stream = io.StringIO()
    cache = ResultCache(tmp_path, stream=stream)
    path = _put(cache, result)
    path.write_bytes(b"not a pickle")
    assert cache.get(CFG, result.seed) is None
    moved = tmp_path / "quarantine" / path.name
    assert moved.exists() and moved.read_bytes() == b"not a pickle"
    assert cache.stats.evictions == 1
    assert cache.stats.quarantined == 1
    warning = stream.getvalue()
    assert "quarantined" in warning and path.name in warning


def test_wrong_payload_type_rejected(tmp_path, result):
    cache = ResultCache(tmp_path)
    path = _put(cache, result)
    body = pickle.dumps("not a result")
    path.write_bytes(_pack(CACHE_VERSION, result.fingerprint(), body))
    assert cache.get(CFG, result.seed) is None
    assert cache.stats.evictions == 1


def _recomputes(tmp_path, cache, result, path):
    """``run_repetitions`` over a bad entry at ``path``: quarantined, counted
    as a miss, recomputed to ``result``'s fingerprint and stored anew."""
    summary = run_repetitions(CFG, workers=1, cache=cache)
    assert (tmp_path / "quarantine" / path.name).exists()
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.evictions, stats.quarantined, stats.stores) == (
        0, 1, 1, 1, 1,
    )
    assert [r.fingerprint() for r in summary.results] == [result.fingerprint()]
    hit = cache.get(CFG, result.seed)
    assert hit.result.server_records == result.server_records
    assert hit.fingerprint == result.fingerprint()


def test_version_3_entry_is_quarantined_and_recomputed(tmp_path, result):
    """An entry of the previous format (``CACHE_VERSION`` 3: a pickled
    ``(version, result)`` with no stored fingerprint) is never served: it is
    quarantined, counted, and the repetition recomputed to the same
    fingerprint."""
    cache = ResultCache(tmp_path)
    path = _entry_path(cache, CFG, result.seed)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps((3, result)))
    _recomputes(tmp_path, cache, result, path)


def test_version_5_entry_is_refused_and_quarantined_as_it_is(tmp_path, result):
    """An entry of the previous version (``CACHE_VERSION`` 5, whose pickled
    config had the five override fields) is never read: ``read`` refuses it
    and leaves the file, and a sweep quarantines its bytes unchanged."""
    cache = ResultCache(tmp_path)
    path = _entry_path(cache, CFG, result.seed)
    path.parent.mkdir(parents=True)
    entry = _pack(5, result.fingerprint(), pickle.dumps(result))
    path.write_bytes(entry)
    with pytest.raises(ValueError, match="version 5"):
        cache.read(path)
    assert path.read_bytes() == entry
    _recomputes(tmp_path, cache, result, path)
    assert (tmp_path / "quarantine" / path.name).read_bytes() == entry


def test_flipped_body_byte_is_quarantined_and_recomputed(tmp_path, result):
    """One flipped bit inside the pickled capture still unpickles and
    validates; the entry's digest catches it before anything is served."""
    cache = ResultCache(tmp_path)
    path = _put(cache, result)
    flip_capture_byte(path, result)
    data = path.read_bytes()
    tampered = pickle.loads(data[data.index(b"\n") + 1 :])
    validate_result(tampered)
    assert tampered.server_records.time_ns[-1] != result.server_records.time_ns[-1]
    _recomputes(tmp_path, ResultCache(tmp_path), result, path)


def test_hit_that_fails_validation_counts_as_a_miss(tmp_path, result):
    """An entry that reads back but fails validation is quarantined and
    counted as a miss, not a hit: the repetition is recomputed, so the cache
    line must not say ``0 misses``."""
    broken = dataclasses.replace(result, dropped=-5)
    path = _put(ResultCache(tmp_path), broken)
    cache = ResultCache(tmp_path)
    summary = run_repetitions(CFG, workers=1, cache=cache)
    assert str(cache.stats) == "0 hits, 1 misses, 1 stores, 1 evictions"
    assert (tmp_path / "quarantine" / path.name).exists()
    assert [r.fingerprint() for r in summary.results] == [result.fingerprint()]


def test_entry_of_another_config_is_quarantined_and_recomputed(tmp_path, result):
    """A pickle under this config's key whose result was computed for another
    config is stale: quarantined, counted as a miss, and recomputed to the
    fingerprint a fresh run has."""
    cache = ResultCache(tmp_path)
    other = dataclasses.replace(CFG, cca="bbr")
    foreign = Experiment(other, seed=result.seed).run()
    path = _put(cache, foreign, config=CFG)  # under this config's key
    assert cache.get(CFG, result.seed) is None
    assert (tmp_path / "quarantine" / path.name).exists()
    assert (cache.stats.quarantined, cache.stats.misses, cache.stats.hits) == (1, 1, 0)

    _put(cache, foreign, config=CFG)
    summary = run_repetitions(CFG, workers=1, cache=cache)
    assert (cache.stats.quarantined, cache.stats.misses, cache.stats.stores) == (2, 2, 3)
    assert [r.fingerprint() for r in summary.results] == [result.fingerprint()]


def test_hit_is_served_as_the_requesting_config(tmp_path, result):
    """Repetitions are normalized out of the key, not out of the result: a
    hit reports the config it was asked for. The stored fingerprint is
    behaviour, so every hit serves it, whichever sweep length asks."""
    cache = ResultCache(tmp_path)
    _put(cache, result)
    grown = dataclasses.replace(CFG, repetitions=3)
    loaded, fingerprint = cache.get(grown, result.seed)
    assert loaded.config is grown
    assert fingerprint == loaded.fingerprint() == result.fingerprint()
    same = dataclasses.replace(CFG)  # an equal config object: same encoding
    loaded, fingerprint = cache.get(same, result.seed)
    assert loaded.config is same and fingerprint == result.fingerprint()


def test_run_repetitions_served_from_cache(tmp_path):
    cfg = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=2)
    cache = ResultCache(tmp_path)
    cold = run_repetitions(cfg, workers=1, cache=cache)
    assert cache.stats.stores == 2 and cache.stats.hits == 0
    warm = run_repetitions(cfg, workers=1, cache=cache)
    assert cache.stats.hits == 2
    assert warm.results == cold.results
    assert warm.goodput == cold.goodput
    # A cache shared with an uncached run stays bit-identical.
    fresh = run_repetitions(cfg, workers=1, cache=None)
    assert [r.goodput_mbps for r in fresh.results] == [
        r.goodput_mbps for r in cold.results
    ]
