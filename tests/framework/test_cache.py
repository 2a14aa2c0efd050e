"""On-disk result cache: identity on hit, versioning, corruption fallback."""

import dataclasses
import pickle

import pytest

from repro.framework.cache import CACHE_VERSION, ResultCache
from repro.framework.config import ExperimentConfig
from repro.framework.experiment import Experiment
from repro.framework.runner import derive_seed, run_repetitions
from repro.units import kib

CFG = ExperimentConfig(stack="quiche", file_size=kib(150), repetitions=1)


@pytest.fixture
def result():
    return Experiment(CFG, seed=derive_seed(CFG.seed, 0)).run()


def _entry_path(cache, config, seed):
    return cache._path(cache.entry_key(config, seed))


def test_hit_returns_identical_result(tmp_path, result):
    cache = ResultCache(tmp_path)
    assert cache.get(CFG, result.seed) is None  # cold
    cache.put(CFG, result.seed, result)
    loaded = cache.get(CFG, result.seed)
    assert loaded == result  # dataclass equality covers records, traces, stats
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1


@pytest.mark.parametrize("field,value", [
    ("seed", 2),
    ("cca", "bbr"),
    ("gso_segments", 11),
    ("client_ack_threshold", 4),
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
    writer.put(CFG, result.seed, result)
    reader = ResultCache(tmp_path, version=CACHE_VERSION + 1)
    assert reader.get(CFG, result.seed) is None
    assert reader.stats.evictions == 1
    # The stale file is gone, so even the old version now misses.
    assert not _entry_path(writer, CFG, result.seed).exists()


def test_corrupted_entry_falls_back(tmp_path, result):
    cache = ResultCache(tmp_path)
    path = cache.put(CFG, result.seed, result)
    path.write_bytes(b"not a pickle")
    assert cache.get(CFG, result.seed) is None
    assert cache.stats.evictions == 1
    assert not path.exists()


def test_eviction_quarantines_instead_of_deleting(tmp_path, result):
    import io

    stream = io.StringIO()
    cache = ResultCache(tmp_path, stream=stream)
    path = cache.put(CFG, result.seed, result)
    path.write_bytes(b"not a pickle")
    assert cache.get(CFG, result.seed) is None
    moved = tmp_path / "quarantine" / path.name
    assert moved.exists() and moved.read_bytes() == b"not a pickle"
    assert cache.stats.evictions == 1
    assert cache.stats.quarantined == 1
    assert cache.stats.as_dict()["quarantined"] == 1
    warning = stream.getvalue()
    assert "quarantined" in warning and path.name in warning


def test_invalidate_quarantines_on_demand(tmp_path, result):
    cache = ResultCache(tmp_path)
    path = cache.put(CFG, result.seed, result)
    cache.invalidate(CFG, result.seed, reason="failed validation")
    assert not path.exists()
    assert (tmp_path / "quarantine" / path.name).exists()
    assert cache.get(CFG, result.seed) is None  # miss -> recompute


def test_wrong_payload_type_rejected(tmp_path, result):
    cache = ResultCache(tmp_path)
    path = cache.put(CFG, result.seed, result)
    path.write_bytes(pickle.dumps((CACHE_VERSION, "not a result")))
    assert cache.get(CFG, result.seed) is None
    assert cache.stats.evictions == 1


def test_version_2_entry_is_quarantined_and_recomputed(tmp_path, result):
    """A pre-columnar entry (``CACHE_VERSION`` 2: the capture pickled as a list
    of ``CaptureRecord``) is never served: it is quarantined, counted, and the
    repetition recomputed to the same fingerprint."""
    cache = ResultCache(tmp_path)
    stale = dataclasses.replace(result, server_records=list(result.server_records))
    path = _entry_path(cache, CFG, result.seed)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps((2, stale)))
    summary = run_repetitions(CFG, workers=1, cache=cache)
    assert (tmp_path / "quarantine" / path.name).exists()
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.evictions, stats.quarantined, stats.stores) == (
        0, 1, 1, 1, 1,
    )
    assert [r.fingerprint() for r in summary.results] == [result.fingerprint()]
    assert cache.get(CFG, result.seed).server_records == result.server_records


def test_entry_of_another_config_is_quarantined_and_recomputed(tmp_path, result):
    """A pickle under this config's key whose result was computed for another
    config is stale: quarantined, counted as a miss, and recomputed to the
    fingerprint a fresh run has."""
    cache = ResultCache(tmp_path)
    other = dataclasses.replace(CFG, cca="bbr")
    foreign = Experiment(other, seed=result.seed).run()
    path = _entry_path(cache, CFG, result.seed)
    path.parent.mkdir(parents=True)
    path.write_bytes(pickle.dumps((CACHE_VERSION, foreign)))
    assert cache.get(CFG, result.seed) is None
    assert (tmp_path / "quarantine" / path.name).exists()
    assert (cache.stats.quarantined, cache.stats.misses, cache.stats.hits) == (1, 1, 0)

    path.write_bytes(pickle.dumps((CACHE_VERSION, foreign)))
    summary = run_repetitions(CFG, workers=1, cache=cache)
    assert (cache.stats.quarantined, cache.stats.misses, cache.stats.stores) == (2, 2, 1)
    assert [r.fingerprint() for r in summary.results] == [result.fingerprint()]


def test_hit_is_served_as_the_requesting_config(tmp_path, result):
    """Repetitions are normalized out of the key, not out of the result: a
    hit reports (and fingerprints with) the config it was asked for."""
    cache = ResultCache(tmp_path)
    cache.put(CFG, result.seed, result)
    grown = dataclasses.replace(CFG, repetitions=3)
    loaded = cache.get(grown, result.seed)
    assert loaded.config is grown
    assert loaded.fingerprint() == dataclasses.replace(result, config=grown).fingerprint()


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
