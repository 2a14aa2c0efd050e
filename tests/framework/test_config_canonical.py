"""One canonical form per config object: the memoized encodings never change
a key, never leak through ``dataclasses.replace``, and never travel in a
pickle."""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pickle
from dataclasses import asdict, replace

import pytest

from repro.framework.artifacts import result_to_dict
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.experiment import run_experiment
from repro.framework.population import PopulationConfig
from repro.framework.store import per_rep_key, per_rep_key_from_dict
from repro.net.impairments import burst_loss, iid_loss, rate_flap, reordering
from repro.units import kib

from .test_golden_fingerprints import GOLDEN

CONFIGS = {name: config for name, (config, _seed, _digest) in GOLDEN.items()}
CONFIGS["impaired-both-ways"] = ExperimentConfig(
    stack="quiche",
    qdisc="fq",
    repetitions=7,
    network=NetworkConfig(
        forward_impairments=(burst_loss(), reordering(), rate_flap()),
        reverse_impairments=(iid_loss(0.02),),
    ),
)
CONFIGS["population"] = PopulationConfig(flows=12, profiles=("quiche:cubic:fq", "tcp"))
CONFIGS["population-churn"] = PopulationConfig(flows=12, churn=True, repetitions=3)


def _sorted_json(fields) -> str:
    return json.dumps(fields, sort_keys=True)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_cache_key(config) -> str:
    """``cache_key()`` as it was computed before the memo."""
    fields = asdict(config)
    if isinstance(config, PopulationConfig) and not fields["churn"]:
        del fields["churn"]
    return _sha(_sorted_json(fields))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_keys_are_unchanged(name):
    config = CONFIGS[name]
    per_rep = replace(config, repetitions=1)
    assert config.canonical_json == _sorted_json(asdict(config))
    assert config.cache_key() == reference_cache_key(config)
    assert ResultCache.entry_key(config, 99) == _sha(f"{reference_cache_key(per_rep)}/99")
    assert per_rep_key(config) == _sha(_sorted_json(asdict(per_rep)))
    round_tripped = json.loads(json.dumps(asdict(config)))
    assert config.canonical_dict() == round_tripped
    assert list(config.canonical_dict()) == list(round_tripped)  # field order kept
    assert per_rep_key(config) == per_rep_key_from_dict(round_tripped)
    # Asking twice (the memo) answers the same.
    assert config.cache_key() == reference_cache_key(config)
    assert per_rep_key(config) == per_rep_key_from_dict(config.canonical_dict())


def test_equal_but_distinct_configs_agree():
    a = CONFIGS["impaired-both-ways"]
    b = replace(a)
    assert a == b and a is not b
    assert a.cache_key() == b.cache_key()
    assert ResultCache.entry_key(a, 5) == ResultCache.entry_key(b, 5)
    assert per_rep_key(a) == per_rep_key(b)


def test_equal_values_of_different_type_keep_their_own_encoding():
    """``2 == 2.0`` and their hashes agree, but their JSON differs: the memo
    is per object, so neither config can be served the other's key."""
    as_float = ExperimentConfig(network=NetworkConfig(buffer_bdp_multiplier=2.0))
    as_int = ExperimentConfig(network=NetworkConfig(buffer_bdp_multiplier=2))
    assert as_float == as_int and hash(as_float) == hash(as_int)
    assert as_float.cache_key() == reference_cache_key(as_float)
    assert as_int.cache_key() == reference_cache_key(as_int)
    assert as_float.cache_key() != as_int.cache_key()


def test_replace_gets_its_own_key():
    config = CONFIGS["impaired-both-ways"]
    config.cache_key(), config.canonical_json, config.per_rep  # fill the memo
    for n in (1, 2, 50):
        grown = replace(config, repetitions=n)
        assert grown.cache_key() == reference_cache_key(grown)
        assert json.loads(grown.canonical_json)["repetitions"] == n
        assert grown.canonical_dict()["repetitions"] == n
        assert grown.per_rep.repetitions == 1
        # The per-repetition identity is what sweeps of any length share.
        assert ResultCache.entry_key(grown, 3) == ResultCache.entry_key(config, 3)
        assert per_rep_key(grown) == per_rep_key(config)
    assert config.repetitions == 7 and config.cache_key() == reference_cache_key(config)


def test_canonical_dict_is_a_fresh_copy():
    config = CONFIGS["impaired-both-ways"]
    first = config.canonical_dict()
    first["stack"] = "changed"
    first["network"]["forward_impairments"].clear()
    assert config.canonical_dict() == json.loads(json.dumps(asdict(config)))
    assert config.cache_key() == reference_cache_key(config)


@pytest.mark.parametrize("name", ["impaired-both-ways", "population"])
def test_memo_is_not_pickled(name):
    config = CONFIGS[name]
    cold = pickle.dumps(replace(config))
    config.cache_key(), config.canonical_json, config.canonical_dict(), config.per_rep
    assert pickle.dumps(config) == cold  # cache entries hold fields only
    clone = pickle.loads(pickle.dumps(config))
    assert clone == config
    assert set(vars(clone)) == set(asdict(config))
    assert clone.cache_key() == reference_cache_key(config)


def _keys_in_worker(config):
    return config.cache_key(), ResultCache.entry_key(config, 4), per_rep_key(config)


def test_forkserver_worker_computes_the_same_keys():
    config = CONFIGS["impaired-both-ways"]
    expected = _keys_in_worker(config)  # memo filled before shipping
    with multiprocessing.get_context("forkserver").Pool(1) as pool:
        assert pool.apply_async(_keys_in_worker, (config,)).get(timeout=60) == expected


def test_artifact_config_matches_the_json_round_trip():
    config = ExperimentConfig(
        stack="tcp",
        file_size=kib(64),
        network=NetworkConfig(forward_impairments=(iid_loss(0.01),)),
    )
    payload = result_to_dict(run_experiment(config, seed=1))
    assert payload["config"] == json.loads(json.dumps(asdict(config)))
    assert json.loads(json.dumps(payload)) == payload  # already in the JSON data model
