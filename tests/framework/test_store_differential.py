"""Differential acceptance: JSON artifacts and the result store agree, and
neither can tell execution backends apart.

One grid, four execution paths: one per backend in ``BACKENDS`` (serial
in-process, the forkserver pool), the campaign cut into two shards whose part
stores are merged, and a warm-cache replay — each into its own fresh store.
Every pairwise comparison must hold bit for bit:

* result ``fingerprint()`` lists are identical across all paths;
* every store digests to the same :meth:`ResultStore.content_fingerprint`;
* each store's :meth:`ResultStore.export_summary_dict` equals the
  ``summary_to_dict`` JSON artifact of the live run that produced it (for the
  merged store: of the unsharded run), so the store is a lossless replacement
  for per-run JSON, not a parallel truth.
"""

import pytest

from repro.framework.artifacts import summary_to_dict
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.executors import BACKENDS
from repro.framework.store import ResultStore
from repro.framework.sweep import SweepRunner
from repro.net.impairments import iid_loss
from repro.units import kib

GRID = {
    "quiche": ExperimentConfig(stack="quiche", file_size=kib(96), repetitions=2),
    "lossy": ExperimentConfig(
        stack="quiche",
        file_size=kib(96),
        repetitions=2,
        network=NetworkConfig(forward_impairments=(iid_loss(0.02),)),
    ),
}


def _fingerprints(summaries):
    return {
        name: [r.fingerprint() for r in summary.results]
        for name, summary in summaries.items()
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(summaries, store) per execution path, all over the same grid."""
    root = tmp_path_factory.mktemp("differential")
    out = {}
    for backend in BACKENDS:
        store = ResultStore(root / f"{backend}.sqlite")
        out[backend] = (
            SweepRunner(workers=2, backend=backend, store=store).run(GRID),
            store,
        )
    # Sharded: two forkserver shards, each into its own part store, merged.
    # The merged store is held against the unsharded run's summaries.
    merged = ResultStore(root / "sharded.sqlite")
    for index in range(2):
        with ResultStore(root / f"part-{index}.sqlite") as part:
            shard = SweepRunner(workers=2, store=part, shard=(index, 2)).run(GRID)
            assert all(not s.failures for s in shard.values())
        merged.merge_from(part.path)
    out["sharded"] = (out["inprocess"][0], merged)
    # Warm-cache replay: populate the cache, then serve every rep from it.
    cache = ResultCache(root / "cache")
    SweepRunner(workers=2, cache=cache).run(GRID)
    warm_store = ResultStore(root / "warm.sqlite")
    warm = SweepRunner(
        workers=1, cache=ResultCache(root / "cache"), store=warm_store
    ).run(GRID)
    out["warm-cache"] = (warm, warm_store)
    return out


def test_fingerprints_identical_across_all_paths(runs):
    reference = _fingerprints(runs["inprocess"][0])
    for path, (summaries, store) in runs.items():
        assert _fingerprints(summaries) == reference, path
        assert all(not s.failures for s in summaries.values()), path
        stored = {
            name: [row["fingerprint"] for row in store.query(name=name)] for name in GRID
        }
        assert stored == reference, path


def test_stores_digest_identically_across_all_paths(runs):
    digests = {path: store.content_fingerprint() for path, (_, store) in runs.items()}
    assert set(digests) == {"inprocess", "forkserver", "sharded", "warm-cache"}
    assert len(set(digests.values())) == 1, digests
    counts = {path: store.rep_count() for path, (_, store) in runs.items()}
    assert set(counts.values()) == {4}  # 2 configs x 2 reps, no duplicates


def test_store_export_equals_the_json_artifact(runs):
    for path, (summaries, store) in runs.items():
        for name, summary in summaries.items():
            assert store.export_summary_dict(name) == summary_to_dict(summary), (
                path,
                name,
            )


def test_store_rows_expose_the_same_metrics_the_artifact_carries(runs):
    summaries, store = runs["inprocess"]
    for name, summary in summaries.items():
        artifact = summary_to_dict(summary)
        rows = store.query(name=name)
        for row, rep in zip(rows, artifact["repetitions"]):
            assert row["fingerprint"] == rep["fingerprint"]
            assert row["goodput_mbps"] == rep["goodput_mbps"]
            assert row["dropped"] == rep["dropped"]
            assert row["b2b_share"] == rep["metrics"]["back_to_back_share"]
            assert row["trains_leq5_share"] == rep["metrics"]["trains_leq5_share"]
