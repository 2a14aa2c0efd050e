"""Sharded campaigns: ``SweepRunner(shard=(i, n))`` cuts a grid's repetitions
into ``n`` disjoint parts, and ``ResultStore.merge_from`` unites the part
stores into the store the unsharded campaign writes.

The unsharded ``inprocess`` run fills a cache first, so the many splits
tried here replay from it (the fresh sharded path, under ``forkserver``, is
the ``sharded`` row of ``test_store_differential.py``).
"""

import re
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.framework.cache import ResultCache
from repro.framework.config import ExperimentConfig, NetworkConfig
from repro.framework.journal import SweepJournal, grid_key
from repro.framework.population import PopulationConfig
from repro.framework.runner import derive_seed
from repro.framework.store import ResultStore
from repro.framework.supervision import RepFailure
from repro.framework.sweep import SweepRunner
from repro.net.impairments import iid_loss
from repro.units import kib, seconds

#: Unequal repetition counts and a population: round-robin must spread the
#: flattened rep list, not whole configurations.
GRID = {
    "quiche": ExperimentConfig(stack="quiche", file_size=kib(64), repetitions=3),
    "tcp": ExperimentConfig(stack="tcp", file_size=kib(64), repetitions=1),
    "lossy": ExperimentConfig(
        stack="quiche",
        file_size=kib(64),
        repetitions=2,
        network=NetworkConfig(forward_impairments=(iid_loss(0.02),)),
    ),
    "crowd": PopulationConfig(
        flows=6,
        arrival_rate_per_s=200.0,
        file_size=kib(24),
        profiles=("quiche:cubic", "tcp"),
        repetitions=2,
        max_sim_time_ns=seconds(60),
    ),
}
EVERY_REP = {(name, rep) for name, config in GRID.items() for rep in range(config.repetitions)}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """(root, unsharded store); ``root / "cache"`` then holds every rep."""
    root = tmp_path_factory.mktemp("shard")
    whole = ResultStore(root / "whole.sqlite")
    summaries = SweepRunner(
        workers=1, backend="inprocess", cache=ResultCache(root / "cache"), store=whole
    ).run(GRID)
    assert all(not s.failures for s in summaries.values())
    return root, whole


def _run_shard(index, count, store_path, cache_dir, **kwargs):
    with ResultStore(store_path) as part:
        return SweepRunner(
            workers=1,
            backend="inprocess",
            cache=ResultCache(cache_dir),
            store=part,
            shard=(index, count),
            **kwargs,
        ).run(GRID)


def _merged(dest, parts) -> str:
    with ResultStore(dest) as store:
        for part in parts:
            store.merge_from(part)
        assert store.failure_count() == 0
        return store.content_fingerprint()


def _check_split(campaign, count):
    root, whole = campaign
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        parts, held = [], []
        for index in range(count):
            parts.append(tmp / f"part-{index}.sqlite")
            summaries = _run_shard(index, count, parts[-1], root / "cache")
            with ResultStore(parts[-1]) as part:
                rows = {(row["name"], row["rep"]) for row in part.query()}
            # The shard's summaries hold its own repetitions and nothing else.
            assert {n: len(s.results) for n, s in summaries.items()} == {
                n: sum(1 for name, _ in rows if name == n) for n in GRID
            }
            assert all(not s.failures for s in summaries.values())
            held.append(rows)
        # Pairwise disjoint, complete, and balanced to within one repetition.
        assert sum(map(len, held)) == len(EVERY_REP)
        assert set().union(*held) == EVERY_REP
        assert max(map(len, held)) - min(map(len, held)) <= 1
        # Any order, any number of times: the unsharded store.
        expected = whole.content_fingerprint()
        assert _merged(tmp / "forward.sqlite", parts) == expected
        assert _merged(tmp / "backward.sqlite", parts[::-1] + parts) == expected


@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_shards_partition_the_grid_and_merge_to_the_unsharded_store(campaign, count):
    _check_split(campaign, count)


@settings(max_examples=6, deadline=None)
@given(count=st.integers(min_value=1, max_value=len(EVERY_REP) + 2))
def test_any_shard_count_merges_to_the_unsharded_store(campaign, count):
    # Past one shard per repetition some parts are empty stores; they merge too.
    _check_split(campaign, count)


def test_shard_must_name_a_part_of_the_split():
    for shard in [(2, 2), (-1, 2), (0, 0), (1, 1)]:
        with pytest.raises(ConfigError, match="shard must be I/N"):
            SweepRunner(shard=shard)


def test_only_a_real_split_renames_the_journal(tmp_path):
    stem = grid_key(GRID)[:16]
    assert SweepJournal.for_grid(tmp_path, GRID).path.name == f"{stem}.jsonl"
    assert SweepJournal.for_grid(tmp_path, GRID, shard=(0, 1)).path.name == f"{stem}.jsonl"
    names = {SweepJournal.for_grid(tmp_path, GRID, shard=(i, 3)).path.name for i in range(3)}
    assert names == {f"{stem}.shard-{i}-of-3.jsonl" for i in range(3)}


# -- merge_from ---------------------------------------------------------------


def _failure(name, rep, seed):
    return RepFailure(
        name=name, label=GRID[name].label, rep=rep, seed=seed,
        error_type="WorkerCrashError", message="exit code 23", traceback="",
        attempts=3, wall_time_s=1.5,
    )


def test_a_success_in_one_part_supersedes_the_failure_in_another(campaign, tmp_path):
    _, whole = campaign
    config = GRID["quiche"]
    with ResultStore(tmp_path / "failed.sqlite") as failed:
        # Rep 1 crashed on the host that ran this part; another host's part
        # (here: the whole campaign) holds its success. Seed 99 never ran.
        failed.record_failure(_failure("quiche", 1, derive_seed(config.seed, 1)), config)
        failed.record_failure(_failure("quiche", 7, 99), config)
    for order in ("failure-first", "success-first"):
        parts = [failed.path, whole.path]
        with ResultStore(tmp_path / f"{order}.sqlite") as merged:
            for part in parts if order == "failure-first" else parts[::-1]:
                merged.merge_from(part)
            assert merged.rep_count() == len(EVERY_REP)
            assert [(f.rep, f.seed) for f in merged.failures()] == [(7, 99)]
    with ResultStore(tmp_path / "failure-first.sqlite") as a, ResultStore(
        tmp_path / "success-first.sqlite"
    ) as b:
        assert a.content_fingerprint() == b.content_fingerprint()


def test_merge_reports_the_rows_read_per_name(campaign, tmp_path):
    _, whole = campaign
    with ResultStore(tmp_path / "dest.sqlite") as dest:
        assert dest.merge_from(whole.path) == {
            name: config.repetitions for name, config in GRID.items()
        }


def test_a_part_of_another_schema_version_is_refused(campaign, tmp_path):
    _, whole = campaign
    foreign = tmp_path / "foreign.sqlite"
    ResultStore(foreign).close()
    conn = sqlite3.connect(foreign)
    conn.execute("PRAGMA user_version = 99")
    conn.commit()
    conn.close()
    bare = tmp_path / "bare.sqlite"  # SQLite, but never a result store
    conn = sqlite3.connect(bare)
    conn.execute("CREATE TABLE reps (x)")
    conn.commit()
    conn.close()
    with ResultStore(tmp_path / "dest.sqlite") as dest:
        with pytest.raises(ConfigError, match="schema version 99"):
            dest.merge_from(foreign)
        with pytest.raises(ConfigError, match="schema version 0"):
            dest.merge_from(bare)
        # A refused part leaves the store usable (and detached).
        dest.merge_from(whole.path)
        assert dest.content_fingerprint() == whole.content_fingerprint()


def test_a_missing_part_is_refused_and_not_created(tmp_path):
    missing = tmp_path / "part-9.sqlite"
    with ResultStore(tmp_path / "dest.sqlite") as dest:
        with pytest.raises(ConfigError, match="no result store"):
            dest.merge_from(missing)
    assert not missing.exists()


def test_a_store_is_not_merged_into_itself(tmp_path, capsys):
    dest = tmp_path / "dest.sqlite"
    with ResultStore(dest) as store:
        with pytest.raises(ConfigError, match="into itself"):
            store.merge_from(tmp_path / "." / "dest.sqlite")
    other = tmp_path / "part.sqlite"
    ResultStore(other).close()
    assert main(["store", "merge", str(dest), str(other), str(dest)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot merge store")


# -- resume -------------------------------------------------------------------


class _KillAfter:
    """A progress stream whose write raises once enough repetitions have
    been reported — the in-process stand-in for SIGKILLing a shard's process.
    The SweepRunner prints a repetition's line after storing it.
    """

    def __init__(self, sweep_lines: int):
        self.remaining = sweep_lines

    def write(self, text: str) -> None:
        if "[sweep]" in text:
            self.remaining -= 1
            if self.remaining < 0:
                raise KeyboardInterrupt

    def flush(self) -> None:
        pass


def test_killed_shard_resumes_from_its_own_store(tmp_path):
    cache_dir, journal_dir = tmp_path / "cache", tmp_path / "journals"
    # The sibling shard finishes first; both share one cache directory.
    _run_shard(1, 2, tmp_path / "part-1.sqlite", cache_dir, journal_dir=journal_dir)
    sibling = (tmp_path / "part-1.sqlite").read_bytes()

    with pytest.raises(KeyboardInterrupt):
        _run_shard(
            0, 2, tmp_path / "part-0.sqlite", cache_dir,
            journal_dir=journal_dir, stream=_KillAfter(sweep_lines=1),
        )
    with ResultStore(tmp_path / "part-0.sqlite") as interrupted:
        settled = interrupted.rep_count()
    assert 0 < settled < 4  # the kill landed mid-shard

    # The same line again: the settled reps are served by their rows, the
    # rest run, and nothing of the sibling's is touched. The rows are the
    # checkpoint: neither shard journals a success.
    resumed_cache = ResultCache(cache_dir)
    with ResultStore(tmp_path / "part-0.sqlite") as part:
        summaries = SweepRunner(
            workers=1, backend="inprocess", cache=resumed_cache, store=part,
            shard=(0, 2), journal_dir=journal_dir,
        ).run(GRID)
        assert all(not s.failures for s in summaries.values())
        assert (resumed_cache.stats.hits, resumed_cache.stats.stores) == (0, 4 - settled)
        resumed = part.content_fingerprint()
    assert (tmp_path / "part-1.sqlite").read_bytes() == sibling
    assert not any(
        SweepJournal.for_grid(journal_dir, GRID, shard=(i, 2)).path.exists() for i in range(2)
    )

    _run_shard(0, 2, tmp_path / "clean-0.sqlite", cache_dir)
    with ResultStore(tmp_path / "clean-0.sqlite") as clean:
        assert resumed == clean.content_fingerprint()


# -- the CLI ------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["2/2", "-1/2", "0/0", "a/b", "1", "1/2/3"])
def test_bad_shard_spelling_exits_2_naming_the_field(capsys, spec):
    rc = main(["run", "quiche", "--size-mib", "0.25", "--no-cache", f"--shard={spec}"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "shard must be I/N" in err
    assert "[sweep]" not in err  # nothing ran


def test_cli_shards_merge_to_the_unsharded_store(capsys, tmp_path):
    argv = ["run", "quiche", "--size-mib", "0.25", "--reps", "3", "--no-cache",
            "--backend", "inprocess"]
    assert main(argv + ["--store", str(tmp_path / "whole.sqlite")]) == 0
    assert "shard" not in capsys.readouterr().out  # unsharded output is unchanged
    announced = []
    for index in range(2):
        part = str(tmp_path / f"part-{index}.sqlite")
        assert main(argv + ["--shard", f"{index}/2", "--store", part]) == 0
        line = capsys.readouterr().out.splitlines()[1]
        announced.append(
            re.fullmatch(r"shard (\d)/2 of grid ([0-9a-f]{12}): (\d) of 3 repetitions", line)
        )
    assert [m.group(1, 3) for m in announced] == [("0", "2"), ("1", "1")]
    assert announced[0].group(2) == announced[1].group(2)  # parts of one grid

    merged = str(tmp_path / "merged.sqlite")
    parts = [str(tmp_path / f"part-{index}.sqlite") for index in range(2)]
    assert main(["store", "merge", merged] + parts) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "quiche/cubic: 3 row(s) merged, 3 repetition(s), 0 failure(s)",
        "store now holds 3 repetition(s), 0 failure(s)",
    ]
    infos = []
    for path in (merged, str(tmp_path / "whole.sqlite")):
        assert main(["store", "info", path]) == 0
        infos.append(capsys.readouterr().out.replace(path, "STORE"))
    assert infos[0] == infos[1]
