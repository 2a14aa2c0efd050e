"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.framework.executors import BACKENDS
from tests.conftest import LOCAL_POOLS


def test_parser_rejects_unknown_stack():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "msquic"])


def test_run_command(capsys, tmp_path):
    out_json = tmp_path / "r.json"
    rc = main(
        ["run", "quiche", "--size-mib", "0.25", "--seed", "3", "--json", str(out_json),
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "quiche/cubic" in out
    assert "goodput" in out
    assert "back-to-back share (pooled, 1 reps)" in out
    assert "train lengths (pooled, 1 reps)" in out
    assert "[sweep] quiche/cubic rep 1/1" in captured.err
    data = json.loads(out_json.read_text())
    assert data["label"] == "quiche/cubic"


def test_run_pools_metrics_across_reps(capsys, tmp_path):
    rc = main(
        ["run", "quiche", "--size-mib", "0.25", "--reps", "2",
         "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "back-to-back share (pooled, 2 reps)" in out
    assert "packets in trains <= 5 (pooled, 2 reps)" in out


def test_run_cache_roundtrip(capsys, tmp_path):
    argv = ["run", "quiche", "--size-mib", "0.25", "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "1 stores" in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert "[cached]" in warm.err
    # The pooled report is byte-identical when served from the cache.
    assert warm.out == cold.out


def test_run_with_sf_flag(capsys):
    rc = main(["run", "quiche", "--size-mib", "0.25", "--sf", "--no-cache"])
    assert rc == 0
    assert "quiche/cubic/sf" in capsys.readouterr().out


def test_sweep_command(capsys, tmp_path):
    rc = main(
        ["sweep", "baselines", "--size-mib", "0.25", "--reps", "1",
         "--cache-dir", str(tmp_path / "cache"), "--workers", "2"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    for name in ("quiche", "picoquic", "ngtcp2", "tcp"):
        assert name in captured.out
    assert "b2b share" in captured.out
    assert "cache: 0 hits, 4 misses, 4 stores" in captured.err


def test_invalid_config_exits_2_with_one_line_message(capsys):
    rc = main(["run", "quiche", "--size-mib", "0.25", "--reps", "0", "--no-cache"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "error: repetitions must be positive, got 0"
    assert "Traceback" not in captured.err


def test_supervision_flags_are_accepted(capsys, tmp_path):
    rc = main(
        ["run", "quiche", "--size-mib", "0.25", "--timeout", "60", "--retries", "1",
         "--no-resume", "--cache-dir", str(tmp_path / "cache")]
    )
    assert rc == 0
    assert "goodput" in capsys.readouterr().out


def test_sweep_resume_serves_journaled_reps_from_cache(capsys, tmp_path):
    """Without --store, the checkpoint store beside the cache serves every
    repetition of the second invocation: none is computed."""
    argv = ["sweep", "baselines", "--size-mib", "0.25", "--reps", "1",
            "--cache-dir", str(tmp_path / "cache"), "--workers", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0  # resume: every repetition is in the checkpoint
    warm = capsys.readouterr()
    reps = [line for line in warm.err.splitlines() if line.startswith("[sweep]")]
    assert len(reps) == 4 and all(line.endswith("[cached]") for line in reps)
    assert "cache: 0 hits, 0 misses, 0 stores" in warm.err
    assert [path.suffix for path in (tmp_path / "cache" / "journals").iterdir()] == [".sqlite"]


def test_compete_command(capsys):
    rc = main(["compete", "quiche:cubic:fq", "tcp", "--size-mib", "0.25", "--seed", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Jain fairness" in out
    assert "quiche/cubic/fq" in out
    assert "tcp/cubic" in out


def test_compete_parses_flow_spec_shorthand(capsys):
    rc = main(["compete", "picoquic:bbr", "quiche:cubic:fq:paced", "--size-mib", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "picoquic/bbr" in out
    assert "quiche/cubic/fq/gso-paced" in out


@pytest.mark.parametrize("bad", ["msquic", "tcp:nonsense", "quiche:cubic:htb", "quiche:cubic:fq:sometimes"])
def test_compete_rejects_unknown_profile_fields(bad, capsys):
    assert main(["compete", bad, "--size-mib", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: unknown ")
    assert "running" not in captured.out
    if bad == "msquic":
        assert "('quiche', 'picoquic', 'ngtcp2', 'tcp')" in captured.err


def test_compete_exits_1_when_a_flow_does_not_complete(capsys, monkeypatch):
    import functools

    from repro import cli
    from repro.units import ms

    # The run loop stops at its first 200 ms step, ahead of quiche's 256 KiB.
    cut_short = functools.partial(cli.MultiFlowExperiment, max_sim_time_ns=ms(100))
    monkeypatch.setattr(cli, "MultiFlowExperiment", cut_short)
    assert main(["compete", "quiche:cubic:fq", "tcp", "--size-mib", "0.25"]) == 1
    last_line = capsys.readouterr().out.splitlines()[-1]
    assert last_line == "1 of 2 flow(s) did not complete: quiche/cubic/fq"


def test_scenarios_command(capsys):
    rc = main(["scenarios"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fq-sf-x4 " in out and "quiche/cubic/fq/sf" in out and "16 MiB" in out
    assert "§4.4" in out


def test_sweep_paper_prints_one_line_per_claim(capsys):
    from repro.framework.claims import CLAIMS

    rc = main(["sweep", "paper", "--size-mib", "0.25", "--reps", "1", "--no-cache", "--workers", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    for claim in CLAIMS:
        assert sum(line.startswith(f"| {claim.id} |") for line in lines) == 1, claim.id


def test_a_shard_of_sweep_paper_judges_no_claim(capsys):
    from repro.framework.claims import CLAIMS

    # Two reps cut two ways: every grid entry holds one of its two reps.
    argv = ["sweep", "paper", "--size-mib", "0.25", "--reps", "2", "--no-cache", "--shard", "0/2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line.startswith("| ") and "**incomplete**" in line]
    assert len(rows) == len(CLAIMS)


# ---------------------------------------------------------------------------
# Exit-code contract: 0 = clean, 1 = partial results (failed reps), 2 =
# operator error (ConfigError) — under the default and the new backends.


@pytest.mark.parametrize("backend", LOCAL_POOLS)
def test_failed_reps_exit_1_and_show_in_the_failed_column(capsys, backend):
    # A 1 MiB transfer cannot finish inside 50 ms of wall clock; with zero
    # retries every repetition fails, the table stays partial, and rc is 1.
    rc = main(
        ["run", "quiche", "--size-mib", "1", "--reps", "2", "--timeout", "0.05",
         "--retries", "0", "--workers", "2", "--backend", backend, "--no-cache"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "2 repetition(s) FAILED" in out
    assert "RepTimeoutError" in out


def test_invalid_backend_is_rejected_by_the_parser(capsys):
    for backend in ("threads", "pool", "spawn", "distributed"):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "quiche", "--backend", backend])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{backend}'" in capsys.readouterr().err
    # The multi-host backend went with its flags: no alias, no tombstone.
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "quiche", "--hosts", "localhost"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --hosts" in capsys.readouterr().err


def test_backend_defaults_to_the_executor_layers_default():
    assert build_parser().parse_args(["run", "quiche"]).backend is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_under_new_backends_matches_pool_output(capsys, backend):
    argv = ["run", "quiche", "--size-mib", "0.25", "--no-cache"]
    assert main(argv + ["--backend", "inprocess"]) == 0
    inprocess_out = capsys.readouterr().out
    assert main(argv + ["--backend", backend, "--workers", "2"]) == 0
    assert capsys.readouterr().out == inprocess_out


def test_missing_store_is_an_operator_error_exit_2(capsys, tmp_path):
    rc = main(["query", str(tmp_path / "absent.sqlite")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no result store")
    assert "Traceback" not in err


def test_sweep_failed_column_reflects_store_failures(capsys, tmp_path):
    # The sweep table's `failed` column and the store's report must agree;
    # with nothing failing both read 0 across the grid.
    store = tmp_path / "st.sqlite"
    rc = main(
        ["sweep", "baselines", "--size-mib", "0.25", "--reps", "1",
         "--cache-dir", str(tmp_path / "cache"), "--workers", "2",
         "--backend", "forkserver", "--store", str(store)]
    )
    assert rc == 0
    assert "failed" in capsys.readouterr().out
    assert main(["report", str(store)]) == 0
    report = capsys.readouterr().out
    for name in ("quiche", "picoquic", "ngtcp2", "tcp"):
        assert name in report


# ---------------------------------------------------------------------------
# Store subcommands: query/report/store over a CLI-produced store.


@pytest.fixture
def cli_store(tmp_path):
    path = tmp_path / "st.sqlite"
    rc = main(
        ["run", "quiche", "--size-mib", "0.25", "--reps", "2", "--seed", "5",
         "--no-cache", "--workers", "1", "--store", str(path)]
    )
    assert rc == 0
    return path


def test_query_lists_rows_and_aggregates(capsys, cli_store):
    capsys.readouterr()
    assert main(["query", str(cli_store)]) == 0
    out = capsys.readouterr().out
    assert "2 repetition(s)" in out
    assert "quiche/cubic" in out

    assert main(["query", str(cli_store), "--metric", "goodput_mbps",
                 "--percentiles", "50,95"]) == 0
    agg = capsys.readouterr().out
    assert "n: 2" in agg
    assert "mean:" in agg and "p95:" in agg

    assert main(["query", str(cli_store), "--stack", "tcp"]) == 1
    assert "no repetitions match" in capsys.readouterr().out


def test_report_renders_ascii_and_markdown(capsys, cli_store):
    capsys.readouterr()
    assert main(["report", str(cli_store)]) == 0
    ascii_out = capsys.readouterr().out
    assert "goodput [Mbit/s]" in ascii_out

    assert main(["report", str(cli_store), "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("| name |")
    assert "| --- |" in md
    assert "| quiche/cubic |" in md


def test_store_info_export_and_json_migration_round_trip(capsys, cli_store, tmp_path):
    capsys.readouterr()
    assert main(["store", "info", str(cli_store)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["reps"] == 2 and info["failures"] == 0
    assert info["names"] == ["quiche/cubic"]

    exported = tmp_path / "out.json"
    assert main(["store", "export", str(cli_store), "quiche/cubic", str(exported)]) == 0
    capsys.readouterr()

    # Migrating the export into a fresh store reproduces the original content.
    migrated = tmp_path / "m.sqlite"
    assert main(["store", "migrate", str(migrated), "--from-json", str(exported)]) == 0
    assert "migrated 2 repetition(s)" in capsys.readouterr().out
    assert main(["store", "info", str(migrated)]) == 0
    migrated_info = json.loads(capsys.readouterr().out)
    assert migrated_info["fingerprint"] == info["fingerprint"]


def test_store_migrate_without_sources_exits_2(capsys, tmp_path):
    rc = main(["store", "migrate", str(tmp_path / "m.sqlite")])
    assert rc == 2
    assert "nothing to migrate" in capsys.readouterr().err


def test_store_cache_migration_from_cli_cache(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    assert main(["run", "quiche", "--size-mib", "0.25", "--cache-dir",
                 str(cache_dir)]) == 0
    capsys.readouterr()
    store = tmp_path / "m.sqlite"
    assert main(["store", "migrate", str(store), "--from-cache", str(cache_dir)]) == 0
    assert "migrated 1 repetition(s) from cache" in capsys.readouterr().out
