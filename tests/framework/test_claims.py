"""The claims evaluator on hand-built summaries, and the table's own shape."""

from types import SimpleNamespace

from repro.framework.claims import CLAIMS, DROPS, GOODPUT, Claim, evaluate, in_band, paper_grid
from repro.framework.config import ExperimentConfig
from repro.framework.runner import RunSummary
from repro.metrics.stats import Summary


def summary(goodput, dropped=0.0, completed=True, repetitions=1):
    return RunSummary(
        config=ExperimentConfig(repetitions=repetitions),
        results=[SimpleNamespace(completed=completed)],
        goodput=Summary(goodput, 0.0, 1),
        dropped=Summary(dropped, 0.0, 1),
    )


def against_status(summaries, claims):
    return [v.describe() for v in evaluate(summaries, claims) if not v.agrees]


HOLDS = Claim("t.holds", "Table 1", "34.67 ± 0.64", "> 28", GOODPUT, ("a",))
DEVIATES = Claim("t.deviates", "Table 1", "34.67 ± 0.64", "> 33", GOODPUT, ("a",), deviates="scale")


def test_rows_with_their_declared_status_pass():
    assert against_status({"a": summary(30.0)}, [HOLDS, DEVIATES]) == []


def test_a_flipped_holds_row_names_its_id_the_value_and_the_band():
    assert against_status({"a": summary(25.0)}, [HOLDS]) == [
        "t.holds: measured 25, band > 28, deviates; declared holds"
    ]


def test_a_deviation_that_closes_fails_too():
    assert against_status({"a": summary(34.0)}, [DEVIATES]) == [
        "t.deviates: measured 34, band > 33, holds; declared deviates: scale"
    ]


def test_an_unfinished_run_fails_whatever_the_row_declares():
    unfinished = {"a": summary(30.0, completed=False)}
    verdicts = evaluate(unfinished, [HOLDS, DEVIATES])
    assert [(v.verdict, v.agrees) for v in verdicts] == [("incomplete", False)] * 2


def test_a_shards_share_of_the_repetitions_is_incomplete():
    (verdict,) = evaluate({"a": summary(30.0, repetitions=3)}, [HOLDS])
    assert verdict.verdict == "incomplete"


def test_a_row_folds_its_entries_as_it_reads():
    fewest = Claim("t.fewest", "Table 1", "—", "≤ 0", DROPS, ("a", "b", "c"), "lag")
    assert fewest.formula == "a − min(b, c)"
    grid = {"a": summary(0, dropped=4.0), "b": summary(0, dropped=9.0), "c": summary(0, dropped=3.0)}
    (verdict,) = evaluate(grid, [fewest])
    assert (verdict.value, verdict.verdict) == (1.0, "deviates")


def test_a_band_reads_as_it_prints():
    inside = ["> 1", "< 3", "≥ 2", "≤ 2", "= 2", "(1.5, 2.5)"]
    edges = ["> 2", "< 2", "(2, 3)", "= -2"]
    assert [in_band(2.0, band) for band in inside + edges] == [True] * 6 + [False] * 4
    assert not in_band(float("nan"), "≥ -1")


def test_every_row_names_paper_grid_entries_and_every_entry_is_named():
    named = {name for claim in CLAIMS for name in claim.configs}
    assert named == set(paper_grid())
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)
    for claim in CLAIMS:
        in_band(0.0, claim.band)
