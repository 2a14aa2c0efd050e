"""The claims tables measured on their grids (``repro.framework.claims``;
each grid runs once per session at its table's scale): every row has its
declared status, and EXPERIMENTS.md carries every rendered table byte for
byte, each between ``<!-- name:begin -->`` and ``<!-- name:end -->``.

The classes keep the names of the checks the paper table replaced; each
asserts the rows that now hold that check's numbers.
"""

from pathlib import Path

import pytest

from repro.framework.claims import BASELINES, TABLES, evaluate, render
from tests.conftest import assert_claims

EXPERIMENTS = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


def test_every_claim_has_its_declared_status(paper_verdicts):
    assert_claims(paper_verdicts, *paper_verdicts)


def test_every_extension_has_its_declared_status(table_summaries):
    """Every row of every table past the paper's own."""
    verdicts = {
        v.claim.id: v
        for table, (_grid, rows) in TABLES.items() if table != "paper"
        for v in evaluate(table_summaries(table), rows)
    }
    assert_claims(verdicts, *verdicts)


@pytest.mark.parametrize("table", TABLES)
def test_experiments_md_carries_the_rendered_claims_table(table, table_summaries):
    begin, end = f"<!-- {table}:begin -->\n", f"<!-- {table}:end -->"
    text = EXPERIMENTS.read_text()
    rendered = text[text.index(begin) + len(begin):text.index(end)]
    assert rendered == render(table_summaries(table), TABLES[table][1]) + "\n"


class TestBaseline:
    """Section 4.1 / Figures 2-3 / Table 1."""

    def test_all_stacks_complete(self, paper_summaries):
        assert all(paper_summaries[stack].all_completed for stack in BASELINES)

    def test_tcp_has_best_goodput_and_fewest_drops(self, paper_verdicts):
        assert_claims(paper_verdicts, "table1.tcp_goodput_best", "table1.tcp_fewest_drops")

    def test_ngtcp2_goodput_is_far_lowest(self, paper_verdicts):
        assert_claims(
            paper_verdicts, "table1.ngtcp2_goodput", "table1.ngtcp2_goodput_gap",
            "table1.quiche_goodput", "table1.picoquic_goodput",
        )

    def test_ngtcp2_and_tcp_pace_almost_perfectly(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig3.ngtcp2_trains", "fig3.tcp_trains")

    def test_picoquic_bursts_with_cubic(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig3.picoquic_trains", "fig3.picoquic_bucket_share")

    def test_quiche_intermediate_burstiness(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig3.quiche_trains")

    def test_roughly_half_of_packets_back_to_back(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig2.quiche_b2b", "fig2.tcp_b2b")


class TestCcaSweep:
    """Section 4.1 / Figure 4."""

    def test_picoquic_bbr_nearly_perfect_pacing(self, paper_verdicts):
        # BBR's last-quarter burst mass below 0.03 and CUBIC's above 0.1 put
        # the ratio of the two below 1/3.
        assert_claims(
            paper_verdicts, "fig4.picoquic_bbr_smooth", "fig4.picoquic_cubic_bursty",
            "fig4.picoquic_bbr_drops",
        )

    def test_picoquic_newreno_also_bursty(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig4.picoquic_newreno_bursty", "fig4.picoquic_newreno_trains")

    def test_ngtcp2_bbr_increases_loss(self, paper_verdicts):
        assert_claims(
            paper_verdicts, "fig4.ngtcp2_bbr_drops", "fig4.ngtcp2_bbr_loss_factor",
            "fig4.ngtcp2_bbr_drops_x1", "fig4.ngtcp2_bbr_loss_factor_x1",
        )


class TestFqAndRollback:
    """Section 4.2 / Figure 5."""

    def test_fq_makes_long_trains_rare(self, paper_verdicts):
        assert_claims(
            paper_verdicts, "fig5.sf_trains", "fig5.fq_shortens_trains",
            "fig5.fq_shortens_sf_trains", "fig6.gso_off_smooth",
        )

    def test_rollback_increases_loss_under_fq(self, paper_verdicts):
        assert_claims(
            paper_verdicts, "fig5.stock_rollbacks", "fig5.sf_no_rollbacks", "fig5.rollback_drops"
        )


class TestGso:
    """Section 4.3 / Figure 6 / Table 2."""

    def test_gso_is_bursty(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig6.gso_on_bursty", "fig6.gso_off_smooth")

    def test_paced_gso_restores_pacing(self, paper_verdicts):
        assert_claims(paper_verdicts, "fig6.paced_singles")

    def test_bursty_gso_avoids_slow_start_overshoot_loss(self, paper_verdicts):
        assert_claims(paper_verdicts, "table2.gso_on_fewest_drops")


class TestPrecision:
    """Section 4.4."""

    def test_fq_is_most_precise(self, paper_verdicts):
        assert_claims(paper_verdicts, "sec44.fq_most_precise")

    def test_no_qdisc_is_least_precise(self, paper_verdicts):
        assert_claims(paper_verdicts, "sec44.none_least_precise")

    def test_launchtime_adds_no_meaningful_precision(self, paper_verdicts):
        assert_claims(paper_verdicts, "sec44.launchtime_no_gain")
