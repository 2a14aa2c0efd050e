"""Stack profile construction and CCA-dependent quirks."""

import pytest

from repro.cc.bbr import NGTCP2_BBR_PARAMS
from repro.errors import ConfigError
from repro.framework.scenarios import SF_PATCH
from repro.pacing import IntervalPacer, LeakyBucketPacer, NullPacer
from repro.stacks.base import StackProfile, make_pacer
from repro.stacks.profiles import profile_for
from repro.units import kib, mib, ms


#: (stack, CCA) -> what its profile holds: the stack's own mechanism, and
#: what the CCA's quirk changes in it.
TABLE = {
    ("quiche", "cubic"): dict(pacing="txtime", spurious_rollback=True),  # stock rollback
    ("quiche", "bbr"): dict(pacing="txtime", spurious_rollback=True),
    # picoquic's client ACKs on its delay timer alone.
    ("picoquic", "cubic"): dict(
        pacing="leaky_bucket",
        bucket_packets=16,
        client_ack_threshold=1_000_000,
        client_max_ack_delay_ns=ms(10),
    ),
    ("picoquic", "bbr"): dict(pacing="leaky_bucket", bucket_packets=2),
    ("picoquic", "bbr2"): dict(pacing="leaky_bucket", bucket_packets=2),
    ("ngtcp2", "cubic"): dict(
        pacing="app_interval",
        fc_autotune=False,
        recv_conn_window=kib(160),
        bbr_params=NGTCP2_BBR_PARAMS,
    ),
    ("ngtcp2", "bbr"): dict(pacing="app_interval", recv_conn_window=mib(2)),
}


@pytest.mark.parametrize("stack,cca", sorted(TABLE))
def test_profile_table(stack, cca):
    profile = profile_for(stack, cca)
    assert (profile.name, profile.cca) == (stack, cca)
    for name, value in TABLE[stack, cca].items():
        assert getattr(profile, name) == value, name


def test_picoquic_bbr_small_bucket():
    cubic = profile_for("picoquic", "cubic")
    bbr = profile_for("picoquic", "bbr")
    assert bbr.bucket_packets < cubic.bucket_packets


def test_profile_for_sets_cca():
    assert profile_for("quiche", "bbr").cca == "bbr"


def test_quiche_sf_patch():
    assert profile_for("quiche", params=SF_PATCH).spurious_rollback is False


def test_params_override_quirks():
    assert profile_for("picoquic", "bbr", (("bucket_packets", 8),)).bucket_packets == 8


def test_unknown_stack_rejected():
    with pytest.raises(ConfigError):
        profile_for("msquic")


def test_invalid_pacing_mode_rejected():
    with pytest.raises(ConfigError):
        StackProfile(name="x", pacing="warp").validate()


def test_make_pacer_mapping():
    assert isinstance(make_pacer(profile_for("quiche"), 1252), IntervalPacer)
    assert isinstance(make_pacer(profile_for("ngtcp2"), 1252), IntervalPacer)
    assert isinstance(make_pacer(profile_for("picoquic"), 1252), LeakyBucketPacer)
    assert isinstance(
        make_pacer(StackProfile(name="x", pacing="none"), 1252), NullPacer
    )


def test_leaky_bucket_sized_by_profile():
    pacer = make_pacer(profile_for("picoquic"), 1252)
    assert pacer.bucket_max_bytes == profile_for("picoquic").bucket_packets * 1252
