"""RangeSet against a brute-force set model (hypothesis)."""

from hypothesis import given, strategies as st

from repro.quic.ranges import RangeSet


def test_add_disjoint():
    rs = RangeSet()
    assert rs.add(0, 10) == 10
    assert rs.add(20, 30) == 10
    assert list(rs) == [(0, 10), (20, 30)]
    assert rs.total == 20


def test_add_overlapping_merges():
    rs = RangeSet()
    rs.add(0, 10)
    assert rs.add(5, 15) == 5
    assert list(rs) == [(0, 15)]


def test_add_touching_merges():
    rs = RangeSet()
    rs.add(0, 10)
    rs.add(10, 20)
    assert list(rs) == [(0, 20)]


def test_add_bridging_gap():
    rs = RangeSet()
    rs.add(0, 5)
    rs.add(10, 15)
    assert rs.add(3, 12) == 5
    assert list(rs) == [(0, 15)]


def test_empty_add_is_noop():
    rs = RangeSet()
    assert rs.add(5, 5) == 0
    assert rs.total == 0


def test_contains_and_covers():
    rs = RangeSet()
    rs.add(10, 20)
    assert rs.contains(10)
    assert rs.contains(19)
    assert not rs.contains(20)
    assert not rs.contains(9)
    assert rs.covers(10, 20)
    assert rs.covers(12, 15)
    assert not rs.covers(5, 15)
    assert rs.covers(7, 7)  # empty range always covered


def test_first_gap_from():
    rs = RangeSet()
    rs.add(0, 10)
    rs.add(15, 20)
    assert rs.first_gap_from(0) == 10
    assert rs.first_gap_from(15) == 20
    assert rs.first_gap_from(12) == 12
    assert rs.first_gap_from(100) == 100


def test_missing_within():
    rs = RangeSet()
    rs.add(5, 10)
    rs.add(15, 20)
    assert rs.missing_within(0, 25) == [(0, 5), (10, 15), (20, 25)]
    assert rs.missing_within(5, 10) == []
    assert rs.missing_within(7, 17) == [(10, 15)]


@st.composite
def range_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=30,
        )
    )


@given(range_ops())
def test_model_equivalence(ops):
    rs = RangeSet()
    model: set[int] = set()
    for start, length in ops:
        end = start + length
        added = rs.add(start, end)
        new = set(range(start, end)) - model
        assert added == len(new)
        model |= new
        assert rs.total == len(model)
    # Structural checks.
    ranges = list(rs)
    for i, (lo, hi) in enumerate(ranges):
        assert lo < hi
        if i:
            assert ranges[i - 1][1] < lo  # disjoint and non-touching
    # Point membership.
    for v in range(0, 245):
        assert rs.contains(v) == (v in model)
    # first_gap_from consistency.
    for v in (0, 50, 100):
        gap = rs.first_gap_from(v)
        assert gap not in model
        assert all(x in model for x in range(v, gap))


@given(range_ops(), st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=150))
def test_missing_within_model(ops, start, length):
    rs = RangeSet()
    model: set[int] = set()
    for s, ln in ops:
        rs.add(s, s + ln)
        model |= set(range(s, s + ln))
    end = start + length
    missing = rs.missing_within(start, end)
    flat = set()
    for lo, hi in missing:
        assert lo < hi
        flat |= set(range(lo, hi))
    assert flat == set(range(start, end)) - model


def test_discard_below_empty_set():
    rs = RangeSet()
    rs.discard_below(10)
    assert list(rs) == [] and rs.upper == 0


def test_discard_below_cuts_inside_a_range():
    rs = RangeSet()
    rs.add(0, 10)
    rs.add(20, 30)
    rs.add(40, 50)
    rs.discard_below(25)
    assert list(rs) == [(25, 30), (40, 50)]
    rs.discard_below(25)  # idempotent
    assert list(rs) == [(25, 30), (40, 50)]
    rs.discard_below(30)  # a range ending at the bound goes whole
    assert list(rs) == [(40, 50)]
    rs.discard_below(35)  # a bound inside a gap touches nothing
    assert list(rs) == [(40, 50)]


def test_discard_below_past_upper_empties():
    rs = RangeSet()
    rs.add(5, 10)
    rs.add(20, 30)
    rs.discard_below(31)
    assert list(rs) == [] and len(rs) == 0
    assert rs.add(0, 3) == 3  # still usable


@given(range_ops(), st.integers(min_value=0, max_value=260))
def test_discard_below_model(ops, bound):
    rs = RangeSet()
    model: set[int] = set()
    for s, ln in ops:
        rs.add(s, s + ln)
        model |= set(range(s, s + ln))
    rs.discard_below(bound)
    kept = {v for v in model if v >= bound}
    assert {v for lo, hi in rs for v in range(lo, hi)} == kept
    assert rs.total == len(kept)
    assert all(rs.contains(v) == (v in kept) for v in range(0, 245))
