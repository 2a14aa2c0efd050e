"""Flow-control credit, violations, window updates, autotuning."""

import pytest

from repro.errors import FlowControlError
from repro.quic.flowcontrol import RecvLimit, SendLimit
from repro.units import ms


class TestSendLimit:
    def test_consume_tracks_credit(self):
        sl = SendLimit(1000)
        assert sl.available == 1000
        sl.consume(400)
        assert sl.available == 600

    def test_over_consume_raises(self):
        sl = SendLimit(100)
        with pytest.raises(FlowControlError):
            sl.consume(101)

    def test_update_limit_only_advances(self):
        sl = SendLimit(100)
        assert sl.update_limit(200)
        assert not sl.update_limit(150)  # stale MAX_DATA ignored
        assert sl.limit == 200


class TestRecvLimit:
    def test_check_rejects_beyond_advertised(self):
        rl = RecvLimit(window=1000)
        rl.check(1000)
        with pytest.raises(FlowControlError):
            rl.check(1001)

    def test_wants_update_at_half_window(self):
        rl = RecvLimit(window=1000)
        rl.on_consumed(499)
        assert not rl.wants_update()
        rl.on_consumed(501)
        assert rl.wants_update()

    def test_next_limit_extends_from_consumed(self):
        rl = RecvLimit(window=1000)
        rl.on_consumed(600)
        assert rl.next_limit(0, ms(40)) == 1600
        assert rl.advertised == 1600

    def test_consumed_is_monotonic(self):
        rl = RecvLimit(window=100)
        rl.on_consumed(50)
        rl.on_consumed(20)
        assert rl.consumed == 50

    def test_autotune_doubles_on_frequent_updates(self):
        rl = RecvLimit(window=1000, autotune=True)
        rl.on_consumed(600)
        rl.next_limit(0, ms(40))
        rl.on_consumed(1300)
        rl.next_limit(ms(40), ms(40))  # within 2 RTTs of previous update
        assert rl.window == 2000

    def test_autotune_respects_max(self):
        rl = RecvLimit(window=1000, autotune=True, max_window=1500)
        rl.next_limit(0, ms(40))
        rl.next_limit(ms(10), ms(40))
        assert rl.window == 1500

    def test_no_autotune_keeps_window_fixed(self):
        rl = RecvLimit(window=1000, autotune=False)
        rl.next_limit(0, ms(40))
        rl.next_limit(ms(1), ms(40))
        assert rl.window == 1000

    def test_slow_updates_do_not_grow(self):
        rl = RecvLimit(window=1000, autotune=True)
        rl.next_limit(0, ms(40))
        rl.next_limit(ms(400), ms(40))  # 10 RTTs later
        assert rl.window == 1000
