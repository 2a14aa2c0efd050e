"""Flow-control credit, violations, window updates, autotuning.

When to ask for a window update is decided inline by the receiving
connection, so those tests drive a :class:`Connection` with STREAM frames.
"""

import pytest

from repro.errors import FlowControlError
from repro.quic.connection import Connection, ConnectionConfig
from repro.quic.flowcontrol import RecvLimit, SendLimit
from repro.units import ms
from tests.quic.test_connection import deliver_stream


def _receiver(window):
    """A client whose stream and connection windows are both ``window``."""
    config = ConnectionConfig(
        recv_conn_window=window, recv_stream_window=window, fc_autotune=False
    )
    return Connection("client", config=config)


def _updates(conn):
    return [(type(f).__name__, f.max_data) for f in conn._control_frames]


class TestSendLimit:
    def test_consume_tracks_credit(self):
        sl = SendLimit(1000)
        sl.consume(400)
        assert sl.used == 400
        assert sl.limit - sl.used == 600

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
        conn = _receiver(1000)
        deliver_stream(conn, 0, 499)
        assert _updates(conn) == []
        deliver_stream(conn, 499, 2)
        assert _updates(conn) == [("MaxStreamDataFrame", 1501), ("MaxDataFrame", 1501)]

    def test_next_limit_extends_from_consumed(self):
        conn = _receiver(1000)
        deliver_stream(conn, 0, 600)
        assert _updates(conn) == [("MaxStreamDataFrame", 1600), ("MaxDataFrame", 1600)]
        assert conn.stream_recv_limits[0].advertised == 1600
        assert conn.conn_recv_limit.advertised == 1600

    def test_consumed_is_monotonic(self):
        conn = _receiver(100)
        deliver_stream(conn, 0, 50)
        deliver_stream(conn, 0, 20)  # a retransmission of delivered bytes
        assert conn.stream_recv_limits[0].consumed == 50
        assert conn.conn_recv_limit.consumed == 50

    def test_autotune_doubles_on_frequent_updates(self):
        rl = RecvLimit(window=1000, autotune=True)
        rl.consumed = 600
        rl.next_limit(0, ms(40))
        rl.consumed = 1300
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
