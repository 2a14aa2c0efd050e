"""The census counts at the one admission point, whatever that point is.

``CensusSimulator`` rebinds the engine's per-instance ``_admit`` to a counting
wrapper. The counters below were recorded at the parent of the change that
turned admission from a method into ``partial(heappush, heap)``, on the
30-flow churn golden: same fingerprint, same census, or the wrapper misses an
admission path (``schedule*``, ``call_soon``, ``Timer``).

The counts were re-recorded when a link became a departure timestamp: it
schedules each frame's arrival when it accepts the frame, so the ``Link`` row
(1848 serialization-end events) left the census and the totals fell by
exactly that many, with the fingerprint and every other row unchanged.
"""

from repro.framework.population import run_population
from tests.framework.test_population_churn import GOLDEN_CHURN, _config

TOTALS = {
    "scheduled": 12505, "fired": 11546, "stale": 909,
    "flows_tagged": 30, "departed": 30, "post_departure": 0,
}
#: component -> (scheduled, fired, stale)
COMPONENTS = {
    "UdpSocket": (1848, 1848, 0),
    "NetemQdisc": (1811, 1811, 0),
    "ClientDriver": (1596, 1084, 492),
    "Bottleneck": (1546, 1546, 0),
    "ServerDriver": (1475, 1087, 368),
    "FiberTap": (1240, 1240, 0),
    "GsoSegmenter": (1240, 1240, 0),
    "PortDemux": (1240, 1240, 0),
    "FqQdisc": (440, 440, 0),
    "TcpSender": (39, 10, 19),
    "TcpReceiver": (30, 0, 30),
}


def test_census_counters_and_fingerprint_of_the_churn_golden():
    result = run_population(_config(churn=True), profile_events=True)
    assert result.fingerprint() == GOLDEN_CHURN
    census = result.census
    assert census["totals"] == TOTALS
    assert {
        name: (row["scheduled"], row["fired"], row["stale"])
        for name, row in census["components"].items()
    } == COMPONENTS
    assert census["post_departure"] == {}
