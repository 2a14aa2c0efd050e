"""Network interface card model.

The NIC owns a FIFO tx ring feeding its :class:`~repro.net.link.Link`. When
*LaunchTime* offloading is enabled (the Intel I210 feature used in Section
4.4), frames carrying a ``txtime_ns`` are held in hardware and released at
that timestamp with the NIC clock's precision; frames whose timestamp already
passed are sent immediately (the ETF qdisc is responsible for dropping truly
late packets before they reach the NIC).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.link import Link
from repro.net.packet import Datagram
from repro.sim.engine import Simulator


class Nic:
    """A NIC with an optional hardware LaunchTime stage in front of its ring."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        link: Link,
        launchtime: bool = False,
        launchtime_precision_ns: int = 50,
        rng: Optional[random.Random] = None,
    ):
        self.sim: Simulator = sim
        self.name: str = name
        self.link: Link = link
        self.launchtime: bool = launchtime
        self.launchtime_precision_ns: int = launchtime_precision_ns
        self.rng: random.Random = rng or random.Random(0)
        self.frames_held: int = 0
        self._last_launch_at: int = 0
        if not launchtime:  # nothing to hold: frames go straight to the link
            self.receive = link.receive

    def receive(self, dgram: Datagram) -> None:
        if dgram.txtime_ns is not None and dgram.txtime_ns > self.sim.now:
            jitter = 0
            if self.launchtime_precision_ns > 0:
                jitter = self.rng.randrange(0, self.launchtime_precision_ns + 1)
            self.frames_held += 1
            # The LaunchTime queue is FIFO per ring: no overtaking.
            launch = max(dgram.txtime_ns + jitter, self._last_launch_at)
            self._last_launch_at = launch
            self.sim.schedule_at(launch, self._emit, dgram)
        else:
            self._last_launch_at = max(self._last_launch_at, self.sim.now)
            self._emit(dgram)

    def _emit(self, dgram: Datagram) -> None:
        self.link.receive(dgram)
