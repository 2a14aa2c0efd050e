"""SimProcess wake-up semantics: re-arming, external wakes, jitter paths."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import COARSE_MS_TIMER, HIGHRES_TIMER, PERFECT_TIMER, JitterModel, TimerModel
from repro.sim.engine import Simulator
from repro.sim.process import SimProcess
from repro.stacks.profiles import STACK_NAMES, profile_for
from repro.units import ms, seconds, us


class Recorder(SimProcess):
    def __init__(self, sim, timer_model=TimerModel()):
        super().__init__(sim, "rec", timer_model, random.Random(1))
        self.times = []

    def on_wakeup(self):
        self.times.append(self.sim.now)


def test_arm_timer_fires_at_deadline(sim):
    proc = Recorder(sim)
    proc.arm_timer(1000)
    sim.run()
    assert proc.times == [1000]
    assert proc.wakeups == 1


def test_rearm_with_earlier_deadline_wins(sim):
    proc = Recorder(sim)
    proc.arm_timer(5000)
    proc.arm_timer(1000)
    sim.run()
    assert proc.times == [1000]


def test_rearm_with_later_deadline_ignored(sim):
    proc = Recorder(sim)
    proc.arm_timer(1000)
    proc.arm_timer(5000)
    sim.run()
    assert proc.times == [1000]


def test_wake_now_supersedes_timer(sim):
    proc = Recorder(sim)
    proc.arm_timer(5000)
    sim.schedule(100, proc.wake_now)
    sim.run()
    assert proc.times == [100]


def test_cancel_timer(sim):
    proc = Recorder(sim)
    proc.arm_timer(1000)
    proc.cancel_timer()
    sim.run()
    assert proc.times == []
    assert not proc.timer_armed


def test_timer_granularity_applies_to_timers(sim):
    proc = Recorder(sim, TimerModel(granularity_ns=us(100)))
    proc.arm_timer(us(150))
    sim.run()
    assert proc.times == [us(200)]


def test_wake_now_skips_granularity(sim):
    proc = Recorder(sim, TimerModel(granularity_ns=us(100)))
    sim.schedule(us(150), proc.wake_now)
    sim.run()
    assert proc.times == [us(150)]


def test_wake_now_pays_jitter(sim):
    proc = Recorder(sim, TimerModel(jitter=JitterModel(median_ns=us(10), sigma=0.0)))
    sim.schedule(us(100), proc.wake_now)
    sim.run()
    assert proc.times == [us(100) + us(10)]


def test_process_can_rearm_from_handler(sim):
    class Periodic(SimProcess):
        def __init__(self, s):
            super().__init__(s, "p")
            self.count = 0

        def on_wakeup(self):
            self.count += 1
            if self.count < 5:
                self.arm_timer(self.sim.now + 100)

    proc = Periodic(sim)
    proc.arm_timer(100)
    sim.run()
    assert proc.count == 5
    assert sim.now == 500


#: The shipped timer models and every stack profile's.
TIMERS = {
    "perfect": PERFECT_TIMER,
    "highres": HIGHRES_TIMER,
    "coarse-ms": COARSE_MS_TIMER,
    **{name: profile_for(name).timer_model for name in STACK_NAMES},
}


@pytest.mark.parametrize("model", TIMERS.values(), ids=TIMERS.keys())
@given(
    now=st.integers(min_value=0, max_value=seconds(1)),
    offsets=st.lists(st.integers(min_value=-ms(5), max_value=ms(50)), min_size=1, max_size=20),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_arm_timer_lands_where_fire_time_says(model, now, offsets, seed):
    """``arm_timer`` inlines ``TimerModel.fire_time``, the oracle: from the
    same RNG state it schedules every wake-up at the oracle's time, drawing
    the same sequence."""
    sim = Simulator()
    proc = Recorder(sim, model)
    proc.rng.seed(seed)
    oracle = random.Random(seed)
    landed, expected = [], []

    def arm_all():
        for offset in offsets:
            proc.cancel_timer()
            proc.arm_timer(now + offset)
            landed.append(proc._timer.time)
            expected.append(model.fire_time(now + offset, now, oracle))

    sim.schedule_at(now, arm_all)
    sim.run(until=now)
    assert len(landed) == len(offsets)
    assert landed == expected
