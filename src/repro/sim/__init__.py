"""Discrete-event simulation core.

Provides the nanosecond-resolution event engine (:class:`~repro.sim.engine.Simulator`),
deterministic per-component random streams (:class:`~repro.sim.random.RngRegistry`),
timer-imprecision models (:mod:`repro.sim.clock`) and event-loop processes
(:class:`~repro.sim.process.SimProcess`).
"""

from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.sim.clock import JitterModel, TimerModel, PERFECT_TIMER
from repro.sim.process import SimProcess

__all__ = [
    "Simulator",
    "RngRegistry",
    "JitterModel",
    "TimerModel",
    "PERFECT_TIMER",
    "SimProcess",
]
