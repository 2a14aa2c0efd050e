"""Deterministic per-component random streams.

Every stochastic component (scheduler jitter for the server, for the client,
qdisc hashing, …) draws from its own named stream derived from a single root
seed. This keeps repetitions reproducible and means adding randomness to one
component never perturbs another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable


def derive_seed(base_seed: int, rep: int) -> int:
    """Per-repetition seed: a stable 64-bit mix of ``(base_seed, rep)``.

    The former linear derivation (``base_seed * 1000 + rep``) collided across
    base seeds — seed 1 / rep 1000 equalled seed 2 / rep 0, so overlapping
    sweeps silently reran identical simulations as "independent" repetitions.
    Hashing the pair keeps every (seed, rep) combination distinct (the
    ``{base}/{rep}`` encoding is injective, so collisions require a blake2b
    collision) and is stable across processes, sessions, and
    ``PYTHONHASHSEED``.

    Lives next to the streams it seeds; :mod:`repro.framework.runner`
    re-exports it.
    """
    digest = hashlib.blake2b(f"{base_seed}/{rep}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class RngRegistry:
    """Factory for named, independently-seeded :class:`random.Random` streams."""

    def __init__(self, seed: int):
        self.seed: int = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def drop(self, names: Iterable[str]) -> None:
        """Forget the streams of a component that will never draw again (a
        retired flow); a later :meth:`stream` of a name would start it over."""
        for name in names:
            self._streams.pop(name, None)

    def fork(self, subseed: int) -> "RngRegistry":
        """Derive a registry for a repetition index or sub-experiment."""
        digest = hashlib.sha256(f"{self.seed}:fork:{subseed}".encode()).digest()
        return RngRegistry(int.from_bytes(digest[:8], "big"))
