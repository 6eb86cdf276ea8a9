"""Discrete-event simulation kernel and deterministic RNG streams.

Two interchangeable scheduler backends implement
:class:`~repro.sim.backend.SchedulerBackend`: the single-heap
:class:`Simulator` (the reference) and the sharded
:class:`ShardedSimulator` (per-shard heaps under conservative
lookahead, byte-identical observable order -- see docs/sharding.md).
Model components take the narrower :class:`SchedulerView` so they work
unchanged on either backend.

Each name is imported on first access: only :class:`RngFactory` loads
numpy.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.backend import SchedulerBackend, SchedulerView
    from repro.sim.engine import Event, SimulationError, Simulator
    from repro.sim.rng import RngFactory
    from repro.sim.sharded import ShardedSimulator

__all__ = [
    "Event",
    "RngFactory",
    "SchedulerBackend",
    "SchedulerView",
    "ShardedSimulator",
    "SimulationError",
    "Simulator",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.backend": ("SchedulerBackend", "SchedulerView"),
    "repro.sim.engine": ("Event", "SimulationError", "Simulator"),
    "repro.sim.rng": ("RngFactory",),
    "repro.sim.sharded": ("ShardedSimulator",),
})
