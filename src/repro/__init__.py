"""repro: a simulation-based reproduction of "Performance Analysis of
the Alpha 21364-based HP GS1280 Multiprocessor" (ISCA 2003).

The library models three Alpha server generations -- the torus-based
GS1280 (Alpha 21364/EV7), the switch-based GS320, and the ES45/SC45 --
down to their routers, directory coherence protocol, RDRAM memory
controllers, and cache hierarchies, and regenerates every figure and
table of the paper's evaluation.

Quick start::

    from repro.systems import GS1280System
    from repro.workloads import run_load_test

    curve = run_load_test(lambda: GS1280System(16), [1, 8, 16, 30])
    for point in curve.points:
        print(point.outstanding, point.bandwidth_mbps, point.latency_ns)

or run any paper experiment::

    from repro.experiments.registry import run_experiment
    print(run_experiment("fig13").rows)

The names below are imported on first attribute access (PEP 562), so
``import repro`` alone loads neither numpy nor the machine models.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.config import (
        ES45Config,
        GS1280Config,
        GS320Config,
        SC45Config,
        TorusShape,
        torus_shape_for,
    )
    from repro.sim import RngFactory, Simulator
    from repro.systems import ES45System, GS1280System, GS320System

__version__ = "1.0.0"

__all__ = [
    "ES45Config",
    "ES45System",
    "GS1280Config",
    "GS1280System",
    "GS320Config",
    "GS320System",
    "RngFactory",
    "SC45Config",
    "Simulator",
    "TorusShape",
    "torus_shape_for",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": ("ES45Config", "GS1280Config", "GS320Config",
                     "SC45Config", "TorusShape", "torus_shape_for"),
    "repro.sim": ("RngFactory", "Simulator"),
    "repro.systems": ("ES45System", "GS1280System", "GS320System"),
})
