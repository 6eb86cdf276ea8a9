"""Workload ``sim-64p``: one Figure 15 load-test point on a 64P GS1280.

Closed loop: each of the 64 CPUs keeps 16 random remote reads
outstanding; 2000 ns warm-up, then a 5000 ns measurement window.  One
operation is one ``run_closed_loop`` call on a freshly built machine.
The simulator core does nearly all of the host work here; the campaign
cache and the service do none.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from harness import HostSpeed, LayerProfile, Spans, median
from repro.sim import RngFactory
from repro.systems import GS1280System
from repro.workloads.closed_loop import run_closed_loop
from repro.workloads.loadtest import make_random_remote_picker

N_CPUS = 64
OUTSTANDING = 16
WARMUP_NS = 2000.0
WINDOW_NS = 5000.0


def build_machine(seed: int) -> tuple[GS1280System, list[Any]]:
    system = GS1280System(N_CPUS)
    rng_factory = RngFactory(seed)
    pickers = [make_random_remote_picker(rng_factory, cpu, N_CPUS)
               for cpu in range(N_CPUS)]
    return system, pickers


def one_point(seed: int, spans: Spans | None = None,
              uid: str = "") -> tuple[float, float, dict[str, Any]]:
    """Build a machine and run one point on it.

    Returns host seconds of the ``run_closed_loop`` call, host seconds of
    the machine build, and the model outputs.  With ``spans``, the build
    and the run are recorded as spans sharing ``uid``.
    """
    gc.collect()  # the previous point's machine is not collected mid-run
    t0 = time.perf_counter_ns()
    system, pickers = build_machine(seed)
    t1 = time.perf_counter_ns()
    result = run_closed_loop(system, pickers, outstanding=OUTSTANDING,
                             warmup_ns=WARMUP_NS, window_ns=WINDOW_NS)
    t2 = time.perf_counter_ns()
    if spans is not None:
        spans.add("systems.GS1280System", spans.rel(t0), spans.rel(t1), uid)
        spans.add("workloads.run_closed_loop", spans.rel(t1), spans.rel(t2),
                  uid)
    return (t2 - t1) / 1e9, (t1 - t0) / 1e9, {
        "completed": result.completed,
        "latency_ns": result.latency_ns,
        "events": system.sim.events_processed,
    }


def check_outputs(outputs: dict[str, Any], first: dict[str, Any] | None,
                  pin: dict[str, Any] | None) -> list[str]:
    """Why these outputs are wrong (empty when correct)."""
    errors = []
    if outputs["completed"] <= 0 or not outputs["latency_ns"] > 0:
        errors.append(f"degenerate point {outputs}")
    if first is not None and outputs != first:
        errors.append(f"repetition diverged: {outputs} != {first}")
    if pin is not None and outputs != pin:
        errors.append(f"outputs {outputs} != pinned {pin}")
    return errors


def measure(seed: int, seconds: float, trace: bool,
            pin: dict[str, Any] | None, spans: Spans | None,
            speed: HostSpeed) -> dict:
    """Run points until ``seconds`` have passed; point times are scaled
    to reference-host seconds by ``speed``.

    With ``trace``, the first half of the time runs untraced (the
    baseline for ``trace.overhead_frac``) and the second half runs each
    point under cProfile, with spans.
    """
    times: list[float] = []
    raw_times: list[float] = []
    traced_times: list[float] = []
    builds: list[float] = []
    errors: list[str] = []
    outcomes: list[bool] = []
    first: dict[str, Any] | None = None

    def record(outputs: dict[str, Any]) -> None:
        nonlocal first
        point_errors = check_outputs(outputs, first, pin)
        errors.extend(point_errors)
        outcomes.append(not point_errors)
        first = first or outputs

    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    while not times or time.perf_counter() < untraced_until:
        speed.measure()
        elapsed, build_s, outputs = one_point(seed)
        raw_times.append(elapsed)
        times.append(speed.scale(elapsed))
        builds.append(speed.scale(build_s))
        record(outputs)
    profile = LayerProfile()
    while trace and (not traced_times
                     or time.perf_counter() < start + seconds):
        speed.measure()
        with profile.profiled():
            elapsed, _, outputs = one_point(
                seed, spans, f"point-{len(outcomes)}")
        traced_times.append(speed.scale(elapsed))
        record(outputs)
    if trace and not profile.repeats_exactly():
        errors.append("per-layer ncalls differ between identical points")
    result = {
        "op_times": times,
        "raw_op_times": raw_times,
        "attempted": len(outcomes),
        "failed": outcomes.count(False),
        "errors": errors,
        "outputs": first,
    }
    if trace:
        point_s = median(times)
        result["layers"] = {
            **profile.metrics(),
            "sim.events": first["events"],
            "sim.host_ns_per_event": point_s / first["events"] * 1e9,
            "systems.build_s": median(builds),
            "trace.overhead_frac": median(traced_times) / point_s - 1.0,
        }
    return result
