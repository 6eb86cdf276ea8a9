"""Workloads ``sweep-cold`` and ``sweep-warm``: one small campaign through
``run_campaign(spec, jobs=1)``.

The spec has 258 small points: mostly analytic ``stream``
and ``striping`` points, ``load_test`` on 4-16P with short windows,
``latency_avg`` on GS1280 and GS320 at 4-16P, and a few open-arrival
``traffic`` points on 8P.  No machine is larger than 16P.

``sweep-cold`` runs each pass into an empty cache directory, so every
point is computed and written (the cache's write path).  ``sweep-warm``
fills one cache untimed, then every pass is spec expansion, key hashing
and cache reads (the read path).  One operation is one pass plus its
JSON export.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import time
from pathlib import Path
from typing import Any

from harness import HostSpeed, LayerProfile, Spans, Timers, median
from repro.campaign import (
    CampaignSpec,
    SweepSpec,
    engine,
    expand_points,
    export_json,
    run_campaign,
)
from repro.campaign.cache import ResultCache, point_key
from repro.systems import GS320System, GS1280System
from repro.telemetry import global_registry

STRIPING_BENCHMARKS = (
    "wupwise", "swim", "mgrid", "applu", "mesa", "galgel", "art",
    "equake", "facerec", "ammp", "lucas", "fma3d", "sixtrack", "apsi",
)
KERNELS = ["copy", "scale", "add", "triad"]


def build_spec(seed: int) -> CampaignSpec:
    """The ``sweep-*`` campaign; ``seed`` feeds every simulated point
    that draws random numbers (``load_test`` and ``traffic``)."""
    short = {"seed": seed, "warmup_ns": 1000.0, "window_ns": 4000.0}
    sweeps = [
        SweepSpec("stream-gs1280", "stream", {"system": "GS1280"},
                  {"cpus": [1, 2, 4, 8, 12, 16, 24, 32, 48, 64],
                   "kernel": KERNELS}),
        SweepSpec("stream-gs320", "stream", {"system": "GS320"},
                  {"cpus": [1, 2, 4, 8, 12, 16, 24, 32], "kernel": KERNELS}),
        SweepSpec("stream-es45", "stream", {"system": "ES45"},
                  {"cpus": [1, 2, 4], "kernel": KERNELS}),
        SweepSpec("striping", "striping", {},
                  {"benchmark": list(STRIPING_BENCHMARKS),
                   "cpus": [1, 2, 4, 8, 12, 16, 24, 32, 48, 64]}),
    ]
    for system in ("GS1280", "GS320"):
        sweeps.append(SweepSpec(
            f"load-{system.lower()}", "load_test",
            {"system": system, **short},
            {"cpus": [4, 8, 16], "outstanding": [1, 2, 4, 8]}))
        sweeps.append(SweepSpec(
            f"latency-{system.lower()}", "latency_avg", {"system": system},
            {"cpus": [4, 8, 16]}))
    sweeps.append(SweepSpec(
        "traffic-8p", "traffic",
        {"system": "GS1280", "cpus": 8, "mix": "default",
         "seed": seed, "warmup_ns": 1000.0, "window_ns": 6000.0},
        {"users": [1000.0, 2000.0, 3000.0, 4000.0]}))
    return CampaignSpec(name="perfbench-sweep",
                        description="small mixed campaign",
                        sweeps=tuple(sweeps))


def wrap_layers(timers: Timers) -> None:
    """The public calls a traced pass times from outside: machine
    construction, point execution and the cache's read/write path."""
    timers.wrap(GS1280System, "__init__", "systems.build")
    timers.wrap(GS320System, "__init__", "systems.build")
    timers.wrap(engine, "run_point", "campaign.run_point", uid_of=point_key)
    timers.wrap(ResultCache, "load", "campaign.cache.load",
                uid_of=lambda self, key, *a, **k: key)
    timers.wrap(ResultCache, "store", "campaign.cache.store",
                uid_of=lambda self, key, *a, **k: key)


def one_pass(spec: CampaignSpec, cache_dir: Path,
             ) -> tuple[float, str, Any, dict[str, float]]:
    """One ``run_campaign`` pass plus its export; returns host seconds,
    the export text, the result and the telemetry counter deltas."""
    gc.collect()  # the previous pass's garbage is not collected mid-pass
    with global_registry().deltas() as delta:
        start = time.perf_counter()
        result = run_campaign(spec, jobs=1, cache_dir=cache_dir)
        text = export_json(result)
        elapsed = time.perf_counter() - start
    return elapsed, text, result, delta


def measure(seed: int, seconds: float, trace: bool, warm: bool,
            pin: dict[str, Any] | None, spans: Spans | None,
            work_dir: Path, speed: HostSpeed) -> dict:
    """Cold (``warm=False``) or warm passes until ``seconds`` have passed;
    pass times are scaled to reference-host seconds by ``speed``.

    With ``trace``, the first half of the time runs untraced and the
    second half runs each pass under cProfile with the cache and point
    calls timed and spanned.
    """
    spec = build_spec(seed)
    fill_dir = work_dir / "cache"
    reference: str | None = None
    if warm:
        _, reference, _, _ = one_pass(spec, fill_dir)
    times: list[float] = []
    raw_times: list[float] = []
    traced_times: list[float] = []
    errors: list[str] = []
    outcomes: list[bool] = []
    per_op: dict[str, list[float]] = {
        "hits": [], "misses": [], "compute_s": [], "overhead_s": [],
    }
    profile = LayerProfile()
    timers = Timers(spans)

    def op(traced: bool) -> None:
        nonlocal reference
        index = len(outcomes)
        cache_dir = fill_dir if warm else work_dir / f"cold-{index}"
        if not warm:
            # Start every pass with no dirty pages: without this the
            # file-creation latency of the cache writes built up from pass
            # to pass through a run.
            os.sync()
        speed.measure()
        if traced:
            begin = spans.now_ns()
            with profile.profiled():
                elapsed, text, result, delta = one_pass(spec, cache_dir)
            traced_times.append(speed.scale(elapsed))
            spans.add("campaign.run_campaign", begin, spans.now_ns(),
                      f"pass-{index}", warm=warm)
        else:
            elapsed, text, result, delta = one_pass(spec, cache_dir)
            raw_times.append(elapsed)
            times.append(speed.scale(elapsed))
        if not warm:
            shutil.rmtree(cache_dir)
        hits = delta.get("campaign.cache.hits", 0)
        misses = delta.get("campaign.cache.misses", 0)
        per_op["hits"].append(hits)
        per_op["misses"].append(misses)
        per_op["compute_s"].append(speed.scale(result.compute_s))
        per_op["overhead_s"].append(
            speed.scale(elapsed - result.compute_s))
        pass_errors = []
        reference = reference or text
        if text != reference:
            pass_errors.append(f"pass {index}: export differs from the "
                               "first pass")
        if warm and misses:
            pass_errors.append(f"pass {index}: warm pass missed {misses}")
        if not warm and hits:
            pass_errors.append(f"pass {index}: cold pass hit {hits}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if pin is not None and digest != pin["export_sha256"]:
            pass_errors.append(f"pass {index}: export sha256 {digest} != "
                               f"pinned {pin['export_sha256']}")
        errors.extend(pass_errors)
        outcomes.append(not pass_errors)

    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    try:
        while not times or time.perf_counter() < untraced_until:
            op(traced=False)
        if trace:
            wrap_layers(timers)
            while not traced_times or time.perf_counter() < start + seconds:
                op(traced=True)
    finally:
        timers.close()
    if trace and not profile.repeats_exactly():
        errors.append("per-layer ncalls differ between identical passes")
    if len(set(per_op["hits"])) > 1 or len(set(per_op["misses"])) > 1:
        errors.append("cache hit/miss counts differ between passes")
    result = {
        "op_times": times,
        "raw_op_times": raw_times,
        "attempted": len(outcomes),
        "failed": outcomes.count(False),
        "errors": errors,
        "points": len(expand_points(spec)),
        "repeated_share": 1.0 if warm else 0.0,
    }
    if trace:
        n_traced = len(traced_times)
        result["layers"] = {
            **profile.metrics(),
            "systems.build_s": (
                speed.scale(timers.seconds["systems.build"]) / n_traced),
            "campaign.cache.hits": per_op["hits"][0],
            "campaign.cache.misses": per_op["misses"][0],
            "campaign.compute_s": median(per_op["compute_s"][:len(times)]),
            "campaign.overhead_s": median(per_op["overhead_s"][:len(times)]),
            "campaign.cache.load_s": (
                speed.scale(timers.seconds["campaign.cache.load"])
                / n_traced),
            "campaign.cache.store_s": (
                speed.scale(timers.seconds["campaign.cache.store"])
                / n_traced),
            "trace.overhead_frac": median(traced_times) / median(times) - 1,
        }
    return result
