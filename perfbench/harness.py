"""Shared machinery of the benchmark: paths, statistics, child processes,
per-layer attribution and span recording.

Nothing here imports ``repro`` at module level, so ``run.py`` can refuse
to run (exit non-zero) in a directory that holds the benchmark but not
the program.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import gc
import heapq
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

#: Layers the traced pass attributes host time to, keyed by the module
#: path under ``src/repro`` (packages whose modules share one layer are
#: listed by package).  Everything else, interpreter built-ins included,
#: is ``other``; ``heapq`` is the event heap's C accelerator.
MODULES = (
    "sim.engine", "heapq",
    "network.link", "network.router", "network.fabric", "network.topology",
    "coherence.agent", "coherence.directory",
    "memory", "traffic", "workloads", "systems",
    "campaign.engine", "campaign.cache",
    "other",
)
_PACKAGE_LAYERS = ("memory", "traffic", "workloads", "systems")


def child_env() -> dict[str, str]:
    """Environment for interpreters the benchmark spawns: the program
    from this checkout's ``src``, no ambient sweep cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("GS1280_CACHE_DIR", None)
    return env


# -- statistics -----------------------------------------------------------
def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method; exact for n >= 2)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_pid_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- host speed -----------------------------------------------------------
#: Seconds ``reference_loop`` takes on the host the benchmark was defined
#: on (Intel Xeon, 2 vCPUs, CPython 3.11, quiet).
REFERENCE_NOMINAL_S = 0.07


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop -- objects, attribute access,
    a heap and a dict, like the program's hot paths -- that shares no
    code with the program, so no change to the program moves it."""
    enabled = gc.isenabled()
    gc.disable()  # the loop must not pay for the caller's heap
    try:
        start = time.perf_counter()
        heap: list[tuple[int, int, _Node]] = []
        table: dict[int, _Node] = {}
        total = 0
        for i in range(60000):
            node = _Node(i * 7919 % 1009, i)
            heapq.heappush(heap, (node.key, i, node))
            table[i & 2047] = node
            if len(heap) > 256:
                total += heapq.heappop(heap)[2].value
            total += table.get((i * 31) & 2047, node).key
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """The host's current speed, from reference loops interleaved with
    the measured operations.

    A shared host runs the same code up to a third slower for minutes at
    a time, and the reference loop slows with it.  :meth:`scale` turns
    host seconds into reference-host seconds -- what the operation would
    have taken where the loop takes :data:`REFERENCE_NOMINAL_S` -- using
    the median of the latest three loops, so a slow phase of the host
    does not read as a slower program.
    """

    def __init__(self, every_s: float = 0.5) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._last = -float("inf")

    def measure(self) -> None:
        """Run the reference loop unless one ran less than ``every_s``
        ago."""
        if time.perf_counter() - self._last >= self.every_s:
            self.samples.append(reference_loop())
            self._last = time.perf_counter()

    def scale(self, seconds: float) -> float:
        if not self.samples:
            raise RuntimeError("no reference loop measured yet")
        recent = statistics.median(self.samples[-3:])
        return seconds * REFERENCE_NOMINAL_S / recent


# -- set-up timing --------------------------------------------------------
def time_setup_probe(workload: str, seed: int) -> dict[str, float]:
    """Spawn a fresh interpreter running ``setup_probe.py`` and time it
    from spawn to its ready line; returns the probe's own figures plus
    ``setup_s``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
         str(seed)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe for {workload} failed "
                           f"(exit {proc.returncode})")
    return {**json.loads(line), "setup_s": setup_s}


# -- per-layer attribution ------------------------------------------------
def module_of(filename: str, funcname: str) -> str:
    """The layer a profiled function belongs to."""
    if "_heapq." in funcname or filename.endswith(os.sep + "heapq.py"):
        return "heapq"
    marker = os.sep + "repro" + os.sep
    at = filename.rfind(marker)
    if at < 0:
        return "other"
    parts = filename[at + len(marker):].removesuffix(".py").split(os.sep)
    dotted = ".".join(parts)
    if dotted in MODULES:
        return dotted
    if parts[0] in _PACKAGE_LAYERS:
        return parts[0]
    return "other"


class LayerProfile:
    """cProfile aggregated by layer over several identical operations.

    ``self_s`` sums self (``tottime``) seconds over every profiled
    operation; ``ncalls`` holds one dict per operation, which must repeat
    exactly for a fixed seed.
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(MODULES, 0.0)
        self.ncalls: list[dict[str, int]] = []

    @contextlib.contextmanager
    def profiled(self) -> Iterator[None]:
        profile = cProfile.Profile()
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
            calls = dict.fromkeys(MODULES, 0)
            for (filename, _, funcname), row in (
                pstats.Stats(profile).stats.items()  # type: ignore[attr-defined]
            ):
                layer = module_of(filename, funcname)
                calls[layer] += row[1]
                self.self_s[layer] += row[2]
            self.ncalls.append(calls)

    def repeats_exactly(self) -> bool:
        return all(c == self.ncalls[0] for c in self.ncalls[1:])

    def metrics(self) -> dict[str, float]:
        total = sum(self.self_s.values()) or 1.0
        first = self.ncalls[0] if self.ncalls else dict.fromkeys(MODULES, 0)
        out: dict[str, float] = {}
        for layer in MODULES:
            out[f"{layer}.self_share"] = self.self_s[layer] / total
            out[f"{layer}.ncalls"] = first[layer]
        return out


class Spans:
    """Host-time spans in the Chrome ``trace_event`` format, recorded by
    the program's own :class:`~repro.telemetry.tracer.EventTracer` so the
    file loads in the same viewers as a simulator trace.

    Every span carries ``args.id``: the point key or job id that links
    the spans of one unit of work.
    """

    PID = 1

    def __init__(self) -> None:
        from repro.telemetry.tracer import EventTracer

        self.tracer = EventTracer(capacity=1_000_000)
        self._t0 = time.perf_counter_ns()

    def rel(self, perf_counter_ns: int) -> float:
        """A ``time.perf_counter_ns()`` reading on this trace's clock."""
        return float(perf_counter_ns - self._t0)

    def now_ns(self) -> float:
        return self.rel(time.perf_counter_ns())

    def add(self, name: str, start_ns: float, end_ns: float, uid: str,
            pid: int = PID, **args: Any) -> None:
        self.tracer.complete(name, start_ns, end_ns - start_ns, pid,
                             args={"id": uid, **args})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self.tracer.export(str(path))


class Timers:
    """Wall time spent in wrapped public functions, summed by name.

    :meth:`wrap` replaces an attribute with a timing wrapper until the
    ``Timers`` is closed; nothing under ``src/`` changes.  With ``spans``
    given, each call is also recorded as a span whose id ``uid_of``
    derives from the call's arguments.
    """

    def __init__(self, spans: Spans | None = None) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.spans = spans
        self._restore: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             uid_of: Callable[..., str] = lambda *a, **k: "") -> None:
        original = getattr(owner, attr)
        self.seconds.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.seconds[name] += (end - start) / 1e9
                self.calls[name] += 1
                if self.spans is not None:
                    self.spans.add(name, self.spans.rel(start),
                                   self.spans.rel(end),
                                   uid_of(*args, **kwargs))

        self._restore.append((owner, attr, original))
        setattr(owner, attr, timed)

    def close(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Timers":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
