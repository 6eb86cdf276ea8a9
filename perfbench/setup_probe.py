"""One set-up, timed in a fresh interpreter.

``python perfbench/setup_probe.py <workload> <seed>`` imports the
workload's entry module, does the workload's set-up, and prints one JSON
line the moment it is ready (``harness.time_setup_probe`` times spawn to
that line).  ``import_s`` and ``build_s`` split the probe's own time.

Ready means, per workload: ``sim-64p`` -- imports done and the 64P
machine built with its pickers; ``sweep-cold``/``sweep-warm`` -- the
campaign spec expanded into keyed points; ``service-jobs`` -- the
service CLI entry module imported (the service's own set-up, up to the
first healthy ``/healthz``, is timed against the real server).
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    if workload == "sim-64p":
        import wl_sim

        entry = time.perf_counter()
        wl_sim.build_machine(seed)
    elif workload in ("sweep-cold", "sweep-warm"):
        import wl_sweep
        from repro.campaign import expand_points

        entry = time.perf_counter()
        expand_points(wl_sweep.build_spec(seed))
    elif workload == "service-jobs":
        import repro.experiments.runner  # noqa: F401 - the serve entry

        entry = time.perf_counter()
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    ready = time.perf_counter()
    print(json.dumps({"import_s": entry - start, "build_s": ready - entry}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
