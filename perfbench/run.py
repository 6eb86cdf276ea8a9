"""The repo's benchmark: host performance of the simulator core, the sweep
engine and the job service, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-64p --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Workloads (``perfbench/manifest.json`` says why each exists and which
end-to-end metric each layer metric should move):

* ``sim-64p``      -- one Figure 15 load-test point on GS1280/64P;
* ``sweep-cold``   -- a small campaign into an empty cache;
* ``sweep-warm``   -- the same campaign over a filled cache;
* ``service-jobs`` -- an open-loop job stream against ``serve``.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (a separate, traced run).  Every line
but the last is a human-readable report; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
check makes ``correct`` false and the exit code 1.  A fuller record (host
block, sample counts, errors) goes to ``.perfbench-out/``; with
``--trace 1`` so does a Chrome ``trace_event`` file.

This measures host performance only.  Model accuracy is guarded by the
golden pins in EXPERIMENTS.md; the pins here only check that the
benchmark ran the model it claims to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback

import harness
from harness import (
    BENCH_DIR,
    MODULES,
    REFERENCE_NOMINAL_S,
    ROOT,
    HostSpeed,
    Spans,
    median,
    percentile,
)

WORKLOADS = ("sim-64p", "sweep-cold", "sweep-warm", "service-jobs")
SCHEMA_VERSION = 1
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = {"sim-64p": 5, "sweep-cold": 5, "sweep-warm": 5, "service-jobs": 3}

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "peak_rss_mb": "MB"}
#: The end-to-end names the workloads' operations go by.
OP_NAMES = {"sim-64p": ("point_s", "point_s"),
            "sweep-cold": ("sweep_cold_s", "sweep_cold_s"),
            "sweep-warm": ("sweep_warm_s", "sweep_warm_s"),
            "service-jobs": ("job_p50_s", "job_p90_s")}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module in MODULES:
        units[f"{module}.self_share"] = "frac"
        units[f"{module}.ncalls"] = "count"
    units.update({
        "sim.events": "count",
        "sim.host_ns_per_event": "ns",
        "systems.build_s": "s",
        "import.entry_s": "s",
        "campaign.cache.hits": "count",
        "campaign.cache.misses": "count",
        "campaign.compute_s": "s",
        "campaign.overhead_s": "s",
        "campaign.cache.load_s": "s",
        "campaign.cache.store_s": "s",
        "service.http.submit_s": "s",
        "service.http.job_s": "s",
        "service.http.result_s": "s",
        "service.queue_wait_p50_s": "s",
        "service.queue_wait_p90_s": "s",
        "service.run_cold_s": "s",
        "service.run_warm_s": "s",
        "service.http.requests_per_job": "ratio",
        "service.points.computed": "count",
        "service.points.cache_hits": "count",
        "service.http.5xx": "count",
        "service.jobs.failed": "count",
        "gen.late_p90_s": "s",
        "trace.overhead_frac": "frac",
    })
    return units


def host_block(seed: int) -> dict[str, object]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "git_commit": commit,
            "seed": seed}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Set up, measure and check one workload; returns the record."""
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    spans = Spans() if trace else None
    work_dir = harness.WORK_DIR / f"{workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    probes: list[dict[str, float]] = []
    speed = HostSpeed()
    try:
        if workload != "service-jobs" or trace:
            for _ in range(SETUPS[workload]):
                speed.measure()
                probe = harness.time_setup_probe(workload, seed)
                probes.append({k: speed.scale(v) for k, v in probe.items()})
        if workload == "sim-64p":
            import wl_sim

            result = wl_sim.measure(seed, seconds, trace,
                                    pins["sim-64p"].get(str(seed)), spans,
                                    speed)
        elif workload in ("sweep-cold", "sweep-warm"):
            import wl_sweep

            result = wl_sweep.measure(
                seed, seconds, trace, workload == "sweep-warm",
                pins["sweep"].get(str(seed)), spans, work_dir, speed)
        else:
            import wl_service

            result = wl_service.measure(seed, seconds, trace, spans,
                                        work_dir, SETUPS[workload], speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    setup_times = result.get("setup_times") or [p["setup_s"] for p in probes]
    op_times = result["op_times"]
    samples = {"setup_s": len(setup_times), "op_p50_s": len(op_times),
               "op_p90_s": len(op_times), "peak_rss_mb": 1}
    if trace:
        units = per_layer_units()
        values = dict.fromkeys(units, 0)
        values.update(result["layers"])
        values["import.entry_s"] = median([p["import_s"] for p in probes])
        unknown = set(values) - set(units)
        if unknown:
            raise KeyError(f"unregistered per-layer metrics {unknown}")
    else:
        units = END_TO_END
        values = {
            "setup_s": median(setup_times),
            "op_p50_s": median(op_times),
            "op_p90_s": percentile(op_times, 90),
            "peak_rss_mb": result.get("peak_rss_mb",
                                      harness.peak_rss_self_mb()),
        }
    record = {
        "schema_version": SCHEMA_VERSION,
        "host": host_block(seed),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "manifest": json.loads(
            (BENCH_DIR / "manifest.json").read_text())["workloads"][workload],
        "metrics": {name: {"value": values[name], "unit": units[name],
                           "n": samples.get(name, 1)} for name in units},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "details": {
            **{k: v for k, v in result.items()
               if k not in ("op_times", "raw_op_times", "layers", "errors",
                            "setup_times")},
            "reference_loop_s": median(speed.samples),
            "raw_op_p50_s": median(result.get("raw_op_times", op_times)),
        },
    }
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (harness.OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if spans is not None:
        spans.write(harness.OUT_DIR / f"{workload}-seed{seed}.trace.json")
    return record


def report(record: dict) -> None:
    """The human-readable lines: every metric by name, unit and sample
    count, then the failure fraction and any failed check."""
    workload = record["workload"]
    print(f"# {workload}  seed={record['host']['seed']}  "
          f"trace={int(record['trace'])}  {record['manifest']['loop']}")
    aliases = dict(zip(("op_p50_s", "op_p90_s"), OP_NAMES[workload]))
    for name, metric in record["metrics"].items():
        alias = f"  [{aliases[name]}]" if name in aliases else ""
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={metric['n']}{alias}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':34s} {failed / max(attempted, 1):>16.6g} "
          f"{'frac':6s} n={attempted}")
    details = record["details"]
    print(f"# host: reference loop {details['reference_loop_s']:.4f} s "
          f"(nominal {REFERENCE_NOMINAL_S} s); unscaled op median "
          f"{details['raw_op_p50_s']:.6g} s")
    for error in record["errors"]:
        print(f"FAILED: {error}")


def result_line(record: dict) -> dict:
    return {
        "correct": record["failed"] == 0 and not record["errors"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own interpreter (so each
    one's peak RSS is its own); prints one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        if not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing (run from the root of a full checkout)",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed string-hash seed makes set/dict iteration, and so the
        # per-layer call counts, repeat exactly from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GS1280_CACHE_DIR", None)
    start = time.perf_counter()
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except Exception:  # noqa: BLE001 - any crash is a failed run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}), flush=True)
        return 1
    report(record)
    print(f"# wall {time.perf_counter() - start:.1f} s")
    line = result_line(record)
    print(json.dumps(line, sort_keys=True), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
