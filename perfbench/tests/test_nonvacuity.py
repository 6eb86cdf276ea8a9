"""Self-tests of the benchmark: its checks and exact counts are not vacuous.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import wl_sim  # noqa: E402
from harness import HostSpeed  # noqa: E402
from repro.cpu.loadgen import LoadGenerator  # noqa: E402

PINS = json.loads((BENCH_DIR / "pins.json").read_text())


def _noop() -> None:
    pass


def test_extra_event_per_transaction_moves_counts_and_fails_checks(
        monkeypatch):
    """One extra scheduled event per transaction is real added work: the
    exact counts (``sim.events``, ``sim.engine.ncalls``) must show it,
    and the pinned-output check must fail although the model's latency
    and completion count are unchanged."""
    pin = PINS["sim-64p"]["0"]
    clean = wl_sim.measure(0, 0.0, True, pin, None, HostSpeed())
    assert clean["failed"] == 0, clean["errors"]
    assert clean["layers"]["sim.events"] == pin["events"]

    issue = LoadGenerator._issue

    def issue_with_extra_event(self: LoadGenerator) -> None:
        self.sim.post(0.0, _noop)
        issue(self)

    monkeypatch.setattr(LoadGenerator, "_issue", issue_with_extra_event)
    patched = wl_sim.measure(0, 0.0, True, pin, None, HostSpeed())

    assert patched["layers"]["sim.events"] > clean["layers"]["sim.events"]
    assert (patched["layers"]["sim.engine.ncalls"]
            > clean["layers"]["sim.engine.ncalls"])
    outputs = patched["outputs"]
    assert (outputs["completed"], outputs["latency_ns"]) == (
        pin["completed"], pin["latency_ns"])
    assert patched["failed"] == patched["attempted"] > 0
    assert all("pinned" in error for error in patched["errors"])


def test_held_out_seed_pins_differ_from_seed_zero():
    sim, sweep = PINS["sim-64p"], PINS["sweep"]
    assert set(sim) == set(sweep) == {"0", "7"}
    assert sim["0"] != sim["7"]
    assert sweep["0"] != sweep["7"]


def test_benchmark_json_names_match_the_command():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == (
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == (
        run.per_layer_units())
