"""The differential oracle: analytic vs event-driven agreement inside
the published tolerance bands, jobs and observation identity, and the
CLI gate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.differential import (
    IDENTITY_IDS,
    OracleRow,
    TOLERANCE_PCT,
    format_oracle,
    run_oracle,
)


@pytest.fixture(scope="module")
def report():
    return run_oracle(fast=True, jobs=2)


@pytest.mark.slow
class TestOracle:
    def test_all_rows_pass(self, report):
        assert report["ok"]
        assert all(row.ok for row in report["rows"])

    def test_every_validation_quantity_covered(self, report):
        checks = "\n".join(row.check for row in report["rows"])
        for quantity in TOLERANCE_PCT:
            assert quantity in checks

    def test_identity_legs_present(self, report):
        checks = [row.check for row in report["rows"]]
        assert any("jobs=1 == jobs=2" in c for c in checks)
        for exp_id in IDENTITY_IDS:
            assert any(f"telemetry on == off [{exp_id}]" in c
                       for c in checks)
        for label in ("healthy", "fault schedule"):
            assert any(
                f"sharded == single-heap [fig15, {label}]" in c
                for c in checks
            )

    def test_invariants_armed_throughout(self, report):
        rows = [r for r in report["rows"] if "invariants" in r.check]
        assert len(rows) == 1
        armed = rows[0]
        # The invariants row closes the armed-checker session, so every
        # other leg ran with the checkers armed.
        assert report["rows"][-1] is armed
        # The oracle builds real event-driven machines; the checkers
        # must have actually fired on them.
        n_checks = int(armed.detail.split()[0])
        assert n_checks > 1000

    def test_format_marks_rows(self, report):
        text = format_oracle(report)
        assert "[ok ]" in text
        assert "oracle: all checks passed" in text

    def test_format_flags_discrepancies(self):
        bad = {"rows": [OracleRow("synthetic", "off by a mile", False)],
               "ok": False}
        text = format_oracle(bad)
        assert "[FAIL]" in text
        assert "DISCREPANCIES FOUND" in text


@pytest.mark.slow
class TestCli:
    def test_oracle_command(self, capsys):
        from repro.experiments.runner import main

        assert main(["oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle: all checks passed" in out


def _backend_signature(shards, shape, seed, outstanding, schedule, retry):
    """Everything observable from one closed-loop run: workload
    results, event counts, fault log, and the full counter snapshot."""
    from repro.sim import RngFactory
    from repro.systems import GS1280System
    from repro.workloads.closed_loop import run_closed_loop
    from repro.workloads.loadtest import make_random_remote_picker

    n = shape.n_nodes
    system = GS1280System(n, shape=shape, shards=shards,
                         fault_schedule=schedule, retry=retry)
    rng_factory = RngFactory(seed)
    pickers = [
        make_random_remote_picker(rng_factory, cpu, n) for cpu in range(n)
    ]
    result = run_closed_loop(system, pickers, outstanding=outstanding,
                             warmup_ns=500.0, window_ns=1500.0)
    return {
        "completed": result.completed,
        "latency_ns": result.latency_ns,
        "events": system.sim.events_processed,
        "cancelled": system.sim.events_cancelled,
        "fault_log": (system.fault_injector.log
                      if system.fault_injector else None),
        "counters": system.counters(),
    }


@pytest.mark.slow
class TestShardedIdentityProperty:
    """Property form of the oracle's shard-identity leg: across random
    torus shapes, shard counts, seeds, and mid-run fault schedules, the
    sharded backend must reproduce the single heap bit-for-bit."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_sharded_equals_single_heap(self, data):
        from repro.config import TorusShape
        from repro.network.topology import build_gs1280_topology

        shape = data.draw(st.sampled_from(
            [TorusShape(c, r) for c, r in ((2, 2), (4, 2), (4, 4))]
        ), label="shape")
        shards = data.draw(
            st.integers(2, min(4, shape.cols)), label="shards"
        )
        seed = data.draw(st.integers(0, 3), label="seed")
        outstanding = data.draw(st.integers(2, 6), label="outstanding")
        schedule = retry = None
        if data.draw(st.booleans(), label="with_faults"):
            from repro.coherence.retry import RetryPolicy
            from repro.faults import FaultEvent, FaultSchedule

            edges = sorted(
                (a, b)
                for a, b, _cls, _sh in build_gs1280_topology(shape).edges()
            )
            a, b = data.draw(st.sampled_from(edges), label="failed_link")
            at = data.draw(
                st.floats(600.0, 1400.0, allow_nan=False), label="fault_at"
            )
            node = data.draw(
                st.integers(0, shape.n_nodes - 1), label="stalled_node"
            )
            schedule = FaultSchedule([
                FaultEvent(at_ns=at, kind="fail_link", a=a, b=b,
                           duration_ns=300.0),
                FaultEvent(at_ns=at + 50.0, kind="stall_router", a=node,
                           duration_ns=100.0),
            ])
            retry = RetryPolicy()
        args = (shape, seed, outstanding, schedule, retry)
        assert _backend_signature(shards, *args) == \
            _backend_signature(0, *args)


class TestToleranceBands:
    def test_bands_cover_known_deviations_with_margin(self):
        """Each band must sit above the deviation recorded in
        EXPERIMENTS.md (so the oracle is green today) but below 2x the
        loosest, so a genuine calibration break still trips it."""
        from repro.analysis.validation import validation_report

        for row in validation_report(fast=True):
            band = TOLERANCE_PCT[row.quantity]
            assert abs(row.error_pct) <= band
            assert band <= 20.0
