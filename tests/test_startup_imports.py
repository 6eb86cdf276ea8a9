"""Start-up loads only what runs: the import-set gate.

``repro``, ``repro.network`` and ``repro.sim`` re-export their names
lazily (PEP 562) and the experiment registry maps ids to module names,
so the CLI's cheap verbs and the service control plane never import the
simulator.  Each check runs in a fresh interpreter and asserts on
``sys.modules``, which does not depend on host speed.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.experiments.registry import EXPERIMENTS

REPO = Path(__file__).resolve().parent.parent

#: The simulator: none of it may load before a point runs.
SIMULATOR = ("numpy", "repro.systems", "repro.sim.engine")

LAZY_PACKAGES = ("repro", "repro.network", "repro.sim")


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter and decode the JSON it prints
    as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, cwd=str(REPO), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli_modules(*argv: str) -> set[str]:
    return set(_fresh(f"""
        import contextlib, io, json, sys
        from repro.experiments.runner import main
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                main({list(argv)!r})
            except SystemExit:
                pass
        print(json.dumps(sorted(sys.modules)))
    """))


@pytest.mark.parametrize("argv", [("--help",), ("list",)])
def test_cli_loads_no_simulator(argv):
    loaded = _cli_modules(*argv)
    assert not loaded & set(SIMULATOR)
    experiments = sorted(
        name for name in loaded
        if name.startswith(("repro.experiments.fig", "repro.experiments.ext",
                            "repro.experiments.tab"))
    )
    assert experiments == []


def test_control_plane_serves_without_simulator(tmp_path):
    """Health, a submission, its record and the stats: the routes the
    service answers before (and while) workers run jobs."""
    loaded = set(_fresh(f"""
        import json, sys
        from repro.campaign.cache import ResultCache
        from repro.service.client import ServiceClient
        from repro.service.server import ControlPlane, serve_http
        from repro.service.store import JobStore

        root = {str(tmp_path)!r}
        store = JobStore(root + "/jobs.db")
        plane = ControlPlane(store, ResultCache(root + "/cache"),
                             root + "/results")
        server, thread = serve_http(plane, port=0)
        host, port = server.server_address[:2]
        spec = {{"name": "probe", "sweeps": [{{
            "name": "lt", "kind": "load_test",
            "base": {{"system": "GS1280", "cpus": 4, "outstanding": 4}},
            "grid": {{"seed": [0, 1]}}}}]}}
        with ServiceClient(f"http://{{host}}:{{port}}") as client:
            assert client.healthz()["ok"]
            job = client.submit(spec, tenant="probe")
            assert client.job(job["id"])["state"] == "queued"
            assert client.stats()["jobs"]["queued"] == 1
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        store.close()
        print(json.dumps(sorted(sys.modules)))
    """))
    assert "repro.service.store" in loaded  # the probe did run
    assert not loaded & {*SIMULATOR, "repro.network.fabric"}


def test_worker_preloads_simulator_before_first_claim(tmp_path):
    """What the control plane no longer loads, a pool process loads in
    ``main()`` before it claims, so the first job pays no import."""
    loaded = set(_fresh(f"""
        import json, sys
        from repro.service.worker import main
        root = {str(tmp_path)!r}
        main(["--db", root + "/jobs.db", "--cache-dir", root + "/cache",
              "--results-dir", root + "/results", "--idle-exit", "0"])
        print(json.dumps(sorted(sys.modules)))
    """))
    assert {"numpy", "repro.systems"} <= loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_surface(package):
    """Every exported name resolves on first access and is listed by
    ``dir()`` before it is; an unknown name is an ``AttributeError``."""
    report = _fresh(f"""
        import importlib, json
        package = importlib.import_module({package!r})
        unlisted = sorted(set(package.__all__) - set(dir(package)))
        for name in package.__all__:
            getattr(package, name)
        try:
            package.no_such_name
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps({{"unlisted": unlisted, "unknown": unknown}}))
    """)
    assert report == {"unlisted": [], "unknown": "AttributeError"}


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_registered_module_defines_run(exp_id):
    """The registry holds module names, so a typo would surface only
    when that experiment runs; import each one here instead."""
    module = importlib.import_module(EXPERIMENTS[exp_id])
    assert callable(module.run)
