"""Registry mapping experiment ids to the modules that run them.

Each experiment module defines ``run(fast=..., seed=...)``.  A module is
imported only when its experiment runs, so listing the ids (or starting
the CLI) loads none of them.
"""

from __future__ import annotations

import importlib

from repro.experiments.base import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

EXPERIMENTS: dict[str, str] = {
    "fig01": "repro.experiments.fig01_specfp_rate",
    "fig04": "repro.experiments.fig04_dependent_load",
    "fig05": "repro.experiments.fig05_stride_surface",
    "fig06": "repro.experiments.fig06_stream_scaling",
    "fig07": "repro.experiments.fig07_stream_1_4",
    "fig08": "repro.experiments.fig08_ipc_fp",
    "fig09": "repro.experiments.fig09_ipc_int",
    "fig10": "repro.experiments.fig10_util_fp",
    "fig11": "repro.experiments.fig11_util_int",
    "fig12": "repro.experiments.fig12_remote_latency",
    "fig13": "repro.experiments.fig13_latency_map",
    "fig14": "repro.experiments.fig14_latency_scaling",
    "fig15": "repro.experiments.fig15_load_test",
    "tab01": "repro.experiments.tab01_shuffle_model",
    "fig18": "repro.experiments.fig18_shuffle_loadtest",
    "fig19": "repro.experiments.fig19_fluent",
    "fig20": "repro.experiments.fig20_fluent_util",
    "fig21": "repro.experiments.fig21_nas_sp",
    "fig22": "repro.experiments.fig22_sp_util",
    "fig23": "repro.experiments.fig23_gups",
    "fig24": "repro.experiments.fig24_gups_util",
    "fig25": "repro.experiments.fig25_striping_degradation",
    "fig26": "repro.experiments.fig26_hotspot_striping",
    "fig27": "repro.experiments.fig27_xmesh_hotspot",
    "fig28": "repro.experiments.fig28_summary",
    # Extensions beyond the paper (ext02 is its stated future work).
    "ext01": "repro.experiments.ext01_tail_latency",
    "ext02": "repro.experiments.ext02_io_contention",
    "ext03": "repro.experiments.ext03_shuffle16",
    "ext04": "repro.experiments.ext04_failover",
    "ext05": "repro.experiments.ext05_capacity",
}


def experiment_ids() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(exp_id: str, fast: bool = True, seed: int = 0) -> ExperimentResult:
    try:
        module = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {experiment_ids()}"
        ) from None
    runner = importlib.import_module(module).run
    # Experiment-level counters live in the process-global registry so
    # they survive the machines built inside; parallel_map carries each
    # worker's delta of this registry back to the parent.
    from repro.telemetry import global_registry

    registry = global_registry()
    registry.counter("experiments.runs").value += 1
    registry.counter(f"experiments.{exp_id}.runs").value += 1
    return runner(fast=fast, seed=seed)
