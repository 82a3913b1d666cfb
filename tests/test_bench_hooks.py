"""The names the benchmark in perfbench/ reaches into the package by.

perfbench patches functions by module and name and calls the phases and
diagnostics by attribute, so a rename in src/ would break only the traced
benchmark run. This checks that its spans install and come off cleanly,
that the output columns it reads by name exist, and that the policy
rollouts it counts run in the process that calls run_full.
"""

import csv
import math
import os

from cgru import cli, pipeline
from cgru import rng as rngmod

from conftest import tiny_config

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import layers
    import tracer

    patch = layers.install(tracer.Tracer())
    try:
        assert tracer.installed_wrappers()
    finally:
        patch.restore()
    assert tracer.installed_wrappers() == []
    for name in layers.DIAGS:
        assert callable(getattr(cli, name)), name
    for name in ("classifier", "pretrain", "critic", "full"):
        assert callable(getattr(pipeline, f"run_{name}")), name


def test_benchmark_columns_exist(tiny_run):
    # perfbench/workload.py reads these by column name after a full run
    cfg, _ = tiny_run

    def row(name, index):
        with open(os.path.join(cfg.out_dir, name), newline="") as fh:
            return list(csv.DictReader(fh))[index]

    final = row("eval_cgru.csv", 0)
    for key in ("ua", "ira", "fd"):
        assert math.isfinite(float(final[key])), key
    for method in ("cgru", "ddpo"):
        last = row(f"policy_diag_{method}.csv", -1)
        assert math.isfinite(float(last["mean_reward"])), method


def test_policy_rollouts_run_in_the_calling_process(tmp_path, monkeypatch):
    # perfbench counts sample_trajectories(..., PHASE_POLICY) calls made in
    # its own process during run_full and requires 2 x iterations; a policy
    # arm moved to another process would fail that gate
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Patch

    calls = []

    def stamp(original):
        def wrapper(*args, **kwargs):
            phase = args[4] if len(args) > 4 else kwargs.get("phase")
            if phase == rngmod.PHASE_POLICY:
                calls.append(phase)
            return original(*args, **kwargs)
        return wrapper

    cfg = tiny_config(tmp_path / "run")
    with Patch() as probe:
        probe.replace("cgru.diffusion", "sample_trajectories", stamp)
        pipeline.run_full(cfg)
    assert len(calls) == 2 * cfg.policy.iterations
