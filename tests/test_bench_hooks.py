"""The names the benchmark in perfbench/ reaches into the package by.

perfbench patches functions by module and name and calls the phases and
diagnostics by attribute, so a rename in src/ would break only the traced
benchmark run. This checks that its spans install and come off cleanly,
and that the output columns it reads by name exist.
"""

import csv
import math
import os

from cgru import cli, pipeline

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
