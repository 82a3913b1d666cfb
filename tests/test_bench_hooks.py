"""The names the benchmark in perfbench/ reaches into the package by.

perfbench patches functions by module and name and calls the phases and
diagnostics by attribute, so a rename in src/ would break only the traced
benchmark run. This checks that its spans install and come off cleanly.
"""

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
