"""Tests of the benchmark itself. A plain `pytest` run does not collect
this file (its name has no test_ prefix), so run it with

    python3 -m pytest -q perfbench/selftest.py

from the repository root. The smoke tests run each workload at a tiny
config through run.py, the same path the full benchmark takes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracermod  # noqa: E402
import workload  # noqa: E402
from tracer import Patch, Tracer, covered, installed_wrappers, span_wrapper  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracermod, "perf_counter", clock)
    t = Tracer()

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        t.call("leaf", leaf, (), {})
        clock.now += 0.5

    def root():
        clock.now += 1.0
        t.call("middle", middle, (), {})
        t.call("leaf", leaf, (), {})
        clock.now += 3.0

    t.call("root", root, (), {})
    assert t.stats["root"]["incl_s"] == pytest.approx(9.5)
    assert t.stats["root"]["self_s"] == pytest.approx(4.0)
    assert t.stats["middle"]["incl_s"] == pytest.approx(3.5)
    assert t.stats["middle"]["self_s"] == pytest.approx(1.5)
    assert t.stats["leaf"]["calls"] == 2
    assert t.stats["leaf"]["self_s"] == pytest.approx(4.0)
    total_self = sum(s["self_s"] for s in t.stats.values())
    assert total_self == pytest.approx(t.stats["root"]["incl_s"])


def test_overlapping_children_count_once():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered([(1.0, 4.0), (2.0, 3.0)]) == pytest.approx(3.0)


def test_threaded_shards_adopt_the_run_sharded_span(monkeypatch):
    from cgru import rng
    monkeypatch.setenv("CGRU_THREADS", "2")
    t = Tracer()
    with layers.install(t):
        rng.run_sharded(lambda lo, hi: rng.stream(0, rng.PHASE_DIAG, lo), 1000)
    st = t.stats
    assert st["rng.run_sharded"]["shards"] == len(rng.shard_ranges(1000))
    assert st["rng.stream"]["calls"] == len(rng.shard_ranges(1000))
    assert 0.0 <= st["rng.run_sharded"]["self_s"] <= st["rng.run_sharded"]["incl_s"]


def test_no_wrapper_left_after_traced_run(tmp_path):
    from cgru import critic, diffusion, nets, pipeline, rng
    from cgru.config import RunConfig, apply_overrides
    originals = (nets.forward, rng.stream, diffusion.sample_trajectories)
    cfg = apply_overrides(RunConfig(), workload.tiny_overrides(ROOT)
                          + [f"out_dir={tmp_path}"])
    t = Tracer()
    with layers.install(t):
        assert installed_wrappers()
        pipeline.run_classifier(cfg)
        pipeline.run_pretrain(cfg)
        with pytest.raises(RuntimeError):
            with Patch() as p:
                p.replace("cgru.nets", "forward", span_wrapper(t, "x"))
                raise RuntimeError("restore on error")
    assert installed_wrappers() == []
    assert (nets.forward, rng.stream, diffusion.sample_trajectories) == originals
    assert diffusion.forward is nets.forward
    assert critic.critic_train is pipeline.critic_train
    assert t.stats["rewards.train_classifier"]["calls"] == 1
    assert t.stats["diffusion.ddpm_train_step"]["calls"] > 0


BENCH = run.benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def test_metric_names_and_units():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"]) <= 0.25


# tiny budgets; diffusion.T is cut too so the 10,000-rollout sweep stays short
SMOKE = workload.tiny_overrides(ROOT) + ["diffusion.T=10"]


def _run(args, cwd):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_workload(name, trace):
    args = ["--workload", name, "--seed", "0", "--seconds", "0",
            "--trace", str(trace)]
    for item in SMOKE:
        args += ["--set", item]
    proc = _run(args, ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = [(m["name"], m["unit"])
                for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    with open(run.record_path(ROOT, name, 0, trace, SMOKE)) as fh:
        record = json.load(fh)
    ops = {op["name"]: op["ok"] for op in record["ops"]}
    assert all(ops.values()), ops
    assert result["correct"] and result["failed"] == 0
    assert record["margins"]
    if trace:
        assert ops["traced.byte_identical"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "full_default", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
