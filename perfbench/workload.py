"""Run one benchmark workload in this process and write its result as JSON.

run.py starts this with BLAS pinned and the checkout's src/ on PYTHONPATH;
run the benchmark through run.py, not this file.

  full_default  pipeline.run_full at the default RunConfig. Set-up: the
                tiny-config full run of tests/conftest.py, three times.
  diag_sweep    cli.diag_unbiasedness, then cli.diag_variance, on the
                classifier, pretrain and critic artifacts this process
                builds first. Set-up: that build, three times.

The timed unit runs once; with --trace 1 it runs under the layer spans.
"""

from __future__ import annotations

import argparse
import ast
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
from tracer import Patch, Tracer  # noqa: E402

SETUP_REPEATS = 3


class Ops:
    """Checks with their outcome: the operations attempted (phases and
    correctness gates), or the acceptance margins that are only recorded."""

    def __init__(self):
        self.items = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


def digests(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".ckpt", ".csv")):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tiny_overrides(root: str) -> list:
    """TINY_OVERRIDES from tests/conftest.py, read without importing it."""
    with open(os.path.join(root, "tests", "conftest.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "TINY_OVERRIDES"):
            return list(ast.literal_eval(node.value))
    raise LookupError("tests/conftest.py defines no TINY_OVERRIDES")


def percentile(values: list, q: int) -> float:
    """q-th percentile (q a multiple of 10) by statistics.quantiles."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "cgru_threads": os.environ.get("CGRU_THREADS")}


class Workload:
    """State shared by both workloads: config, timing, gates, tracing."""

    def __init__(self, args):
        self.args = args
        self.ops = Ops()
        # the statistical acceptance checks of tests/test_acceptance.py hold
        # at seed 0 but not at every seed of an unchanged program, so they
        # are recorded as margins and do not fail the run (README.md)
        self.margins = Ops()
        self.values: dict = {}
        self.phase_s: dict = {}
        self.diag_s: dict = {}
        self.tracer = Tracer() if args.trace else None

    def config(self, out_dir: str):
        """Default RunConfig at the run's seed and overrides."""
        from cgru.config import RunConfig, apply_overrides
        return apply_overrides(RunConfig(), [f"seed={self.args.seed}"]
                               + self.args.overrides + [f"out_dir={out_dir}"])

    def traced(self):
        """Patch installing the layer spans, or an empty one untraced."""
        return layers.install(self.tracer) if self.tracer else Patch()

    def same_bytes(self, name: str, digest_list: list) -> None:
        first = digest_list[0]
        diff = sorted({k for d in digest_list[1:] for k in set(d) | set(first)
                       if d.get(k) != first.get(k)})
        self.ops.check(name, first and not diff,
                       f"{len(digest_list)} repeats of {len(first)} files; "
                       f"differ: {diff}")

    def run_full(self, cfg, tag: str, record_phases: bool) -> None:
        """pipeline.run_full with every phase counted as one operation."""
        from cgru import pipeline
        try:
            pipeline.run_full(cfg)
        except Exception:  # a failed phase is a failed operation
            self.ops.check(f"{tag}.run_full", False, traceback.format_exc())
        path = os.path.join(cfg.out_dir, "manifest.json")
        phases = {}
        if os.path.exists(path):
            with open(path) as fh:
                phases = json.load(fh)["phases"]
        for name in layers.PIPELINE_PHASES:
            rec = phases.get(name, {"status": "not run", "seconds": 0.0})
            self.ops.check(f"{tag}.phase.{name}", rec["status"] == "ok",
                           rec["status"])
            if record_phases:
                self.phase_s[name] = float(rec["seconds"])


def full_default(w: Workload) -> None:
    from cgru import rng
    from cgru.config import RunConfig, apply_overrides

    tiny = tiny_overrides(w.args.root)
    setup, tiny_digests = [], []
    for rep in range(SETUP_REPEATS):
        out = os.path.join(w.args.out, f"tiny{rep}")
        cfg = apply_overrides(RunConfig(), tiny + [f"out_dir={out}"])
        start = perf_counter()
        w.run_full(cfg, f"setup{rep}", record_phases=False)
        setup.append(perf_counter() - start)
        tiny_digests.append(digests(out))
    w.same_bytes("setup.byte_identical", tiny_digests)
    w.values["setup_s"] = statistics.median(setup)
    w.values["tiny_digests"] = tiny_digests[0]

    policy_calls = []

    def stamp(original):
        def wrapper(*args, **kwargs):
            phase = args[4] if len(args) > 4 else kwargs.get("phase")
            if phase == rng.PHASE_POLICY:
                policy_calls.append(perf_counter())
            return original(*args, **kwargs)
        return wrapper

    cfg = w.config(os.path.join(w.args.out, "full"))
    start = perf_counter()
    with w.traced(), Patch() as probe:
        probe.replace("cgru.diffusion", "sample_trajectories", stamp)
        w.run_full(cfg, "run", record_phases=True)
    w.values["wall_s"] = perf_counter() - start
    w.values["digests"] = digests(cfg.out_dir)
    iters = cfg.policy.iterations
    w.ops.check("run.policy_rollouts", len(policy_calls) == 2 * iters,
                f"{len(policy_calls)} rollouts, expected {2 * iters}")
    for arm, calls in (("cgru", policy_calls[:iters]),
                       ("ddpo", policy_calls[iters:2 * iters])):
        gaps = [1e3 * (b - a) for a, b in zip(calls, calls[1:])]
        w.values[f"iter_ms.{arm}.p50"] = percentile(gaps, 50)
        w.values[f"iter_ms.{arm}.p80"] = percentile(gaps, 80)
        w.values[f"iter_ms.{arm}.samples"] = len(gaps)

    out = cfg.out_dir
    try:
        row = read_rows(os.path.join(out, "eval_cgru.csv"))[0]
        final = {m: float(read_rows(os.path.join(
            out, f"policy_diag_{m}.csv"))[-1]["mean_reward"])
            for m in ("cgru", "ddpo")}
    except (OSError, IndexError, KeyError, ValueError) as exc:
        w.ops.check("outputs.readable", False, repr(exc))
        return
    ua, ira, fd = float(row["ua"]), float(row["ira"]), float(row["fd"])
    w.values.update(ua=ua, ira=ira, fd=fd, reward_cgru=final["cgru"],
                    reward_ddpo=final["ddpo"],
                    reward_gap=final["cgru"] - final["ddpo"])
    w.margins.check("AC8.ua", ua >= 0.90, f"UA {ua:.4f} >= 0.90")
    w.margins.check("AC8.ira", ira >= 0.70, f"IRA {ira:.4f} >= 0.70")
    w.margins.check("AC8.reward", final["ddpo"] < final["cgru"],
                    f"final reward ddpo {final['ddpo']:.4f} < cgru "
                    f"{final['cgru']:.4f}")


def diag_sweep(w: Workload) -> None:
    from cgru import cli, pipeline

    setup, setup_digests = [], []
    for rep in range(SETUP_REPEATS):
        cfg = w.config(os.path.join(w.args.out, f"setup{rep}"))
        last = rep == SETUP_REPEATS - 1
        start = perf_counter()
        with (w.traced() if last else Patch()):
            for name in ("classifier", "pretrain", "critic"):
                t0 = perf_counter()
                try:
                    getattr(pipeline, f"run_{name}")(cfg)
                    ok, detail = True, "ok"
                except Exception:  # a failed phase is a failed operation
                    ok, detail = False, traceback.format_exc()
                if last:
                    w.phase_s[name] = perf_counter() - t0
                if not w.ops.check(f"setup{rep}.phase.{name}", ok, detail):
                    break
        setup.append(perf_counter() - start)
        setup_digests.append(digests(cfg.out_dir))
    w.same_bytes("setup.byte_identical", setup_digests)
    w.values["setup_s"] = statistics.median(setup)
    w.values["setup_digests"] = setup_digests[0]
    if not all(op["ok"] for op in w.ops.items):
        return

    run_cfg = w.config(os.path.join(w.args.out, f"setup{SETUP_REPEATS - 1}"))
    infos = {}
    start = perf_counter()
    try:
        with w.traced():
            for name in layers.DIAGS:
                t0 = perf_counter()
                infos[name] = getattr(cli, name)(run_cfg)["info"]
                w.diag_s[name] = perf_counter() - t0
    except Exception:  # a failed diagnostic is a failed operation
        w.ops.check("sweep", False, traceback.format_exc())
        return
    w.values["wall_s"] = perf_counter() - start
    w.values["digests"] = digests(run_cfg.out_dir)

    unb, var = infos["diag_unbiasedness"], infos["diag_variance"]
    ratios = [row[3] for row in unb["sweep"]]
    for name, chk in unb["toy"].items():
        w.margins.check(f"AC2.toy.{name}", chk["within_3se"],
                        f"max deviation {chk['max_dev_in_se']:.2f} SE <= 3")
    w.margins.check("AC2.decreasing",
                    all(a > b for a, b in zip(ratios, ratios[1:])),
                    f"ratios {ratios}")
    w.margins.check("AC2.last", ratios[-1] < 0.05,
                    f"ratio {ratios[-1]:.4f} < 0.05")
    w.margins.check("AC4.wins", var["wins"] >= 18, f"wins {var['wins']} >= 18")
    w.values.update(baseline_ratio=ratios[-1], variance_ratio=var["ratio"],
                    variance_wins=var["wins"])


WORKLOADS = {"full_default": full_default, "diag_sweep": diag_sweep}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True, help="checkout root")
    p.add_argument("--out", required=True, help="directory for run outputs")
    p.add_argument("--result", required=True, help="JSON file to write")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="extra RunConfig override")
    args = p.parse_args(argv)

    start = perf_counter()
    import cgru  # noqa: F401  (import time is reported on its own)
    import_s = perf_counter() - start
    w = Workload(args)
    WORKLOADS[args.workload](w)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    w.values["peak_rss_mb"] = rss_mb
    result = {"workload": args.workload, "seed": args.seed,
              "overrides": args.overrides, "import_s": import_s,
              "machine": machine(), "values": w.values, "ops": w.ops.items,
              "margins": w.margins.items,
              "phase_s": w.phase_s, "diag_s": w.diag_s,
              "cgru_file": os.path.abspath(sys.modules["cgru"].__file__)}
    if w.tracer is not None:
        result["spans"] = w.tracer.stats
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
