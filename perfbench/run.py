"""The cgru benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload full_default --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run it from the root of a checkout. BENCHMARK.json at that root names the
workloads and metrics. Each workload runs in its own child process
(workload.py) with BLAS pinned to one thread and runs its timed unit once;
`--seconds` is recorded but does not change the work, because one unit
already takes about 25-33 s on a 2-core Xeon. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, where `metrics` holds every end-to-end metric with --trace 0
and every per-layer metric with --trace 1. A traced run first runs the
workload untraced, then traced, and requires the two to leave
byte-identical .ckpt/.csv files; the wall-time difference is the tracing
overhead. `--workload all` runs every workload and prints one table.

Outputs go to perfbench_out/ under the checkout: per-run directories
(removed after the run), a result file per run, and the digest store that
checks repeats of one (workload, seed, source) for byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from time import monotonic, perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170.0      # a whole invocation must end within 180 s
OUT_DIR = "perfbench_out"
DIGEST_KEYS = ("digests", "setup_digests", "tiny_digests")
PIN_SEED = 0             # the seed whose workload digests pins.json holds

# CGRU_THREADS per workload; None leaves it unset (the program's default, 1)
CGRU_THREADS = {"full_default": None, "diag_sweep": "2"}

# Figures printed in the report and kept in the result file but not
# bound-gated: each exists on one workload only, while every end-to-end
# metric must exist on every workload, and most spread wider across seeds
# than the largest bound allowed (README.md has the measurements).
REPORTED = [
    ("iter_ms.cgru.p50", "ms", "full_default"),
    ("iter_ms.cgru.p80", "ms", "full_default"),
    ("iter_ms.ddpo.p50", "ms", "full_default"),
    ("iter_ms.ddpo.p80", "ms", "full_default"),
    ("ua", "ratio", "full_default"),
    ("ira", "ratio", "full_default"),
    ("fd", "units2", "full_default"),
    ("reward_gap", "reward", "full_default"),
    ("baseline_ratio", "ratio", "diag_sweep"),
    ("variance_ratio", "ratio", "diag_sweep"),
    ("variance_wins", "count", "diag_sweep"),
]


def benchmark() -> dict:
    """BENCHMARK.json, the one list of workloads and metrics."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest(root: str) -> str:
    """sha256 over src/cgru/*.py: identifies the program being measured."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "cgru")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str):
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def child_env(root: str, workload: str, pin_blas: bool = True) -> dict:
    env = dict(os.environ)
    for key in BLAS_ENV:
        if pin_blas:
            env[key] = "1"
        else:
            env.pop(key, None)
    env.pop("CGRU_THREADS", None)
    threads = CGRU_THREADS[workload]
    if threads:
        env["CGRU_THREADS"] = threads
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(root: str, args, trace: int, deadline: float,
              pin_blas: bool = True) -> dict:
    """Run one workload in a child process; return its result dict."""
    base = os.path.join(root, OUT_DIR)
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(trace),
           "--root", root, "--out", os.path.join(work, "out"),
           "--result", result_path]
    for item in args.overrides:
        cmd += ["--set", item]
    try:
        proc = subprocess.run(cmd, env=child_env(root, args.workload, pin_blas),
                              cwd=root,
                              timeout=max(1.0, deadline - monotonic()),
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise RuntimeError(f"workload process exited {proc.returncode}:\n"
                               + proc.stdout[-4000:])
        with open(result_path) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class DigestStore:
    """Artifact digests of earlier runs, keyed by workload, seed, config
    overrides, BLAS pin and source digest; a repeat must match."""

    def __init__(self, root: str):
        self.path = os.path.join(root, OUT_DIR, "digests.json")

    def check(self, key: str, digests: dict):
        store = {}
        if os.path.exists(self.path):
            with open(self.path) as fh:
                store = json.load(fh)
        if key in store:
            return store[key] == digests
        store[key] = digests
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
        return None


def pin_status(result: dict, workload: str, seed: int) -> dict:
    """Compare digests with perfbench/pins.json: 'match', 'differs' or
    'unpinned'. Informational: a change may alter bits on purpose."""
    with open(os.path.join(HERE, "pins.json")) as fh:
        pins = json.load(fh)["blas1"]
    values = result["values"]
    out = {}
    if "tiny_digests" in values:
        out["tiny"] = _compare(pins.get("tiny"), values["tiny_digests"])
    if seed == PIN_SEED and not result["overrides"] and "digests" in values:
        out["workload"] = _compare(pins.get(workload), values["digests"])
    return out


def _compare(pinned, digests) -> str:
    if not pinned:
        return "unpinned"
    return "match" if pinned == digests else "differs"


def record_path(root: str, workload: str, seed: int, trace: int,
                overrides: list) -> str:
    """Result file of one run; config overrides get their own files."""
    name = f"{workload}-seed{seed}-trace{trace}"
    if overrides:
        name += "-set" + hashlib.sha256("\n".join(overrides).encode()).hexdigest()[:8]
    return os.path.join(root, OUT_DIR, "results", name + ".json")


def measure(root: str, args) -> dict:
    """Run one workload (twice when traced) and check its outputs."""
    spec = benchmark()
    deadline = monotonic() + RUN_LIMIT_S
    start = perf_counter()
    result = run_child(root, args, 0, deadline)
    ops = list(result["ops"])
    key = "|".join([args.workload, f"seed={args.seed}", "blas=1",
                    f"set={','.join(args.overrides)}",
                    f"src={source_digest(root)}"])
    same = DigestStore(root).check(key, result["values"].get("digests", {}))
    if same is not None:
        ops.append({"name": "repeat.byte_identical", "ok": same,
                    "detail": "artifacts equal those of an earlier run "
                              "of the same workload, seed and source"})
    metrics = {}
    if args.trace:
        traced = run_child(root, args, 1, deadline)
        ops += [dict(op, name=f"traced.{op['name']}") for op in traced["ops"]]
        ops.append({"name": "traced.byte_identical",
                    "ok": all(traced["values"].get(k) == result["values"].get(k)
                              for k in DIGEST_KEYS),
                    "detail": "traced run leaves the untraced run's bytes"})
        trace_wall = traced["values"].get("wall_s", 0.0)
        layer = layers.per_layer_metrics(
            [m["name"] for m in spec["per_layer"]], traced["spans"],
            traced["phase_s"], traced["diag_s"])
        layer["trace.wall_s"] = trace_wall
        layer["trace.overhead_s"] = trace_wall - result["values"].get("wall_s", 0.0)
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        result["spans"] = traced["spans"]
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": result["values"].get(m["name"], 0.0),
                                  "unit": m["unit"]}
    failed = sum(not op["ok"] for op in ops)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_commit": git_commit(root), "source": source_digest(root),
              "blas_pin": 1, "elapsed_s": perf_counter() - start,
              "machine": result["machine"], "import_s": result["import_s"],
              "pins": pin_status(result, args.workload, args.seed),
              "values": result["values"], "phase_s": result["phase_s"],
              "diag_s": result["diag_s"], "ops": ops,
              "margins": result["margins"],
              "spans": result.get("spans")}
    path = record_path(root, args.workload, args.seed, args.trace,
                       args.overrides)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    reported = {name: {"value": result["values"][name], "unit": unit}
                for name, unit, workload in REPORTED
                if workload == args.workload and name in result["values"]}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics, "reported": reported, "ops": ops,
            "margins": result["margins"], "record": path}


def report(name: str, res: dict) -> None:
    print(f"== {name}: {res['attempted'] - res['failed']}/{res['attempted']} "
          f"operations ok; details in {res['record']}")
    for op in res["ops"]:
        if not op["ok"]:
            print(f"  FAILED {op['name']}: {op['detail']}")
    for op in res["margins"]:
        print(f"  margin {'met' if op['ok'] else 'MISSED'} {op['name']}: "
              f"{op['detail']}")
    for mname, m in list(res["metrics"].items()) + list(res["reported"].items()):
        print(f"  {mname:58s} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cgru benchmark")
    workloads = [w["name"] for w in benchmark()["workloads"]]
    p.add_argument("--workload", required=True, choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="recorded only: the timed unit always runs once")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="RunConfig override for the measured runs (tests)")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cgru", "__init__.py")):
        print("error: run from the root of a cgru checkout (src/cgru missing)",
              file=sys.stderr)
        return 2
    names = workloads if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(root, argparse.Namespace(**{**vars(args),
                                                            "workload": name}))
        report(name, results[name])
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values())}
    if len(names) == 1:
        merged["metrics"] = results[names[0]]["metrics"]
    else:
        merged["metrics"] = {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
