"""Write perfbench/pins.json: the behaviour pin.

    python3 perfbench/pin.py

Records the sha256 of every .ckpt/.csv that the tiny config of
tests/conftest.py leaves (the files AC10 compares), and those of each
workload at seed 0, once with BLAS pinned to one thread and once with the
BLAS default, and lists the files whose bytes depend on that setting. A
pure refactor keeps the `blas1` digests; run.py reports whether a run
matches them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import PIN_SEED, benchmark, run_child  # noqa: E402


def main() -> int:
    root = os.getcwd()
    workloads = [w["name"] for w in benchmark()["workloads"]]
    pins = {}
    for setting, pin_blas in (("blas1", True), ("blas_default", False)):
        entry = pins[setting] = {}
        for workload in workloads:
            ns = argparse.Namespace(workload=workload, seed=PIN_SEED,
                                    overrides=[])
            values = run_child(root, ns, 0, monotonic() + 600,
                               pin_blas=pin_blas)["values"]
            entry[workload] = values["digests"]
            if "tiny_digests" in values:
                entry["tiny"] = values["tiny_digests"]
            print(f"{setting} {workload}: {len(values['digests'])} files",
                  flush=True)
    a, b = pins["blas1"], pins["blas_default"]
    pins["differs_with_blas"] = {
        name: sorted(k for k in a[name] if a[name][k] != b[name].get(k))
        for name in ["tiny"] + workloads}
    with open(os.path.join(HERE, "pins.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pins["differs_with_blas"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
