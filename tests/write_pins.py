"""Write the byte pins that test_pins.py checks.

Runs what the session fixtures run (the tiny and the default run_full,
then every diag check on the default run) in a temporary directory, and
records the sha256 of every file under this machine's key in pins.json,
keeping the other machines' keys. It then prints each pin under that key
that changed, appeared or disappeared. Run it from the repository root
after a change that moves bits on purpose, and commit the diff it makes:

    PYTHONPATH=src python tests/write_pins.py
"""

import ctypes
import hashlib
import json
import os
import tempfile

import numpy as np

from cgru import pipeline
from cgru import procs

from conftest import DIAGS, default_config, diag_at_one_thread, tiny_config

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def pins_key() -> str:
    """numpy's version and its OpenBLAS core: BLAS kernels differ in the
    last bit across CPUs, so the pins hold per key."""
    lib = procs._openblas()
    core = "no-openblas"
    if lib is not None:
        corename = lib.scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"{np.__version__}/{core}"


def run_digests(tiny, full, diag_csvs: dict) -> dict:
    """The sha256 of each file, keyed "<run>/<file name>": the two runs'
    from the manifests they returned, and each diag check's CSV, given
    as bytes by check name."""
    digests = {f"diag/diag_{name}.csv": hashlib.sha256(csv).hexdigest()
               for name, csv in diag_csvs.items()}
    for run, manifest in (("tiny", tiny), ("full", full)):
        for a in manifest.artifacts.values():
            digests[f"{run}/{os.path.basename(a['path'])}"] = a["sha256"]
    return digests


def pin_changes(old: dict, new: dict) -> list:
    """(file, "changed" | "appeared" | "disappeared") of each file whose
    digest differs between two pin maps, in file order."""
    return [(name, "appeared" if name not in old
             else "disappeared" if name not in new else "changed")
            for name in sorted(old.keys() | new.keys())
            if old.get(name) != new.get(name)]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tiny = pipeline.run_full(tiny_config(os.path.join(tmp, "tiny")))
        cfg = default_config(os.path.join(tmp, "full"))
        full = pipeline.run_full(cfg)
        csvs = {name: diag_at_one_thread(name, cfg)["csv"] for name in DIAGS}
    pins = {}
    if os.path.exists(PINS):
        with open(PINS, encoding="utf-8") as fh:
            pins = json.load(fh)
    key = pins_key()
    old, pins[key] = pins.get(key, {}), run_digests(tiny, full, csvs)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    changes = pin_changes(old, pins[key])
    print(f"wrote {len(pins[key])} digests under {key} to {PINS}; "
          f"{len(changes)} moved")
    for name, what in changes:
        print(f"  {what:11s} {name}")


if __name__ == "__main__":
    main()
