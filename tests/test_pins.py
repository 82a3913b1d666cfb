"""Byte pins: the files of the tiny and default runs and of every diag
check keep the sha256 recorded in pins.json for this machine's
numpy and OpenBLAS core. A change that moves bits on purpose rewrites
pins.json with write_pins.py in the same commit, so the diff names each
file that moved."""

import json

import pytest

from write_pins import PINS, pins_key, run_digests


def test_run_files_keep_their_pinned_bytes(tiny_run, full_run,
                                           unbiasedness_sweep, diag_runs):
    key = pins_key()
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh).get(key)
    if pins is None:
        pytest.skip(f"tests/pins.json has no pins for {key}; "
                    "write them with tests/write_pins.py")
    csvs = {name: res["csv"] for name, res in diag_runs.items()}
    csvs["unbiasedness"] = unbiasedness_sweep["csv"]
    got = run_digests(tiny_run[1], full_run[1], csvs)
    moved = sorted(name for name in pins.keys() | got.keys()
                   if pins.get(name) != got.get(name))
    assert not moved, f"bytes differ from tests/pins.json ({key}): {moved}"
