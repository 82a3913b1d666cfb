"""Byte pins: the files of the tiny and default runs and of every diag
check keep the sha256 recorded in pins.json for this machine's
numpy and OpenBLAS core. A change that moves bits on purpose rewrites
pins.json with write_pins.py in the same commit, so the diff names each
file that moved."""

import json

import pytest

from write_pins import PINS, pin_changes, pins_key, run_digests


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
    moved = pin_changes(pins, got)
    assert not moved, f"bytes differ from tests/pins.json ({key}): {moved}"


def test_pin_changes_name_each_moved_file():
    old = {"tiny/a.ckpt": "1", "tiny/b.csv": "2", "full/c.ckpt": "3"}
    new = {"tiny/a.ckpt": "1", "tiny/b.csv": "9", "diag/d.csv": "4"}
    assert pin_changes(old, new) == [("diag/d.csv", "appeared"),
                                     ("full/c.ckpt", "disappeared"),
                                     ("tiny/b.csv", "changed")]
    assert pin_changes(new, new) == []
