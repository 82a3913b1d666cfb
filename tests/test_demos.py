"""Smoke test: the narrative demos 01-04 run to completion.

Demo 05 is a reduced full run; the tiny_run fixture already covers that
path at lower cost.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("name", [
    "01_diffusion_basics.py",
    "02_reward_classifier.py",
    "03_critic_training.py",
    "04_estimators_and_variance.py",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    # demos write their artifacts under relative demo_runs/ paths
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out.strip()
