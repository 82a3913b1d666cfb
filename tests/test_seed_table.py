"""scripts/seed_table.py reads a finished run as the acceptance checks do."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "scripts", "seed_table.py")
_SPEC = importlib.util.spec_from_file_location("seed_table", _PATH)
seed_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(seed_table)


def test_a_row_holds_the_figures_ac8_reads(full_run):
    # the figures test_08 reads from the same run directory and manifest
    cfg, manifest = full_run
    row = seed_table.row(cfg.out_dir)
    lines = open(os.path.join(cfg.out_dir, "eval_cgru.csv")).read().splitlines()
    _, _, _, ua, ira, _ = lines[1].split(",")
    last = open(os.path.join(cfg.out_dir, "policy_diag_cgru.csv")
                ).read().splitlines()[-1].split(",")
    cgru, ddpo = (manifest.phases[f"eval_{m}"]["info"]["report"]
                  for m in ("cgru", "ddpo"))
    worst = min(cgru.per_class_acc, key=cgru.per_class_acc.get)
    assert row["cgru_ua"] == float(ua)
    assert row["cgru_ira"] == float(ira)
    assert row["cgru_final_reward"] == float(last[-1])
    assert row["ddpo_ua"] == ddpo.ua
    assert row["worst_class"] == worst
    assert row["worst_acc"] == cgru.per_class_acc[worst]
    assert row["ac8_miss"] == int(not (float(ua) >= seed_table.UA_MIN
                                       and float(ira) >= seed_table.IRA_MIN))
