"""One CSV row per `run_full` over seeds and settings: the cross-seed table.

Each setting is a list of `--set` overrides, applied over the defaults in
`config.py` with the seed; the script adds no config key. Every run's row
is read back from its run directory (`manifest.json`, `eval_*.csv` and
`policy_diag_cgru.csv`), so a row says what the run wrote. After the run
rows come, per setting, the median of each figure over its seeds with a
bootstrap 95% interval (`lo95`, `hi95`), and a `count` row that counts
the seeds that miss AC8 (cgru UA < 0.90 or IRA < 0.70) and whose
monitored UA was still rising. Run from the repository root, e.g.

    PYTHONPATH=src python scripts/seed_table.py --seeds 0-19 \\
        --setting policy.refresh_epochs=4 --setting policy.refresh_epochs=1 \\
        --out SEEDS_42.csv

The settings of one seed run back to back, so a busy machine slows each
setting alike; a run takes about 5 s at the default config on a 2-core
Xeon.
"""

import argparse
import csv
import json
import os
import sys
import tempfile

import numpy as np

from cgru.config import RunConfig, apply_overrides
from cgru.pipeline import run_full

# AC8's bounds on the cgru arm's final eval (tests/test_acceptance.py)
UA_MIN, IRA_MIN = 0.90, 0.70
FIGURES = ["cgru_ua", "cgru_ira", "cgru_fd", "cgru_final_reward",
           "worst_class", "worst_acc", "ddpo_ua", "grad_norm_mean",
           "clip_fraction", "first_ua90_iteration", "ua_rising", "ac8_miss",
           "cgru_s"]
HEADER = ["stat", "seed", "overrides", "run_id", *FIGURES]
# summed in the count row; every other figure gets a median and interval
FLAGS = ("ua_rising", "ac8_miss")
BOOTSTRAP = 10_000


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def row(out_dir: str) -> dict:
    """The figures of one finished `run_full` directory, by FIGURES name.

    UA, IRA and FD are the final evals' (`eval_*.csv`); the final reward,
    the first monitored iteration with UA >= 0.90 (None if none) and
    whether UA rose between the last two monitored iterations come from
    `policy_diag_cgru.csv`; the worst retained class, the update
    statistics and the arm's seconds come from `manifest.json`.
    """
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        phases = json.load(fh)["phases"]
    cgru, = _csv_rows(os.path.join(out_dir, "eval_cgru.csv"))
    ddpo, = _csv_rows(os.path.join(out_dir, "eval_ddpo.csv"))
    monitor = _csv_rows(os.path.join(out_dir, "policy_diag_cgru.csv"))
    per_class = phases["eval_cgru"]["info"]["report"]["per_class_acc"]
    worst = min(per_class, key=per_class.get)
    ua = [float(r["ua"]) for r in monitor]
    arm = phases["unlearn_cgru"]
    figures = {
        "cgru_ua": float(cgru["ua"]), "cgru_ira": float(cgru["ira"]),
        "cgru_fd": float(cgru["fd"]),
        "cgru_final_reward": float(monitor[-1]["mean_reward"]),
        "worst_class": int(worst), "worst_acc": per_class[worst],
        "ddpo_ua": float(ddpo["ua"]),
        "grad_norm_mean": arm["info"]["grad_norm_mean"],
        "clip_fraction": arm["info"]["clip_fraction"],
        "first_ua90_iteration": next((int(r["iteration"]) for r, u in
                                      zip(monitor, ua) if u >= UA_MIN), None),
        "ua_rising": int(len(ua) >= 2 and ua[-1] > ua[-2]),
        "cgru_s": arm["seconds"],
    }
    figures["ac8_miss"] = int(figures["cgru_ua"] < UA_MIN
                              or figures["cgru_ira"] < IRA_MIN)
    return figures


def bootstrap_median(values, rng: np.random.Generator) -> tuple:
    """The median of `values` and the 2.5th and 97.5th percentiles of the
    medians of BOOTSTRAP resamples of them, drawn with replacement."""
    values = np.asarray(values, dtype=float)
    picks = rng.integers(0, len(values), (BOOTSTRAP, len(values)))
    lo, hi = np.percentile(np.median(values[picks], axis=1), [2.5, 97.5])
    return float(np.median(values)), float(lo), float(hi)


def summary(rows: list) -> list:
    """The median, lo95, hi95 and count rows of one setting's run rows."""
    rng = np.random.default_rng(0)     # the resamples, not any run's stream
    stats = {s: {"stat": s, "seed": "", "overrides": rows[0]["overrides"],
                 "run_id": ""} for s in ("median", "lo95", "hi95", "count")}
    for name in FIGURES:
        if name in FLAGS:
            stats["count"][name] = sum(r[name] for r in rows)
            continue
        present = [r[name] for r in rows if r[name] is not None]
        if name == "worst_class" or not present:
            continue
        for s, v in zip(("median", "lo95", "hi95"),
                        bootstrap_median(present, rng)):
            stats[s][name] = v
    return list(stats.values())


def seed_range(text: str) -> list:
    """"0-19" or "0,3,13" as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-19"))
    ap.add_argument("--setting", action="append", dest="settings",
                    help="space-separated key=value overrides; repeat per "
                         "setting (an empty one runs the defaults)")
    ap.add_argument("--out", required=True, help="the CSV to write")
    ap.add_argument("--runs", help="keep the run directories here")
    args = ap.parse_args(argv)
    settings = [s.split() for s in (args.settings or [""])]
    with tempfile.TemporaryDirectory() as tmp:
        runs = args.runs or tmp
        table = [[] for _ in settings]
        for seed in args.seeds:
            for i, overrides in enumerate(settings):
                out = os.path.join(runs, f"setting{i}-seed{seed}")
                cfg = apply_overrides(RunConfig(), [
                    f"seed={seed}", *overrides, f"out_dir={out}"])
                manifest = run_full(cfg)
                r = {"stat": "run", "seed": seed,
                     "overrides": " ".join(overrides),
                     "run_id": manifest.config_hash[:12], **row(out)}
                table[i].append(r)
                print(f"seed {seed} [{r['overrides']}]: UA {r['cgru_ua']:.3f} "
                      f"IRA {r['cgru_ira']:.3f} FD {r['cgru_fd']:.3f} "
                      f"cgru arm {r['cgru_s']:.2f} s", file=sys.stderr)
    summaries = [summary(rows) for rows in table]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, HEADER, lineterminator="\n")
        writer.writeheader()
        for rows in [*table, *summaries]:
            writer.writerows(rows)
    for rows, (med, *_, count) in zip(table, summaries):
        print(f"[{rows[0]['overrides']}] {len(rows)} seeds, "
              f"{count['ac8_miss']} miss AC8; medians UA "
              f"{med['cgru_ua']:.3f} IRA {med['cgru_ira']:.3f} FD "
              f"{med['cgru_fd']:.3f}, cgru arm {med['cgru_s']:.2f} s")


if __name__ == "__main__":
    main()
