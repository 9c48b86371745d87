#!/usr/bin/env python3
"""Does merging sources beat the best single source on a held-out third?

For each root seed: synthesize the three bundled sources, derive counter
matrices, then run ``evaluation.run_holdout_study``: for every held-out
source, compare a forest trained on the integrated pair against forests
trained on each single remaining source. Also reports 5x3 cross-validation
on the full three-way integration.

Example:
    python scripts/transfer_study.py --roots 11 12 13 14 15 --batches 300
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from faacflow.evaluation import EvalSettings, run_holdout_study, run_single_dataset
from faacflow.faac import derive_dataset, load_faac_config
from faacflow.ingest import generate_chunks, load_source_config
from faacflow.integrate import IntegrationSpec, integrate
from faacflow.seeds import derive_seed

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SOURCES = ("alpha", "beta", "gamma")
RF = {"n_trees": 60, "max_depth": 10}


def run_root(root: int, batches: int, faac, schemas) -> tuple[float, bool, list[str]]:
    derived = {}
    for name, schema in schemas.items():
        profile = replace(schema.profile, seed=derive_seed(root, "synth", name))
        chunks = generate_chunks(profile, schema)
        derived[name] = derive_dataset(chunks, batches, faac, n_records=profile.total)
    merged = integrate(list(derived.values()), IntegrationSpec())

    cv_settings = EvalSettings(k=5, repetitions=3, models=("rf",), fixed_hyper={"rf": RF})
    report = run_single_dataset(merged, cv_settings, seed=root, name="integrated")
    cv_auc = float(np.mean([r.weighted_auc for r in report.rows]))

    transfer_settings = EvalSettings(models=("rf",), fixed_hyper={"rf": RF})
    study = run_holdout_study(derived, transfer_settings, seed=root)
    pair_beats_single = True
    lines = []
    for held in derived:
        pair_auc, *singles = (r.weighted_auc for r in study.rows if r.test_origin == held)
        best = max(singles)
        lines.append(f"held-out {held}: pair {pair_auc:.4f} vs best single {best:.4f}")
        pair_beats_single &= pair_auc > best
    return cv_auc, pair_beats_single, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--roots", type=int, nargs="+", default=[11, 12, 13, 14, 15])
    ap.add_argument("--batches", type=int, default=300, help="target batches per source")
    ap.add_argument("--cv-threshold", type=float, default=0.95)
    args = ap.parse_args()

    faac = load_faac_config(CONFIG_DIR / "faac_reference.yaml")
    schemas = {n: load_source_config(CONFIG_DIR / f"source_{n}.yaml") for n in SOURCES}

    passed = 0
    for root in args.roots:
        t0 = time.perf_counter()
        cv_auc, pair_ok, lines = run_root(root, args.batches, faac, schemas)
        cv_ok = cv_auc >= args.cv_threshold
        ok = cv_ok and pair_ok
        passed += ok
        print(
            f"root {root}: cv wAUC {cv_auc:.4f} [{'ok' if cv_ok else 'LOW'}] "
            f"pair>single [{'ok' if pair_ok else 'FAIL'}] ({time.perf_counter() - t0:.1f}s)"
        )
        for line in lines:
            print(f"    {line}")
    print(f"{passed}/{len(args.roots)} roots passed both checks")
    return 0 if passed == len(args.roots) else 1


if __name__ == "__main__":
    raise SystemExit(main())
