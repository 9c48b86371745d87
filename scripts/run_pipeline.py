#!/usr/bin/env python3
"""Run the full synth -> derive -> integrate -> evaluate pipeline from one config.

Example:
    python scripts/run_pipeline.py --config configs/pipeline_desk.yaml --out out/desk

Exit codes are the faacflow command's: 0 success, 2 configuration problem,
3 data problem (a missing file included), 4 evaluation problem.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from faacflow.cli import orchestrate, run_with_exit_codes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="pipeline YAML (faac, sources, evaluation keys)")
    ap.add_argument("--out", required=True, help="output directory for all artifacts")
    ap.add_argument("--seed", type=int, default=None, help="root seed override (default: from config)")
    args = ap.parse_args()
    return run_with_exit_codes(lambda: run(args))


def run(args: argparse.Namespace) -> int:
    artifacts = orchestrate(args.config, args.out, seed=args.seed)
    print(f"wrote {len(artifacts)} artifacts under {args.out}:")
    for key in sorted(artifacts):
        print(f"  {key:28s} {artifacts[key]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
