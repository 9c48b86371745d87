#!/usr/bin/env python3
"""Run ``faacflow pipeline`` from a checkout without installing the package.

Example:
    python scripts/run_pipeline.py --config configs/pipeline_desk.yaml --out out/desk
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from faacflow.cli import main

if __name__ == "__main__":
    raise SystemExit(main(["pipeline", *sys.argv[1:]]))
