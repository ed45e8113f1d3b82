#!/usr/bin/env python3
"""Run the latency evaluation from a checkout: `r2o bench` without an install.

    python3 scripts/reproduce_eval.py [--quick] [--out-dir DIR]
                                      [--providers NAMES]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from r2o import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.run(["bench", *sys.argv[1:]]))
