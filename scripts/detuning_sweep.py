#!/usr/bin/env python3
"""Sweep the static detuning and report the first concurrence maximum.

Usage: python scripts/detuning_sweep.py [out.csv]
"""
import math
import sys
from pathlib import Path

import numpy as np

from twoatom.dynamics import TimeGrid
from twoatom.scenarios import Scenario, sweep, sweep_table, write_csv


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("detuning_sweep.csv")
    base = Scenario(
        initial="atom1_excited",
        x=math.pi / 6,
        mu_dot_r=0.0,
        grid=TimeGrid(0.0, 6.0, 3000),
    )
    values = np.linspace(0.0, 20.0, 41)
    rows = sweep(base, "delta", values.tolist())
    write_csv(out, sweep_table(rows))
    best = max(rows, key=lambda r: r.first_max_c)
    print(f"wrote {out} ({len(rows)} rows)")
    print(f"largest first maximum {best.first_max_c:.4f} at delta = {best.value:g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
