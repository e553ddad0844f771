#!/usr/bin/env python3
"""Generate singlet joint-angle profile data for several spins.

Writes one CSV per spin (columns theta12_deg, p, p_normalized, q, f) through
the `spinphase singlet` subcommand, then reads each CSV back for the printed
peak summary table.
"""

import argparse
from pathlib import Path

import numpy as np

from spinphase import DistributionKind
from spinphase.cli import main as cli_main


def peak_summary(csv_path: Path):
    """Peak angle, max and min of each kind's column in a profile CSV."""
    table = np.genfromtxt(csv_path, delimiter=",", names=True)
    deg = table["theta12_deg"]
    rows = []
    for kind in DistributionKind:
        vals = table[kind.value.lower()]
        peak_angle = deg[int(np.argmax(vals))]
        rows.append((kind.value, peak_angle, float(np.max(vals)), float(np.min(vals))))
    return rows


def run(out_dir: Path, step_deg: float, twice_spins):
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"{'2s':>4} {'kind':>4} {'peak_deg':>9} {'max':>13} {'min':>13}")
    for ts in twice_spins:
        out = out_dir / f"singlet_profile_2s{ts}.csv"
        cli_main(
            ["singlet", "--kind", "all", "--twice-spin", str(ts),
             "--step-deg", str(step_deg), "--out", str(out)]
        )
        for kind, peak, vmax, vmin in peak_summary(out):
            print(f"{ts:>4} {kind:>4} {peak:>9.1f} {vmax:>13.6e} {vmin:>13.6e}")
        print(f"wrote {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--step-deg", type=float, default=0.5)
    parser.add_argument(
        "--twice-spins", type=int, nargs="+", default=[1, 2, 3, 4]
    )
    args = parser.parse_args()
    run(args.out_dir, args.step_deg, args.twice_spins)
