#!/usr/bin/env python3
"""No net creation of correlations, and the datasets behind the figures.

Summing the squared correlations over the four non-interacting pairs
(s1s2, s1r2, s2r1, r1r2) gives a quantity that never exceeds its initial
value.  It is not monotone, though: it dips while the spins decohere and
climbs back as the reservoirs inherit the correlations.  The script runs
the audit, prints the dip-and-recover shape, and writes one figure-style
CSV + SVG dataset.
"""

from pathlib import Path

import numpy as np

from spinboson import (
    Scenario,
    SpectralDensity,
    emit_csv,
    emit_svg_plot,
    run_sweep,
    square_sum_audit,
    square_sum_series,
)
from spinboson.experiments import SQUARE_SUM_PARTITIONS

scenario = Scenario(
    "two_exc", 2.0**-0.5, 2.0**-0.5,
    SpectralDensity("flat", gamma=1.0),
    np.linspace(0.0, 8.0, 161),
)
result = run_sweep(scenario, SQUARE_SUM_PARTITIONS, "brute_force", grid=16, refine_iters=3)

for measure in ("quantum", "classical", "concurrence"):
    audit = square_sum_audit(result, measure)
    print(f"{audit.name}: passed={audit.passed}, "
          f"max excess over initial = {audit.margin:.3e}, "
          f"monotone = {audit.details['monotone_nonincreasing']}")

sums = square_sum_series(result, "quantum")
times = result.times()
imin = int(np.argmin(sums))
print()
print(f"Q(t)^2 summed over {SQUARE_SUM_PARTITIONS}:")
print(f"  starts at {sums[0]:.6f}")
print(f"  dips to   {sums[imin]:.6f} at gamma*t = {times[imin]:.3f}")
print(f"  recovers  {sums[-1]:.6f} by gamma*t = {times[-1]:.1f}")
print("the recovery is the transfer into the reservoirs completing; the sum")
print("approaches its initial value from below and never crosses it")
print()

out = Path("demo_output")
csv_path = emit_csv(result, out / "conservation_sweep.csv")
svg_path = emit_svg_plot(result, out / "conservation_sweep.svg")
print(f"wrote {csv_path}")
print(f"wrote {svg_path}")
print("(the four reference-figure datasets come from `spinboson figures --out DIR`)")
