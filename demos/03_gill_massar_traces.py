"""Gill-Massar traces: the 2N-1 pattern and the gain over separable schemes.

The trace of H_q^{-1} times the Fisher matrix is capped at N for separable
(one-copy-at-a-time) measurements.  The optimal joint measurements violate
that cap at every mixed state, with the minimum over the ball approaching
2N - 1 at the pure boundary -- nearly double the separable budget.
"""

import io

import numpy as np

from qig import (
    BlochCartesian,
    curve_sample,
    gm_trace,
    gm_trace_reference,
    limit_trace,
    to_cartesian,
    write_curves_csv,
)
from qig.bloch import BlochSpherical

state = BlochCartesian(0.3, 0.2, 0.1)
print(f"at r = {state.r:.4f}:")
print(f"{'N':>3} {'trace':>10} {'polynomial':>11} {'separable cap':>14}")
for n in (2, 3, 4, 5, 6):
    tr = gm_trace("helstrom", n, state)
    print(f"{n:>3} {tr:>10.6f} {gm_trace_reference(n, state.r):>11.6f} {n:>14}")

print("\nendpoint limits (numeric, Richardson-refined):")
print(f"{'N':>3} {'mixed r->0':>11} {'pure r->1':>10} {'2N-1':>5}")
for n in (2, 3, 4, 5, 6):
    mixed = limit_trace("helstrom", n, "mixed")
    pure = limit_trace("helstrom", n, "pure")
    print(f"{n:>3} {mixed:>11.5f} {pure:>10.5f} {2*n-1:>5}")

print("\nthe trace polynomial is derived for every N, e.g. N = 7:")
print(f"  GM_7(0) = {gm_trace_reference(7, 0.0)},  GM_7(1) = {gm_trace_reference(7, 1.0)}")

# radial profile of the scaled traces (the first figure's data)
tables = curve_sample("gm_scaled", (4, 5, 6, 7), np.linspace(0.0, 1.0, 6))
print("\nscaled traces GM_N(r)/(2N-1) on a coarse grid:")
print("  r:   ", np.round(tables[0].r, 2))
for t in tables:
    print(f"  {t.label}: {np.round(t.value, 4)}")

buf = io.StringIO()
write_curves_csv(tables, buf)
print(f"\n(curve tables serialize to CSV; {len(buf.getvalue().splitlines())} lines here, "
      "same format as `qig curves --figure 1`)")

# the trace is a genuinely global gain: it exceeds N everywhere, not just
# near the boundary
worst = min(gm_trace("helstrom", 6, to_cartesian(BlochSpherical(r, 1.1, 0.7))) - 6
            for r in np.linspace(0.05, 0.99, 40))
print(f"\nmin over a radial line of GM_6 - 6 (separable cap): {worst:.4f} > 0")
