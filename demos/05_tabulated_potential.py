"""Full-potential reflection versus the universal curve.

A realistic atom-surface interaction follows -C3/z**3 near the surface and
-C4/z**4 far away. Its exact reflection probability R(kappa) differs from
the inverse-quartic universal curve -- unless both are compared at the same
kappa*b, with b taken from each potential's own scattering length. Then the
full calculation collapses onto R4(kappa*b) at low energy, because the
badlands peak sits in the far-end tail there.

This is the comparison pipeline used for published material tables
(conductor / silicon / silica); those numbers need externally computed
Casimir-Polder tabulations, so a synthetic two-tail model stands in here.
"""

import numpy as np

from qreflect import (
    TabulatedPotential,
    scattering_length,
    solve_direct,
    solve_v4,
)

lam, c3 = 3.0, 0.6
z = np.geomspace(0.004, 4000.0, 1200)
pot = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                         cliff_c3=c3, far_c4=c3 * lam)

sl = scattering_length(pot)
print(f"synthetic potential: b = {sl.b:.4f}, ell = {sl.ell:.4f}, "
      f"b/ell = {sl.b / sl.ell:.4f}")
print()
print(f"{'kappa*b':>9} {'R (full)':>10} {'R4(kappa b)':>12} {'R4(kappa ell)':>14}")
for kb in (0.02, 0.05, 0.119, 0.3, 0.8):
    kappa = kb / sl.b
    full = solve_direct(pot, kappa * kappa).R
    against_b = solve_v4(kb).R
    against_ell = solve_v4(kappa * sl.ell).R
    print(f"{kb:>9.3f} {full:>10.5f} {against_b:>12.5f} {against_ell:>14.5f}")

print()
print("Plotted against kappa*b the full potential hugs the universal curve")
print("at low energy; against kappa*ell it does not.")
