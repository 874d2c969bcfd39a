"""The complex scattering length and the low-energy reflection law.

At low energy the reflection amplitude flattens onto r = -(1 - 2 i kappa a)
with a complex length a; its (negated) imaginary part b fixes the leading
reflection deficit R = 1 - 4 kappa b. a is read off the zero-energy
solution. For the pure inverse-quartic model that solution is z e^(i ell/z),
so b equals the strength length ell exactly, and the fit residual measures
how closely direct solves at small kappa follow the law with that a; for a
full two-tail potential b deviates from ell, which is exactly why reflection
data are best plotted against kappa*b rather than kappa*ell.
"""

import math

import numpy as np

from qreflect import (
    HomogeneousPotential,
    TabulatedPotential,
    scattering_length,
)

quartic = scattering_length(HomogeneousPotential(4, 1.0))
print("pure inverse-quartic model:")
print(f"  a            = {quartic.a:.6f}")
print(f"  b = -Im a    = {quartic.b:.6f}")
print(f"  ell          = {quartic.ell:.6f}")
print(f"  b / ell      = {quartic.b / quartic.ell:.6f}   (exactly 1 in theory)")
print(f"  fit residual = {quartic.fit_residual:.2e}")

print()
print("strength scaling (b tracks sqrt(C4)):")
for c4 in (1.0, 2.0, 4.0):
    sl = scattering_length(HomogeneousPotential(4, c4))
    print(f"  C4 = {c4:<4g} b = {sl.b:.6f}  b/sqrt(C4) = {sl.b / math.sqrt(c4):.6f}")

print()
print("two-tail potential (cubic cliff joined to a quartic far end):")
lam, c3 = 3.0, 0.6
z = np.geomspace(0.004, 4000.0, 1200)
table = TabulatedPotential(z, -c3 / (z ** 3 * (1.0 + z / lam)),
                           cliff_c3=c3, far_c4=c3 * lam)
full = scattering_length(table)
print(f"  b            = {full.b:.6f}")
print(f"  ell          = {full.ell:.6f}")
print(f"  b / ell      = {full.b / full.ell:.6f}   (no longer 1)")
