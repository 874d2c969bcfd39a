"""From an attractive well to a repulsive wall, with nothing lost.

The gauge freedom of the Schrodinger equation under smooth coordinate
changes with correlated wavefunction rescalings (Liouville transformations)
leaves every scattering amplitude untouched. Picking the coordinate
proportional to the WKB phase turns the diverging attractive well into a
finite repulsive bump of height vk^2 Q(z) probed at energy vk^2 -- an
ordinary above-or-below-the-barrier problem.

Two things become obvious in the wall picture:

* lowering the energy lowers E_bold while the wall stays put, so reflection
  grows toward one -- the low-energy paradox of quantum reflection;
* for the inverse-quartic model the wall is a single universal shape, so
  one curve R4(kappa*ell) covers every strength and energy.
"""

import numpy as np

from qreflect import (
    HomogeneousPotential,
    WkbField,
    solve_direct,
    solve_transformed,
    special_gauge,
    universal_wall,
    wall_integral,
    wall_integral_closed,
)

print(f"{'kappa*ell':>10} {'E_bold':>8} {'wall peak':>10} {'R (well)':>10} {'R (wall)':>10}")
for kl in (0.05, 0.3, 1.0):
    pot = HomogeneousPotential(4, kl)
    field = WkbField(pot, kl)
    _, problem = special_gauge(field)
    well = solve_direct(pot, kl)
    wall = solve_transformed(problem)
    peak = max(problem.v_bold(z) for z in np.geomspace(0.3, 3.0, 200))
    print(f"{kl:>10.3g} {problem.e_bold:>8.3f} {peak:>10.4f} "
          f"{well.R:>10.6f} {wall.R:>10.6f}")

print()
print("The wall peak is always 5/8; only E_bold = kappa*ell moves.")
print(f"Wall area: {wall_integral(problem):.9f} "
      f"(closed form {wall_integral_closed(4):.9f})")

xs = np.exp(np.linspace(-2.5, 2.5, 301))
shape = np.array([universal_wall(float(x), 4) for x in xs])

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(shape[:, 0], shape[:, 1], "k-", label="universal wall")
    for kl in (0.05, 0.3, 1.0):
        ax.axhline(kl, ls="--", lw=1, label=f"$E_{{bold}}$ at $\\kappa\\ell={kl}$")
    ax.set_xlabel("wall coordinate")
    ax.set_ylabel("wall height")
    ax.legend(fontsize=8)
    ax.set_title("One wall, many energies")
    fig.tight_layout()
    fig.savefig("wall_picture.png", dpi=150)
    print("wrote wall_picture.png")
except ImportError:
    print("matplotlib unavailable; skipped the figure")
