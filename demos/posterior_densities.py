"""Export the exact marginal posterior density of the zero-inflation weight.

Writes one CSV per bundled dataset (columns ``p,density``) and, when
matplotlib is importable, a combined SVG.  The curves make the test results
visible: two datasets concentrate well to the right of zero, the third
straddles it.
"""

import numpy as np

from zicount import Family, dataset_names, exact_marginal, load_dataset

curves = {}
for name in dataset_names():
    sample = load_dataset(name)
    grid, dens = exact_marginal(Family.POISSON, sample).curve(512)
    curves[name] = (grid, dens)
    out = f"{name}_density.csv"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("p,density\n")
        for p, d in zip(grid, dens):
            handle.write(f"{p:.8g},{d:.8g}\n")
    mode = grid[int(np.argmax(dens))]
    mass = np.trapezoid(dens, grid)
    print(f"{name}: wrote {out}; exact density, mode at p = {mode:.3f}, "
          f"curve mass = {mass:.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the SVG")
else:
    fig, ax = plt.subplots(figsize=(7, 4))
    for name, (grid, dens) in curves.items():
        ax.plot(grid, dens, label=name)
    ax.axvline(0.0, color="grey", lw=0.8, ls="--")
    ax.set_xlabel("zero-inflation weight p")
    ax.set_ylabel("posterior density")
    ax.set_xlim(-1.0, 1.0)
    ax.legend()
    fig.tight_layout()
    fig.savefig("posterior_densities.svg")
    print("wrote posterior_densities.svg")
