"""Unbounded-curvature stress test: f(x) = x^2 (1 + x^2).

The quartic's curvature grows with x^2, so any constant rate that is
stable near the start, x = 3, is far from optimal near the minimum, and
any rate aggressive enough to finish fast diverges immediately. The NGN
cap c is not a rate: the realized step adapts, so even absurdly large
caps converge, and the best cap beats the best baseline rate. This
script runs configs/polynomial_sweep.cfg and prints its grid.

Run: python3 demos/polynomial_grid.py
"""

import pathlib

from ngnopt import parse_config, run_sweep

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "polynomial_sweep.cfg"


def main():
    sweep = parse_config(str(CONFIG))
    sweep.out_path = None  # print the grid; `ngnopt sweep` writes it as a CSV
    rows = run_sweep(sweep).rows
    cell = {(r["optimizer"], r["c"]): f"{r['steps_to_success']} steps"
            if r["status"] == "converged" else r["status"] for r in rows}
    print(f"x^2 (1 + x^2) from x = 3, success at loss <= {sweep.budget.success_loss:g}, "
          f"beta = {sweep.beta_grid[0]:g}")
    print(f"  {'c':>8}" + "".join(f"  {kind:>20}" for kind in sweep.kinds))
    for c in sweep.c_grid:
        print(f"  {c:>8g}" + "".join(f"  {cell[kind, c]:>20}" for kind in sweep.kinds))
    print()
    best = {kind: min((r["steps_to_success"] for r in rows
                       if r["optimizer"] == kind and r["status"] == "converged"), default=None)
            for kind in sweep.kinds}
    print("; ".join(f"best {kind}: {steps} steps" for kind, steps in best.items()))


if __name__ == "__main__":
    main()
