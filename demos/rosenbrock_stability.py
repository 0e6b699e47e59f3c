"""Step-size robustness on the Rosenbrock function.

Plain heavy-ball momentum needs its learning rate tuned to the local
curvature: one decade too large and the iterates explode. The NGN step
normalizes the raw rate by the loss-to-gradient ratio, so one cap works
across many decades. This script runs configs/rosenbrock_sweep.cfg,
both rules over six caps, and prints the resulting status grid.

Run: python3 demos/rosenbrock_stability.py
"""

import pathlib

from ngnopt import parse_config, run_sweep

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "rosenbrock_sweep.cfg"


def main():
    sweep = parse_config(str(CONFIG))
    sweep.out_path = None  # print the grid; `ngnopt sweep` writes it as a CSV
    rows = run_sweep(sweep).rows
    cell = {(r["optimizer"], r["c"]): f"converged in {r['steps_to_success']}"
            if r["status"] == "converged" else r["status"] for r in rows}
    print(f"Rosenbrock from (-1.2, 1), success at loss <= {sweep.budget.success_loss:g}, "
          f"beta = {sweep.beta_grid[0]:g}")
    print(f"  {'c':>8}" + "".join(f"  {kind:>22}" for kind in sweep.kinds))
    for c in sweep.c_grid:
        print(f"  {c:>8g}" + "".join(f"  {cell[kind, c]:>22}" for kind in sweep.kinds))
    print()
    print("`ngnopt sweep --config configs/rosenbrock_sweep.cfg` writes this grid as a CSV.")


if __name__ == "__main__":
    main()
