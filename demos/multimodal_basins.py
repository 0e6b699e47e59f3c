"""Basin-of-attraction census on a 1-d multimodal landscape.

The objective has one global minimum at the origin and a spread of local
traps on both sides. Starting 301 runs across [-20, 20], a rule that can
take large early steps escapes the traps more often. The NGN cap can be
cranked to 100 or 1000 without destabilizing the iteration, and the
global-basin hit count climbs with it; plain heavy ball at those rates
simply diverges. This script runs configs/multimodal_sweep.cfg and
counts the final iterates that land in the global basin.

Run: python3 demos/multimodal_basins.py
"""

import pathlib

import numpy as np

from ngnopt import build_problem, multimodal_global_basin, parse_config, run_sweep

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "multimodal_sweep.cfg"


def main():
    sweep = parse_config(str(CONFIG))
    sweep.out_path = None  # print the counts; `ngnopt sweep` writes every run as a CSV
    left, right = multimodal_global_basin(build_problem(sweep.problem))
    print(f"global basin from the dense scan: [{left:.4f}, {right:.4f}]")
    rows = run_sweep(sweep).rows
    hits = dict.fromkeys(((r["optimizer"], r["c"]) for r in rows), 0)
    for r in rows:
        xf = float(r["x_final"][0])
        if np.isfinite(xf) and left <= xf <= right:
            hits[r["optimizer"], r["c"]] += 1
    print(f"{len(sweep.x0_grid)} starts, {sweep.budget.max_steps}-step budget, "
          f"beta = {sweep.beta_grid[0]:g}")
    print(f"  {'c':>6}" + "".join(f"  {kind + ' hits':>14}" for kind in sweep.kinds))
    for c in sweep.c_grid:
        print(f"  {c:>6g}" + "".join(f"  {hits[kind, c]:>14}" for kind in sweep.kinds))


if __name__ == "__main__":
    main()
