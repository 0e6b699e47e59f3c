"""The five benchmark workloads.

Each workload turns a seed into inputs (seed 0 reproduces the shipped
configs' inputs), runs one unit of work through ngnopt's public API and
checks that the unit's outputs reproduce the claim it comes from. A unit
writes its summary CSV (the audit CSV for `audits`), whose SHA-256 lets
two commits show whether any output bit changed.

Sizes: "full" is what a benchmark run repeats; "smoke" is the smallest
size at which every check still means something.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from ngnopt import harness, problems, verify

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


@dataclass
class Outcome:
    """What one unit produced.

    ops and failed count the operations the unit attempted and lost:
    sweep cells that ended `error`, or audits that failed. checks maps
    each output check to whether it held.
    """

    ops: int
    failed: int
    checks: dict
    csv_sha256: str
    rows: list = field(default_factory=list)


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Workload:
    name = ""
    workers = 1  # pool size of the timed units; references always run serial

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size

    def sweep(self):
        """The SweepSpec one unit runs."""
        raise NotImplementedError

    def setup(self) -> None:
        """Parse or generate the inputs and build the problem once."""
        problems.build_problem(self.sweep().problem)

    def prepare(self) -> None:
        """Untimed reference values the checks need."""

    def unit(self, out_path: str, workers: int) -> Outcome:
        sweep = self.sweep()
        sweep.out_path = out_path
        rows = harness.run_sweep(sweep, workers=workers).rows
        errors = sum(1 for r in rows if r["status"] == harness.STATUS_ERROR)
        return Outcome(len(rows), errors, self.check(rows), sha256_of(out_path), rows)

    def check(self, rows) -> dict:
        raise NotImplementedError


class ConfigSweep(Workload):
    """A shipped config, parsed and adjusted per seed, run by run_sweep:
    the path `ngnopt sweep --config` takes."""

    config = ""

    def sweep(self):
        sweep = harness.parse_config(os.path.join(CONFIG_DIR, self.config))
        self.adjust(sweep)
        return sweep

    def adjust(self, sweep) -> None:
        raise NotImplementedError


class Census(ConfigSweep):
    """Multimodal basin census at the two large caps.

    Starts are every 25th point of the config's 301-point grid on
    [-20, 20] (every 75th in smoke size), so a unit is short and a run
    holds many. A non-zero seed shuffles the order of the starts, and so
    the order of the cells. It does not move them: at caps this large the
    dynamics are chaotic, and moved starts change the work of a unit by
    about 10% from seed to seed.
    """

    name = "census"
    config = "multimodal_sweep.cfg"
    caps = (100.0, 1000.0)

    def adjust(self, sweep) -> None:
        starts = sweep.x0_grid[::25 if self.size == "full" else 75]
        if self.seed:
            starts = [starts[i] for i in np.random.default_rng(self.seed).permutation(len(starts))]
        sweep.c_grid = list(self.caps)
        sweep.x0_grid = starts

    def prepare(self) -> None:
        problem = problems.build_problem(self.sweep().problem)
        self.basin = verify.multimodal_global_basin(problem)

    def check(self, rows) -> dict:
        left, right = self.basin
        hits: dict = {}
        for r in rows:
            xf = r.get("x_final")
            hit = xf is not None and bool(np.isfinite(xf[0])) and left <= float(xf[0]) <= right
            hits[r["optimizer"], r["c"]] = hits.get((r["optimizer"], r["c"]), 0) + int(hit)
        return {f"ngn_hits_ge_sgdm_at_c{c:g}": hits.get(("ngn_m_v1", c), 0) >= hits.get(("sgdm", c), 0)
                for c in self.caps}


class RidgeFullbatch(ConfigSweep):
    """quadratic_schedules: ridge d=400, three schedules, full batch.

    The budget is cut from 10^4 to 200 steps (100 in smoke size) and to
    one run seed, which full-batch runs ignore; the seed picks the ridge
    problem.
    """

    name = "ridge-fullbatch"
    config = "quadratic_schedules.cfg"

    def adjust(self, sweep) -> None:
        sweep.problem = dataclasses.replace(sweep.problem, seed=self.seed)
        steps = 200 if self.size == "full" else 100
        sweep.budget = dataclasses.replace(sweep.budget, max_steps=steps)
        sweep.seeds = sweep.seeds[:1]

    def check(self, rows) -> dict:
        c0 = max(r["c"] for r in rows)
        tiny = min(r["c"] for r in rows)
        final = {(r["optimizer"], r["c"]): r["final_loss"] for r in rows}
        decaying = final["ngn@inv_sqrt_step", c0]
        horizon = final["ngn@inv_sqrt_k", c0]
        small = final["ngn", tiny]
        return {"decaying_le_horizon_le_tiny": bool(decaying <= horizon <= small)}


class LsqMinibatch(Workload):
    """Interpolating least squares, d=50, n=1000, batch 32, six kinds at
    c = 0.1, early stopping on (every cell converges in 250-550 steps);
    the seed picks the data and the batch sequence."""

    name = "lsq-minibatch"
    kinds = ("ngn", "ngn_m_v1", "ngn_d", "ngn_md_v1", "ngn_md_v2", "adam")

    def sweep(self):
        spec = problems.ProblemSpec(kind=problems.KIND_LEAST_SQUARES, dim=50, n_samples=1000,
                                    seed=self.seed, interpolating=True)
        steps = 600 if self.size == "full" else 100
        budget = harness.RunBudget(max_steps=steps, batch_size=32)
        return harness.SweepSpec(spec, list(self.kinds), [0.1], [0.9], [self.seed], budget)

    def check(self, rows) -> dict:
        return {"no_error_cells": all(r["status"] != harness.STATUS_ERROR for r in rows)}


class Quartic(ConfigSweep):
    """polynomial_sweep through a 2-worker pool.

    The config's smallest cap is left out: its NGN cell alone takes 84k of
    the grid's 104k steps and about 4.5 s, so a run would hold only three
    units. Without it the slowest cell (c = 1e-3, 8k steps) still sets
    the time, and pool start-up and rebuilds weigh more. Seed 0 starts at
    the config's x0 = 3; a non-zero seed moves the start uniformly within
    [2.9, 3.1]. Smoke size keeps four caps.
    """

    name = "quartic-pool"
    config = "polynomial_sweep.cfg"
    workers = 2

    def adjust(self, sweep) -> None:
        if self.seed:
            x0 = 3.0 + np.random.default_rng(self.seed).uniform(-0.1, 0.1)
            sweep.problem = dataclasses.replace(sweep.problem, x0=(float(x0),))
        if self.size == "full":
            sweep.c_grid = sorted(sweep.c_grid)[1:]
        else:
            sweep.c_grid = [1e-2, 1e-1, 1.0, 100.0]

    def check(self, rows) -> dict:
        ngn = [r for r in rows if r["optimizer"] != "sgdm"]
        base = sorted((r for r in rows if r["optimizer"] == "sgdm"), key=lambda r: r["c"])
        stable = [r["c"] for r in base if r["status"] == harness.STATUS_CONVERGED]
        edge = max(stable) if stable else 0.0
        above = [r for r in base if r["c"] > edge]
        return {
            "every_ngn_cell_converges": all(r["status"] == harness.STATUS_CONVERGED for r in ngn),
            "baseline_diverges_above_window": bool(above) and all(
                r["status"] == harness.STATUS_DIVERGED for r in above),
        }


class Audits(Workload):
    """Criterion-5 convergence-bound audits plus the default battery.

    audit_theorem_bound, constant and decaying schedules, on interpolating
    least squares with d in {5, 20, 50}, n = 2d, K = 2500 (400 in smoke
    size, with the quick battery); the seed picks the problems and the
    battery's seed.
    """

    name = "audits"
    dims = (5, 20, 50)

    def _problem(self, d: int):
        return problems.build_problem(problems.ProblemSpec(
            kind=problems.KIND_LEAST_SQUARES, dim=d, n_samples=2 * d, seed=self.seed,
            interpolating=True))

    def setup(self) -> None:
        self._problem(self.dims[0])

    def unit(self, out_path: str, workers: int) -> Outcome:
        K = 2500 if self.size == "full" else 400
        reports = []
        for d in self.dims:
            p = self._problem(d)
            for decaying in (False, True):
                reports.append(verify.audit_theorem_bound(p, K, decaying=decaying))
        reports.extend(verify.run_default_audits(seed=self.seed, quick=self.size != "full"))
        verify.audits_to_csv(reports, out_path)
        failed = sum(1 for r in reports if not r.passed)
        return Outcome(len(reports), failed, {"every_audit_passes": failed == 0},
                       sha256_of(out_path))


WORKLOADS = {w.name: w for w in (Census, RidgeFullbatch, LsqMinibatch, Quartic, Audits)}
