"""Run loop, divergence detection, sweeps, config ingestion, CSV, and CLI.

run_lockstep is the one loop that steps an optimizer. It steps a group
of cells that share a batch sequence (every cell of a full-batch run, or
every cell with the same seed on mini-batches) with one batch draw and
one stacked oracle call per step; each cell then applies the stop rules
and its own step rule. A cell stops on divergence (non-finite iterate,
loss or gradient norm, or loss above threshold) or success, before taking
the next step, and records why. run_once is the loop's one-cell case;
sweeps, the CLI and the audits use these two. Sweeps execute a
deterministic grid of (kind, c, beta, seed[, x0]) cells, serially (one
group per batch sequence) or in a process pool (one cell per task), and
aggregate per-cell summaries in cell order, so repeated invocations of
the same config produce byte-identical CSV output.

Config files use a flat INI-style key-value schema with [problem],
[optimizers], [grid], [budget], and [output] sections; unknown sections
or keys are errors. The CLI exposes run / sweep / verify / bounds and
exits 0 on success, 1 on audit or validation failure, 2 on I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import optimizers as opt
from . import theory
from .optimizers import OptimizerSpec, apply_step, init_state
from .problems import (
    KIND_LEAST_SQUARES, KIND_MULTIMODAL, KIND_POLYNOMIAL, KIND_REGRESSION,
    KIND_RIDGE, KIND_ROSENBROCK, PROBLEM_KINDS, ProblemSpec, StepSample,
    StochasticObjective, build_problem, check_point, evaluate_cells,
    evaluate_loss, sample_batch,
)

STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"
STATUS_BUDGET = "budget_exhausted"
STATUS_ERROR = "error"

# Why a run stopped; the first four end it as diverged.
STOP_NON_FINITE_ITERATE = "non_finite_iterate"
STOP_NON_FINITE_LOSS = "non_finite_loss"
STOP_NON_FINITE_GRAD = "non_finite_grad"
STOP_LOSS_ABOVE_THRESHOLD = "loss_above_threshold"
STOP_SUCCESS = "success"
STOP_BUDGET = "budget"

OUT_DIR_ENV = "NGNOPT_OUT_DIR"

SUMMARY_COLUMNS = ("optimizer", "c", "beta", "seed", "status",
                   "final_loss", "best_loss", "steps_to_success")
TRAJECTORY_COLUMNS = ("step", "loss", "full_loss", "grad_norm", "gamma_scalar",
                      "gamma_coord_min", "gamma_coord_max", "gamma_coord_mean", "update_norm")


class ConfigError(ValueError):
    """Raised for missing, unknown, or ill-typed config keys."""


@dataclass(frozen=True)
class RunBudget:
    """Stop conditions: step cap, success threshold, divergence threshold,
    and batch size (None means full batch)."""

    max_steps: int
    success_loss: float = 1e-15
    diverge_loss: float = 1e10
    batch_size: Optional[int] = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.success_loss < self.diverge_loss:
            raise ValueError("success_loss must be < diverge_loss")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(eq=False)
class RunRecord:
    """Everything recorded during one run, plus the config echo.

    iterates holds x_0 ... x_final as references (step functions never
    modify an iterate in place), and losses[k] and grad_norms[k] were
    evaluated at iterates[k]. step_reports[k] describes the update from
    iterates[k] to iterates[k + 1]; there is none for the final
    evaluation when a stop condition fired. full_losses holds periodic
    (step, full-batch loss) pairs for stochastic runs. x0, x_final and
    stop_step are read off this history. stop_reason is one of the STOP_*
    names: the test that ended the run, or `budget`.
    """

    losses: list
    grad_norms: list
    step_reports: list
    status: str
    spec: OptimizerSpec
    budget: RunBudget
    seed: int
    iterates: list
    full_losses: list = field(default_factory=list)
    stop_reason: str = STOP_BUDGET

    @property
    def x0(self) -> np.ndarray:
        return self.iterates[0]

    @property
    def x_final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def stop_step(self) -> Optional[int]:
        """The step at which a stop condition fired; None out of budget."""
        return None if self.status == STATUS_BUDGET else len(self.losses) - 1

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")

    @property
    def best_loss(self) -> float:
        return min(self.losses) if self.losses else float("nan")

    @property
    def steps_to_success(self) -> Optional[int]:
        return self.stop_step if self.status == STATUS_CONVERGED else None


def split_kind(kind: str) -> tuple:
    """Split an optional per-kind schedule suffix: 'ngn@inv_sqrt_step'
    gives ('ngn', 'inv_sqrt_step'), a plain kind gives (kind, None)."""
    if "@" in kind:
        base, sched = kind.split("@", 1)
        return base, sched
    return kind, None


@dataclass(eq=False)
class SweepSpec:
    """A grid of runs: problem descriptor, optimizer kinds, c grid, beta
    grid, seeds, budget, and output path. x0_grid optionally varies the
    starting point as an extra grid axis (the initialization-sweep
    protocol); shared optimizer settings (beta2, eps, weight decay,
    schedule) apply to every cell. A kind may carry an '@schedule'
    suffix overriding the shared schedule, so one sweep can compare
    schedules side by side."""

    problem: ProblemSpec
    kinds: list
    c_grid: list
    beta_grid: list
    seeds: list
    budget: RunBudget
    out_path: Optional[str] = None
    x0_grid: Optional[list] = None
    beta2: float = 0.999
    eps: float = 1e-8
    wd_lambda: float = 0.0
    schedule: str = opt.SCHEDULE_CONSTANT

    def __post_init__(self):
        for name in ("kinds", "c_grid", "beta_grid", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty list")
        for kind in self.kinds:
            base, sched = split_kind(kind)
            if base not in opt.OPTIMIZER_KINDS:
                raise ValueError(f"unknown optimizer kind {base!r}")
            if sched is not None and sched not in opt.SCHEDULES:
                raise ValueError(f"unknown schedule suffix {sched!r} in {kind!r}")
        if self.x0_grid is not None and not self.x0_grid:
            raise ValueError("x0_grid, when given, must be non-empty")
        if not (math.isfinite(self.wd_lambda) and self.wd_lambda >= 0.0):
            raise ValueError("wd_lambda must be finite and >= 0")

    def cells(self) -> list:
        """Deterministic cell order: kind-major, then c, beta, seed, x0."""
        x0s = self.x0_grid if self.x0_grid is not None else [None]
        return list(itertools.product(self.kinds, self.c_grid, self.beta_grid, self.seeds, x0s))


@dataclass(eq=False)
class SweepResult:
    sweep: SweepSpec
    rows: list


class Cell:
    """One run inside a lockstep group: its rule, its state and what it
    records.

    A group run with history fills losses, grad_norms, reports, iterates
    and full_losses, which a RunRecord holds. Every group keeps what a
    sweep row reads: the last and the best loss, the stop step and the
    state, whose x is the final iterate. status and stop_reason are set
    when a stop rule fires; error holds an exception that ended the cell.
    """

    def __init__(self, problem: StochasticObjective, spec: OptimizerSpec,
                 x0: Optional[np.ndarray] = None):
        self.spec = spec
        self.state = init_state(check_point(problem, problem.x0_default if x0 is None else x0))
        self.losses: list = []
        self.grad_norms: list = []
        self.reports: list = []
        self.iterates: list = [self.state.x]
        self.full_losses: list = []
        self.final_loss = self.best_loss = float("nan")
        self.stop_step: Optional[int] = None
        self.status = STATUS_BUDGET
        self.stop_reason = STOP_BUDGET
        self.error: Optional[Exception] = None

    def record(self, k: int, loss: float, grad_norm: float, history: bool) -> None:
        """Record the evaluation of step k; the running minimum has the
        bits of min(losses), a NaN first loss included."""
        if history:
            self.losses.append(loss)
            self.grad_norms.append(grad_norm)
        if k == 0 or loss < self.best_loss:
            self.best_loss = loss
        self.final_loss = loss

    def stop(self, k: int, status: str, reason: str) -> None:
        self.stop_step, self.status, self.stop_reason = k, status, reason


def run_lockstep(problem: StochasticObjective, cells: list, budget: RunBudget, seed: int,
                 full_eval_every: Optional[int] = None, history: bool = True) -> None:
    """Step cells that share one batch sequence until each one stops.

    Each step draws one batch (for the group's seed), stacks the active
    iterates and makes one oracle call; stochastic runs also log the
    full-batch loss of every active cell every full_eval_every steps
    (default: about 100 checkpoints per run). Each cell then applies
    run_once's stop rules in Python floats, before any further update:
    a non-finite iterate, loss or gradient norm, or a loss above
    diverge_loss is divergence, a loss at or below success_loss success.
    A cell that does not stop takes one step of its own rule through
    apply_step. Cells leave the group as they stop, so every cell ends
    where its one-cell run ends, with the same bits. An exception in a
    step rule ends that cell alone (Cell.error); any other exception ends
    every cell still running. history=False records only what Cell
    keeps for a sweep row.
    """
    step_fn = apply_step  # read here, so a patched harness.apply_step is the one called
    active = [cell for cell in cells if cell.error is None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        try:
            n = problem.n_samples
            bs = n if budget.batch_size is None else budget.batch_size
            if bs > n:
                raise ValueError(f"batch_size {bs} exceeds n_samples {n}")
            stochastic = bs < n
            if full_eval_every is None:
                full_eval_every = max(1, budget.max_steps // 100) if stochastic else 0
            full_batch = problem.full_batch()
            diverge_loss, success_loss = budget.diverge_loss, budget.success_loss
            for k in range(budget.max_steps if active else 0):
                X = np.array([cell.state.x for cell in active])
                if not np.isfinite(X).all():
                    finite = np.isfinite(X).all(axis=1)
                    for cell, ok in zip(active, finite.tolist()):
                        if not ok:
                            cell.record(k, math.inf, math.inf, history)
                            cell.stop(k, STATUS_DIVERGED, STOP_NON_FINITE_ITERATE)
                    active = [cell for cell in active if cell.status == STATUS_BUDGET]
                    if not active:
                        break
                    X = X[finite]
                batch = full_batch if not stochastic else sample_batch(problem, seed, k, bs)
                losses, grads, grad_sqs = evaluate_cells(problem, X, batch)
                if history and stochastic and full_eval_every and k % full_eval_every == 0:
                    for cell, full in zip(active, evaluate_loss(problem, X, full_batch).tolist()):
                        cell.full_losses.append((k, full))
                running = []
                for cell, loss, grad, grad_sq in zip(active, losses.tolist(), grads,
                                                     grad_sqs.tolist()):
                    grad_norm = math.sqrt(grad_sq)
                    cell.record(k, loss, grad_norm, history)
                    if not math.isfinite(loss):
                        cell.stop(k, STATUS_DIVERGED, STOP_NON_FINITE_LOSS)
                    elif loss > diverge_loss:
                        cell.stop(k, STATUS_DIVERGED, STOP_LOSS_ABOVE_THRESHOLD)
                    elif not math.isfinite(grad_norm):
                        cell.stop(k, STATUS_DIVERGED, STOP_NON_FINITE_GRAD)
                    elif loss <= success_loss:
                        cell.stop(k, STATUS_CONVERGED, STOP_SUCCESS)
                    else:
                        try:
                            cell.state, report = step_fn(
                                cell.state, StepSample._with_grad_sq(loss, grad, batch, grad_sq),
                                cell.spec)
                        except Exception as exc:  # this cell's rule failed
                            cell.error = exc
                            continue
                        if history:
                            cell.iterates.append(cell.state.x)
                            cell.reports.append(report)
                        running.append(cell)
                active = running
                if not active:
                    break
        except Exception as exc:  # the group's batch or oracle failed
            for cell in active:
                if cell.status == STATUS_BUDGET and cell.error is None:
                    cell.error = exc


def run_once(problem: StochasticObjective, spec: OptimizerSpec, budget: RunBudget,
             seed: int, x0: Optional[np.ndarray] = None,
             full_eval_every: Optional[int] = None) -> RunRecord:
    """Execute one run until a stop condition or the step cap: the
    one-cell case of run_lockstep, with its whole history recorded."""
    cell = Cell(problem, spec, x0)
    run_lockstep(problem, [cell], budget, seed, full_eval_every)
    if cell.error is not None:
        raise cell.error
    return RunRecord(cell.losses, cell.grad_norms, cell.reports, cell.status, spec, budget,
                     seed, cell.iterates, cell.full_losses, cell.stop_reason)


def make_optimizer_spec(sweep: SweepSpec, kind: str, c: float, beta: float) -> OptimizerSpec:
    base, sched = split_kind(kind)
    schedule = sched if sched is not None else sweep.schedule
    total = sweep.budget.max_steps if schedule == opt.SCHEDULE_INV_SQRT_K else None
    wd = sweep.wd_lambda if base in (opt.DEC_NGN_MDV1, opt.NGN_MDV1W) else 0.0
    return OptimizerSpec(kind=base, c=c, beta1=beta, beta2=sweep.beta2, eps=sweep.eps,
                         wd_lambda=wd, schedule=schedule, total_steps=total)


def _sweep_row(sweep: SweepSpec, cell, run) -> dict:
    """The summary row of a cell from its run, or from the exception that
    kept it from being built."""
    kind, c, beta, seed, x0 = cell
    row = {"optimizer": kind, "c": c, "beta": beta, "seed": seed}
    if sweep.x0_grid is not None:
        row["x0"] = x0
    error = run if isinstance(run, Exception) else run.error
    if error is None:
        row.update(status=run.status, final_loss=run.final_loss, best_loss=run.best_loss,
                   steps_to_success=run.stop_step if run.status == STATUS_CONVERGED else None,
                   stop_reason=run.stop_reason)
        if sweep.x0_grid is not None:
            row["x_final"] = run.state.x
    else:  # record the failure, never abort the sweep
        row.update(status=STATUS_ERROR, final_loss=float("nan"), best_loss=float("nan"),
                   steps_to_success=None, stop_reason=None)
        if sweep.x0_grid is not None:
            row["x_final"] = None
        row["error"] = str(error)
    return row


def _sweep_rows(sweep: SweepSpec, cells: list, problem: StochasticObjective) -> list:
    """Run sweep cells in lockstep, one group per batch sequence: all of
    them on a full batch, the cells of each seed on mini-batches. Rows
    come back in the order of cells."""
    runs = []
    for kind, c, beta, _, x0 in cells:
        try:
            spec = make_optimizer_spec(sweep, kind, c, beta)
            x0_arr = None if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
            runs.append(Cell(problem, spec, x0_arr))
        except Exception as exc:  # a bad spec or start fails its cell alone
            runs.append(exc)
    bs = sweep.budget.batch_size
    shared = bs is None or bs >= problem.n_samples  # the seed picks no batch
    groups: dict = {}
    for cell, run in zip(cells, runs):
        if isinstance(run, Cell):
            groups.setdefault(0 if shared else cell[3], []).append(run)
    for seed, group in groups.items():
        run_lockstep(problem, group, sweep.budget, seed, history=False)
    return [_sweep_row(sweep, cell, run) for cell, run in zip(cells, runs)]


_worker_problem: list = []  # [(ProblemSpec, StochasticObjective)] in a pool worker


def _cell_worker(args) -> dict:
    """Run one cell in a pool worker, as a one-cell group. The worker
    builds the problem in its first cell and reuses it for the rest, so
    per-cell timings include the one build. The build sits outside the
    per-cell guard: a problem that cannot be built fails run_sweep as it
    does on the serial path."""
    sweep, cell = args
    if not _worker_problem or _worker_problem[0][0] != sweep.problem:
        _worker_problem[:] = [(sweep.problem, build_problem(sweep.problem))]
    return _sweep_rows(sweep, [cell], _worker_problem[0][1])[0]


def run_sweep(sweep: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute every cell and aggregate summaries in deterministic cell
    order. The serial path runs one lockstep group per batch sequence;
    workers > 1 runs one cell per task in a process pool where each worker
    builds the problem once. Every cell ends with the bits of its one-cell
    run and results are merged by cell index, so parallel and serial
    output are identical. On both paths a problem that cannot be built
    raises from here, and a cell that fails to run becomes an `error`
    row."""
    cells = sweep.cells()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_cell_worker, [(sweep, cell) for cell in cells]))
    else:
        rows = _sweep_rows(sweep, cells, build_problem(sweep.problem))
    result = SweepResult(sweep, rows)
    if sweep.out_path is not None:
        emit_csv(result, resolve_out_path(sweep.out_path))
    return result


def _fmt(value) -> str:
    """Canonical CSV cell: 17 significant digits for floats, plain ints,
    empty for missing."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _fmt_vector(value) -> str:
    if value is None:
        return ""
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    return ";".join("%.17g" % v for v in arr)


def resolve_out_path(path: str) -> str:
    """Relative output paths land under $NGNOPT_OUT_DIR when it is set."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def ensure_parent_dir(path: str) -> None:
    """Create the directory an output file will land in, if needed."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def emit_csv(obj, path: str) -> None:
    """Write a trajectory CSV for a RunRecord or a summary CSV for a
    SweepResult; floats carry 17 significant digits so parsing is exact."""
    ensure_parent_dir(path)
    if isinstance(obj, RunRecord):
        _emit_trajectory(obj, path)
    elif isinstance(obj, SweepResult):
        _emit_summary(obj, path)
    else:
        raise TypeError(f"emit_csv expects RunRecord or SweepResult, got {type(obj).__name__}")


def _step_stats(rep, x, x_new) -> tuple:
    """gamma_scalar, gamma_coord_min/max/mean and update_norm of the update
    from x to x_new; without gamma_coord the three statistics are
    gamma_scalar."""
    g = rep.gamma_coord
    coord = (rep.gamma_scalar,) * 3 if g is None else (float(g.min()), float(g.max()), float(g.mean()))
    upd = x_new - x
    return (rep.gamma_scalar, *coord, math.sqrt(float((upd * upd).sum())))


def _emit_trajectory(rec: RunRecord, path: str) -> None:
    full = dict(rec.full_losses)
    its = rec.iterates
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for k, loss in enumerate(rec.losses):
        cells = [str(k), _fmt(loss), _fmt(full.get(k)), _fmt(rec.grad_norms[k])]
        if k < len(rec.step_reports):
            cells += [_fmt(v) for v in _step_stats(rec.step_reports[k], its[k], its[k + 1])]
        else:
            cells += [""] * (len(TRAJECTORY_COLUMNS) - len(cells))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _summary_columns(sweep: SweepSpec) -> tuple:
    if sweep.x0_grid is not None:
        return SUMMARY_COLUMNS + ("x0", "x_final")
    return SUMMARY_COLUMNS


def _emit_summary(result: SweepResult, path: str) -> None:
    cols = _summary_columns(result.sweep)
    lines = [",".join(cols)]
    for row in result.rows:
        cells = []
        for col in cols:
            val = row.get(col)
            cells.append(_fmt_vector(val) if col in ("x0", "x_final") else _fmt(val))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_cell(cell: str):
    return None if cell == "" else float(cell)


def parse_trajectory_csv(path: str) -> dict:
    """Read a trajectory CSV back into {column: list}; empty cells -> None,
    the step column -> int, everything else -> float (bit-exact)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = lines[0].split(",")
    if header != list(TRAJECTORY_COLUMNS):
        raise ValueError(f"unexpected trajectory header {header}")
    out = {col: [] for col in header}
    for ln in lines[1:]:
        cells = ln.split(",")
        out["step"].append(int(cells[0]))
        for col, cell in zip(header[1:], cells[1:]):
            out[col].append(_parse_cell(cell))
    return out


def parse_summary_csv(path: str) -> list:
    """Read a summary CSV back into a list of typed row dicts."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        row = dict(zip(header, cells))
        row["c"] = float(row["c"])
        row["beta"] = float(row["beta"])
        row["seed"] = int(row["seed"])
        for col in ("final_loss", "best_loss"):
            row[col] = float(row[col]) if row[col] != "" else None
        row["steps_to_success"] = int(row["steps_to_success"]) if row["steps_to_success"] != "" else None
        for col in ("x0", "x_final"):
            if col in row:
                row[col] = None if row[col] == "" else [float(v) for v in row[col].split(";")]
        rows.append(row)
    return rows


# --- config ingestion -------------------------------------------------------

_PROBLEM_ALIASES = {
    "least_squares": KIND_LEAST_SQUARES,
    "ridge": KIND_RIDGE,
    "ridge_quadratic": KIND_RIDGE,
    "rosenbrock": KIND_ROSENBROCK,
    "multimodal": KIND_MULTIMODAL,
    "multimodal_1d": KIND_MULTIMODAL,
    "polynomial": KIND_POLYNOMIAL,
    "polynomial_1d": KIND_POLYNOMIAL,
    "regression": KIND_REGRESSION,
    "linear_regression_data": KIND_REGRESSION,
}

_OPTIMIZER_ALIASES = {
    "ngn": opt.NGN,
    "ngn_m": opt.NGN_M_V1,
    "ngn_m_v1": opt.NGN_M_V1,
    "ngn_m_v2": opt.NGN_M_V2,
    "ngn_d": opt.NGN_D,
    "ngn_md_v1": opt.NGN_MD_V1,
    "ngn_md_v2": opt.NGN_MD_V2,
    "dec_ngn_mdv1": opt.DEC_NGN_MDV1,
    "ngn_mdv1w": opt.NGN_MDV1W,
    "sgdm": opt.SGDM,
    "gdm": opt.SGDM,
    "adam": opt.ADAM,
}

_SCHEDULE_ALIASES = {
    "constant": opt.SCHEDULE_CONSTANT,
    "inv_sqrt_k": opt.SCHEDULE_INV_SQRT_K,
    "inv_sqrt_step": opt.SCHEDULE_INV_SQRT_STEP,
}

_WD_KINDS = {"decoupled": opt.DEC_NGN_MDV1, "coupled": opt.NGN_MDV1W}
_DEFAULT_WD_MODE = "decoupled"


def _wd_kinds(kinds: list, wd: float, wd_mode: str) -> list:
    """With wd > 0, each ngn_md_v1 column becomes the weight-decay kind
    that wd_mode names, keeping its @schedule suffix."""
    if wd <= 0.0:
        return kinds
    return [_WD_KINDS[wd_mode] + k[len(opt.NGN_MD_V1):] if split_kind(k)[0] == opt.NGN_MD_V1
            else k for k in kinds]


_CONFIG_KEYS = {
    "problem": {"kind", "dim", "n_samples", "seed", "r", "coeffs", "scale",
                "data", "interpolating", "x0"},
    "optimizers": {"kinds", "beta2", "eps", "wd", "wd_mode", "schedule"},
    "grid": {"c", "beta", "seeds", "x0", "x0_range"},
    "budget": {"max_steps", "success_loss", "diverge_loss", "batch_size"},
    "output": {"path"},
}
_REQUIRED = {"problem": {"kind"}, "optimizers": {"kinds"},
             "grid": {"c", "beta", "seeds"}, "budget": {"max_steps"}}


def _cfg_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from exc


def _cfg_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from exc


def _cfg_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")


def _cfg_list(section: str, key: str, raw: str, conv) -> list:
    items = [c.strip() for c in raw.split(",") if c.strip()]
    if not items:
        raise ConfigError(f"{section}.{key}: must be a non-empty list")
    return [conv(section, key, c) for c in items]


def parse_config(path: str) -> SweepSpec:
    """Parse and fully validate a sweep config; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cp.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path!r}: {exc}") from exc
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section, required in _REQUIRED.items():
        if section not in cp:
            raise ConfigError(f"missing config section [{section}]")
        for key in required:
            if key not in cp[section]:
                raise ConfigError(f"missing required key {section}.{key}")

    prob = cp["problem"]
    kind_raw = prob["kind"].strip().lower()
    if kind_raw not in _PROBLEM_ALIASES:
        raise ConfigError(f"problem.kind: unknown kind {kind_raw!r}")
    pkw = {"kind": _PROBLEM_ALIASES[kind_raw]}
    if "dim" in prob:
        pkw["dim"] = _cfg_int("problem", "dim", prob["dim"])
    if "n_samples" in prob:
        pkw["n_samples"] = _cfg_int("problem", "n_samples", prob["n_samples"])
    if "seed" in prob:
        pkw["seed"] = _cfg_int("problem", "seed", prob["seed"])
    if "r" in prob:
        pkw["r"] = _cfg_float("problem", "r", prob["r"])
    if "coeffs" in prob:
        pkw["coeffs"] = tuple(_cfg_list("problem", "coeffs", prob["coeffs"], _cfg_float))
    if "scale" in prob:
        pkw["scale"] = _cfg_float("problem", "scale", prob["scale"])
    if "data" in prob:
        pkw["data_path"] = prob["data"].strip()
    if "interpolating" in prob:
        pkw["interpolating"] = _cfg_bool("problem", "interpolating", prob["interpolating"])
    if "x0" in prob:
        pkw["x0"] = tuple(_cfg_list("problem", "x0", prob["x0"], _cfg_float))
    try:
        problem_spec = ProblemSpec(**pkw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    osec = cp["optimizers"]
    kinds = []
    for name in _cfg_list("optimizers", "kinds", osec["kinds"], lambda s, k, v: v.lower()):
        base, sched = split_kind(name)
        if base not in _OPTIMIZER_ALIASES:
            raise ConfigError(f"optimizers.kinds: unknown optimizer {base!r}")
        if sched is not None and sched not in _SCHEDULE_ALIASES:
            raise ConfigError(f"optimizers.kinds: unknown schedule suffix {sched!r} in {name!r}")
        suffix = "" if sched is None else "@" + _SCHEDULE_ALIASES[sched]
        kinds.append(_OPTIMIZER_ALIASES[base] + suffix)
    beta2 = _cfg_float("optimizers", "beta2", osec["beta2"]) if "beta2" in osec else 0.999
    eps = _cfg_float("optimizers", "eps", osec["eps"]) if "eps" in osec else 1e-8
    wd = _cfg_float("optimizers", "wd", osec["wd"]) if "wd" in osec else 0.0
    wd_mode = osec.get("wd_mode", _DEFAULT_WD_MODE).strip().lower()
    if wd_mode not in _WD_KINDS:
        raise ConfigError(f"optimizers.wd_mode: expected decoupled or coupled, got {wd_mode!r}")
    kinds = _wd_kinds(kinds, wd, wd_mode)
    sched_raw = osec.get("schedule", "constant").strip().lower()
    if sched_raw not in _SCHEDULE_ALIASES:
        raise ConfigError(f"optimizers.schedule: unknown schedule {sched_raw!r}")
    schedule = _SCHEDULE_ALIASES[sched_raw]

    grid = cp["grid"]
    c_grid = _cfg_list("grid", "c", grid["c"], _cfg_float)
    beta_grid = _cfg_list("grid", "beta", grid["beta"], _cfg_float)
    seeds = _cfg_list("grid", "seeds", grid["seeds"], _cfg_int)
    x0_grid = None
    if "x0" in grid and "x0_range" in grid:
        raise ConfigError("grid.x0 and grid.x0_range are mutually exclusive")
    if "x0" in grid:
        x0_grid = _cfg_list("grid", "x0", grid["x0"], _cfg_float)
    if "x0_range" in grid:
        parts = _cfg_list("grid", "x0_range", grid["x0_range"], _cfg_float)
        if len(parts) != 3 or int(parts[2]) < 2:
            raise ConfigError("grid.x0_range: expected 'lo, hi, count' with count >= 2")
        x0_grid = [float(v) for v in np.linspace(parts[0], parts[1], int(parts[2]))]

    bsec = cp["budget"]
    max_steps = _cfg_int("budget", "max_steps", bsec["max_steps"])
    success = _cfg_float("budget", "success_loss", bsec["success_loss"]) if "success_loss" in bsec else 1e-15
    diverge = _cfg_float("budget", "diverge_loss", bsec["diverge_loss"]) if "diverge_loss" in bsec else 1e10
    batch_size = None
    if "batch_size" in bsec and bsec["batch_size"].strip().lower() != "full":
        batch_size = _cfg_int("budget", "batch_size", bsec["batch_size"])
    try:
        budget = RunBudget(max_steps, success, diverge, batch_size)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_path = cp["output"]["path"].strip() if "output" in cp and "path" in cp["output"] else None
    try:
        return SweepSpec(problem_spec, kinds, c_grid, beta_grid, seeds, budget,
                         out_path=out_path, x0_grid=x0_grid, beta2=beta2, eps=eps,
                         wd_lambda=wd, schedule=schedule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# --- CLI --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngnopt",
                                     description="NGN step-size family: runs, sweeps, audits, bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute one optimizer run")
    runp.add_argument("--problem", required=True, choices=sorted(_PROBLEM_ALIASES))
    runp.add_argument("--optimizer", required=True, choices=sorted(_OPTIMIZER_ALIASES))
    runp.add_argument("--c", type=float, required=True)
    runp.add_argument("--beta", type=float, default=0.0)
    runp.add_argument("--beta2", type=float, default=0.999)
    runp.add_argument("--eps", type=float, default=1e-8)
    runp.add_argument("--wd", type=float, default=0.0)
    runp.add_argument("--wd-mode", choices=tuple(_WD_KINDS), default=_DEFAULT_WD_MODE)
    runp.add_argument("--schedule", choices=sorted(_SCHEDULE_ALIASES), default="constant")
    runp.add_argument("--steps", type=int, default=1000)
    runp.add_argument("--batch-size", default="full")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--out", default=None, help="trajectory CSV path")
    runp.add_argument("--x0", default=None, help="comma-separated start point")
    runp.add_argument("--dim", type=int, default=1)
    runp.add_argument("--n-samples", type=int, default=None)
    runp.add_argument("--problem-seed", type=int, default=0)
    runp.add_argument("--r", type=float, default=0.0)
    runp.add_argument("--coeffs", default="0,1", help="ascending p(x) coefficients")
    runp.add_argument("--scale", type=float, default=1.0)
    runp.add_argument("--data", default=None, help="regression CSV path")
    runp.add_argument("--interpolating", action="store_true")
    runp.add_argument("--success-loss", type=float, default=1e-15)
    runp.add_argument("--diverge-loss", type=float, default=1e10)

    sweepp = sub.add_parser("sweep", help="execute a config-driven sweep")
    sweepp.add_argument("--config", required=True)
    sweepp.add_argument("--out", default=None, help="override output.path")
    sweepp.add_argument("--workers", type=int, default=1)

    verifyp = sub.add_parser("verify", help="run the audit suite")
    verifyp.add_argument("--quick", action="store_true", help="smaller audit sizes")
    verifyp.add_argument("--seed", type=int, default=0)
    verifyp.add_argument("--out", default=None, help="audit CSV path")

    boundsp = sub.add_parser("bounds", help="print theory evaluations")
    boundsp.add_argument("--c", type=float, required=True)
    boundsp.add_argument("--L", type=float, required=True)
    boundsp.add_argument("--K", type=int, required=True)
    boundsp.add_argument("--dist0", type=float, required=True, help="||x0 - x*||")
    boundsp.add_argument("--sigma-int", type=float, default=0.0, help="sigma_int^2")
    boundsp.add_argument("--sigma-pos", type=float, default=0.0, help="sigma_pos^2")
    boundsp.add_argument("--c-poly", type=float, default=None)
    return parser


def _cmd_run(args) -> int:
    problem = ProblemSpec(kind=_PROBLEM_ALIASES[args.problem], dim=args.dim,
                          n_samples=args.n_samples, seed=args.problem_seed, r=args.r,
                          coeffs=tuple(float(v) for v in args.coeffs.split(",")),
                          scale=args.scale, data_path=args.data,
                          interpolating=args.interpolating)
    batch_size = None if str(args.batch_size).lower() == "full" else int(args.batch_size)
    kinds = _wd_kinds([_OPTIMIZER_ALIASES[args.optimizer]], args.wd, args.wd_mode)
    sweep = SweepSpec(problem, kinds, [args.c], [args.beta], [args.seed],
                      RunBudget(args.steps, args.success_loss, args.diverge_loss, batch_size),
                      beta2=args.beta2, eps=args.eps, wd_lambda=args.wd,
                      schedule=_SCHEDULE_ALIASES[args.schedule])
    spec = make_optimizer_spec(sweep, kinds[0], args.c, args.beta)
    x0 = None if args.x0 is None else np.array([float(v) for v in args.x0.split(",")])
    rec = run_once(build_problem(sweep.problem), spec, sweep.budget, args.seed, x0=x0)
    steps = rec.steps_to_success
    print(f"status={rec.status} steps={len(rec.losses)} final_loss={rec.final_loss} "
          f"best_loss={rec.best_loss} steps_to_success={'' if steps is None else steps}")
    if args.out:
        emit_csv(rec, resolve_out_path(args.out))
    return 0


_ERRORS_SHOWN = 3  # failed cells whose error text `ngnopt sweep` prints


def _cmd_sweep(args) -> int:
    sweep = parse_config(args.config)
    if args.out is not None:
        sweep.out_path = args.out
    if sweep.out_path is None:
        raise ConfigError("no output path: set output.path in the config or pass --out")
    result = run_sweep(sweep, workers=args.workers)
    print(f"wrote {len(result.rows)} rows to {resolve_out_path(sweep.out_path)}")
    failed = [r for r in result.rows if r["status"] == STATUS_ERROR]
    if failed:
        print(f"{len(failed)} cells recorded errors")
        for row in failed[:_ERRORS_SHOWN]:
            where = " ".join(f"{key}={row[key]}" for key in ("optimizer", "c", "beta", "seed"))
            if "x0" in row:
                where += f" x0={_fmt_vector(row['x0'])}"
            print(f"error: cell {where}: {row['error']}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    reports = verify.run_default_audits(seed=args.seed, quick=args.quick)
    width = max(len(r.name) for r in reports)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {flag}  max_violation={r.max_violation:.3e}  location={r.location}")
    if args.out:
        verify.audits_to_csv(reports, resolve_out_path(args.out))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_bounds(args) -> int:
    rho, lambda_max, beta_max = theory.ngn_m_params(args.c, args.L)
    inputs = theory.TheoryInputs(c=args.c, L=args.L, K=args.K, dist0_sq=args.dist0 ** 2,
                                 sigma_int_sq=args.sigma_int, sigma_pos_sq=args.sigma_pos)
    print(f"rho {rho}")
    print(f"lambda_max {lambda_max}")
    print(f"beta_max {beta_max}")
    print(f"ngn_m_bound {theory.ngn_m_bound(inputs)}")
    print(f"ngn_m_bound_decaying "
          f"{theory.ngn_m_bound_decaying(args.c, args.L, args.K, args.dist0 ** 2, args.sigma_int, args.sigma_pos)}")
    if args.c_poly is not None:
        lo, hi, thresh = theory.gammahat_range(args.c_poly)
        print(f"gammahat_range ({lo}, {hi})")
        print(f"beta_threshold {thresh}")
    return 0


def cli(argv=None) -> int:
    """Entry point: 0 on success, 1 on audit/validation failure, 2 on I/O error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bounds(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
