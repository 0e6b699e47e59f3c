"""Run loop, divergence detection, sweeps, config ingestion, CSV, and CLI.

run_lockstep is the one loop that steps an optimizer. It steps a group
of cells, one RunRecord each, that share a batch sequence (every cell of
a full-batch run, or every cell with the same seed on mini-batches) with
one batch per step, drawn in blocks of steps, and one oracle call per
step (stacked, or one-point for a lone cell); each cell then
applies the stop rules and its own step rule. A cell stops on divergence
(non-finite iterate, loss or gradient norm, or loss above threshold) or
success, before taking the next step, and records why; its iterate is
tested only when the oracle's loss is not finite. run_once is the
loop's one-cell case and returns the record it stepped; sweeps, the CLI
and the audits use these two. Sweeps execute a
deterministic grid of (kind, c, beta, seed[, x0]) cells, serially (one
group per batch sequence) or in several processes (one run at a time, on
the pool that the audit battery shares: _pool), and aggregate per-cell
summaries in cell order, so repeated invocations of the same config
produce byte-identical CSV output.

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
import numbers
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import optimizers as opt
from . import theory
from .optimizers import OptimizerSpec, StepReport, apply_step, init_state
from .problems import (
    KIND_LEAST_SQUARES, KIND_MULTIMODAL, KIND_POLYNOMIAL, KEY_BOUND, KIND_RIDGE,
    KIND_ROSENBROCK, ProblemSpec, StochasticObjective, _check_key, build_problem,
    check_point, evaluate_cells, evaluate_loss, sample_batches,
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
_ROW_FIELDS = SUMMARY_COLUMNS + ("stop_reason", "x0", "x_final", "error")  # what _sweep_row writes
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
        if not (isinstance(self.max_steps, numbers.Integral) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be a whole number >= 1, got {self.max_steps!r}")
        for name in ("success_loss", "diverge_loss"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN, got {getattr(self, name)!r}")
        if not self.success_loss < self.diverge_loss:
            raise ValueError("success_loss must be < diverge_loss")
        if self.batch_size is not None and not (
                isinstance(self.batch_size, numbers.Integral) and self.batch_size >= 1):
            raise ValueError(f"batch_size must be a whole number >= 1, got {self.batch_size!r}")


class RunRecord:
    """One run: its rule, its state and what it records; the object the
    run loop steps.

    iterates holds x_0 ... x_final as references (step functions never
    modify an iterate in place), and losses[k] and grad_norms[k] were
    evaluated at iterates[k]. step_reports[k] describes the update from
    iterates[k] to iterates[k + 1]; there is none for the final
    evaluation when a stop condition fired. full_losses holds periodic
    (step, full-batch loss) pairs for stochastic runs. A run stepped
    without history (a sweep cell) records none of these past x_0.

    Every run keeps a running summary: final_loss and best_loss have the
    bits of losses[-1] and min(losses), and stop_step is the step at
    which a stop condition fired (None out of budget). x_final is
    state.x, with history the same object as iterates[-1]. status and
    stop_reason (one of the STOP_* names: the test that ended the run, or
    `budget`) are set when a stop rule fires; error holds an exception
    that ended the run.
    """

    def __init__(self, problem: StochasticObjective, spec: OptimizerSpec,
                 x0: Optional[np.ndarray] = None):
        self.spec = spec
        self.state = init_state(check_point(problem, problem.x0_default if x0 is None else x0))
        self.losses: list = []
        self.grad_norms: list = []
        self.step_reports: list = []
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

    @property
    def x0(self) -> np.ndarray:
        return self.iterates[0]

    @property
    def x_final(self) -> np.ndarray:
        return self.state.x

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
    schedules side by side. Each kind's OptimizerSpec, built once here,
    checks the shared settings; a bad c or beta fails its cells alone."""

    problem: ProblemSpec
    kinds: list
    c_grid: list
    beta_grid: list
    seeds: list
    budget: RunBudget
    out_path: Optional[str] = None
    x0_grid: Optional[list] = None
    beta2: float = OptimizerSpec.beta2
    eps: float = OptimizerSpec.eps
    wd_lambda: float = OptimizerSpec.wd_lambda
    schedule: str = OptimizerSpec.schedule

    def __post_init__(self):
        for name in ("kinds", "c_grid", "beta_grid", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty list")
        if not all(isinstance(seed, numbers.Integral) and seed >= 0 for seed in self.seeds):
            raise ValueError(f"seeds must be whole numbers >= 0, got {self.seeds!r}")
        if max(self.seeds) >= KEY_BOUND:  # a seed keys the batch draws
            raise ValueError(f"seeds must be below 2**64, got {self.seeds!r}")
        if self.x0_grid is not None and not self.x0_grid:
            raise ValueError("x0_grid, when given, must be non-empty")
        for kind in self.kinds:
            make_optimizer_spec(self, kind, 1.0, 0.0)

    def cells(self) -> list:
        """Deterministic cell order: kind-major, then c, beta, seed, x0."""
        x0s = self.x0_grid if self.x0_grid is not None else [None]
        return list(itertools.product(self.kinds, self.c_grid, self.beta_grid, self.seeds, x0s))


@dataclass(eq=False)
class SweepResult:
    sweep: SweepSpec
    rows: list


def _stack_iterates(cells: list) -> np.ndarray:
    """The iterates of cells as the rows of a (C, d) array for one oracle
    call, or a lone cell's iterate (d,) itself for a one-point call: the
    one place that chooses. The oracle never writes X. Rows of odd length
    d > 1 get an even row stride, so that each row starts on a 16-byte
    boundary, as a fresh iterate does: OpenBLAS's generic (Prescott)
    kernel rounds the dot of a one-row batch by the alignment of its
    operand, and every cell of a group must have the bits of its one-cell
    run. A dot of one entry is one rounding at any alignment. The padding
    costs about 0.6 us a step (timeit, C = 4 and 24, 2-vCPU x86 VM)."""
    if len(cells) == 1:
        return cells[0].state.x
    d = cells[0].state.x.shape[0]
    if d % 2 == 0 or d == 1:
        return np.array([cell.state.x for cell in cells])
    X = np.empty((len(cells), d + 1))[:, :d]
    X[...] = [cell.state.x for cell in cells]
    return X


# The blocks of batches a group draws: the first is _FIRST_BLOCK steps,
# each next one twice the last up to _LAST_BLOCK, and none runs past the
# budget. A group that stops at step s has drawn at most max(8, 3(s + 1))
# batches, and a long run pays the cost of a block of 64 per batch.
_FIRST_BLOCK, _LAST_BLOCK = 8, 64


def _minibatches(problem: StochasticObjective, seed: int, steps: int, batch_size: int):
    """Yield the batches of steps 0 .. steps - 1, drawn by sample_batches
    one block at a time, each block when its first step is reached."""
    k, size = 0, _FIRST_BLOCK
    while k < steps:
        count = min(size, steps - k)
        yield from sample_batches(problem, seed, k, count, batch_size)
        k, size = k + count, min(2 * size, _LAST_BLOCK)


def run_lockstep(problem: StochasticObjective, cells: list, budget: RunBudget, seed: int,
                 full_eval_every: Optional[int] = None, history: bool = True) -> None:
    """Step runs (RunRecords, the cells of a group) that share one batch
    sequence until each one stops.

    Each step takes one batch (for the group's seed), stacks the active
    iterates and makes one oracle call; a lone cell makes a one-point call
    on its iterate, with no (1, d) stack, which keeps a stacked row's bits
    and 16-byte alignment (see evaluate_cells). Stochastic runs also log
    the full-batch loss of every active cell every full_eval_every steps
    (default: about 100 checkpoints per run). Mini-batches come from
    sample_batches in blocks of 8, 16, 32 and then 64 steps, each drawn
    when the loop reaches its first step (see _minibatches). Each cell
    then applies the stop tests in Python floats, before any further
    update, and stops on the first that holds, in this order: a
    non-finite iterate, a non-finite loss, a loss above diverge_loss and
    a non-finite gradient norm are divergence, a loss at or below
    success_loss success. One comparison first passes a cell that none
    of them stops. A non-finite point gets a non-finite loss (see
    StochasticObjective), so an iterate is tested only then; a non-finite
    one records an infinite loss and gradient norm and no checkpoint. A
    cell that does not stop takes one step of its own rule through
    apply_step. Cells leave the group as they stop, so every cell ends
    where its one-cell run ends, with the same bits. A few-cell step is
    mostly fixed cost (about 1 us per NumPy call on a 1-element array),
    so the oracle hands the loop floats (see evaluate_cells). An
    exception in a step rule ends that cell alone (RunRecord.error); any
    other exception ends every cell still running. history=False keeps
    only the running summary and the state, which is what a sweep row
    reads, and builds no StepReport.
    """
    step_fn = apply_step  # read here, so a patched harness.apply_step is the one called
    active = [cell for cell in cells if cell.error is None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        try:
            _check_key("seed", seed)  # checked here too: a full batch draws no batch with it
            n = problem.n_samples
            bs = n if budget.batch_size is None else budget.batch_size
            if bs > n:
                raise ValueError(f"batch_size {bs} exceeds n_samples {n}")
            stochastic = bs < n
            if full_eval_every is None:
                full_eval_every = max(1, budget.max_steps // 100) if stochastic else 0
            full_batch = problem.full_batch()
            batches = (_minibatches(problem, seed, budget.max_steps, bs) if stochastic
                       else itertools.repeat(full_batch))
            no_fulls = itertools.repeat(None)
            diverge_loss, success_loss = budget.diverge_loss, budget.success_loss
            loss_cap = min(diverge_loss, sys.float_info.max)  # no infinite loss at or below it
            for k, batch in zip(range(budget.max_steps if active else 0), batches):
                X = _stack_iterates(active)
                losses, grads, grad_sqs = evaluate_cells(problem, X, batch)
                fulls = (evaluate_loss(problem, np.atleast_2d(X), full_batch).tolist()
                         if history and stochastic and full_eval_every and k % full_eval_every == 0
                         else no_fulls)
                running = []
                for cell, loss, grad, grad_sq, full in zip(active, losses, grads, grad_sqs, fulls):
                    if success_loss < loss <= loss_cap and grad_sq < math.inf:
                        stop = None  # no stop test fires: loss and ||g||^2 finite, loss in range
                    elif not (math.isfinite(loss) or np.isfinite(cell.state.x).all()):
                        cell.record(k, math.inf, math.inf, history)
                        cell.stop(k, STATUS_DIVERGED, STOP_NON_FINITE_ITERATE)
                        continue
                    elif not math.isfinite(loss):
                        stop = STATUS_DIVERGED, STOP_NON_FINITE_LOSS
                    elif loss > diverge_loss:
                        stop = STATUS_DIVERGED, STOP_LOSS_ABOVE_THRESHOLD
                    elif not math.isfinite(grad_sq):
                        stop = STATUS_DIVERGED, STOP_NON_FINITE_GRAD
                    else:  # loss <= success_loss
                        stop = STATUS_CONVERGED, STOP_SUCCESS
                    if full is not None:
                        cell.full_losses.append((k, full))
                    cell.record(k, loss, math.sqrt(grad_sq), history)
                    if stop is not None:
                        cell.stop(k, *stop)
                        continue
                    try:
                        sizes = step_fn(cell.state, (loss, grad, grad_sq), cell.spec)
                    except Exception as exc:  # this cell's rule failed
                        cell.error = exc
                        continue
                    if history:
                        cell.iterates.append(cell.state.x)
                        cell.step_reports.append(StepReport(*sizes))
                    running.append(cell)
                active = running
                if not active:
                    break
        except Exception as exc:  # the group's batch or oracle failed
            for cell in active:
                if cell.status == STATUS_BUDGET and cell.error is None:
                    cell.error = exc


def run_once(problem: StochasticObjective, spec: OptimizerSpec, budget: RunBudget,
             seed: int, x0: Optional[np.ndarray] = None) -> RunRecord:
    """Execute one run until a stop condition or the step cap: the
    one-cell case of run_lockstep, with its whole history recorded.
    Returns the record the loop stepped; an exception that ended the run
    is raised."""
    rec = RunRecord(problem, spec, x0)
    run_lockstep(problem, [rec], budget, seed)
    if rec.error is not None:
        raise rec.error
    return rec


def make_optimizer_spec(sweep: SweepSpec, kind: str, c: float, beta: float) -> OptimizerSpec:
    base, sched = split_kind(kind)
    schedule = sched if sched is not None else sweep.schedule
    total = sweep.budget.max_steps if schedule == opt.SCHEDULE_INV_SQRT_K else None
    return OptimizerSpec(kind=base, c=c, beta1=beta, beta2=sweep.beta2, eps=sweep.eps,
                         wd_lambda=sweep.wd_lambda, schedule=schedule, total_steps=total)


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
                   steps_to_success=run.steps_to_success, stop_reason=run.stop_reason)
        if sweep.x0_grid is not None:
            row["x_final"] = run.x_final
    else:  # record the failure, never abort the sweep
        row.update(status=STATUS_ERROR, final_loss=float("nan"), best_loss=float("nan"),
                   steps_to_success=None, stop_reason=None)
        if sweep.x0_grid is not None:
            row["x_final"] = None
        row["error"] = str(error)
    return row


def _sweep_rows(sweep: SweepSpec, cells: list, problem: StochasticObjective) -> list:
    """Run sweep cells in lockstep, one group per seed: the cells of a seed
    share a batch sequence, and run_sweep hands in only the first seed of
    a full-batch sweep, whose seed picks no batch. Rows come back in the
    order of cells."""
    runs = []
    for kind, c, beta, _, x0 in cells:
        try:
            spec = make_optimizer_spec(sweep, kind, c, beta)
            x0_arr = None if x0 is None else np.atleast_1d(np.asarray(x0, dtype=float))
            runs.append(RunRecord(problem, spec, x0_arr))
        except Exception as exc:  # a bad spec or start fails its cell alone
            runs.append(exc)
    groups: dict = {}
    for cell, run in zip(cells, runs):
        if isinstance(run, RunRecord):
            groups.setdefault(cell[3], []).append(run)
    for seed, group in groups.items():
        run_lockstep(problem, group, sweep.budget, seed, history=False)
    return [_sweep_row(sweep, cell, run) for cell, run in zip(cells, runs)]


def _cell_worker(args) -> dict:
    """Run one cell as a one-cell group: a child's entry, which perfbench's tracer wraps."""
    sweep, cell, problem = args
    return _sweep_rows(sweep, [cell], problem)[0]


def _handouts(counter, n: int):
    """Indices of distinct runs taken from the shared counter, under its lock, until none is left."""
    while True:
        with counter.get_lock():
            i, counter.value = counter.value, counter.value + 1
        if i >= n:
            return
        yield i


def _pool(processes: int, n: int, here, child, args: tuple) -> dict:
    """Tasks 0 .. n - 1 in `processes` processes, this one included, as
    {index: result}; sweep runs and the audit battery share it. Each
    process takes task indices from a shared counter (_handouts) until
    none is left: this one runs here(i) for each, and each child started
    as child(*args, counter, conn) sends [(i, result), ...] down conn
    when it is done. A daemonic process may start none, so there this one
    runs every task. An exception here ends the call; a child that exits
    before it sends raises RuntimeError. No child outlives the call."""
    import multiprocessing  # only pools pay its import
    if multiprocessing.current_process().daemon:
        return {i: here(i) for i in range(n)}
    ctx = multiprocessing.get_context()
    counter, children = ctx.Value("q", 0), []
    try:
        for _ in range(processes - 1):
            conn, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(*args, counter, child_end), daemon=True)
            proc.start()
            child_end.close()  # so that a dead child's pipe reads EOF
            children.append((proc, conn))
        done = {i: here(i) for i in _handouts(counter, n)}
        for proc, conn in children:
            try:  # read before the join: a large payload fills the pipe
                done.update(conn.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"a pool process exited with code {proc.exitcode} "
                                   "before it sent its rows") from None
            proc.join()
    finally:  # no child outlives the call
        for proc, _ in children:
            proc.terminate()  # does nothing to a child already joined
            proc.join()
    return done


def _pool_child(sweep: SweepSpec, runs: list, counter, conn) -> None:
    """A pooled sweep's child: build the problem once, run the runs it takes, send their rows."""
    problem = build_problem(sweep.problem)
    conn.send([(i, _cell_worker((sweep, runs[i], problem))) for i in _handouts(counter, len(runs))])


def run_sweep(sweep: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute every cell and aggregate summaries in deterministic cell
    order. On a full batch, cells that differ only in seed are one run,
    stepped once for all their rows. Serially the distinct runs make one
    lockstep group per batch sequence; workers > 1 counts this process,
    and at most one process per run steps them one run at a time on the
    shared pool (_pool). Rows are merged by run index and every run has
    the bits of its one-cell run, so both paths write the same output. A
    problem that cannot be built raises here; a cell that fails is an `error` row."""
    if not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"workers must be a whole number >= 1, got {workers!r}")
    sweep.__post_init__()  # the construction checks, for fields assigned since
    cells = sweep.cells()
    problem = build_problem(sweep.problem)
    shared = sweep.budget.batch_size is None or sweep.budget.batch_size >= problem.n_samples
    # the first cell of each distinct run, keyed on bits: 0.0 and -0.0 differ, as do close starts
    first: dict = {}
    reps = [first.setdefault(pickle.dumps((kind, c, beta, None if shared else seed, x0)), i)
            for i, (kind, c, beta, seed, x0) in enumerate(cells)]
    distinct = [cells[i] for i in first.values()]
    if min(workers, len(distinct)) > 1:
        done = _pool(min(workers, len(distinct)), len(distinct),
                     lambda i: _sweep_rows(sweep, [distinct[i]], problem)[0],  # around _cell_worker,
                     _pool_child, (sweep, distinct))  # which is a child's entry
    else:
        done = dict(enumerate(_sweep_rows(sweep, distinct, problem)))
    row_of = {j: done[i] for i, j in enumerate(first.values())}
    rows = [row_of[i] if i == j else {f: row_of[j][f] for f in _ROW_FIELDS if f in row_of[j]}
            | {"seed": cell[3]} for i, (j, cell) in enumerate(zip(reps, cells))]
    result = SweepResult(sweep, rows)
    if sweep.out_path is not None:
        emit_csv(result, resolve_out_path(sweep.out_path))
    return result


def _fmt(value) -> str:
    """Canonical CSV cell: empty for None, a str with each ',' as ';', a
    bool in lower case, an int plainly, a float with 17 significant digits
    (so parsing it back is bit-exact), and a vector as its floats joined
    by ';'."""
    if isinstance(value, float):
        return "%.17g" % value
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return ";".join(map(_fmt, np.atleast_1d(np.asarray(value, dtype=float)).tolist()))


def _floats(cell: str) -> list:
    """The floats of a vector cell, as _fmt writes it."""
    return [float(v) for v in cell.split(";")]


def resolve_out_path(path: str) -> str:
    """Relative output paths land under $NGNOPT_OUT_DIR when it is set."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_csv(path: str, header, rows) -> None:
    """Write header and rows (sequences of cells, each through _fmt) as a
    UTF-8 CSV with LF line endings, creating its directory if needed.
    Every file ngnopt writes goes through here."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_csv(path: str, types: dict):
    """Read a CSV that _write_csv wrote: yield its header, then each row as
    a list of cells. A column named in types reads an empty cell as None
    and any other through its parser; the other columns stay text."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().removesuffix("\n").split("\n")
    header = lines[0].split(",")
    yield header
    parsers = [types.get(col) for col in header]
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path!r}: {len(cells)} cells in a row of {len(header)} columns")
        yield [cell if parse is None else None if cell == "" else parse(cell)
               for parse, cell in zip(parsers, cells)]


def emit_csv(obj, path: str) -> None:
    """Write a trajectory CSV for a RunRecord, a summary CSV for a SweepResult."""
    if isinstance(obj, RunRecord):
        _write_csv(path, TRAJECTORY_COLUMNS, _trajectory_rows(obj))
    elif isinstance(obj, SweepResult):
        cols = SUMMARY_COLUMNS + (("x0", "x_final") if obj.sweep.x0_grid is not None else ())
        _write_csv(path, cols, ([row.get(col) for col in cols] for row in obj.rows))
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


def _trajectory_rows(rec: RunRecord):
    """rec's trajectory rows; the row of a stopping evaluation has no step columns."""
    full = dict(rec.full_losses)
    its = rec.iterates
    for k, loss in enumerate(rec.losses):
        stats = (_step_stats(rec.step_reports[k], its[k], its[k + 1])
                 if k < len(rec.step_reports) else (None,) * 5)
        yield (k, loss, full.get(k), rec.grad_norms[k], *stats)


def parse_trajectory_csv(path: str) -> dict:
    """Read a trajectory CSV back into {column: list}; empty cells -> None,
    the step column -> int, everything else -> float (bit-exact)."""
    rows = _read_csv(path, dict.fromkeys(TRAJECTORY_COLUMNS, float) | {"step": int})
    header = next(rows)
    if header != list(TRAJECTORY_COLUMNS):
        raise ValueError(f"unexpected trajectory header {header}")
    out = {col: [] for col in header}
    for row in rows:
        for col, value in zip(header, row):
            out[col].append(value)
    return out


def parse_summary_csv(path: str) -> list:
    """Read a summary CSV back into a list of typed row dicts."""
    rows = _read_csv(path, {"c": float, "beta": float, "seed": int, "final_loss": float,
                            "best_loss": float, "steps_to_success": int,
                            "x0": _floats, "x_final": _floats})
    header = next(rows)
    return [dict(zip(header, row)) for row in rows]


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

_WD_KINDS = {"decoupled": opt.DEC_NGN_MDV1, "coupled": opt.NGN_MDV1W}
_DEFAULT_WD_MODE = "decoupled"


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


def _cfg_text(section: str, key: str, raw: str) -> str:
    return raw


def _cfg_name(section: str, key: str, raw: str) -> str:
    return raw.lower()


def _cfg_choice(choices):
    """A parser of one of choices, in any case."""
    def parse(section: str, key: str, raw: str) -> str:
        if raw.lower() not in choices:
            raise ConfigError(f"{section}.{key}: expected one of {', '.join(choices)}, got {raw!r}")
        return raw.lower()
    return parse


def _cfg_list(item, into=list):
    """A parser of a non-empty comma-separated list of item's values."""
    def parse(section: str, key: str, raw: str):
        items = [c.strip() for c in raw.split(",") if c.strip()]
        if not items:
            raise ConfigError(f"{section}.{key}: must be a non-empty list")
        return into(item(section, key, c) for c in items)
    return parse


def _cfg_x0_range(section: str, key: str, raw: str) -> list:
    """linspace(lo, hi, count) of 'lo, hi, count', count a whole number."""
    parts = _cfg_list(_cfg_float)(section, key, raw)
    if len(parts) != 3 or not (parts[2].is_integer() and parts[2] >= 2):
        raise ConfigError(f"{section}.{key}: expected 'lo, hi, count' with a whole count >= 2, "
                          f"got {raw!r}")
    return [float(v) for v in np.linspace(parts[0], parts[1], int(parts[2]))]


def _cfg_batch_size(section: str, key: str, raw: str) -> Optional[int]:
    return None if raw.lower() == "full" else _cfg_int(section, key, raw)


class _Key:
    """A config key: the field it sets (on ProblemSpec, SweepSpec or
    RunBudget, by section; wd_mode is read by _build_sweep), its parser of
    the key's raw text, and the `ngnopt run` flag that gives it, with that
    flag's argparse settings (None: `run` does not take the key)."""

    def __init__(self, field: str, parse, flag: Optional[str] = None, **flag_kw):
        self.field, self.parse, self.flag, self.flag_kw = field, parse, flag, flag_kw


_CONFIG_KEYS = {
    "problem": {
        "kind": _Key("kind", _cfg_choice(_PROBLEM_ALIASES), "--problem", required=True,
                     choices=sorted(_PROBLEM_ALIASES)),
        "dim": _Key("dim", _cfg_int, "--dim", type=int),
        "n_samples": _Key("n_samples", _cfg_int, "--n-samples", type=int),
        "seed": _Key("seed", _cfg_int, "--problem-seed", type=int),
        "r": _Key("r", _cfg_float, "--r", type=float),
        "coeffs": _Key("coeffs", _cfg_list(_cfg_float, tuple), "--coeffs",
                       help="ascending p(x) coefficients"),
        "scale": _Key("scale", _cfg_float, "--scale", type=float),
        "interpolating": _Key("interpolating", _cfg_bool, "--interpolating", action="store_true"),
        "x0": _Key("x0", _cfg_list(_cfg_float, tuple)),  # `run --x0` starts the run instead
    },
    "optimizers": {
        "kinds": _Key("kinds", _cfg_list(_cfg_name), "--optimizer", required=True,
                      choices=sorted(_OPTIMIZER_ALIASES)),
        "beta2": _Key("beta2", _cfg_float, "--beta2", type=float),
        "eps": _Key("eps", _cfg_float, "--eps", type=float),
        "wd": _Key("wd_lambda", _cfg_float, "--wd", type=float),
        "wd_mode": _Key("wd_mode", _cfg_choice(tuple(_WD_KINDS)), "--wd-mode",
                        choices=tuple(_WD_KINDS)),
        "schedule": _Key("schedule", _cfg_choice(opt.SCHEDULES), "--schedule",
                         choices=sorted(opt.SCHEDULES)),
    },
    "grid": {
        "c": _Key("c_grid", _cfg_list(_cfg_float), "--c", type=float, required=True),
        "beta": _Key("beta_grid", _cfg_list(_cfg_float), "--beta", type=float,
                     default=OptimizerSpec.beta1),
        # no dataclass defaults a seed or a step cap, so `run` does, here and for --steps
        "seeds": _Key("seeds", _cfg_list(_cfg_int), "--seed", type=int, default=0),
        "x0": _Key("x0_grid", _cfg_list(_cfg_float)),
        "x0_range": _Key("x0_grid", _cfg_x0_range),
    },
    "budget": {
        "max_steps": _Key("max_steps", _cfg_int, "--steps", type=int, default=1000),
        "success_loss": _Key("success_loss", _cfg_float, "--success-loss", type=float),
        "diverge_loss": _Key("diverge_loss", _cfg_float, "--diverge-loss", type=float),
        "batch_size": _Key("batch_size", _cfg_batch_size, "--batch-size"),
    },
    "output": {"path": _Key("out_path", _cfg_text)},
}
_REQUIRED = {"problem": {"kind"}, "optimizers": {"kinds"},
             "grid": {"c", "beta", "seeds"}, "budget": {"max_steps"}}


def _build_sweep(settings) -> SweepSpec:
    """The SweepSpec of the settings that a config or `ngnopt run` gave,
    as (section, key, raw text) triples, each parsed as its _CONFIG_KEYS
    row says. A field not given takes its dataclass's default. Resolves the
    problem and optimizer aliases and applies wd_mode; a ValueError
    becomes a ConfigError."""
    given = {section: {} for section in _CONFIG_KEYS}
    for section, key, raw in settings:
        row = _CONFIG_KEYS[section][key]
        given[section][row.field] = row.parse(section, key, raw)
    problem, opts = given["problem"], given["optimizers"]
    wd_mode = opts.pop("wd_mode", _DEFAULT_WD_MODE)
    kinds = []
    for name in opts.pop("kinds"):
        base = split_kind(name)[0]
        if base not in _OPTIMIZER_ALIASES:
            raise ConfigError(f"optimizers.kinds: unknown optimizer {base!r}")
        kinds.append(_OPTIMIZER_ALIASES[base] + name[len(base):])
    try:
        sweep = SweepSpec(ProblemSpec(**problem | {"kind": _PROBLEM_ALIASES[problem["kind"]]}),
                          kinds, budget=RunBudget(**given["budget"]), **opts, **given["grid"],
                          **given["output"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if sweep.wd_lambda > 0.0:  # each ngn_md_v1 column becomes wd_mode's kind, keeping its suffix
        sweep.kinds = [_WD_KINDS[wd_mode] + k[len(opt.NGN_MD_V1):]
                       if split_kind(k)[0] == opt.NGN_MD_V1 else k for k in sweep.kinds]
    return sweep


def parse_config(path: str) -> SweepSpec:
    """Parse and fully validate a sweep config; unknown keys are errors."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cp.read_file(fh, source=path)
        except configparser.Error as exc:  # whose message can span three lines
            lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
            if isinstance(exc, configparser.ParsingError):  # a missing header too
                reason = "expected a [section] header or 'key = value'"
            else:  # a repeated section or key: "While reading from <path> [line n]: <reason>"
                reason = str(exc).split("]: ", 1)[-1]
            raise ConfigError(f"cannot parse {path!r}, line {lineno}: {reason}") from exc
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
    if cp.has_option("grid", "x0") and cp.has_option("grid", "x0_range"):
        raise ConfigError("grid.x0 and grid.x0_range are mutually exclusive")
    return _build_sweep((section, key, raw) for section in cp.sections()
                        for key, raw in cp[section].items())


# --- CLI --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ngnopt",
                                     description="NGN step-size family: runs, sweeps, audits, bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given is left out of the namespace, and its setting takes its dataclass's default
    runp = sub.add_parser("run", help="execute one optimizer run", argument_default=argparse.SUPPRESS)
    for keys in _CONFIG_KEYS.values():
        for row in keys.values():
            if row.flag:
                runp.add_argument(row.flag, **row.flag_kw)
    runp.add_argument("--out", default=None, help="trajectory CSV path")
    runp.add_argument("--x0", default=None, help="comma-separated start point")

    sweepp = sub.add_parser("sweep", help="execute a config-driven sweep")
    sweepp.add_argument("--config", required=True)
    sweepp.add_argument("--out", default=None, help="override output.path")
    sweepp.add_argument("--workers", type=int, default=1, help="capped at the CPU count")

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
    return parser


def _cmd_run(args) -> int:
    """One run, as the one-cell sweep of the flags given: each flag's
    value is read as the text of its config key, a typed value (checked
    by argparse) as its repr, which is a number's exact text."""
    settings = []
    for section, keys in _CONFIG_KEYS.items():
        for key, row in keys.items():
            value = getattr(args, row.flag[2:].replace("-", "_"), None) if row.flag else None
            if value is not None:
                settings.append((section, key, value if isinstance(value, str) else repr(value)))
    sweep = _build_sweep(settings)
    spec = make_optimizer_spec(sweep, sweep.kinds[0], sweep.c_grid[0], sweep.beta_grid[0])
    try:
        x0 = None if args.x0 is None else np.array([float(v) for v in args.x0.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--x0: expected comma-separated numbers, got {args.x0!r}") from exc
    rec = run_once(build_problem(sweep.problem), spec, sweep.budget, sweep.seeds[0], x0=x0)
    steps = rec.steps_to_success
    print(f"status={rec.status} steps={len(rec.losses)} final_loss={rec.final_loss} "
          f"best_loss={rec.best_loss} steps_to_success={'' if steps is None else steps}")
    if args.out:
        emit_csv(rec, resolve_out_path(args.out))
    return 0


_ERRORS_SHOWN = 3  # failed cells whose error text `ngnopt sweep` prints


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be a whole number >= 1, got {args.workers}")
    sweep = parse_config(args.config)
    if args.out is not None:
        sweep.out_path = args.out
    if sweep.out_path is None:
        raise ConfigError("no output path: set output.path in the config or pass --out")
    result = run_sweep(sweep, workers=min(args.workers, os.cpu_count() or 1))
    print(f"wrote {len(result.rows)} rows to {resolve_out_path(sweep.out_path)}")
    failed = [r for r in result.rows if r["status"] == STATUS_ERROR]
    if failed:
        print(f"{len(failed)} cells recorded errors")
        for row in failed[:_ERRORS_SHOWN]:
            where = " ".join(f"{key}={row[key]}" for key in ("optimizer", "c", "beta", "seed"))
            if "x0" in row:
                where += f" x0={_fmt(row['x0'])}"
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
    """Every value is computed, and so every argument checked, before
    the first line is printed."""
    theory._check("non-negative", dist0=args.dist0)  # squared below, which drops its sign
    rho, lambda_max, beta_max = theory.ngn_m_params(args.c, args.L)
    try:
        dist0_sq = args.dist0 ** 2
    except OverflowError:
        raise ValueError(f"dist0 squared overflows a double, got {args.dist0!r}") from None
    bound_args = (args.c, args.L, args.K, dist0_sq, args.sigma_int, args.sigma_pos)
    bound, decaying = theory.ngn_m_bound(*bound_args), theory.ngn_m_bound_decaying(*bound_args)
    print(f"rho {rho}")
    print(f"lambda_max {lambda_max}")
    print(f"beta_max {beta_max}")
    print(f"ngn_m_bound {bound}")
    print(f"ngn_m_bound_decaying {decaying}")
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
