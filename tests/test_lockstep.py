"""The lockstep loop: cells that share a batch sequence step together, and
every cell ends with the bits of its one-cell run."""

import filecmp
import math
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngnopt import (
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    SweepSpec,
    build_problem,
    least_squares_problem,
    run_once,
    run_sweep,
)
from ngnopt import harness, verify
from ngnopt.harness import (
    STATUS_BUDGET, STATUS_CONVERGED, STATUS_DIVERGED, STATUS_ERROR, STOP_BUDGET, STOP_SUCCESS,
    RunRecord, run_lockstep,
)
from ngnopt.optimizers import (
    DEC_NGN_MDV1, NGN, NGN_D, NGN_M_V1, NGN_M_V2, NGN_MD_V1, NGN_MD_V2, NGN_MDV1W,
    OPTIMIZER_KINDS, SCHEDULE_INV_SQRT_K, SCHEDULES, StepSample, apply_step, init_state,
    precond_update, schedule_c,
)
from ngnopt.problems import evaluate, sample_batch, sample_batches

PROBLEMS = {
    "least_squares": ProblemSpec(kind="least_squares", dim=4, n_samples=12, seed=1),
    "least_squares_interp": ProblemSpec(kind="least_squares", dim=3, n_samples=9, seed=2,
                                        interpolating=True),
    "ridge": ProblemSpec(kind="ridge_quadratic", dim=5, seed=3, r=0.5),
    "least_squares_442": ProblemSpec(kind="least_squares", dim=10, n_samples=442, seed=0),
    "rosenbrock": ProblemSpec(kind="rosenbrock"),
    "multimodal": ProblemSpec(kind="multimodal_1d"),
    "polynomial": ProblemSpec(kind="polynomial_1d", coeffs=(0.5, -2.0, 0.0, 1.0)),
}
START_RANGE = {"rosenbrock": 2.0, "multimodal": 20.0, "polynomial": 3.0}
_BUILT: dict = {}


def problem_named(name):
    if name not in _BUILT:
        _BUILT[name] = build_problem(PROBLEMS[name])
    return _BUILT[name]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def same_run(cell, rec) -> None:
    """A history-keeping cell against the one-cell run, bit for bit."""
    assert cell.error is None
    assert cell.status == rec.status and cell.stop_reason == rec.stop_reason
    assert bits(cell.losses) == bits(rec.losses)
    assert bits(cell.grad_norms) == bits(rec.grad_norms)
    assert len(cell.iterates) == len(rec.iterates)
    assert all(bits(a) == bits(b) for a, b in zip(cell.iterates, rec.iterates))
    assert [k for k, _ in cell.full_losses] == [k for k, _ in rec.full_losses]
    assert bits([v for _, v in cell.full_losses]) == bits([v for _, v in rec.full_losses])
    assert bits([r.gamma_scalar for r in cell.step_reports]) == bits(
        [r.gamma_scalar for r in rec.step_reports])
    # the running summary keeps the bits of its definition on the history
    assert bits([rec.final_loss, rec.best_loss]) == bits([rec.losses[-1], min(rec.losses)])
    assert rec.stop_step == (None if rec.status == STATUS_BUDGET else len(rec.losses) - 1)
    assert rec.x_final is rec.iterates[-1]
    assert rec.x0 is rec.iterates[0]


def same_summary(cell, rec) -> None:
    """A summary-only cell against the one-cell run, bit for bit."""
    assert cell.error is None
    assert cell.status == rec.status and cell.stop_reason == rec.stop_reason
    assert bits([cell.final_loss, cell.best_loss]) == bits([rec.final_loss, rec.best_loss])
    assert cell.stop_step == rec.stop_step
    assert bits(cell.state.x) == bits(rec.x_final)
    assert cell.losses == [] and len(cell.iterates) == 1
    assert cell.x0 is cell.iterates[0] and bits(cell.x0) == bits(rec.x0)


def make_spec(kind, c, beta, schedule, steps):
    return OptimizerSpec(kind=kind, c=c, beta1=beta, schedule=schedule,
                         total_steps=steps if schedule == SCHEDULE_INV_SQRT_K else None,
                         wd_lambda=0.1 if kind in (DEC_NGN_MDV1, NGN_MDV1W) else 0.0)


@st.composite
def groups(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = problem_named(name)
    n = problem.n_samples
    batch_size = draw(st.sampled_from([None, 1, 2, n // 2, n] if n > 2 else [None]))
    steps = draw(st.integers(1, 40))
    budget = RunBudget(max_steps=steps,
                       success_loss=draw(st.sampled_from([1e-15, 1e-3, -1.0])),
                       diverge_loss=draw(st.sampled_from([1e10, 1e3, math.inf])),
                       batch_size=batch_size)
    reach = START_RANGE.get(name, 3.0)
    cells = []
    for _ in range(draw(st.integers(1, 6))):
        spec = make_spec(draw(st.sampled_from(OPTIMIZER_KINDS)),
                         draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e3])),
                         draw(st.sampled_from([0.0, 0.5, 0.9])),
                         draw(st.sampled_from(SCHEDULES)), steps)
        x0 = draw(st.one_of(st.none(), st.lists(st.floats(-reach, reach), min_size=problem.dim,
                                                 max_size=problem.dim).map(np.array)))
        cells.append((spec, x0))
    return name, budget, draw(st.integers(0, 3)), cells


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=groups())
def test_every_cell_of_a_group_equals_its_one_cell_run(group):
    name, budget, seed, cells = group
    problem = problem_named(name)
    full = [RunRecord(problem, spec, x0) for spec, x0 in cells]
    summary = [RunRecord(problem, spec, x0) for spec, x0 in cells]
    run_lockstep(problem, full, budget, seed)
    run_lockstep(problem, summary, budget, seed, history=False)
    for (spec, x0), cell, lean in zip(cells, full, summary):
        rec = run_once(problem, spec, budget, seed, x0=x0)
        same_run(cell, rec)
        same_summary(lean, rec)


# --- the per-point run loop and oracles, kept as a reference ------------------

def reference_lsq_oracle(A, b):
    """The per-point least-squares oracle: one gemv for the residual and
    one for the gradient, and np.sum for the loss."""
    rows = np.ascontiguousarray(A)

    def loss_grad(x, idx):
        A_b, b_b = (rows, b) if idx is None else (rows[idx], b[idx])
        r = A_b @ x - b_b
        m = b_b.size
        return float(np.sum(r * r)) / (2.0 * m), A_b.T @ r / m

    return loss_grad


def reference_polynomial_oracle(coeffs, scale):
    p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    dp = p.deriv()

    def loss_grad(x, idx):
        t = x[0]
        pv = p(t)
        loss = scale * t * t * (1.0 + pv * pv)
        g = 2.0 * scale * t * (1.0 + pv * pv + t * pv * dp(t))
        return float(loss), np.array([g])

    return loss_grad


def reference_run_once(problem, oracle, spec, budget, seed, x0=None):
    """run_once as a loop over one point, calling oracle(x, indices)."""
    state = init_state(problem.x0_default if x0 is None else np.asarray(x0, dtype=float))
    n = problem.n_samples
    bs = n if budget.batch_size is None else budget.batch_size
    stochastic = bs < n
    full_eval_every = max(1, budget.max_steps // 100) if stochastic else 0
    full_batch = problem.full_batch()
    losses, iterates, full_losses = [], [state.x], []
    status = "budget_exhausted"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for k in range(budget.max_steps):
            if not np.isfinite(state.x).all():
                losses.append(float("inf"))
                status = "diverged"
                break
            batch = full_batch if not stochastic else sample_batch(problem, seed, k, bs)
            loss, grad = oracle(state.x, None if batch.full else batch.indices)
            sample = StepSample(loss, grad, float((grad * grad).sum()))
            losses.append(loss)
            if stochastic and k % full_eval_every == 0:
                full_losses.append((k, oracle(state.x, None)[0]))
            if (not math.isfinite(loss) or loss > budget.diverge_loss
                    or not math.isfinite(math.sqrt(sample.grad_sq))):
                status = "diverged"
                break
            if loss <= budget.success_loss:
                status = "converged"
                break
            apply_step(state, sample, spec)
            iterates.append(state.x)
    return losses, iterates, full_losses, status


def reference_cases():
    """(name, problem, per-point oracle) for each least-squares kind, a
    442 x 10 least squares on standardized features, and the polynomial;
    A and b are rebuilt from each kind's definition."""
    rng = np.random.default_rng(7)
    A, b = rng.standard_normal((30, 6)), rng.standard_normal(30)
    g = np.random.default_rng(4)
    M = g.standard_normal((8, 8)) + 0.3 * np.eye(8)
    y = g.standard_normal(8)
    r = np.random.default_rng(2)
    X = r.standard_normal((442, 10))
    w = r.standard_normal(10)
    t = X @ w + 0.5 * r.standard_normal(442)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    coeffs = (0.5, -2.0, 0.0, 1.0)
    return [
        ("least_squares", least_squares_problem(A, b), reference_lsq_oracle(A, b)),
        ("ridge", build_problem(ProblemSpec(kind="ridge_quadratic", dim=8, seed=4, r=0.3)),
         reference_lsq_oracle(M, y)),
        ("least_squares_442", least_squares_problem(Z, t), reference_lsq_oracle(Z, t)),
        ("polynomial", build_problem(ProblemSpec(kind="polynomial_1d", coeffs=coeffs)),
         reference_polynomial_oracle(coeffs, 1.0)),
    ]


@pytest.mark.parametrize("name, problem, oracle", reference_cases(),
                         ids=lambda v: v if isinstance(v, str) else "")
@pytest.mark.parametrize("kind", ["ngn", "ngn_m_v1", "ngn_md_v2", "sgdm", "adam"])
def test_runs_equal_the_per_point_reference_loop(name, problem, oracle, kind):
    batch_sizes = [None] if problem.n_samples == 1 else [None, 3]
    c = 1e-3 if name == "polynomial" else 0.05
    for batch_size in batch_sizes:
        budget = RunBudget(max_steps=300, success_loss=1e-12, batch_size=batch_size)
        spec = OptimizerSpec(kind=kind, c=c, beta1=0.5)
        rec = run_once(problem, spec, budget, seed=3)
        losses, iterates, full_losses, status = reference_run_once(problem, oracle, spec,
                                                                   budget, seed=3)
        assert rec.status == status
        assert bits(rec.losses) == bits(losses)
        assert all(bits(a) == bits(b) for a, b in zip(rec.iterates, iterates))
        assert len(rec.iterates) == len(iterates)
        assert rec.full_losses == full_losses


# --- one draw per group step, and what a group shares ----------------------------

LSQ = ProblemSpec(kind="least_squares", dim=4, n_samples=20, seed=0)
FOREVER = dict(success_loss=-1.0, diverge_loss=math.inf)


def counting_sampler(monkeypatch):
    calls = []

    def counted(problem, seed, step, count, batch_size):
        calls.extend((seed, k) for k in range(step, step + count))
        return sample_batches(problem, seed, step, count, batch_size)

    monkeypatch.setattr(harness, "sample_batches", counted)
    return calls


def test_a_group_draws_one_batch_per_step(monkeypatch):
    calls = counting_sampler(monkeypatch)
    p = build_problem(LSQ)
    cells = [RunRecord(p, OptimizerSpec(kind=kind, c=0.1)) for kind in ("ngn", "ngn_d", "adam", "sgdm")]
    run_lockstep(p, cells, RunBudget(max_steps=25, batch_size=4, **FOREVER), seed=5)
    assert calls == [(5, k) for k in range(25)]
    assert all(len(cell.losses) == 25 for cell in cells)


@pytest.mark.parametrize("stop", [0, 7, 8, 23, 24, 55, 56, 119, 120, 183, 184, 247, 248, 700])
def test_a_group_that_stops_early_draws_few_batches_past_its_stop(monkeypatch, stop):
    calls = counting_sampler(monkeypatch)

    def stopping(state, sample, spec):
        if state.k == stop:
            raise RuntimeError(f"stop at step {stop}")
        return apply_step(state, sample, spec)

    monkeypatch.setattr(harness, "apply_step", stopping)
    p = build_problem(LSQ)
    cell = RunRecord(p, OptimizerSpec(kind="ngn", c=0.1))
    run_lockstep(p, [cell], RunBudget(max_steps=1000, batch_size=4, **FOREVER), seed=2)
    assert len(cell.losses) == stop + 1 and str(cell.error) == f"stop at step {stop}"
    assert calls == [(2, k) for k in range(len(calls))]
    assert stop < len(calls) <= max(8, 3 * (stop + 1))


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 25, 64, 130])
def test_a_group_draws_no_batch_past_its_budget(monkeypatch, steps):
    calls = counting_sampler(monkeypatch)
    p = build_problem(LSQ)
    cell = RunRecord(p, OptimizerSpec(kind="ngn", c=0.1))
    run_lockstep(p, [cell], RunBudget(max_steps=steps, batch_size=4, **FOREVER), seed=3)
    assert calls == [(3, k) for k in range(steps)] and len(cell.losses) == steps


def test_a_serial_sweep_draws_once_per_seed_and_step(monkeypatch):
    calls = counting_sampler(monkeypatch)
    sweep = SweepSpec(LSQ, ["ngn", "ngn_m_v1", "adam"], [0.05, 0.1], [0.5], [0, 1],
                      RunBudget(max_steps=30, batch_size=4, **FOREVER))
    rows = run_sweep(sweep).rows
    assert len(rows) == 12
    assert sorted(calls) == sorted((seed, k) for seed in (0, 1) for k in range(30))


def test_full_batch_sweep_is_one_group(monkeypatch):
    evaluated = []
    original = harness.evaluate_cells

    def counted(problem, X, batch):
        evaluated.append(X.shape[0])
        return original(problem, X, batch)

    monkeypatch.setattr(harness, "evaluate_cells", counted)
    sweep = SweepSpec(LSQ, ["ngn", "sgdm"], [0.01, 0.1], [0.0], [0, 1, 2],
                      RunBudget(max_steps=10, **FOREVER))
    run_sweep(sweep)
    assert evaluated == [4] * 10  # the distinct runs: three seeds make one run


@pytest.mark.parametrize("problem, x0_grid", [
    (LSQ, None),
    (ProblemSpec(kind="polynomial_1d", coeffs=(0.5, -2.0, 0.0, 1.0)), [2.0, 0.0, -0.0, 1.5]),
], ids=["least_squares", "polynomial_x0_grid"])
def test_a_full_batch_sweep_steps_each_trajectory_once(monkeypatch, tmp_path, problem, x0_grid):
    # the seed picks no full batch: a 3-seed sweep steps its distinct runs
    # once and writes, row for row, the CSV of three one-seed sweeps
    steps = []

    def counted(state, sample, spec):
        steps.append(spec.kind)
        return apply_step(state, sample, spec)

    monkeypatch.setattr(harness, "apply_step", counted)

    def sweep(seeds, name):
        return SweepSpec(problem, ["ngn", "ngn_m_v1", "sgdm"], [0.01, 0.1], [0.0, 0.9], seeds,
                         RunBudget(max_steps=60), out_path=str(tmp_path / name), x0_grid=x0_grid)

    three = sweep([0, 1, 2], "three.csv")
    run_sweep(three)
    three_steps, rows = len(steps), {}
    for seed in (0, 1, 2):
        for row in run_sweep(sweep([seed], f"seed{seed}.csv")).rows:
            rows[row["optimizer"], row["c"], row["beta"], row["seed"], repr(row.get("x0"))] = row
    assert three_steps > 0 and 3 * three_steps == len(steps) - three_steps
    merged = [rows[kind, c, beta, seed, repr(x0)] for kind, c, beta, seed, x0 in three.cells()]
    harness.emit_csv(harness.SweepResult(three, merged), str(tmp_path / "merged.csv"))
    assert filecmp.cmp(tmp_path / "three.csv", tmp_path / "merged.csv", shallow=False)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("problem, starts", [
    (LSQ, [np.full(4, 0.1), np.full(4, 0.1 + 1e-12)]),
    (ProblemSpec(kind="least_squares", dim=1001, n_samples=2, seed=0),
     [np.zeros(1001), np.where(np.arange(1001) == 500, 1e-3, 0.0)]),
], ids=["starts_1e-12_apart", "d1001_starts_apart_in_the_middle"])
def test_full_batch_starts_that_print_alike_stay_distinct_runs(tmp_path, problem, starts, workers):
    # NumPy prints both starts of each pair alike (8 digits, or '...' past
    # 1000 entries); a 2-seed sweep still writes each start's own row
    def sweep(x0_grid, seeds, name):
        return SweepSpec(problem, ["ngn_m_v1"], [0.5], [0.9], seeds, RunBudget(max_steps=40),
                         out_path=str(tmp_path / name), x0_grid=x0_grid)

    assert repr(starts[0]) == repr(starts[1])
    rows = run_sweep(sweep(starts, [0, 1], "both.csv"), workers=workers).rows
    alone = [run_sweep(sweep([x0], [seed], f"{i}_{seed}.csv")).rows[0]
             for seed in (0, 1) for i, x0 in enumerate(starts)]
    assert not np.array_equal(alone[0]["x_final"], alone[1]["x_final"])
    assert [(r["seed"], r["final_loss"], r["best_loss"], r["x_final"].tobytes()) for r in rows] == [
        (r["seed"], r["final_loss"], r["best_loss"], r["x_final"].tobytes()) for r in alone]


@pytest.mark.parametrize("name", ["least_squares", "ridge", "rosenbrock", "multimodal"])
def test_group_samples_carry_the_squared_norm_of_their_gradient(monkeypatch, name):
    samples = []

    def recorded(state, sample, spec):
        samples.append(sample)
        return apply_step(state, sample, spec)

    monkeypatch.setattr(harness, "apply_step", recorded)
    problem = problem_named(name)
    reach = START_RANGE.get(name, 3.0)
    cells = [RunRecord(problem, OptimizerSpec(kind=kind, c=0.1, beta1=0.5),
                  np.linspace(-reach, reach, problem.dim) * scale)
             for kind in ("ngn", "ngn_m_v1", "sgdm") for scale in (0.3, 1.0)]
    batch_size = None if problem.n_samples == 1 else 3
    run_lockstep(problem, cells, RunBudget(max_steps=20, batch_size=batch_size), seed=1)
    assert len(samples) > 20
    for _, grad, grad_sq in samples:
        assert type(grad_sq) is float
        assert bits(grad_sq) == bits(float((grad * grad).sum()))


def test_one_apply_step_call_per_cell_step(monkeypatch):
    # the benchmark's steps_per_s and its traced apply_step count one call
    # per cell step, made positionally as (state, sample, spec) and read by
    # spec.kind; the runs' step counters k must add up to the calls
    calls = []

    def traced(state, sample, spec, /):
        calls.append(spec.kind)
        return apply_step(state, sample, spec)

    monkeypatch.setattr(harness, "apply_step", traced)

    def census():
        multimodal = problem_named("multimodal")
        cells = [RunRecord(multimodal, OptimizerSpec(kind=kind, c=c, beta1=0.9), np.array([x0]))
                 for kind in ("ngn_m_v1", "sgdm") for c in (100.0, 1000.0)
                 for x0 in np.linspace(-20.0, 20.0, 13)]
        run_lockstep(multimodal, cells, RunBudget(max_steps=1000), seed=0, history=False)
        assert {cell.status for cell in cells} >= {"diverged", STATUS_BUDGET}
        return cells

    def one_cell():
        spec = OptimizerSpec(kind="ngn_m_v1", c=1e-3, beta1=0.9)
        return [run_once(problem_named("rosenbrock"), spec, RunBudget(max_steps=300), seed=0)]

    def audit():
        specs = [OptimizerSpec(kind=kind, c=0.05, beta1=0.5) for kind in OPTIMIZER_KINDS]
        return verify._trajectories(problem_named("least_squares"), specs, 50, seed=1, batch_size=3)

    for group in (census, one_cell, audit):
        calls.clear()
        runs = group()
        assert len(calls) == sum(run.state.k for run in runs) > 0, group.__name__
    assert sorted(calls) == sorted(OPTIMIZER_KINDS * 50)


def test_stopped_cells_leave_the_group():
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    stable = RunRecord(p, OptimizerSpec(kind="ngn_m_v1", c=1e-3, beta1=0.9))
    unstable = RunRecord(p, OptimizerSpec(kind="sgdm", c=1.0, beta1=0.9))
    run_lockstep(p, [stable, unstable], RunBudget(max_steps=200, success_loss=1e-10), seed=0)
    assert unstable.status == "diverged" and unstable.stop_step < 10
    assert stable.status == "budget_exhausted" and len(stable.losses) == 200


def test_an_error_cell_is_isolated_from_its_group():
    # NGN-D with a c_coord of the wrong length raises inside its step rule
    p = build_problem(LSQ)
    budget = RunBudget(max_steps=40, batch_size=5)
    specs = [OptimizerSpec(kind="ngn", c=0.1),
             OptimizerSpec(kind=NGN_D, c=0.1, c_coord=np.ones(3)),
             OptimizerSpec(kind="adam", c=0.1)]
    cells = [RunRecord(p, spec) for spec in specs]
    run_lockstep(p, cells, budget, seed=2)
    assert "c_coord" in str(cells[1].error)
    assert (cells[1].status, cells[1].stop_reason, cells[1].stop_step) == ("error", None, None)
    for cell, spec in zip(cells, specs):
        if spec.kind != NGN_D:
            same_run(cell, run_once(p, spec, budget, seed=2))
    with pytest.raises(ValueError, match="c_coord"):
        run_once(p, specs[1], budget, seed=2)


def test_an_error_cell_in_a_sweep_leaves_its_group_intact():
    cells_ok = SweepSpec(LSQ, ["ngn", "ngn_m_v1"], [0.1], [0.5], [0, 1],
                         RunBudget(max_steps=30, batch_size=4))
    with_bad = SweepSpec(LSQ, ["ngn", "ngn_m_v1"], [0.1, -1.0], [0.5], [0, 1],
                         RunBudget(max_steps=30, batch_size=4))
    good = run_sweep(cells_ok).rows
    rows = run_sweep(with_bad).rows
    errors = [row for row in rows if row["status"] == "error"]
    assert len(errors) == 4
    assert all(row["stop_reason"] is None and row["error"] == "c must be positive and finite"
               for row in errors)
    assert [row for row in rows if row["status"] != "error"] == good


def test_a_failing_batch_ends_only_the_cells_still_running(monkeypatch):
    p = build_problem(LSQ)
    budget = RunBudget(max_steps=50, success_loss=1.0001 * p.metadata.f_star, batch_size=19)

    def failing(problem, seed, step, count, batch_size):
        if step == 8:
            raise RuntimeError("no batch at step 8")
        return sample_batches(problem, seed, step, count, batch_size)

    monkeypatch.setattr(harness, "sample_batches", failing)
    done = RunRecord(p, OptimizerSpec(kind="ngn", c=0.1), p.metadata.x_star)
    running = RunRecord(p, OptimizerSpec(kind="ngn", c=1e-6), np.full(4, 10.0))
    run_lockstep(p, [done, running], budget, seed=0)
    assert (done.status, done.stop_step, done.error) == ("converged", 0, None)
    assert str(running.error) == "no batch at step 8" and len(running.losses) == 8
    assert (running.status, running.stop_reason, running.stop_step) == ("error", None, None)


@pytest.mark.parametrize("seed", [1.5, -3, 2**64, "3", True])
def test_a_seed_that_cannot_key_a_batch_fails_the_run_on_any_batch(seed):
    # a full batch draws nothing with the seed, and still rejects it as a mini-batch does
    p = build_problem(LSQ)
    for batch_size in (None, 4):
        budget = RunBudget(max_steps=5, batch_size=batch_size)
        with pytest.raises(ValueError) as info:
            run_once(p, OptimizerSpec(kind="ngn", c=0.1), budget, seed=seed)
        assert str(info.value) == f"seed must be a whole number in [0, 2**64), got {seed!r}"
        cells = [RunRecord(p, OptimizerSpec(kind="ngn", c=c)) for c in (0.1, 1.0)]
        run_lockstep(p, cells, budget, seed)
        assert [str(cell.error) for cell in cells] == [str(info.value)] * 2
        assert [len(cell.losses) for cell in cells] == [0, 0]


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)],
                         ids=["0", "2**64-1", "uint64(2**64-1)"])
def test_a_seed_at_an_end_of_the_key_range_runs_on_any_batch(seed):
    # the check stops at the range's ends, not inside it: a NumPy whole
    # number draws the batches of the Python int of the same value
    p = build_problem(LSQ)
    for batch_size in (None, 4):
        budget = RunBudget(max_steps=5, batch_size=batch_size)
        rec = run_once(p, OptimizerSpec(kind="ngn", c=0.1), budget, seed=seed)
        assert rec.status == STATUS_BUDGET and rec.error is None and len(rec.losses) == 5
        same = run_once(p, OptimizerSpec(kind="ngn", c=0.1), budget, seed=int(seed))
        assert rec.losses == same.losses


# --- serial output equals pool output ------------------------------------------------

@pytest.mark.parametrize("sweep", [
    SweepSpec(LSQ, ["ngn", "ngn_md_v2", "adam"], [0.05, 1.0], [0.0, 0.9], [0, 3],
              RunBudget(max_steps=80, batch_size=6)),
    SweepSpec(ProblemSpec(kind="multimodal_1d"), ["ngn_m_v1", "sgdm"], [10.0, 1000.0], [0.9],
              [0], RunBudget(max_steps=200), x0_grid=list(np.linspace(-20.0, 20.0, 9))),
], ids=["minibatch-seeds", "multimodal-starts"])
def test_serial_groups_equal_pool_cells(tmp_path, sweep):
    sweep.out_path = str(tmp_path / "serial.csv")
    run_sweep(sweep, workers=1)
    sweep.out_path = str(tmp_path / "pool.csv")
    run_sweep(sweep, workers=2)
    assert filecmp.cmp(tmp_path / "serial.csv", tmp_path / "pool.csv", shallow=False)


# --- why a run stopped ---------------------------------------------------------------

def test_stop_reason_non_finite_iterate():
    p = build_problem(LSQ)
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0), RunBudget(max_steps=5), seed=0,
                   x0=np.array([np.nan, 0.0, 0.0, 0.0]))
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("diverged", "non_finite_iterate", 0)
    assert rec.losses == [math.inf]


def test_stop_reason_non_finite_loss():
    # the residual squares overflow at 1e200
    p = build_problem(LSQ)
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0), RunBudget(max_steps=5), seed=0,
                   x0=np.full(4, 1e200))
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("diverged", "non_finite_loss", 0)


def test_stop_reason_non_finite_grad():
    # the loss at (1e60, 0) is finite but ||g||^2 overflows
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0),
                   RunBudget(max_steps=5, diverge_loss=math.inf), seed=0,
                   x0=np.array([1e60, 0.0]))
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("diverged", "non_finite_grad", 0)


def test_stop_reason_loss_above_threshold():
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    rec = run_once(p, OptimizerSpec(kind="sgdm", c=1.0, beta1=0.9),
                   RunBudget(max_steps=10000, success_loss=1e-10), seed=0)
    assert (rec.status, rec.stop_reason) == ("diverged", "loss_above_threshold")
    assert rec.losses[-1] > 1e10


def test_stop_reason_success():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0,
                                  interpolating=True))
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1.0),
                   RunBudget(max_steps=2000, success_loss=1e-12), seed=0)
    assert (rec.status, rec.stop_reason) == ("converged", "success")


@pytest.mark.parametrize("budget, reason", [
    (RunBudget(max_steps=5), "loss_above_threshold"),
    (RunBudget(max_steps=5, success_loss=1e300, diverge_loss=math.inf), "non_finite_grad"),
], ids=["loss_above_threshold", "non_finite_grad"])
def test_stop_tests_fire_in_their_order(budget, reason):
    # at (1e60, 0) the loss, about 1e242, is finite and ||g||^2 overflows:
    # the loss threshold is tested before the gradient, and the gradient
    # before success, in a one-cell run and in a group whose other cells
    # stop otherwise (success at 1e300) or keep stepping
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    spec = OptimizerSpec(kind="ngn_m_v1", c=1e-3, beta1=0.9)
    far = np.array([1e60, 0.0])
    rec = run_once(p, spec, budget, seed=0, x0=far)
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("diverged", reason, 0)
    assert 1e241 < rec.losses[0] < 1e243 and rec.grad_norms == [math.inf]
    starts = [None, far, None, far]
    cells = [RunRecord(p, spec, x0) for x0 in starts]
    run_lockstep(p, cells, budget, seed=0)
    for cell, x0 in zip(cells, starts):
        same_run(cell, run_once(p, spec, budget, seed=0, x0=x0))
    assert [cell.stop_reason for cell in cells[1::2]] == [reason, reason]
    assert {cell.stop_reason for cell in cells[::2]} == (
        {"budget"} if reason == "loss_above_threshold" else {"success"})


def test_stop_reason_budget():
    p = build_problem(LSQ)
    rec = run_once(p, OptimizerSpec(kind="ngn", c=1e-3), RunBudget(max_steps=7), seed=0)
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("budget_exhausted", "budget", None)


def test_sweep_rows_carry_the_stop_reason_but_the_csv_does_not(tmp_path):
    sweep = SweepSpec(ProblemSpec(kind="rosenbrock"), ["ngn_m_v1", "sgdm"], [1.0], [0.9], [0],
                      RunBudget(max_steps=3000, success_loss=1e-4),
                      out_path=str(tmp_path / "r.csv"))
    rows = run_sweep(sweep).rows
    assert [r["stop_reason"] for r in rows] == ["success", "loss_above_threshold"]
    assert "stop_reason" not in (tmp_path / "r.csv").read_text()


# --- loss-only checkpoints -------------------------------------------------------------

def test_checkpoints_are_the_full_batch_loss_of_each_iterate():
    p = build_problem(ProblemSpec(kind="least_squares", dim=6, n_samples=50, seed=3))
    cells = [RunRecord(p, OptimizerSpec(kind=kind, c=0.1, beta1=0.5))
             for kind in ("ngn", "ngn_m_v1", "ngn_md_v1")]
    run_lockstep(p, cells, RunBudget(max_steps=300, batch_size=5, **FOREVER), seed=1)
    for cell in cells:
        assert [k for k, _ in cell.full_losses] == list(range(0, 300, 3))
        for k, loss in cell.full_losses:
            assert loss == evaluate(p, cell.iterates[k], p.full_batch()).loss


# --- a non-finite iterate, decided from the loss the oracle returns ------------------

def diverged_on_the_iterate(rec, k) -> None:
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("diverged", "non_finite_iterate", k)
    assert rec.final_loss == math.inf and rec.losses[-1] == math.inf


def test_non_finite_iterate_one_cell_one_dimension():
    # c * p'(3) overflows, so the step lands on -inf while the loss at 3 is finite
    p = build_problem(ProblemSpec(kind="polynomial_1d"))
    rec = run_once(p, OptimizerSpec(kind="sgdm", c=1e307),
                   RunBudget(max_steps=10, diverge_loss=math.inf), seed=0, x0=np.array([3.0]))
    diverged_on_the_iterate(rec, 1)
    assert rec.losses == [90.0, math.inf]


def test_non_finite_iterate_one_cell_ridge_400():
    # residuals near 1e150 keep the loss finite, but c times the gradient overflows
    p = build_problem(ProblemSpec(kind="ridge_quadratic", dim=400, seed=0))
    rec = run_once(p, OptimizerSpec(kind="sgdm", c=1e200),
                   RunBudget(max_steps=10, diverge_loss=math.inf), seed=0,
                   x0=np.full(400, 1e148))
    diverged_on_the_iterate(rec, 1)
    assert not np.isfinite(rec.x_final).any()


def test_non_finite_iterate_in_a_mixed_group():
    # 40 one-point cells: the NaN starts stop at step 0 and the overflowing
    # steps at step 1, while the other cells keep stepping beside them
    p = build_problem(ProblemSpec(kind="polynomial_1d"))
    budget = RunBudget(max_steps=30, diverge_loss=math.inf)
    specs = {"nan_start": OptimizerSpec(kind="ngn", c=0.1),
             "overflow": OptimizerSpec(kind="sgdm", c=1e307),
             "running": OptimizerSpec(kind="ngn_m_v1", c=1e-3, beta1=0.9)}
    starts = {"nan_start": np.array([np.nan]), "overflow": np.array([3.0]), "running": None}
    names = ["nan_start", "overflow", "running", "running"] * 10
    cells = [RunRecord(p, specs[name], starts[name]) for name in names]
    run_lockstep(p, cells, budget, seed=0)
    for name, cell in zip(names, cells):
        same_run(cell, run_once(p, specs[name], budget, seed=0, x0=starts[name]))
        if name == "running":
            assert cell.status == STATUS_BUDGET and len(cell.losses) == 30
        else:
            diverged_on_the_iterate(cell, 0 if name == "nan_start" else 1)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_stack_whose_sum_overflows_is_finite(sign):
    # 40 entries of +-1e308 overflow the residual squares, but each is
    # finite: the loss at the start, not the iterate, ends the run
    p = build_problem(ProblemSpec(kind="least_squares", dim=40, n_samples=80, seed=0))
    rec = run_once(p, OptimizerSpec(kind="sgdm", c=0.1), RunBudget(max_steps=10), seed=0,
                   x0=np.full(40, sign * 1e308))
    assert (rec.status, rec.stop_reason, rec.stop_step) == ("diverged", "non_finite_loss", 0)


def test_non_finite_iterate_in_a_stack_whose_sum_overflows():
    # 80 one-point cells: the finite +-1e308 starts, whose losses overflow,
    # share the stack of step 0 with the NaN and infinite starts; at step 1
    # the overflowed iterates of 8 cells sit in a stack of 40
    p = build_problem(ProblemSpec(kind="polynomial_1d"))
    budget = RunBudget(max_steps=30, diverge_loss=math.inf)
    running = OptimizerSpec(kind="ngn_m_v1", c=1e-3, beta1=0.9)
    cases = {"huge": (running, 1e308), "huge_negative": (running, -1e308),
             "nan_start": (running, math.nan), "inf_start": (running, math.inf),
             "negative_inf_start": (running, -math.inf),
             "overflow": (OptimizerSpec(kind="sgdm", c=1e307), 3.0), "running": (running, 3.0)}
    names = ["huge", "huge_negative", "nan_start", "inf_start", "negative_inf_start", "overflow",
             "running", "running", "running", "running"] * 8
    cells = [RunRecord(p, cases[name][0], np.array([cases[name][1]])) for name in names]
    run_lockstep(p, cells, budget, seed=0)
    for name, cell in zip(names, cells):
        spec, x0 = cases[name]
        same_run(cell, run_once(p, spec, budget, seed=0, x0=np.array([x0])))
        if name == "running":
            assert cell.status == STATUS_BUDGET and len(cell.losses) == 30
        elif name.startswith("huge"):
            assert (cell.stop_reason, cell.stop_step) == ("non_finite_loss", 0)
        else:
            diverged_on_the_iterate(cell, 1 if name == "overflow" else 0)


def test_a_group_that_goes_non_finite_at_a_checkpoint_logs_no_checkpoint_there():
    # on a zero-target least squares, sgdm from a start near 0 takes its
    # first step to about 1e250 (finite loss) and its second past the
    # float range: every cell leaves at step 2, a checkpoint step of the
    # default full_eval_every = 200 // 100 = 2
    rng = np.random.default_rng(0)
    p = least_squares_problem(rng.standard_normal((20, 5)), np.zeros(20))
    budget = RunBudget(max_steps=200, success_loss=-1.0, diverge_loss=math.inf, batch_size=5)
    starts = [np.full(5, s) for s in (1e-70, -1e-80, 3e-75, 1e-90, 1e-60)]
    specs = [OptimizerSpec(kind="sgdm", c=1e200, beta1=beta) for beta in (0.0, 0.9)]
    runs = [(spec, x0) for spec in specs for x0 in starts]
    cells = [RunRecord(p, spec, x0) for spec, x0 in runs]
    run_lockstep(p, cells, budget, seed=0)
    for (spec, x0), cell in zip(runs, cells):
        same_run(cell, run_once(p, spec, budget, seed=0, x0=x0))
        diverged_on_the_iterate(cell, 2)
        assert not np.isfinite(cell.x_final).all()
        assert [k for k, _ in cell.full_losses] == [0]


def test_a_finite_iterate_whose_loss_overflows_logs_its_checkpoint():
    # step 0 of a stochastic group is a checkpoint: the 1e200 start is
    # finite, and its batch and full losses overflow, so it stops on the
    # loss and logs an infinite checkpoint; the NaN start stops on the
    # iterate and logs none; the third cell keeps stepping
    p = build_problem(LSQ)
    budget = RunBudget(max_steps=20, batch_size=4)
    spec = OptimizerSpec(kind="ngn", c=0.1)
    starts = [np.full(4, 1e200), np.array([np.nan, 0.0, 0.0, 0.0]), None]
    cells = [RunRecord(p, spec, x0) for x0 in starts]
    run_lockstep(p, cells, budget, seed=0)
    for cell, x0 in zip(cells, starts):
        same_run(cell, run_once(p, spec, budget, seed=0, x0=x0))
    overflow, nan_start, running = cells
    assert (overflow.stop_reason, overflow.stop_step) == ("non_finite_loss", 0)
    assert overflow.full_losses == [(0, math.inf)]
    diverged_on_the_iterate(nan_start, 0)
    assert nan_start.full_losses == []
    assert running.status == STATUS_BUDGET and [k for k, _ in running.full_losses] == list(range(20))


# --- stack rows start where a fresh iterate does ------------------------------------

@pytest.mark.parametrize("dim", [2, 3, 5])
def test_every_stacked_row_starts_on_a_16_byte_boundary(monkeypatch, dim):
    # a one-row batch dot rounds by its operand's alignment under OpenBLAS's
    # generic kernel, so a stacked row must be aligned as a fresh iterate is,
    # also after a NaN start, evaluated once at step 0, leaves the stack
    p = build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=3 * dim, seed=2,
                                  interpolating=True))
    offsets = []
    original = harness.evaluate_cells

    def recorded(problem, X, batch):
        offsets.extend((X.ctypes.data + i * X.strides[0]) % 16 for i in range(X.shape[0]))
        return original(problem, X, batch)

    monkeypatch.setattr(harness, "evaluate_cells", recorded)
    budget = RunBudget(max_steps=20, batch_size=1)
    starts = [np.full(dim, np.nan)] + [None] * 4
    specs = [OptimizerSpec(kind="ngn", c=c) for c in (0.1, 0.001, 0.1, 0.01, 1.0)]
    cells = [RunRecord(p, spec, x0) for spec, x0 in zip(specs, starts)]
    run_lockstep(p, cells, budget, seed=0)
    assert len(offsets) == 1 + 4 * 20 and set(offsets) == {0}
    monkeypatch.setattr(harness, "evaluate_cells", original)
    for spec, x0, cell in zip(specs, starts, cells):
        same_run(cell, run_once(p, spec, budget, seed=0, x0=x0))


# --- the run contract over the whole double range ------------------------------------

# every positive finite double, subnormals included, log-uniform: a uniform bit pattern
POSITIVE_DOUBLES = st.integers(1, 0x7FEFFFFFFFFFFFFF).map(
    lambda i: struct.unpack("<d", struct.pack("<q", i))[0])
START_ENTRIES = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                          st.floats(-3.0, 150.0))
# the kinds whose docstrings put gamma in [0, c_k] (ngn_gamma's range), and the
# per-coordinate kinds that put gamma_j in [0, c_j]
SCALAR_RANGE_KINDS = (NGN, NGN_M_V1, NGN_M_V2, NGN_MD_V1, DEC_NGN_MDV1)
COORD_RANGE_KINDS = (NGN_D, NGN_MD_V2)
# the kinds whose gamma is NGN's on the rule's own norm: gamma ||g||^2 <= 2 f
NGN_BOUND_KINDS = (NGN, NGN_M_V1, NGN_MD_V1)
STEP_BOUND = 1 + 8 * Fraction(2.0 ** -52)


@st.composite
def edge_groups(draw):
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = problem_named(name)
    n = problem.n_samples
    steps = draw(st.integers(1, 30))
    budget = RunBudget(max_steps=steps, diverge_loss=math.inf,
                       batch_size=draw(st.sampled_from([None, 1, 2, n // 2] if n > 2 else [None])))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        spec = make_spec(draw(st.sampled_from(OPTIMIZER_KINDS)), draw(POSITIVE_DOUBLES),
                         draw(st.sampled_from([0.0, 0.5, 0.99])), draw(st.sampled_from(SCHEDULES)),
                         steps)
        x0 = draw(st.one_of(st.none(), st.lists(START_ENTRIES, min_size=problem.dim,
                                                 max_size=problem.dim).map(np.array)))
        cells.append((spec, x0))
    return name, budget, draw(st.integers(0, 3)), cells


def check_step(spec, k, v, sample, sizes) -> None:
    """One step's sizes against the bounds that its rule's docstring states."""
    loss, g, grad_sq = sample
    gamma, gamma_coord, c_coord = sizes[:3]
    c_k = schedule_c(spec.schedule, spec.c, k, spec.total_steps)
    if spec.kind in SCALAR_RANGE_KINDS:
        assert 0.0 <= gamma <= c_k, (spec.kind, c_k, gamma)
    if spec.kind in COORD_RANGE_KINDS:
        assert np.all((0.0 <= gamma_coord) & (gamma_coord <= c_coord)), (gamma_coord, c_coord)
        if spec.kind == NGN_D:
            assert np.all(c_coord == c_k)
    if spec.kind in NGN_BOUND_KINDS:
        if spec.kind == NGN_MD_V1:
            d = precond_update(v, g, spec.beta2, k, spec.eps)[1]
            grad_sq = float((g * g / d).sum())  # ||g||^2_{D^-1}, as the rule computes it
        assert Fraction(gamma) * Fraction(grad_sq) <= 2 * Fraction(loss) * STEP_BOUND


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group=edge_groups())
def test_every_run_ends_by_a_stop_rule_over_the_whole_double_range(group):
    # c from the smallest subnormal to the largest double and starts up to
    # 1e150: no rule raises, every run ends converged, diverged or out of
    # budget, and every step keeps the step-size bounds its rule promises
    name, budget, seed, cells = group
    problem = problem_named(name)
    records = [RunRecord(problem, spec, x0) for spec, x0 in cells]
    steps = []

    def recorded(state, sample, spec):
        k, v = state.k, state.v
        sizes = apply_step(state, sample, spec)
        steps.append((spec, k, v, sample, sizes))
        return sizes

    with mock.patch.object(harness, "apply_step", recorded):
        run_lockstep(problem, records, budget, seed)
    for rec in records:
        assert (rec.status == STATUS_ERROR) == (rec.error is not None)
        assert rec.error is None, repr(rec.error)
        assert rec.status in (STATUS_CONVERGED, STATUS_DIVERGED, STATUS_BUDGET)
        assert (rec.status == STATUS_BUDGET) == (rec.stop_reason == STOP_BUDGET)
        assert (rec.status == STATUS_CONVERGED) == (rec.stop_reason == STOP_SUCCESS)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for step in steps:
            check_step(*step)
