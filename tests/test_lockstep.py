"""The lockstep loop: cells that share a batch sequence step together, and
every cell ends with the bits of its one-cell run."""

import filecmp
import math

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
from ngnopt import harness
from ngnopt.harness import Cell, run_lockstep
from ngnopt.optimizers import (
    DEC_NGN_MDV1, NGN_D, NGN_MDV1W, OPTIMIZER_KINDS, SCHEDULE_INV_SQRT_K, SCHEDULES,
    StepSample, apply_step, init_state,
)
from ngnopt.problems import evaluate, sample_batch

PROBLEMS = {
    "least_squares": ProblemSpec(kind="least_squares", dim=4, n_samples=12, seed=1),
    "least_squares_interp": ProblemSpec(kind="least_squares", dim=3, n_samples=9, seed=2,
                                        interpolating=True),
    "ridge": ProblemSpec(kind="ridge_quadratic", dim=5, seed=3, r=0.5),
    "regression": ProblemSpec(kind="linear_regression_data", seed=0),
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
    assert bits([r.gamma_scalar for r in cell.reports]) == bits(
        [r.gamma_scalar for r in rec.step_reports])


def same_summary(cell, rec) -> None:
    """A summary-only cell against the one-cell run, bit for bit."""
    assert cell.error is None
    assert cell.status == rec.status and cell.stop_reason == rec.stop_reason
    assert bits([cell.final_loss, cell.best_loss]) == bits([rec.final_loss, rec.best_loss])
    assert cell.stop_step == rec.stop_step
    assert bits(cell.state.x) == bits(rec.x_final)
    assert cell.losses == [] and len(cell.iterates) == 1


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
    full = [Cell(problem, spec, x0) for spec, x0 in cells]
    summary = [Cell(problem, spec, x0) for spec, x0 in cells]
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
            sample = StepSample(loss, grad, batch)
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
            state, _ = apply_step(state, sample, spec)
            iterates.append(state.x)
    return losses, iterates, full_losses, status


def reference_cases():
    """(name, problem, per-point oracle) for each least-squares kind and
    the polynomial; A and b are rebuilt from each kind's definition."""
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
        ("regression", build_problem(ProblemSpec(kind="linear_regression_data", seed=2)),
         reference_lsq_oracle(Z, t)),
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

    def counted(problem, seed, step, batch_size):
        calls.append((seed, step))
        return sample_batch(problem, seed, step, batch_size)

    monkeypatch.setattr(harness, "sample_batch", counted)
    return calls


def test_a_group_draws_one_batch_per_step(monkeypatch):
    calls = counting_sampler(monkeypatch)
    p = build_problem(LSQ)
    cells = [Cell(p, OptimizerSpec(kind=kind, c=0.1)) for kind in ("ngn", "ngn_d", "adam", "sgdm")]
    run_lockstep(p, cells, RunBudget(max_steps=25, batch_size=4, **FOREVER), seed=5)
    assert calls == [(5, k) for k in range(25)]
    assert all(len(cell.losses) == 25 for cell in cells)


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
    assert evaluated == [12] * 10


@pytest.mark.parametrize("name", ["least_squares", "ridge", "rosenbrock", "multimodal"])
def test_group_samples_carry_the_squared_norm_of_their_gradient(monkeypatch, name):
    samples = []

    def recorded(state, sample, spec):
        samples.append(sample)
        return apply_step(state, sample, spec)

    monkeypatch.setattr(harness, "apply_step", recorded)
    problem = problem_named(name)
    reach = START_RANGE.get(name, 3.0)
    cells = [Cell(problem, OptimizerSpec(kind=kind, c=0.1, beta1=0.5),
                  np.linspace(-reach, reach, problem.dim) * scale)
             for kind in ("ngn", "ngn_m_v1", "sgdm") for scale in (0.3, 1.0)]
    batch_size = None if problem.n_samples == 1 else 3
    run_lockstep(problem, cells, RunBudget(max_steps=20, batch_size=batch_size), seed=1)
    assert len(samples) > 20
    for sample in samples:
        assert type(sample.grad_sq) is float
        assert bits(sample.grad_sq) == bits(float((sample.grad * sample.grad).sum()))


def test_stopped_cells_leave_the_group():
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    stable = Cell(p, OptimizerSpec(kind="ngn_m_v1", c=1e-3, beta1=0.9))
    unstable = Cell(p, OptimizerSpec(kind="sgdm", c=1.0, beta1=0.9))
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
    cells = [Cell(p, spec) for spec in specs]
    run_lockstep(p, cells, budget, seed=2)
    assert "c_coord" in str(cells[1].error)
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

    def failing(problem, seed, step, batch_size):
        if step == 3:
            raise RuntimeError("no batch at step 3")
        return sample_batch(problem, seed, step, batch_size)

    monkeypatch.setattr(harness, "sample_batch", failing)
    done = Cell(p, OptimizerSpec(kind="ngn", c=0.1), p.metadata.x_star)
    running = Cell(p, OptimizerSpec(kind="ngn", c=1e-6), np.full(4, 10.0))
    run_lockstep(p, [done, running], budget, seed=0)
    assert (done.status, done.stop_step, done.error) == ("converged", 0, None)
    assert str(running.error) == "no batch at step 3" and len(running.losses) == 3


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
    cells = [Cell(p, OptimizerSpec(kind=kind, c=0.1, beta1=0.5))
             for kind in ("ngn", "ngn_m_v1", "ngn_md_v1")]
    run_lockstep(p, cells, RunBudget(max_steps=300, batch_size=5, **FOREVER), seed=1)
    for cell in cells:
        assert [k for k, _ in cell.full_losses] == list(range(0, 300, 3))
        for k, loss in cell.full_losses:
            assert loss == evaluate(p, cell.iterates[k], p.full_batch()).loss
