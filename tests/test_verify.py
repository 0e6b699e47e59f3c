import dataclasses
import math
import multiprocessing
import os
import time
import tracemalloc

import numpy as np
import pytest

from ngnopt import (
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    STATUS_DIVERGED,
    audit_fundamental_equality,
    audit_ima_equivalence,
    audit_reductions,
    audit_stepsize_bounds,
    audit_theorem_bound,
    audits_to_csv,
    build_problem,
    harness,
    least_squares_problem,
    multimodal_global_basin,
    run_default_audits,
    run_once,
    verify,
)


def quadratic(dim=4, n=8, seed=0, interpolating=False):
    return build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=n,
                                     seed=seed, interpolating=interpolating))


# --- IMA equivalence ---------------------------------------------------------

def test_ima_equivalence_passes():
    p = quadratic()
    spec = OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.6)
    rep = audit_ima_equivalence(p, spec, steps=50, seed=1)
    assert rep.passed
    assert rep.max_violation <= rep.tolerance
    assert rep.name == "ima_equivalence"


def test_ima_equivalence_stochastic_passes():
    p = quadratic(n=16)
    spec = OptimizerSpec(kind="ngn_m_v1", c=0.5, beta1=0.9)
    rep = audit_ima_equivalence(p, spec, steps=80, seed=3, batch_size=4)
    assert rep.passed


def test_ima_equivalence_fails_on_perturbed_twin(monkeypatch):
    # negative control: a 1e-6 relative change to the twin's step size
    # must show up against run_once's trajectory
    exact = verify.ngn_gamma
    monkeypatch.setattr(verify, "ngn_gamma", lambda c, f, gs: exact(c, f, gs) * (1.0 + 1e-6))
    rep = audit_ima_equivalence(quadratic(), OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.6),
                                steps=50, seed=1)
    assert not rep.passed
    assert rep.max_violation > 100 * rep.tolerance


def test_audits_reject_diverged_runs():
    # (1e60, 0) gives a finite loss and an overflowing gradient, so run_once
    # stops at step 0 and the audit cannot check the trajectory it asked for
    p = dataclasses.replace(build_problem(ProblemSpec(kind="rosenbrock")),
                            x0_default=np.array([1e60, 0.0]))
    with pytest.raises(ValueError, match="diverged at step 0"):
        audit_ima_equivalence(p, OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.5))
    with pytest.raises(ValueError, match="diverged at step 0"):
        audit_reductions(p)


def test_ima_equivalence_rejects_other_rules():
    p = quadratic()
    with pytest.raises(ValueError):
        audit_ima_equivalence(p, OptimizerSpec(kind="ngn", c=1.0))


# --- step-size bounds ----------------------------------------------------------

def run_scalar(p, steps=60, **kw):
    spec = OptimizerSpec(kind="ngn", c=1.0)
    budget = RunBudget(max_steps=steps, success_loss=0.0)
    return run_once(p, spec, budget, seed=0, **kw)


def test_stepsize_bounds_scalar_passes():
    p = quadratic()
    run = run_scalar(p)
    rep = audit_stepsize_bounds(run, c=1.0, L=p.metadata.L)
    assert rep.passed
    assert (rep.max_violation, rep.location) == (0.0, "none")  # a zero violation is no worst


def test_stepsize_bounds_fails_when_smoothness_understated():
    # claiming a tiny L pushes the certified lower bound to ~c, which a
    # genuine run with nonzero gradients must violate
    p = quadratic()
    run = run_scalar(p)
    rep = audit_stepsize_bounds(run, c=1.0, L=1e-9)
    assert not rep.passed
    assert rep.max_violation > rep.tolerance


def test_stepsize_bounds_fails_on_tampered_report():
    # two equal violations: the report names the first
    p = quadratic()
    run = run_scalar(p)
    for k in (10, 20):
        run.step_reports[k] = dataclasses.replace(run.step_reports[k], gamma_scalar=1.5)
    rep = audit_stepsize_bounds(run, c=1.0, L=p.metadata.L)
    assert not rep.passed
    assert rep.max_violation == 0.5
    assert rep.location == "step 10"


def test_stepsize_bounds_coordinate_passes():
    p = quadratic(dim=3, n=12)
    c_coord = np.array([0.5, 1.0, 2.0])
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=c_coord)
    budget = RunBudget(max_steps=60, success_loss=0.0, batch_size=3)
    run = run_once(p, spec, budget, seed=2)
    rep = audit_stepsize_bounds(run, c=c_coord, L=p.metadata.L_coord)
    assert rep.passed


def coordinate_bounds_run(p):
    c_coord = np.array([0.5, 1.0, 2.0])
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=c_coord)
    return c_coord, run_once(p, spec, RunBudget(max_steps=60, success_loss=0.0, batch_size=3),
                             seed=2)


def test_stepsize_bounds_coordinate_fails_when_smoothness_understated():
    # negative control: a tiny L_coord pushes each certified lower bound to
    # ~c_j, which a genuine run with nonzero gradients must violate
    p = quadratic(dim=3, n=12)
    c_coord, run = coordinate_bounds_run(p)
    rep = audit_stepsize_bounds(run, c=c_coord, L=p.metadata.L_coord * 1e-9)
    assert not rep.passed
    assert rep.max_violation > 1e6 * rep.tolerance
    assert rep.location.startswith("step ") and " coord " in rep.location


def test_stepsize_bounds_coordinate_fails_on_tampered_report():
    # negative control: one coordinate's step size over its cap c_j
    p = quadratic(dim=3, n=12)
    c_coord, run = coordinate_bounds_run(p)
    rep7 = run.step_reports[7]
    gamma = rep7.gamma_coord.copy()
    gamma[1] = 1.5 * c_coord[1]
    run.step_reports[7] = dataclasses.replace(rep7, gamma_coord=gamma)
    rep = audit_stepsize_bounds(run, c=c_coord, L=p.metadata.L_coord)
    assert not rep.passed
    assert rep.max_violation == pytest.approx(0.5)
    assert rep.location == "step 7 coord 1"


@pytest.mark.parametrize("kind, c, match", [
    ("ngn", np.full(3, 1.0), "run lacks per-coordinate step sizes"),
    ("ngn_md_v1", None, "run lacks recorded per-coordinate c values"),
], ids=["scalar rule", "no recorded caps"])
def test_stepsize_bounds_coordinate_needs_coordinate_rule(kind, c, match):
    # a scalar-rule run records no per-coordinate step sizes, and only the
    # per-coordinate NGN rules record the caps that c=None reads, so asking
    # for what a run lacks is an error rather than a silent pass
    p = quadratic(dim=3, n=12)
    spec = OptimizerSpec(kind=kind, c=1.0, beta1=0.6)
    budget = RunBudget(max_steps=10, success_loss=0.0)
    run = run_once(p, spec, budget, seed=0)
    with pytest.raises(ValueError, match=match):
        audit_stepsize_bounds(run, c=c, L=p.metadata.L_coord)


def nan_gamma_at_step_3(run, coordinate, over_cap_first):
    """A run whose reports carry a NaN step size at steps 3 and 5, and, if
    over_cap_first, a step size over its cap at step 1."""
    over_cap = ((1, 2.0),) if over_cap_first else ()
    for k, value in over_cap + ((3, math.nan), (5, math.nan)):
        rep = run.step_reports[k]
        if coordinate:
            gamma = rep.gamma_coord.copy()
            gamma[1:] = value
            run.step_reports[k] = dataclasses.replace(rep, gamma_coord=gamma)
        else:
            run.step_reports[k] = dataclasses.replace(rep, gamma_scalar=value)
    return run


def nan_loss_at_step_4(run, over_cap_first):
    """A run whose recorded losses are NaN at steps 4 and 6, and, if
    over_cap_first, whose step size is over its cap at step 1."""
    if over_cap_first:
        rep = run.step_reports[1]
        run.step_reports[1] = dataclasses.replace(rep, gamma_coord=2.0 * rep.c_coord_used)
    for k in (4, 6):
        run.losses[k] = math.nan
    return run


@pytest.mark.parametrize("over_cap_first", [False, True], ids=["nan only", "nan after over cap"])
@pytest.mark.parametrize("audit, location", [
    (lambda p, first: audit_stepsize_bounds(nan_gamma_at_step_3(run_scalar(p), False, first),
                                            c=1.0, L=p.metadata.L), "step 3"),
    (lambda p, first: audit_stepsize_bounds(
        nan_gamma_at_step_3(coordinate_bounds_run(p)[1], True, first),
        c=np.array([0.5, 1.0, 2.0]), L=p.metadata.L_coord), "step 3 coord 1"),
    (lambda p, first: audit_fundamental_equality(nan_gamma_at_step_3(coordinate_run(p), True, first)),
     "step 3 coord 1"),
    (lambda p, first: audit_fundamental_equality(nan_loss_at_step_4(coordinate_run(p), first)),
     "step 4 coord 0"),
], ids=["scalar bounds", "coordinate bounds", "fundamental equality", "fundamental equality, nan loss"])
def test_a_nan_step_size_fails_where_it_first_occurs(audit, location, over_cap_first):
    # negative control: NaN compares false with everything, so a NaN step
    # size, or a NaN recorded loss, which makes every coordinate's residual
    # NaN, must fail any tolerance and win over any finite violation
    rep = audit(quadratic(dim=3, n=12), over_cap_first)
    assert not rep.passed
    assert math.isnan(rep.max_violation)
    assert rep.location == location


# --- fundamental step-size equality -----------------------------------------------

def coordinate_run(p, steps=60):
    spec = OptimizerSpec(kind="ngn_d", c=1.0)
    budget = RunBudget(max_steps=steps, success_loss=0.0, batch_size=p.n_samples // 2)
    return run_once(p, spec, budget, seed=0)


def test_fundamental_equality_passes():
    p = quadratic(dim=3, n=12)
    rep = audit_fundamental_equality(coordinate_run(p))
    assert rep.passed
    assert rep.tolerance == 1e-12


def test_fundamental_equality_fails_on_tampered_gamma():
    p = quadratic(dim=3, n=12)
    run = coordinate_run(p)
    rep5 = run.step_reports[5]
    run.step_reports[5] = dataclasses.replace(rep5, gamma_coord=1.01 * rep5.gamma_coord)
    rep = audit_fundamental_equality(run)
    assert not rep.passed


def test_fundamental_equality_fails_on_a_zero_loss_with_a_residual():
    # negative control: a recorded loss of 0.0 needs an exactly zero
    # residual, and the run's nonzero step sizes and gradients leave one
    p = quadratic(dim=3, n=12)
    run = coordinate_run(p)
    run.losses[4] = 0.0
    rep = audit_fundamental_equality(run)
    assert not rep.passed
    assert rep.max_violation == math.inf
    assert rep.location.startswith("step 4 coord ")


def test_ngn_md_v2_run_passes_coordinate_audits():
    # NGN-MD V2 records its caps c/D_j and its batch gradient, so both
    # coordinate audits read its reports, the bounds one with c=None
    p = quadratic(dim=3, n=12)
    spec = OptimizerSpec(kind="ngn_md_v2", c=0.5, beta1=0.6)
    run = run_once(p, spec, RunBudget(max_steps=60, success_loss=0.0, batch_size=3), seed=1)
    assert len(run.step_reports) == 60
    assert audit_fundamental_equality(run).passed
    assert audit_stepsize_bounds(run, c=None, L=p.metadata.L_coord).passed


def test_fundamental_equality_needs_recording():
    # only the per-coordinate NGN rules record their gradient; a scalar-rule
    # run is an error rather than a silent pass
    p = quadratic(dim=3, n=12)
    spec = OptimizerSpec(kind="ngn", c=1.0)
    run = run_once(p, spec, RunBudget(max_steps=5, success_loss=0.0), seed=0)
    with pytest.raises(ValueError):
        audit_fundamental_equality(run)


# --- reduction identities -----------------------------------------------------------

def test_reductions_exact():
    p = quadratic(dim=4, n=8, seed=5)
    rep = audit_reductions(p, seed=1, steps=50, batch_size=4)
    assert rep.passed
    assert rep.max_violation == 0.0
    assert rep.tolerance == 0.0


def test_reductions_fail_on_perturbed_cap(monkeypatch):
    # negative control: ngn at c against ngn at c (1 + 1e-6) must differ
    # from the first update on
    pairs = verify._reduction_pairs()
    c = verify._REDUCTION_C
    perturbed = ("ngn[c] == ngn[c(1+1e-6)]", OptimizerSpec(kind="ngn", c=c),
                 OptimizerSpec(kind="ngn", c=c * (1.0 + 1e-6)))
    monkeypatch.setattr(verify, "_reduction_pairs", lambda: pairs + [perturbed])
    rep = audit_reductions(quadratic(dim=4, n=8, seed=5), seed=1, steps=50, batch_size=4)
    assert not rep.passed
    assert rep.location == "ngn[c] == ngn[c(1+1e-6)] at step 1"


def test_reductions_draw_one_batch_per_step(monkeypatch):
    # every run of every pair steps in one lockstep group
    calls = []
    original = harness.sample_batches

    def counted(*args):
        calls.extend(range(args[2], args[2] + args[3]))
        return original(*args)

    monkeypatch.setattr(harness, "sample_batches", counted)
    rep = audit_reductions(quadratic(dim=4, n=8, seed=5), seed=1, steps=50, batch_size=4)
    assert rep.passed
    assert calls == list(range(50))


@pytest.mark.parametrize("order", ["slow first", "fast first", "error first"])
def test_reductions_raise_for_the_first_bad_run_in_pair_order(monkeypatch, order):
    # the run first in pair order raises what its own run raises, even
    # when a later run diverges at an earlier step
    p = quadratic(dim=4, n=8, seed=5)
    ok = OptimizerSpec(kind="ngn", c=0.5)
    slow = OptimizerSpec(kind="sgdm", c=8.0)  # overflows at step 149
    fast = OptimizerSpec(kind="sgdm", c=1e200)  # overflows on the first step
    broken = OptimizerSpec(kind="ngn_d", c=0.5, c_coord=np.ones(3))  # wrong shape for d=4
    first, later = {"slow first": (slow, fast), "fast first": (fast, slow),
                    "error first": (broken, fast)}[order]
    pairs = [("ok", ok, ok), ("first", ok, first), ("later", later, ok)]
    monkeypatch.setattr(verify, "_reduction_pairs", lambda: pairs)
    budget = RunBudget(max_steps=300, success_loss=-1.0, diverge_loss=math.inf, batch_size=4)
    try:
        run = run_once(p, first, budget, seed=1)
    except ValueError as error:
        want = str(error)
    else:
        assert run.status == STATUS_DIVERGED
        want = f"audit run of {first.kind} diverged at step {run.stop_step}"
    with pytest.raises(ValueError) as got:
        audit_reductions(p, seed=1, steps=300, batch_size=4)
    assert str(got.value) == want


# --- convergence certificates --------------------------------------------------------

def test_theorem_bound_constant_passes():
    p = quadratic(dim=4, n=8, seed=0, interpolating=True)
    rep = audit_theorem_bound(p, K=200)
    assert rep.passed
    assert rep.max_violation == 0.0


def test_theorem_bound_decaying_passes():
    p = quadratic(dim=4, n=8, seed=0, interpolating=True)
    rep = audit_theorem_bound(p, K=200, decaying=True)
    assert rep.passed


@pytest.mark.parametrize("K, decaying, c, beta, schedule", [
    # c = 1/sqrt(K); lambda = min(cL, 0.5/((1+cL)(1+2cL))) = min(0.1, 0.379)
    (100, False, 0.1, 1.0 / 11.0, "constant"),
    # c0 = 1; lambda = min(c0 L/sqrt(K), 0.5/((1+c0 L)(1+2c0 L))) = min(0.1, 1/12)
    (100, True, 1.0, 1.0 / 13.0, "inv_sqrt_step"),
    # the horizon term binds: lambda = min(1/100, 1/12)
    (10**4, True, 1.0, 1.0 / 101.0, "inv_sqrt_step"),
], ids=["constant", "decaying", "decaying_horizon"])
def test_theorem_bound_runs_the_hand_computed_momentum(monkeypatch, K, decaying, c, beta,
                                                       schedule):
    # least squares on the identity has L = 1 and f* = 0. At K = 100 the
    # decaying audit's momentum is 1/13, and doubling the cap's 0.5 gives
    # 1/11; at K = 10^4 it is 1/101, and doubling the horizon term gives 1/51
    p = least_squares_problem(np.eye(2), np.array([1.0, 2.0]))
    specs = []
    trajectories = verify._trajectories

    def capture(problem, specs_in, *args, **kwargs):
        specs.extend(specs_in)
        return trajectories(problem, specs_in, *args, **kwargs)

    monkeypatch.setattr(verify, "_trajectories", capture)
    assert audit_theorem_bound(p, K=K, decaying=decaying).passed
    [spec] = specs
    assert (spec.kind, spec.c, spec.schedule) == ("ngn_m_v1", c, schedule)
    assert spec.beta1 == pytest.approx(beta, rel=1e-14)


def test_theorem_bound_requires_horizon():
    p = quadratic(interpolating=True)
    with pytest.raises(ValueError):
        audit_theorem_bound(p, K=5)


@pytest.mark.parametrize("decaying, bound", [
    (False, "ngn_m_bound"), (True, "ngn_m_bound_decaying"),
], ids=["constant", "decaying"])
def test_theorem_bound_fails_below_the_measured_suboptimality(monkeypatch, decaying, bound):
    # negative control: a bound of zero lies below the measured (positive)
    # suboptimality, and the failing row still shows what was measured
    p = quadratic(dim=4, n=8, seed=0, interpolating=True)
    measured = audit_theorem_bound(p, K=200, decaying=decaying).location.split(" vs bound ")[0]
    monkeypatch.setattr(verify.theory, bound, lambda *args: 0.0)
    rep = audit_theorem_bound(p, K=200, decaying=decaying)
    assert not rep.passed
    assert rep.max_violation > 0.0
    assert rep.location == f"{measured} vs bound 0.000000e+00"
    values = [float(v) for v in measured.split()[1::2]]  # "<label> <value>" pairs
    assert f"{rep.max_violation:.6e}" == f"{max(values):.6e}"


@pytest.mark.parametrize("spec, match", [
    (ProblemSpec(kind="least_squares", dim=4, n_samples=8), "need an interpolating problem"),
    (ProblemSpec(kind="rosenbrock"), "lacks smoothness or minimizer metadata"),
], ids=["least_squares", "rosenbrock"])
def test_theorem_bound_requires_interpolation(spec, match):
    with pytest.raises(ValueError, match=match):
        audit_theorem_bound(build_problem(spec), K=100)


# --- basin finder --------------------------------------------------------------------

def test_multimodal_global_basin_brackets_origin():
    p = build_problem(ProblemSpec(kind="multimodal_1d", seed=0))
    left, right = multimodal_global_basin(p, n_grid=20001)
    assert left < 0.0 < right
    assert -6.0 < left < -3.0
    assert 0.05 < right < 1.0


def full_grid_basin(problem, lo=-25.0, hi=25.0, n_grid=200001):
    """The basin scan on the whole grid at once: the reference that the
    chunked multimodal_global_basin must match bit for bit."""
    xs = np.linspace(lo, hi, n_grid)
    batch = problem.full_batch()
    fs = np.concatenate([verify.evaluate_loss(problem, xs[i:i + verify._SCAN_CHUNK, None], batch)
                         for i in range(0, n_grid, verify._SCAN_CHUNK)])
    i_star = int(np.argmin(fs))
    right = i_star
    while right + 1 < n_grid and fs[right + 1] >= fs[right]:
        right += 1
    left = i_star
    while left - 1 >= 0 and fs[left - 1] >= fs[left]:
        left -= 1
    return float(xs[left]), float(xs[right])


_CHUNK = verify._SCAN_CHUNK
_H = 2.0 ** -10  # a grid step for which lo + i*_H is exact


@pytest.mark.parametrize("kind, grid", [
    ("multimodal_1d", {}),
    *[("multimodal_1d", {"n_grid": n})
      for n in (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 20001, 2000001)],
    ("multimodal_1d", {"lo": 3.0, "hi": 3.0, "n_grid": 5}),
    ("multimodal_1d", {"lo": 3.0, "hi": 3.0, "n_grid": 1}),
    ("multimodal_1d", {"lo": 1.0, "hi": -1.0, "n_grid": 1001}),  # a descending grid
    ("multimodal_1d", {"lo": 0.0, "hi": 1e-320, "n_grid": 11}),  # a subnormal step
    # the global minimum x = 0 at index _CHUNK (a chunk's first point) and
    # at index _CHUNK - 1 (a chunk's last point)
    ("multimodal_1d", {"lo": -_CHUNK * _H, "hi": _CHUNK * _H, "n_grid": 2 * _CHUNK + 1}),
    ("multimodal_1d", {"lo": -(_CHUNK - 1) * _H, "hi": _CHUNK * _H, "n_grid": 2 * _CHUNK}),
    ("polynomial_1d", {}),
    ("polynomial_1d", {"lo": -3.0, "hi": 2.0, "n_grid": 3 * _CHUNK + 7}),
])
def test_chunked_basin_has_the_bits_of_the_full_grid_scan(kind, grid):
    p = build_problem(ProblemSpec(kind=kind, coeffs=(0.0, 0.5, 1.0)))
    assert multimodal_global_basin(p, **grid) == full_grid_basin(p, **grid)


def test_chunked_basin_places_the_argmin_on_a_chunk_boundary():
    p = build_problem(ProblemSpec(kind="multimodal_1d"))
    for lo, n_grid, i_star in ((-_CHUNK * _H, 2 * _CHUNK + 1, _CHUNK),
                               (-(_CHUNK - 1) * _H, 2 * _CHUNK, _CHUNK - 1)):
        xs = np.linspace(lo, _CHUNK * _H, n_grid)
        assert xs[i_star] == 0.0
        assert int(np.argmin(verify.evaluate_loss(p, xs[:, None], p.full_batch()))) == i_star


def problem_with_losses(values):
    """A 1-d problem whose losses at the points x are values(x), to pin
    the argmin's tie and NaN rules across chunks."""
    base = build_problem(ProblemSpec(kind="multimodal_1d"))

    def loss_grad(X, idx):
        return values(X[:, 0]), np.zeros_like(X)

    return dataclasses.replace(base, _loss_grad=loss_grad)


_U = 5e-324  # the smallest subnormal


@pytest.mark.parametrize("values, grid", [
    (lambda x: np.zeros_like(x), {}),  # all tied: the first point
    (lambda x: np.where(np.abs(x) < 10.0, 1.0, 0.0), {}),  # tied minima in two chunks
    (lambda x: np.where(x > 5.0, np.nan, np.abs(x - 2.0)), {}),  # a NaN in a later chunk wins
    (lambda x: np.where(x < -20.0, np.nan, np.abs(x)), {}),  # a NaN in the first chunk wins
    (lambda x: np.where(np.abs(x) < 1e-3, -0.0, np.abs(x)), {}),  # -0.0 ties 0.0
    # a step (hi - lo)/(n_grid - 1) that underflows to 0: linspace divides
    # i by n_grid - 1 first, so the points run through -5u .. 5u
    (lambda x: np.mod(x / _U, 2.0), {"lo": -5 * _U, "hi": 5 * _U, "n_grid": 101}),
])
def test_chunked_basin_keeps_the_argmin_rules_of_np_argmin(values, grid):
    p = problem_with_losses(values)
    grid = {"n_grid": 10 * _CHUNK + 3, **grid}
    assert multimodal_global_basin(p, **grid) == full_grid_basin(p, **grid)


@pytest.mark.parametrize("n_grid", [0, -1, 2.5])
def test_basin_scan_needs_a_grid_point(n_grid):
    p = build_problem(ProblemSpec(kind="multimodal_1d"))
    with pytest.raises(ValueError, match="n_grid"):
        multimodal_global_basin(p, n_grid=n_grid)


@pytest.mark.parametrize("n_grid", [200001, 2000001])
def test_basin_scan_memory_is_one_chunk(n_grid):
    """No full-grid array: the scan's traced peak stays under 1 MB at 200,001
    points (a full grid of float64 is 1.6 MB) and at ten times that."""
    p = build_problem(ProblemSpec(kind="multimodal_1d"))
    tracemalloc.start()
    try:
        multimodal_global_basin(p, n_grid=n_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- report plumbing -----------------------------------------------------------------

def test_report_invariant_and_csv_format(tmp_path):
    p = quadratic()
    reps = [
        audit_ima_equivalence(p, OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=0.5),
                              steps=20),
        audit_reductions(p, steps=20),
    ]
    for r in reps:
        assert r.passed == (r.max_violation <= r.tolerance)
    reps.append(verify.AuditReport("negative_control", False, 0.25, "step 3, coord 1", 0.0))
    out = tmp_path / "audits.csv"
    audits_to_csv(reps, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,passed,max_violation,location"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4  # commas in locations are replaced
        assert cells[1] in ("true", "false")
        float(cells[2])  # parses as a number
    assert lines[1].startswith("ima_equivalence,true,")
    assert lines[3] == "negative_control,false,0.25,step 3; coord 1"


def test_run_default_audits_quick_all_pass():
    reports = run_default_audits(quick=True)
    assert len(reports) == 9
    names = [r.name for r in reports]
    assert len(set(names)) == 9
    for r in reports:
        assert r.passed, f"{r.name}: {r.max_violation} at {r.location}"


# --- the battery on the pool ---------------------------------------------------------

fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="the battery pools only where the start method is fork")


def report_bits(reports):
    return [(r.name, r.passed, np.float64(r.max_violation).tobytes(), r.location) for r in reports]


def battery(monkeypatch, cpus, **kw):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    try:
        return run_default_audits(**kw)
    finally:
        assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.parametrize("kw", [dict(seed=0), dict(seed=1), dict(seed=3, quick=True)])
def test_pooled_battery_has_the_rows_of_one_process(monkeypatch, kw):
    one = battery(monkeypatch, 1, **kw)
    assert report_bits(battery(monkeypatch, 2, **kw)) == report_bits(one)


def this_process_takes_one_task(monkeypatch):
    """This process takes the first task, then waits while the child takes the rest."""
    parent, handouts = os.getpid(), harness._handouts

    def one_then_wait(counter, n):
        for i in handouts(counter, n):
            yield i
            deadline = time.monotonic() + 30
            while os.getpid() == parent and counter.value < n and time.monotonic() < deadline:
                time.sleep(0.01)

    monkeypatch.setattr(harness, "_handouts", one_then_wait)


@fork_only
def test_pooled_battery_raises_the_first_error_in_row_order(monkeypatch):
    task = verify._audit_task
    errors = {0: KeyError("theorem bound, this process's, raised first"),
              4: OverflowError("scalar step-size bounds, in the child, fourth row"),
              6: ZeroDivisionError("ima_equivalence_beta_0.5, in the child, second row")}

    def raising(i, seed, quick):
        if i in errors:
            raise errors[i]
        return task(i, seed, quick)

    monkeypatch.setattr(verify, "_audit_task", raising)
    with pytest.raises(ZeroDivisionError, match="^ima_equivalence_beta_0.5, in the child"):
        battery(monkeypatch, 1, quick=True)
    this_process_takes_one_task(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="^ima_equivalence_beta_0.5, in the child"):
        battery(monkeypatch, 2, quick=True)


@fork_only
def test_battery_child_that_dies_before_sending_fails_the_call(monkeypatch):
    monkeypatch.setattr(verify, "_audit_child", lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 before it sent its rows"):
        battery(monkeypatch, 2, quick=True)


def test_battery_under_spawn_starts_no_process(monkeypatch):
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
    monkeypatch.setattr(spawn, "Process", lambda **kw: pytest.fail("a process was started"))
    assert len(battery(monkeypatch, 2, quick=True)) == 9


# --- array-wide checks against their per-step loops ----------------------------------
# The audit CSV prints the decaying audit's sums to 7 digits and a passing
# audit's violation as 0, so it cannot show a change in the last bit. Each
# array-wide check is held here to the per-step loop it replaced.

def loop_weighted_sums(weights, iterates, losses, f_star):
    xhat = np.zeros_like(iterates[0])
    weighted_subopt = 0.0
    for w, x, loss in zip(weights, iterates, losses):
        xhat = xhat + w * x
        weighted_subopt += w * (loss - f_star)
    return xhat, weighted_subopt


def loop_coordinate_violations(run, c, L):
    schedule, total = run.spec.schedule, run.spec.total_steps
    L_vec = np.asarray(L, dtype=float)
    c_base = None if c is None else np.asarray(c, dtype=float)
    for k, rep in enumerate(run.step_reports):
        if rep.gamma_coord is None:
            raise ValueError("run lacks per-coordinate step sizes")
        if c_base is None:
            if rep.c_coord_used is None:
                raise ValueError("run lacks recorded per-coordinate c values")
            c_vec = rep.c_coord_used
        else:
            c_vec = c_base * verify.schedule_c(schedule, 1.0, k, total)
        gamma = rep.gamma_coord
        viol = np.maximum(np.maximum(c_vec / (1.0 + c_vec * L_vec) - gamma,
                                     gamma - c_vec), 0.0) / c_vec
        j = int(np.argmax(viol))
        yield float(viol[j]), f"step {k} coord {j}"


def loop_equality_residuals(run):
    for k, rep in enumerate(run.step_reports):
        if rep.grad is None:
            raise ValueError("run lacks per-coordinate step-size data")
        loss, grad, gamma, c_vec = run.losses[k], rep.grad, rep.gamma_coord, rep.c_coord_used
        resid = np.abs(gamma * grad * grad - 2.0 * ((c_vec - gamma) / c_vec) * loss)
        if loss == 0.0:
            rel = np.where(resid == 0.0, 0.0, np.inf)
        else:
            rel = resid / loss
        j = int(np.argmax(rel))
        yield float(rel[j]), f"step {k} coord {j}"


def loop_first_gaps(pairs, runs):
    for (pair_name, _, _), run_a, run_b in zip(pairs, runs[::2], runs[1::2]):
        for k, (x_a, x_b) in enumerate(zip(run_a.iterates[1:], run_b.iterates[1:])):
            if not np.array_equal(x_a, x_b):
                diff = np.abs(x_a - x_b)
                gap = float(np.max(diff)) if np.all(np.isfinite(diff)) else float("inf")
                yield max(gap, np.finfo(float).tiny), f"{pair_name} at step {k + 1}"
                break


def pair_bits(pairs):
    return [(np.float64(value).tobytes(), where) for value, where in pairs]


def same_sums(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


WEIGHTED_SUM_PROBLEMS = {
    "least_squares_interpolating": ProblemSpec(kind="least_squares", dim=4, n_samples=8,
                                               interpolating=True),
    "least_squares_d20": ProblemSpec(kind="least_squares", dim=20, n_samples=40, seed=1),
    "rosenbrock": ProblemSpec(kind="rosenbrock"),
}


@pytest.mark.parametrize("schedule", ["constant", "inv_sqrt_step"])
@pytest.mark.parametrize("name", sorted(WEIGHTED_SUM_PROBLEMS))
def test_weighted_sums_have_the_bits_of_the_step_loop(name, schedule):
    # 600 steps: the accumulate's blocks of _SUM_ROWS carry the sum across
    p = build_problem(WEIGHTED_SUM_PROBLEMS[name])
    spec = OptimizerSpec(kind="ngn_m_v1", c=0.05, beta1=0.5, schedule=schedule)
    K = 600
    assert K > 2 * verify._SUM_ROWS
    run = verify._trajectories(p, [spec], K)[0]
    weights = verify.theory.decaying_weights(1.0, 2.0, K)
    for f_star in (0.0, 0.125):
        args = (weights, run.iterates, run.losses, f_star)
        same_sums(verify._weighted_sums(*args), loop_weighted_sums(*args))


def test_weighted_sums_keep_the_zero_start_and_a_nan_loss():
    # the loop adds the first term to +0.0, which turns a -0.0 coordinate
    # into +0.0; a NaN loss makes the loss sum NaN and leaves the average
    p = build_problem(WEIGHTED_SUM_PROBLEMS["least_squares_interpolating"])
    p = dataclasses.replace(p, x0_default=np.array([-0.0, 1.0, -0.0, -2.0]))
    run = verify._trajectories(p, [OptimizerSpec(kind="ngn_m_v1", c=0.1, beta1=0.5)], 50)[0]
    losses = list(run.losses)
    losses[7] = math.nan
    weights = verify.theory.decaying_weights(1.0, 3.0, 50)
    for count in (1, 2, 50):
        args = (weights[:count], run.iterates[:count], losses[:count], 0.0)
        got, want = verify._weighted_sums(*args), loop_weighted_sums(*args)
        same_sums(got, want)
    assert np.signbit(verify._weighted_sums(weights[:1], run.iterates, losses, 0.0)[0]).sum() == 1
    assert math.isnan(got[1])


def tampered_coordinate_runs():
    """An NGN-D run (caps c_coord, decaying schedule) and an NGN-MD V2 run
    (recorded caps), each with a zero-loss step and a NaN step: a NaN
    recorded loss and a step size with a NaN coordinate."""
    p = quadratic(dim=3, n=12)
    budget = RunBudget(max_steps=60, success_loss=0.0, batch_size=3)
    c_coord = np.array([0.5, 1.0, 2.0])
    runs = [
        (run_once(p, OptimizerSpec(kind="ngn_d", c=1.0, c_coord=c_coord,
                                   schedule="inv_sqrt_step"), budget, seed=2), c_coord),
        (run_once(p, OptimizerSpec(kind="ngn_md_v2", c=0.5, beta1=0.6), budget, seed=1), None),
    ]
    for run, _ in runs:
        run.losses[4] = 0.0
        run.losses[9] = math.nan
        rep = run.step_reports[12]
        gamma = rep.gamma_coord.copy()
        gamma[2] = math.nan
        run.step_reports[12] = dataclasses.replace(rep, gamma_coord=gamma)
    return p, runs


def report_pairs(monkeypatch):
    """Make each audit return the (value, location) pairs it hands _report."""
    monkeypatch.setattr(verify, "_report", lambda name, tolerance, pairs: list(pairs))


def test_coordinate_checks_have_the_bits_of_the_step_loops(monkeypatch):
    p, runs = tampered_coordinate_runs()
    report_pairs(monkeypatch)
    for run, c in runs:
        for c_arg, L in ((c, p.metadata.L_coord), (c, p.metadata.L_coord * 1e-9),
                         (1.0 if c is not None else None, p.metadata.L_coord)):
            got = pair_bits(audit_stepsize_bounds(run, c_arg, L))
            assert got == pair_bits(loop_coordinate_violations(run, c_arg, L))
            assert len(got) == 60
        got = pair_bits(audit_fundamental_equality(run))
        assert got == pair_bits(loop_equality_residuals(run))
        values = [np.frombuffer(value)[0] for value, _ in got]
        assert values[4] == math.inf and math.isnan(values[9]) and math.isnan(values[12])
        assert got[9][1] == "step 9 coord 0" and got[12][1] == "step 12 coord 2"


def test_coordinate_checks_of_an_empty_history_pass_at_none():
    p = quadratic(dim=3, n=12)
    for spec in (OptimizerSpec(kind="ngn_d", c=1.0), OptimizerSpec(kind="ngn", c=1.0)):
        run = harness.RunRecord(p, spec)
        assert audit_stepsize_bounds(run, c=np.ones(3), L=p.metadata.L_coord) == verify.AuditReport(
            "stepsize_bounds", True, 0.0, "none", 1e-12)
        assert audit_stepsize_bounds(run, c=None, L=p.metadata.L_coord).location == "none"
        assert audit_fundamental_equality(run) == verify.AuditReport(
            "fundamental_equality", True, 0.0, "none", 1e-12)


def test_reduction_gaps_have_the_bits_of_the_step_loop(monkeypatch):
    # sgdm's first step does not read beta, so the last pair first differs
    # at step 2; the first pair never differs
    c = verify._REDUCTION_C
    pairs = [("equal", OptimizerSpec(kind="ngn", c=c), OptimizerSpec(kind="ngn_m_v1", c=c)),
             ("cap", OptimizerSpec(kind="ngn", c=c), OptimizerSpec(kind="ngn", c=c * (1 + 1e-9))),
             ("beta", OptimizerSpec(kind="sgdm", c=0.01, beta1=0.5),
              OptimizerSpec(kind="sgdm", c=0.01, beta1=0.6))]
    monkeypatch.setattr(verify, "_reduction_pairs", lambda: pairs)
    p = quadratic(dim=4, n=8, seed=5)
    runs = verify._trajectories(p, [s for _, a, b in pairs for s in (a, b)], 50, 1, 4)
    want = list(loop_first_gaps(pairs, runs))
    assert [where for _, where in want] == ["cap at step 1", "beta at step 2"]
    report_pairs(monkeypatch)
    assert pair_bits(audit_reductions(p, seed=1, steps=50, batch_size=4)) == pair_bits(want)
