"""Executable audits: equivalences, step-size bounds, the fundamental
step-size equality, reduction identities, and convergence-bound checks.

Each audit runs real optimizer code, measures the worst-case residual
against a stated tolerance, and returns an AuditReport. Optimizer runs
go through harness.run_once; the one step loop here is the moving-average
twin that the equivalence audit checks run_once against. Audits are
deterministic given their seed, independent of each other, and report
the exact violation magnitude and where it occurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import theory
from .harness import STATUS_DIVERGED, RunBudget, RunRecord, ensure_parent_dir, run_once
from .optimizers import (
    NGN, NGN_D, NGN_M_V1, NGN_MD_V1, NGN_MD_V2, NGN_MDV1W,
    OptimizerSpec, ngn_gamma, schedule_c,
)
from .problems import (
    KIND_LEAST_SQUARES, ProblemSpec, StochasticObjective, build_problem,
    evaluate, evaluate_loss, sample_batch,
)

AUDIT_CSV_COLUMNS = ("name", "passed", "max_violation", "location")


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit. passed is exactly max_violation <= tolerance."""

    name: str
    passed: bool
    max_violation: float
    location: str
    tolerance: float


def _report(name: str, max_violation: float, tolerance: float, location: str) -> AuditReport:
    return AuditReport(name, bool(max_violation <= tolerance), float(max_violation),
                       location, float(tolerance))


def _trajectory(problem: StochasticObjective, spec: OptimizerSpec, steps: int,
                seed: int = 0, batch_size: Optional[int] = None) -> RunRecord:
    """run_once stopped only by divergence, which voids the audit: exactly
    `steps` updates and one oracle call per step."""
    budget = RunBudget(max_steps=steps, success_loss=-1.0, diverge_loss=math.inf,
                       batch_size=batch_size)
    run = run_once(problem, spec, budget, seed, full_eval_every=0)
    if run.status == STATUS_DIVERGED:
        raise ValueError(f"audit run of {spec.kind} diverged at step {run.stop_step}")
    return run


def audit_ima_equivalence(problem: StochasticObjective, spec: OptimizerSpec,
                          steps: int = 100, seed: int = 0,
                          batch_size: Optional[int] = None,
                          name: str = "ima_equivalence") -> AuditReport:
    """Heavy-ball NGN-M against its two-sequence moving-average form.

    With lambda = beta/(1-beta), the averaged process
        z' = z - gamma grad f_S(x),  x' = (lambda x + z')/(1 + lambda),
    started at z = x0, generates the same iterates as the one-line update.
    Both forms run on the same batch sequence; the report carries the
    worst Euclidean deviation between the trajectories, together with the
    worst residual of the linking relation z' = x' + lambda (x' - x).
    Tolerance 1e-10.
    """
    if spec.kind != NGN_M_V1:
        raise ValueError("the moving-average equivalence is defined for the heavy-ball variant")
    beta = spec.beta1
    lam = beta / (1.0 - beta)
    alg_iterates = _trajectory(problem, spec, steps, seed, batch_size).iterates

    bs = problem.n_samples if batch_size is None else batch_size
    worst = 0.0
    location = "none"
    x = z = problem.x0_default  # rebound below, never modified in place
    for k in range(steps):
        sample = evaluate(problem, x, sample_batch(problem, seed, k, bs))
        c_k = schedule_c(spec.schedule, spec.c, k, spec.total_steps)
        gamma = ngn_gamma(c_k, sample.loss, float(np.sum(sample.grad * sample.grad)))
        z = z - gamma * sample.grad
        x_new = (lam * x + z) / (1.0 + lam)
        dev = math.sqrt(float(np.sum((x_new - alg_iterates[k + 1]) ** 2)))
        link = z - (x_new + lam * (x_new - x))
        rel = math.sqrt(float(np.sum(link * link)))
        for value, label in ((dev, "trajectory"), (rel, "link relation")):
            if value > worst:
                worst = value
                location = f"step {k + 1} ({label})"
        x = x_new
    return _report(name, worst, 1e-10, location)


def audit_stepsize_bounds(run: RunRecord, c, L, name: str = "stepsize_bounds") -> AuditReport:
    """Recorded step sizes against gamma in [c/(1+cL), c].

    Scalar c and L check the scalar step size of every recorded step;
    vector c and L check the per-coordinate step sizes against
    [c_j/(1+c_j L_j), c_j]. c=None on the coordinate path uses each
    step's recorded effective c_j (the preconditioner-assisted mode).
    Violations are normalized by c (resp. c_j), so the bound holds up to
    1e-12 c as required; tolerance 1e-12.
    """
    coordinate = c is None or np.ndim(c) > 0 or np.ndim(L) > 0
    worst = 0.0
    location = "none"
    if not coordinate:
        c = float(c)
        L = float(L)
        for k, rep in enumerate(run.step_reports):
            c_k = schedule_c(run.spec.schedule, c, k, run.spec.total_steps)
            lo = c_k / (1.0 + c_k * L)
            gamma = rep.gamma_scalar
            viol = max(lo - gamma, gamma - c_k, 0.0) / c_k
            if viol > worst:
                worst = viol
                location = f"step {k}"
        return _report(name, worst, 1e-12, location)
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
            scale = schedule_c(run.spec.schedule, 1.0, k, run.spec.total_steps)
            c_vec = c_base * scale
        lo = c_vec / (1.0 + c_vec * L_vec)
        gamma = rep.gamma_coord
        viol = np.maximum(np.maximum(lo - gamma, gamma - c_vec), 0.0) / c_vec
        j = int(np.argmax(viol))
        if viol[j] > worst:
            worst = float(viol[j])
            location = f"step {k} coord {j}"
    return _report(name, worst, 1e-12, location)


def audit_fundamental_equality(run: RunRecord, name: str = "fundamental_equality") -> AuditReport:
    """The per-coordinate identity gamma_j g_j^2 = 2 ((c_j - gamma_j)/c_j) f_S.

    The identity is algebraic in the step-size formula, so it must hold
    to rounding error on every step and coordinate of a recorded
    per-coordinate NGN run (NGN-D or NGN-MD V2, whose step reports keep
    their batch gradient). Residuals are measured relative to f_S
    (a zero loss requires an exactly zero residual); tolerance 1e-12.
    """
    worst = 0.0
    location = "none"
    for k, rep in enumerate(run.step_reports):
        if rep.grad is None:
            raise ValueError("run lacks per-coordinate step-size data")
        loss, grad, gamma, c_vec = run.losses[k], rep.grad, rep.gamma_coord, rep.c_coord_used
        lhs = gamma * grad * grad
        rhs = 2.0 * ((c_vec - gamma) / c_vec) * loss
        resid = np.abs(lhs - rhs)
        if loss > 0.0:
            rel = resid / loss
        else:
            rel = np.where(resid == 0.0, 0.0, np.inf)
        j = int(np.argmax(rel))
        if rel[j] > worst:
            worst = float(rel[j])
            location = f"step {k} coord {j}"
    return _report(name, worst, 1e-12, location)


_REDUCTION_C = 0.5
_REDUCTION_BETA = 0.9


def _reduction_pairs() -> list:
    c, beta = _REDUCTION_C, _REDUCTION_BETA
    return [
        ("ngn_m_v1[beta=0] == ngn",
         OptimizerSpec(kind=NGN_M_V1, c=c, beta1=0.0),
         OptimizerSpec(kind=NGN, c=c)),
        ("ngn_md_v2[beta1=0, D=I] == ngn_d",
         OptimizerSpec(kind=NGN_MD_V2, c=c, beta1=0.0, precond_identity=True),
         OptimizerSpec(kind=NGN_D, c=c)),
        ("ngn_md_v1[D=I] == ngn_m_v1",
         OptimizerSpec(kind=NGN_MD_V1, c=c, beta1=beta, precond_identity=True),
         OptimizerSpec(kind=NGN_M_V1, c=c, beta1=beta)),
        ("ngn_mdv1w[lambda=0] == ngn_md_v1",
         OptimizerSpec(kind=NGN_MDV1W, c=c, beta1=beta, wd_lambda=0.0),
         OptimizerSpec(kind=NGN_MD_V1, c=c, beta1=beta)),
    ]


def audit_reductions(problem: StochasticObjective, seed: int = 0, steps: int = 100,
                     batch_size: Optional[int] = None,
                     name: str = "reduction_identities") -> AuditReport:
    """Four parameter collapses that must reproduce another rule exactly.

    beta=0 heavy-ball equals plain NGN; the per-coordinate diagonal rule
    with beta1=0 and identity preconditioner equals NGN-D; the diagonal
    heavy-ball rule with identity preconditioner equals scalar NGN-M; and
    the coupled weight-decay rule at lambda=0 equals the diagonal rule.
    Each pair runs on the same batch sequence and every iterate must
    compare equal (IEEE equality, which identifies +0 and -0). Tolerance
    is exactly zero.
    """
    worst = 0.0
    location = "none"
    for pair_name, spec_a, spec_b in _reduction_pairs():
        run_a = _trajectory(problem, spec_a, steps, seed, batch_size)
        run_b = _trajectory(problem, spec_b, steps, seed, batch_size)
        for k, (x_a, x_b) in enumerate(zip(run_a.iterates[1:], run_b.iterates[1:])):
            if not np.array_equal(x_a, x_b):
                diff = np.abs(x_a - x_b)
                gap = float(np.max(diff)) if np.all(np.isfinite(diff)) else float("inf")
                gap = max(gap, np.finfo(float).tiny)
                if gap > worst:
                    worst = gap
                    location = f"{pair_name} at step {k + 1}"
                break
    return _report(name, worst, 0.0, location)


def _require_interpolating_quadratic(problem: StochasticObjective) -> None:
    meta = problem.metadata
    if meta.L is None or meta.x_star is None or meta.f_star is None:
        raise ValueError("problem lacks smoothness or minimizer metadata")
    if abs(meta.f_star) > 1e-18:
        raise ValueError("convergence-bound audits need an interpolating problem (f* = 0)")


def audit_theorem_bound(problem: StochasticObjective, K: int, c: Optional[float] = None,
                        decaying: bool = False, name: Optional[str] = None) -> AuditReport:
    """Average suboptimality of heavy-ball NGN-M against its guarantee.

    Constant schedule (default): c = 1/sqrt(K) unless given, momentum set
    to the largest admissible beta for (c, L), K full-batch steps on an
    interpolating least-squares problem; the trajectory average of
    f(x^k) - f* (which equals the expectation over a uniformly chosen
    iterate) must not exceed the constant-schedule bound.

    Decaying schedule: c_k = c0/sqrt(k+1) with a constant momentum valid
    for every step, weighted iterate average with the schedule's
    normalized rho_k weights; both the weighted mean suboptimality and
    the suboptimality at the averaged point must not exceed the decaying
    bound. Horizons below 10 are degenerate and rejected.
    """
    if K < 10:
        raise ValueError("audit requires K >= 10")
    _require_interpolating_quadratic(problem)
    meta = problem.metadata
    L = float(meta.L)
    x0 = problem.x0_default
    dist0_sq = float(np.sum((x0 - meta.x_star) ** 2))

    if not decaying:
        c_val = 1.0 / math.sqrt(K) if c is None else float(c)
        _, _, beta_max = theory.ngn_m_params(c_val, L)
        spec = OptimizerSpec(kind=NGN_M_V1, c=c_val, beta1=beta_max)
        run = _trajectory(problem, spec, K)
        mean_subopt = float(np.mean(run.losses)) - meta.f_star
        bound = theory.ngn_m_bound(theory.TheoryInputs(c=c_val, L=L, K=K, dist0_sq=dist0_sq))
        worst = max(0.0, mean_subopt - bound)
        location = f"mean_subopt {mean_subopt:.6e} vs bound {bound:.6e}"
        return _report(name or "theorem_bound_constant", worst, 0.0, location)

    c0 = 1.0 if c is None else float(c)
    lam = min(c0 * L / math.sqrt(K), 0.5 / ((1.0 + c0 * L) * (1.0 + 2.0 * c0 * L)))
    beta = lam / (1.0 + lam)
    spec = OptimizerSpec(kind=NGN_M_V1, c=c0, beta1=beta,
                         schedule="inv_sqrt_step")
    weights = theory.decaying_weights(c0, L, K)
    run = _trajectory(problem, spec, K)
    xhat = np.zeros_like(x0)
    weighted_subopt = 0.0
    for w, x, loss in zip(weights, run.iterates, run.losses):
        xhat = xhat + w * x
        weighted_subopt += w * (loss - meta.f_star)
    avg_subopt = evaluate(problem, xhat, problem.full_batch()).loss - meta.f_star
    bound = theory.ngn_m_bound_decaying(c0, L, K, dist0_sq)
    worst = max(0.0, weighted_subopt - bound, avg_subopt - bound)
    location = (f"weighted_subopt {weighted_subopt:.6e} avg_point_subopt "
                f"{avg_subopt:.6e} vs bound {bound:.6e}")
    return _report(name or "theorem_bound_decaying", worst, 0.0, location)


_SCAN_CHUNK = 4096  # grid points per oracle call; bounds the oracle's temporaries


def multimodal_global_basin(problem: StochasticObjective, lo: float = -25.0,
                            hi: float = 25.0, n_grid: int = 200001) -> tuple:
    """Attraction interval of the global minimum, from a dense grid.

    Scans the objective on a uniform grid, locates the global argmin, and
    walks outward in both directions while the objective is
    non-decreasing; the returned (left, right) interval is the monotone
    basin around the global minimum at grid resolution.
    """
    xs = np.linspace(lo, hi, n_grid)
    batch = problem.full_batch()
    fs = np.concatenate([evaluate_loss(problem, xs[i:i + _SCAN_CHUNK, None], batch)
                         for i in range(0, n_grid, _SCAN_CHUNK)])
    i_star = int(np.argmin(fs))
    right = i_star
    while right + 1 < n_grid and fs[right + 1] >= fs[right]:
        right += 1
    left = i_star
    while left - 1 >= 0 and fs[left - 1] >= fs[left]:
        left -= 1
    return float(xs[left]), float(xs[right])


def run_default_audits(seed: int = 0, quick: bool = False) -> list:
    """The standard audit battery, one AuditReport per row.

    Covers the moving-average equivalence at three momentum levels, the
    scalar and per-coordinate step-size bounds, the fundamental step-size
    equality, the four reduction identities, and the constant- and
    decaying-schedule convergence bounds on an interpolating
    least-squares problem. quick shrinks run lengths for smoke checks.
    """
    d = 5 if quick else 20
    steps = 200 if quick else 1000
    K = 400 if quick else 2500
    problem = build_problem(ProblemSpec(kind=KIND_LEAST_SQUARES, dim=d,
                                        n_samples=2 * d, seed=seed))
    interp = build_problem(ProblemSpec(kind=KIND_LEAST_SQUARES, dim=d,
                                       n_samples=2 * d, seed=seed, interpolating=True))
    meta = problem.metadata
    reports = []

    for beta in (0.1, 0.5, 0.9):
        spec = OptimizerSpec(kind=NGN_M_V1, c=1.0, beta1=beta)
        reports.append(audit_ima_equivalence(problem, spec, steps=100, seed=seed,
                                             name=f"ima_equivalence_beta_{beta:g}"))

    scalar_spec = OptimizerSpec(kind=NGN, c=1.0)
    budget = RunBudget(max_steps=steps, success_loss=1e-30)
    run = run_once(problem, scalar_spec, budget, seed=seed)
    reports.append(audit_stepsize_bounds(run, 1.0, meta.L, name="stepsize_bounds_scalar"))

    coord_spec = OptimizerSpec(kind=NGN_D, c=1.0, c_coord=np.full(problem.dim, 0.7))
    coord_budget = RunBudget(max_steps=steps, success_loss=1e-30,
                             batch_size=max(1, problem.n_samples // 4))
    coord_run = run_once(problem, coord_spec, coord_budget, seed=seed)
    reports.append(audit_stepsize_bounds(coord_run, np.full(problem.dim, 0.7),
                                         meta.L_coord, name="stepsize_bounds_coordinate"))
    reports.append(audit_fundamental_equality(coord_run))

    reports.append(audit_reductions(problem, seed=seed,
                                    batch_size=max(1, problem.n_samples // 2)))

    reports.append(audit_theorem_bound(interp, K))
    reports.append(audit_theorem_bound(interp, K, decaying=True))
    return reports


def audits_to_csv(reports, path: str) -> None:
    """One CSV row per audit: name, passed, max_violation, location."""
    lines = [",".join(AUDIT_CSV_COLUMNS)]
    for r in reports:
        location = r.location.replace(",", ";")
        lines.append(f"{r.name},{str(r.passed).lower()},{r.max_violation:.17g},{location}")
    ensure_parent_dir(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
