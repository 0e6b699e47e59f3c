"""Executable audits: equivalences, step-size bounds, the fundamental
step-size equality, reduction identities, and convergence-bound checks.

Each audit runs real optimizer code, measures the worst-case residual
against a stated tolerance, and returns an AuditReport. Every optimizer
run is a harness.RunRecord stepped by harness.run_lockstep through
_trajectories (the reduction pairs step as one group on one batch
sequence); the one step loop here is the moving-average twin of the
equivalence audit. The other checks take a run's whole history at once
(stacks of its steps, argmax per row, in-order np.add.accumulate), with
a step loop's bits. Audits are deterministic given their seed,
independent, and report the exact violation and where it occurred, so
the default battery runs as eight tasks on the sweeps' process pool
(harness._pool), each on a problem it builds, with the rows of one
process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import harness, theory
from .harness import (
    STATUS_DIVERGED, RunBudget, RunRecord, _write_csv, run_lockstep,
)
from .optimizers import (
    NGN, NGN_D, NGN_M_V1, NGN_MD_V1, NGN_MD_V2, NGN_MDV1W,
    OptimizerSpec, ngn_gamma, schedule_c,
)
from .problems import (
    KIND_LEAST_SQUARES, ProblemSpec, StochasticObjective, _check_whole, build_problem,
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


def _report(name: str, tolerance: float, violations, location: str = "none") -> AuditReport:
    """The verdict of one audit from its (violation, location) pairs: the
    first largest violation and where it occurred, or the first NaN, which
    fails any tolerance. With no violation above zero, the report reads 0
    at `location`."""
    worst = 0.0
    for value, where in violations:
        if not value <= worst:  # larger, or NaN
            worst, location = value, where
            if math.isnan(worst):
                break
    return AuditReport(name, bool(worst <= tolerance), float(worst), location, float(tolerance))


def _row_worst(values: np.ndarray):
    """_report's pairs of values (K, d): row k's np.argmax j, "step k coord j"."""
    return ((float(values[k, j]), f"step {k} coord {j}")
            for k, j in enumerate(values.argmax(axis=1).tolist()))


def _trajectories(problem: StochasticObjective, specs: list, steps: int, seed: int = 0,
                  batch_size: Optional[int] = None) -> list:
    """One RunRecord per spec, stepped as one lockstep group stopped only
    by divergence, which voids the audit: exactly `steps` updates and one
    oracle call per step, with no full-batch checkpoints. The first run in
    the order of specs that failed or diverged raises."""
    budget = RunBudget(max_steps=steps, success_loss=-1.0, diverge_loss=math.inf,
                       batch_size=batch_size)
    runs = [RunRecord(problem, spec) for spec in specs]
    run_lockstep(problem, runs, budget, seed, full_eval_every=0)
    for run in runs:
        if run.error is not None:
            raise run.error
        if run.status == STATUS_DIVERGED:
            raise ValueError(f"audit run of {run.spec.kind} diverged at step {run.stop_step}")
    return runs


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
    alg_iterates = _trajectories(problem, [spec], steps, seed, batch_size)[0].iterates

    bs = problem.n_samples if batch_size is None else batch_size

    def deviations():
        x = z = problem.x0_default  # rebound below, never modified in place
        for k in range(steps):
            sample = evaluate(problem, x, sample_batch(problem, seed, k, bs))
            c_k = schedule_c(spec.schedule, spec.c, k, spec.total_steps)
            gamma = ngn_gamma(c_k, sample.loss, float((sample.grad * sample.grad).sum()))
            z = z - gamma * sample.grad
            x_new = (lam * x + z) / (1.0 + lam)
            dev = math.sqrt(float(((x_new - alg_iterates[k + 1]) ** 2).sum()))
            yield dev, f"step {k + 1} (trajectory)"
            link = z - (x_new + lam * (x_new - x))
            yield math.sqrt(float((link * link).sum())), f"step {k + 1} (link relation)"
            x = x_new

    return _report(name, 1e-10, deviations())


def audit_stepsize_bounds(run: RunRecord, c, L, name: str = "stepsize_bounds") -> AuditReport:
    """Recorded step sizes against gamma in [c/(1+cL), c].

    Scalar c and L check the scalar step size of every recorded step;
    vector c and L check the per-coordinate step sizes against
    [c_j/(1+c_j L_j), c_j]. c=None on the coordinate path uses each
    step's recorded effective c_j (the preconditioner-assisted mode).
    Violations are normalized by c (resp. c_j), so the bound holds up to
    1e-12 c as required; tolerance 1e-12. A c or c_j that is not positive
    and finite raises ValueError, as OptimizerSpec does.
    """
    if c is not None and not (np.isfinite(c) & np.greater(c, 0.0)).all():
        raise ValueError(f"c must be positive and finite, got {c!r}")
    schedule, total, reports = run.spec.schedule, run.spec.total_steps, run.step_reports
    scalar = not (c is None or np.ndim(c) > 0 or np.ndim(L) > 0)
    if not scalar:
        for rep in reports:
            if rep.gamma_coord is None:
                raise ValueError("run lacks per-coordinate step sizes")
            if c is None and rep.c_coord_used is None:
                raise ValueError("run lacks recorded per-coordinate c values")
    if not reports:
        return _report(name, 1e-12, ())
    if scalar:  # (K,) stacks, with step k's c_k
        gamma = np.array([rep.gamma_scalar for rep in reports])
        c_vec = np.array([schedule_c(schedule, float(c), k, total) for k in range(len(reports))])
    else:  # (K, d) stacks
        gamma = np.array([rep.gamma_coord for rep in reports])
        if c is None:
            c_vec = np.array([rep.c_coord_used for rep in reports])
        else:
            scale = [schedule_c(schedule, 1.0, k, total) for k in range(len(reports))]
            c_vec = np.asarray(c, dtype=float) * np.array(scale)[:, None]
    # each + - * / rounds as on one step's floats; a NaN step size gives a NaN violation
    viol = np.maximum(np.maximum(c_vec / (1.0 + c_vec * np.asarray(L, dtype=float)) - gamma,
                                 gamma - c_vec), 0.0) / c_vec
    return _report(name, 1e-12, ((v, f"step {k}") for k, v in enumerate(viol.tolist()))
                   if scalar else _row_worst(viol))


def audit_fundamental_equality(run: RunRecord) -> AuditReport:
    """The per-coordinate identity gamma_j g_j^2 = 2 ((c_j - gamma_j)/c_j) f_S.

    The identity is algebraic in the step-size formula, so it must hold
    to rounding error on every step and coordinate of a recorded
    per-coordinate NGN run (NGN-D or NGN-MD V2, whose step reports keep
    their batch gradient). Residuals are measured relative to f_S
    (a zero loss requires an exactly zero residual, and a NaN loss reads
    NaN at the first coordinate); tolerance 1e-12.
    """
    if any(rep.grad is None for rep in run.step_reports):
        raise ValueError("run lacks per-coordinate step-size data")
    if not run.step_reports:
        return _report("fundamental_equality", 1e-12, ())
    gamma, grad, c_vec = (np.array([getattr(rep, field) for rep in run.step_reports])
                          for field in ("gamma_coord", "grad", "c_coord_used"))
    loss = np.array(run.losses[:len(gamma)])[:, None]
    resid = np.abs(gamma * grad * grad - 2.0 * ((c_vec - gamma) / c_vec) * loss)
    zero = loss == 0.0  # a zero loss needs a zero residual; a NaN one's quotient is NaN
    rel = np.where(zero, np.where(resid == 0.0, 0.0, np.inf), resid / np.where(zero, 1.0, loss))
    return _report("fundamental_equality", 1e-12, _row_worst(rel))


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
                     batch_size: Optional[int] = None) -> AuditReport:
    """Four parameter collapses that must reproduce another rule exactly.

    beta=0 heavy-ball equals plain NGN; the per-coordinate diagonal rule
    with beta1=0 and identity preconditioner equals NGN-D; the diagonal
    heavy-ball rule with identity preconditioner equals scalar NGN-M; and
    the coupled weight-decay rule at lambda=0 equals the diagonal rule.
    The runs of all pairs step as one lockstep group on one batch
    sequence, and every iterate of a pair must compare equal (IEEE
    equality, which identifies +0 and -0). Tolerance is exactly zero.
    """
    pairs = _reduction_pairs()
    specs = [spec for _, spec_a, spec_b in pairs for spec in (spec_a, spec_b)]
    runs = _trajectories(problem, specs, steps, seed, batch_size)

    def first_gaps():
        """The gap at the first step where each pair differs."""
        for (pair_name, _, _), run_a, run_b in zip(pairs, runs[::2], runs[1::2]):
            differs = (np.array(run_a.iterates[1:]) != np.array(run_b.iterates[1:])).any(axis=1)
            if differs.any():
                k = int(differs.argmax())
                diff = np.abs(run_a.iterates[k + 1] - run_b.iterates[k + 1])
                gap = float(np.max(diff)) if np.all(np.isfinite(diff)) else float("inf")
                yield max(gap, np.finfo(float).tiny), f"{pair_name} at step {k + 1}"

    return _report("reduction_identities", 0.0, first_gaps())


def audit_theorem_bound(problem: StochasticObjective, K: int,
                        decaying: bool = False) -> AuditReport:
    """Average suboptimality of heavy-ball NGN-M against its guarantee.

    Constant schedule (default): c = 1/sqrt(K), momentum set to the
    largest admissible beta for (c, L), K full-batch steps on an
    interpolating least-squares problem; the trajectory average of
    f(x^k) - f* (which equals the expectation over a uniformly chosen
    iterate) must not exceed the constant-schedule bound.

    Decaying schedule: c_k = c0/sqrt(k+1) with c0 = 1 and a constant
    momentum valid for every step, weighted iterate average with the
    schedule's normalized rho_k weights; both the weighted mean
    suboptimality and the suboptimality at the averaged point must not
    exceed the decaying bound. Horizons below 10 are degenerate and
    rejected.
    """
    if K < 10:
        raise ValueError("audit requires K >= 10")
    meta = problem.metadata
    if meta.L is None or meta.x_star is None or meta.f_star is None:
        raise ValueError("problem lacks smoothness or minimizer metadata")
    if abs(meta.f_star) > 1e-18:
        raise ValueError("convergence-bound audits need an interpolating problem (f* = 0)")
    L = float(meta.L)
    dist0_sq = float(np.sum((problem.x0_default - meta.x_star) ** 2))

    if not decaying:
        c = 1.0 / math.sqrt(K)
        _, _, beta_max = theory.ngn_m_params(c, L)
        spec = OptimizerSpec(kind=NGN_M_V1, c=c, beta1=beta_max)
        run = _trajectories(problem, [spec], K)[0]
        mean_subopt = float(np.mean(run.losses)) - meta.f_star
        bound = theory.ngn_m_bound(c, L, K, dist0_sq)
        measured = f"mean_subopt {mean_subopt:.6e} vs bound {bound:.6e}"
        return _report("theorem_bound_constant", 0.0,
                       [(mean_subopt - bound, measured)], measured)

    c0 = 1.0
    lam = min(c0 * L / math.sqrt(K), theory.ngn_m_params(c0, L)[1])
    beta = lam / (1.0 + lam)
    spec = OptimizerSpec(kind=NGN_M_V1, c=c0, beta1=beta,
                         schedule="inv_sqrt_step")
    weights = theory.decaying_weights(c0, L, K)
    run = _trajectories(problem, [spec], K)[0]
    xhat, weighted_subopt = _weighted_sums(weights, run.iterates, run.losses, meta.f_star)
    avg_subopt = evaluate(problem, xhat, problem.full_batch()).loss - meta.f_star
    bound = theory.ngn_m_bound_decaying(c0, L, K, dist0_sq)
    measured = (f"weighted_subopt {weighted_subopt:.6e} avg_point_subopt "
                f"{avg_subopt:.6e} vs bound {bound:.6e}")
    return _report("theorem_bound_decaying", 0.0,
                   [(weighted_subopt - bound, measured), (avg_subopt - bound, measured)], measured)


def _weighted_sums(weights: np.ndarray, iterates: list, losses: list, f_star: float) -> tuple:
    """sum_k w_k x_k and sum_k w_k (f_k - f*) over zip(weights, iterates,
    losses), with the bits of `xhat = xhat + w * x; s += w * (loss - f_star)`
    from zero: losses on floats, iterates by in-order np.add.accumulate."""
    count = min(len(weights), len(iterates), len(losses))
    xhat, total = np.zeros(iterates[0].shape), 0.0  # +0.0, to which a -0.0 term adds +0.0
    for w, loss in zip(weights[:count].tolist(), losses):
        total += w * (loss - f_star)
    for i in range(0, count, _SUM_ROWS):
        block = np.stack([xhat, *iterates[i:min(i + _SUM_ROWS, count)]])
        block[1:] *= weights[i:i + len(block) - 1, None]
        xhat = np.add.accumulate(block, axis=0, out=block)[-1]
    return xhat.copy(), total


_SUM_ROWS = 256  # terms per accumulate; bounds the weighted average's memory
_SCAN_CHUNK = 4096  # grid points per oracle call; bounds the scan's memory


def _grid_points(lo: float, hi: float, n_grid: int, i: int, j: int) -> np.ndarray:
    """Points i..j-1 of np.linspace(lo, hi, n_grid), with its bits: the
    same arange, step, multiply and add, and hi as the last point."""
    xs = np.arange(i, j, dtype=float)
    delta, div = hi - lo, n_grid - 1
    step = delta / div if div else 0.0
    if step == 0.0:  # one point, or a step that underflows: linspace scales by delta
        if div:
            xs /= div
        xs *= delta
    else:
        xs *= step
    xs += lo
    if j == n_grid and n_grid > 1:
        xs[-1] = hi
    return xs


def multimodal_global_basin(problem: StochasticObjective, lo: float = -25.0,
                            hi: float = 25.0, n_grid: int = 200001) -> tuple:
    """Attraction interval of the global minimum, from a dense grid.

    Scans the objective on a uniform grid, locates the global argmin, and
    walks outward in both directions while the objective is
    non-decreasing; the returned (left, right) interval is the monotone
    basin around the global minimum at grid resolution.

    The grid is never held whole: a first pass keeps the running argmin
    of each _SCAN_CHUNK points (the first occurrence, and the first NaN
    if any, as np.argmin), and the walk evaluates one chunk at a time, so
    the scan's memory is one chunk's at any n_grid. The points and
    edges have the bits of np.linspace(lo, hi, n_grid) and its argmin.
    """
    _check_whole("n_grid", n_grid, 1)
    lo, hi = float(lo), float(hi)
    batch = problem.full_batch()

    def losses(k: int) -> np.ndarray:
        i = k * _SCAN_CHUNK
        xs = _grid_points(lo, hi, n_grid, i, min(i + _SCAN_CHUNK, n_grid))
        return evaluate_loss(problem, xs[:, None], batch)

    n_chunks = -(-n_grid // _SCAN_CHUNK)
    i_min, f_min = 0, math.nan
    for k in range(n_chunks):
        fs = losses(k)
        j = int(np.argmin(fs))
        f = float(fs[j])
        if k == 0 or (not math.isnan(f_min) and (math.isnan(f) or f < f_min)):
            i_min, f_min = k * _SCAN_CHUNK + j, f

    def outward(step: int):
        """The losses from point i_min outward (step +1 or -1), as floats."""
        k0, pos = divmod(i_min, _SCAN_CHUNK)
        for k in range(k0, n_chunks if step > 0 else -1, step):
            fs = losses(k).tolist()
            if k == k0:
                fs = fs[pos:] if step > 0 else fs[pos::-1]
            elif step < 0:
                fs.reverse()
            yield from fs

    def edge(step: int) -> int:
        """The last point from i_min in direction step up to which the
        losses do not decrease."""
        values = outward(step)
        i, f = i_min, next(values)
        for g in values:
            if not g >= f:
                break
            i, f = i + step, g
        return i

    return tuple(float(_grid_points(lo, hi, n_grid, i, i + 1)[0]) for i in (edge(-1), edge(1)))


_IMA_BETAS = (0.1, 0.5, 0.9)
_BATTERY_ROWS = (5, 6, 7, 4, 2, 3, 0, 1)  # the tasks in the order of their rows


def _battery_problem(seed: int, quick: bool, interpolating: bool = False) -> StochasticObjective:
    d = 5 if quick else 20
    return build_problem(ProblemSpec(kind=KIND_LEAST_SQUARES, dim=d, n_samples=2 * d,
                                     seed=seed, interpolating=interpolating))


def _audit_task(i: int, seed: int, quick: bool) -> list:
    """Task i of the battery, longest first, on a problem it builds: its
    reports, in row order. 0 and 1: the constant and decaying theorem
    bounds; 2: the coordinate step-size bounds and the fundamental
    equality of one NGN-D run; 3: the reductions; 4: the scalar step-size
    bounds; 5, 6 and 7: the moving-average equivalences."""
    if i < 2:
        return [audit_theorem_bound(_battery_problem(seed, quick, interpolating=True),
                                    400 if quick else 2500, decaying=i == 1)]
    problem = _battery_problem(seed, quick)
    steps = 200 if quick else 1000
    if i == 2:
        c = np.full(problem.dim, 0.7)
        run = _trajectories(problem, [OptimizerSpec(kind=NGN_D, c=1.0, c_coord=c)], steps, seed,
                            batch_size=max(1, problem.n_samples // 4))[0]
        return [audit_stepsize_bounds(run, c, problem.metadata.L_coord,
                                      name="stepsize_bounds_coordinate"),
                audit_fundamental_equality(run)]
    if i == 3:
        return [audit_reductions(problem, seed=seed, batch_size=max(1, problem.n_samples // 2))]
    if i == 4:
        run = _trajectories(problem, [OptimizerSpec(kind=NGN, c=1.0)], steps, seed)[0]
        return [audit_stepsize_bounds(run, 1.0, problem.metadata.L, name="stepsize_bounds_scalar")]
    beta = _IMA_BETAS[i - 5]
    return [audit_ima_equivalence(problem, OptimizerSpec(kind=NGN_M_V1, c=1.0, beta1=beta),
                                  steps=100, seed=seed, name=f"ima_equivalence_beta_{beta:g}")]


def _task_outcome(i: int, seed: int, quick: bool):
    """_audit_task's reports, or the exception that ended it."""
    try:
        return _audit_task(i, seed, quick)
    except Exception as exc:  # raised in row order by run_default_audits
        return exc


def _audit_child(seed: int, quick: bool, counter, conn) -> None:
    """A pooled battery's child: run the tasks it takes, send their outcomes."""
    conn.send([(i, _task_outcome(i, seed, quick))
               for i in harness._handouts(counter, len(_BATTERY_ROWS))])


def run_default_audits(seed: int = 0, quick: bool = False) -> list:
    """The standard audit battery, one AuditReport per row.

    Covers the moving-average equivalence at three momentum levels, the
    scalar and per-coordinate step-size bounds, the fundamental step-size
    equality, the four reduction identities, and the constant- and
    decaying-schedule convergence bounds on an interpolating
    least-squares problem. quick shrinks run lengths for smoke checks.

    The battery's eight independent tasks (_audit_task) run on the
    sweeps' pool (harness._pool) in min(8, CPU count) processes, this
    one included (harness._processes), longest first, and their rows
    have the bits of one process. They run here alone on one CPU, in a
    daemonic process, or where the default start method is not fork: a
    spawned child takes longer to start than the battery takes. The
    first exception in row order is raised, as a serial run raises it.
    """
    n = len(_BATTERY_ROWS)
    processes = harness._processes(n)
    if processes > 1:
        import multiprocessing  # imported already by harness._processes
        if multiprocessing.get_context().get_start_method() != "fork":
            processes = 1
    if processes > 1:
        done = harness._pool(processes, n, lambda i: _task_outcome(i, seed, quick),
                             _audit_child, (seed, quick))
    else:
        done = {i: _task_outcome(i, seed, quick) for i in range(n)}
    reports = []
    for i in _BATTERY_ROWS:
        if isinstance(done[i], Exception):
            raise done[i]
        reports.extend(done[i])
    return reports


def audits_to_csv(reports, path: str) -> None:
    """One CSV row per audit: name, passed, max_violation, location."""
    _write_csv(path, AUDIT_CSV_COLUMNS,
               [(r.name, r.passed, r.max_violation, r.location) for r in reports])
