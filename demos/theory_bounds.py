"""Executable convergence certificates for momentum NGN and NGN-D.

The bound evaluators turn problem constants (smoothness L, horizon K,
initial distance or gap, noise levels) into numbers, and the audits run
an actual optimization to confirm the measured suboptimality stays below
them. On full-batch quadratics the noise terms vanish, so the comparison
needs no estimate of them.

Run: python3 demos/theory_bounds.py
"""

import math

from ngnopt import (
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    audit_theorem_bound,
    build_problem,
    estimate_sigmas,
    evaluate,
    ngn_d_bound,
    ngn_m_bound,
    ngn_m_params,
    run_once,
)


def constants_table():
    print("derived momentum constants for c = L = 1:")
    rho, lam_max, beta_max = ngn_m_params(1.0, 1.0)
    print(f"  averaging weight rho   = {rho}")
    print(f"  lambda_max             = {lam_max}")
    print(f"  beta_max               = {beta_max}")
    print(f"  noiseless bound, K=100 = {ngn_m_bound(1.0, 1.0, 100, 1.0)}")
    print()


def audited_runs():
    print("bound audits on interpolating quadratics (K = 2000):")
    for dim in (5, 20):
        problem = build_problem(ProblemSpec(kind="least_squares", dim=dim,
                                            n_samples=2 * dim, seed=0,
                                            interpolating=True))
        for decaying in (False, True):
            rep = audit_theorem_bound(problem, K=2000, decaying=decaying)
            label = "decaying" if decaying else "constant"
            print(f"  d = {dim:2d}  {label:<8}  "
                  f"{'holds' if rep.passed else 'VIOLATED'}  ({rep.location})")
    print()


def coordinate_bounds():
    print("NGN-D at c_j = 1/(2 L_j) on full-batch least squares (d = 20, K = 4000):")
    problem = build_problem(ProblemSpec(kind="least_squares", dim=20, n_samples=40, seed=0))
    meta = problem.metadata
    c = 1.0 / (2.0 * meta.L_coord)
    K = 4000
    rec = run_once(problem, OptimizerSpec(kind="ngn_d", c=float(c.min()), c_coord=c),
                   RunBudget(max_steps=K, success_loss=-1.0, diverge_loss=math.inf), seed=0)
    f0_gap = rec.losses[0] - meta.f_star
    gap = evaluate(problem, rec.x_final, problem.full_batch()).loss - meta.f_star
    # the mean loss has Hessian A^T A / n, so its PL constant is mu / n
    pl = ngn_d_bound(c, meta.L_coord, K, f0_gap, "pl", mu=meta.mu / problem.n_samples)
    print(f"  PL:        f(x_K) - f*        = {gap:.3e}  bound {pl:.3e}")
    grad_sq = min(g * g for g in rec.grad_norms)
    nonconvex = ngn_d_bound(c, meta.L_coord, K, f0_gap, "nonconvex")
    print(f"  nonconvex: min_k ||grad f||^2 = {grad_sq:.3e}  bound {nonconvex:.3e}")
    print()


def noise_decomposition():
    print("noise split for a non-interpolating quadratic, batch size 2:")
    problem = build_problem(ProblemSpec(kind="least_squares", dim=3,
                                        n_samples=8, seed=1))
    s_int, s_pos = estimate_sigmas(problem, batch_size=2)
    print(f"  sigma_int^2 (batch minima below the global one) = {s_int:.6f}")
    print(f"  sigma_pos^2 (expected per-batch optimum)        = {s_pos:.6f}")
    full_int, full_pos = estimate_sigmas(problem, batch_size=8)
    print(f"  full batch: sigma_int^2 = {full_int:.6f}, "
          f"sigma_pos^2 = {full_pos:.6f} (= f*)")


if __name__ == "__main__":
    constants_table()
    audited_runs()
    coordinate_bounds()
    noise_decomposition()
