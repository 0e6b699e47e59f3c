import dataclasses
import math

import numpy as np
import pytest

from ngnopt import (
    ObjectiveMetadata,
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    build_problem,
    decaying_weights,
    estimate_sigmas,
    evaluate,
    least_squares_problem,
    ngn_d_bound,
    ngn_m_bound,
    ngn_m_bound_decaying,
    ngn_m_params,
    run_once,
    sample_batch,
)


# --- NGN-M constants --------------------------------------------------------

def test_ngn_m_params_unit_case():
    rho, lam, beta = ngn_m_params(1.0, 1.0)
    assert rho == pytest.approx(1.0 / 6.0)
    assert lam == pytest.approx(1.0 / 12.0)
    assert beta == pytest.approx(1.0 / 13.0)


def test_ngn_m_params_small_c_lambda_branch():
    # with cL < 0.5/((1+cL)(1+2cL)) the cap is cL itself
    c, L = 0.1, 1.0
    rho, lam, beta = ngn_m_params(c, L)
    assert rho == pytest.approx(c / (1.1 * 1.2))
    assert lam == pytest.approx(0.1)
    assert beta == pytest.approx(0.1 / 1.1)


def test_ngn_m_params_validation():
    with pytest.raises(ValueError):
        ngn_m_params(0.0, 1.0)
    with pytest.raises(ValueError):
        ngn_m_params(1.0, -1.0)


# --- fixed step-size bound ----------------------------------------------------

def test_ngn_m_bound_noiseless_pinned():
    # dist0^2 (1+2cL)^2 / (cK) = 9/100
    assert ngn_m_bound(1.0, 1.0, 100, 1.0) == pytest.approx(0.09)


def test_ngn_m_bound_with_noise_terms():
    # + 8cL(1+2cL)^2 sigma_int^2 = 8*9*0.5 = 36
    # + 2cL max(2cL-1, 0) sigma_pos^2 = 2*1*0.25 = 0.5
    got = ngn_m_bound(1.0, 1.0, 100, 1.0, sigma_int_sq=0.5, sigma_pos_sq=0.25)
    assert got == pytest.approx(0.09 + 36.0 + 0.5)


def test_ngn_m_bound_small_c_drops_positive_part():
    # 2cL - 1 = -0.5 <= 0: the sigma_pos term vanishes
    base = 1.0 * (1.5 ** 2) / (0.25 * 100)
    assert ngn_m_bound(0.25, 1.0, 100, 1.0, sigma_pos_sq=10.0) == pytest.approx(base)


def test_ngn_m_bound_requires_K():
    with pytest.raises(ValueError, match="K must be finite and positive, got None"):
        ngn_m_bound(1.0, 1.0, None, 1.0)


# --- decaying step-size bound ---------------------------------------------------

def test_ngn_m_bound_decaying_noiseless_pinned():
    # 5 (1+c0L)(1+2c0L) dist0^2 / (4 c0 sqrt(K)) = 5*2*3/(4*10) = 0.75
    assert ngn_m_bound_decaying(1.0, 1.0, 100, 1.0) == pytest.approx(0.75)


def test_ngn_m_bound_decaying_with_noise_terms():
    lg = math.log(102.0)
    expected = (0.75
                + 10.0 * 1.0 * 1.0 * 2.0 * 3.0 * 0.5 * lg / 10.0
                + 5.0 * 1.0 * 1.0 * 2.0 * (lg / 20.0) * 1.0 * 0.25)
    got = ngn_m_bound_decaying(1.0, 1.0, 100, 1.0,
                               sigma_int_sq=0.5, sigma_pos_sq=0.25)
    assert got == pytest.approx(expected, rel=1e-12)


def test_ngn_m_bound_decaying_small_c_drops_positive_part():
    expected = 5.0 * 1.4 * 1.8 * 2.0 / (4.0 * 0.4 * 8.0)
    got = ngn_m_bound_decaying(0.4, 1.0, 64, 2.0, sigma_pos_sq=5.0)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("fn", [ngn_m_bound, ngn_m_bound_decaying])
@pytest.mark.parametrize("args", [
    (1e200, 1.0, 10, 1.0),  # (1 + 2cL)^2 overflows, and float ** raises on it
    (1e150, 1e150, 10, 1.0),  # cL overflows
    (1e-320, 1.0, 10, 1.0),  # dividing by cK overflows
    (1.0, 1.0, 10, 1e308),
    (1.0, 1.0, 10, 1.0, 1e308, 1e308),
], ids=["c-huge", "cL-inf", "c-subnormal", "dist0_sq-huge", "sigmas-huge"])
def test_ngn_m_bounds_reject_a_bound_that_overflows(fn, args):
    with pytest.raises(ValueError, match=rf"^{fn.__name__}\(.*\) overflows a double$"):
        fn(*args)


def test_ngn_m_bound_decaying_validation():
    with pytest.raises(ValueError):
        ngn_m_bound_decaying(0.0, 1.0, 10, 1.0)
    with pytest.raises(ValueError):
        ngn_m_bound_decaying(1.0, 1.0, 0, 1.0)


def test_decaying_weights_normalized():
    w = decaying_weights(1.0, 1.0, 50)
    assert w.shape == (50,)
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-12)
    # rho(c) peaks at c = 1/sqrt(2); past k=0 every c_k sits below the
    # peak, so the weights decay from there on
    assert np.all(np.diff(w[1:]) < 0)


def test_decaying_weights_hand_check():
    # K=3, c0=1, L=1: c_k = 1/sqrt(k+1); rho_k = c_k/((1+c_k)(1+2c_k))
    cs = np.array([1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)])
    rho = cs / ((1.0 + cs) * (1.0 + 2.0 * cs))
    expected = rho / rho.sum()
    assert np.allclose(decaying_weights(1.0, 1.0, 3), expected, rtol=1e-14)


# --- diagonal-rule bounds ---------------------------------------------------------

def test_ngn_d_bound_nonconvex_hand_value():
    c_coord = np.array([0.2, 0.1])
    L_coord = np.array([1.0, 2.0])
    sigma = np.array([0.3, 0.4])
    c_min = 0.1
    noise = (18.0 * 1.0 * 0.04 * 0.09 + 18.0 * 2.0 * 0.01 * 0.16) / c_min
    expected = 12.0 * 2.0 / (c_min * 100) + noise
    got = ngn_d_bound(c_coord, L_coord, 100, 2.0, "nonconvex", sigma_coord=sigma)
    assert got == pytest.approx(expected, rel=1e-12)


def test_ngn_d_bound_rejects_large_steps():
    with pytest.raises(ValueError, match="1/\\(2 L_j\\)"):  # needs c_j <= 1/(2 L_j) = 0.5
        ngn_d_bound(np.array([0.6]), np.array([1.0]), 10, 1.0, "nonconvex",
                    sigma_coord=np.array([0.0]))


def test_ngn_d_bound_pl_hand_value():
    c_coord = np.array([0.2])
    L_coord = np.array([1.0])
    sigma = np.array([0.5])
    rate = (1.0 - 1.0 * 0.2 / 6.0) ** 10
    noise = (9.0 / (1.0 * 0.2)) * (1.0 * 0.04 * 0.25)
    got = ngn_d_bound(c_coord, L_coord, 10, 4.0, "pl", sigma_coord=sigma, mu=1.0)
    assert got == pytest.approx(rate * 4.0 + noise, rel=1e-12)


def test_ngn_d_bound_pl_step_cap_includes_mu():
    # c_j <= min{1/(2L_j), 6/mu}; mu = 100 makes 6/mu = 0.06 the binding cap
    with pytest.raises(ValueError, match="6/mu"):
        ngn_d_bound(np.array([0.1]), np.array([1.0]), 10, 1.0, "pl",
                    sigma_coord=np.array([0.0]), mu=100.0)


def test_ngn_d_bound_requires_fields():
    with pytest.raises(ValueError, match="c_coord"):
        ngn_d_bound(None, None, 10, 1.0, "nonconvex")
    args = (np.array([0.1]), np.array([1.0]), 10, 1.0)
    with pytest.raises(ValueError, match="mu must be finite and positive, got None"):
        ngn_d_bound(*args, "pl")  # pl needs mu
    with pytest.raises(ValueError, match="unknown mode"):
        ngn_d_bound(*args, "other")
    with pytest.raises(ValueError, match="equal length"):
        ngn_d_bound(np.array([0.1, 0.1]), np.array([1.0]), 10, 1.0, "nonconvex")
    with pytest.raises(ValueError, match="sigma_coord must match"):
        ngn_d_bound(*args, "nonconvex", sigma_coord=np.array([0.1, 0.1]))


# --- an NGN-D run against its bounds -------------------------------------------------

NGN_D_STEPS = 4000


@pytest.fixture(scope="module")
def ngn_d_run():
    """NGN-D on full-batch least squares (d=20, n=40, seed 0) at
    c_j = 1/(2 L_j) for NGN_D_STEPS steps, and its constants. L_j =
    (A^T A)_jj bounds every batch loss; the PL constant of the mean loss
    (1/(2n))||Ax - b||^2, whose Hessian is A^T A / n, is mu = metadata.mu / n.
    On a full batch both noise terms vanish."""
    p = build_problem(ProblemSpec(kind="least_squares", dim=20, n_samples=40, seed=0))
    meta = p.metadata
    c = 1.0 / (2.0 * meta.L_coord)
    spec = OptimizerSpec(kind="ngn_d", c=float(np.min(c)), c_coord=c)
    budget = RunBudget(max_steps=NGN_D_STEPS, success_loss=-1.0, diverge_loss=math.inf)
    rec = run_once(p, spec, budget, seed=0)
    assert rec.status == "budget_exhausted" and len(rec.losses) == NGN_D_STEPS
    final_gap = evaluate(p, rec.x_final, p.full_batch()).loss - meta.f_star
    return p, rec, c, meta.mu / p.n_samples, final_gap


def test_ngn_d_run_meets_the_pl_bound(ngn_d_run):
    p, rec, c, mu, final_gap = ngn_d_run
    f0_gap = rec.losses[0] - p.metadata.f_star
    bound = ngn_d_bound(c, p.metadata.L_coord, NGN_D_STEPS, f0_gap, "pl", mu=mu)
    # measured 1.59e-7 against 6.25e-2
    assert 0.0 < final_gap <= bound


def test_ngn_d_run_meets_the_nonconvex_bound(ngn_d_run):
    p, rec, c, _, _ = ngn_d_run
    f0_gap = rec.losses[0] - p.metadata.f_star
    bound = ngn_d_bound(c, p.metadata.L_coord, NGN_D_STEPS, f0_gap, "nonconvex")
    assert 0.0 < min(g * g for g in rec.grad_norms) <= bound


def test_ngn_d_pl_bound_fails_with_an_overstated_mu(ngn_d_run):
    # Negative control: metadata.mu, the eigenvalue of A^T A, is n times
    # the PL constant. The run breaks the PL inequality at that constant,
    # and the "bound" it gives falls below the measured gap (3.83e-8
    # against 1.59e-7; it holds at 2,000 steps and fails from 3,000).
    p, rec, c, mu, final_gap = ngn_d_run
    f_star = p.metadata.f_star
    pl_ratio = min(g * g / (2.0 * (loss - f_star)) for g, loss in zip(rec.grad_norms, rec.losses))
    assert mu <= pl_ratio < p.metadata.mu
    f0_gap = rec.losses[0] - f_star
    bound = ngn_d_bound(c, p.metadata.L_coord, NGN_D_STEPS, f0_gap, "pl", mu=p.metadata.mu)
    assert final_gap > bound


# --- noise estimation ----------------------------------------------------------------

def test_estimate_sigmas_exact_enumeration():
    # two samples a=1, b=(1,-1): f*(x)=min over x of mean loss is at x=0
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, -1.0])
    p = least_squares_problem(A, b)
    x_star = p.metadata.x_star
    assert np.allclose(x_star, [0.0])
    s_int, s_pos = estimate_sigmas(p, batch_size=1)
    # each single-sample loss at x*=0 is 0.5; min over x of each is 0
    assert s_int == pytest.approx(0.5)
    assert s_pos == pytest.approx(0.0, abs=1e-15)


def test_estimate_sigmas_full_batch():
    A = np.array([[1.0], [1.0]])
    b = np.array([1.0, -1.0])
    p = least_squares_problem(A, b)
    s_int, s_pos = estimate_sigmas(p, batch_size=2)
    assert s_int == pytest.approx(0.0, abs=1e-30)
    # full-batch positive part is f(x*) itself = 0.5
    assert s_pos == pytest.approx(0.5)


def test_estimate_sigmas_interpolating_problem_is_noise_free_at_optimum():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=6,
                                  seed=0, interpolating=True))
    s_int, s_pos = estimate_sigmas(p, batch_size=2)
    assert s_int <= 1e-18
    assert s_pos <= 1e-12


def test_estimate_sigmas_monte_carlo_path():
    # n_samples=30, batch_size=15 has C(30,15) > 1e4: exercises sampling
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=30, seed=1))
    s_int, s_pos = estimate_sigmas(p, batch_size=15, n_mc=200, seed=0)
    assert s_int >= 0.0
    assert s_pos >= 0.0
    assert math.isfinite(s_int) and math.isfinite(s_pos)


def test_estimate_sigmas_monte_carlo_has_the_bits_of_one_draw_per_batch():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=30, seed=1))
    mins = np.asarray([p._batch_min(sample_batch(p, 4, t, 15).indices) for t in range(200)])
    want = (float(np.mean(p.metadata.f_star - mins)), float(np.mean(mins)))
    assert estimate_sigmas(p, batch_size=15, n_mc=200, seed=4) == want


@pytest.mark.parametrize("n_mc", [0, 2.5, True])
@pytest.mark.parametrize("n, batch_size", [(4, 2), (30, 15)], ids=["enumerated", "sampled"])
def test_estimate_sigmas_names_a_bad_n_mc(n, batch_size, n_mc):
    p = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=n, seed=0))
    with pytest.raises(ValueError, match=r"n_mc must be a whole number >= 1, got "):
        estimate_sigmas(p, batch_size=batch_size, n_mc=n_mc)


def test_estimate_sigmas_validation():
    p = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=4, seed=0))
    with pytest.raises(ValueError):
        estimate_sigmas(p, batch_size=0)
    with pytest.raises(ValueError):
        estimate_sigmas(p, batch_size=5)
    with pytest.raises(ValueError, match="batch_size"):
        estimate_sigmas(p, batch_size=2.5)
    no_f_star = dataclasses.replace(p, _metadata=lambda: ObjectiveMetadata(L=1.0))
    with pytest.raises(ValueError, match="requires f_star"):
        estimate_sigmas(no_f_star, batch_size=2)
    no_batch_min = dataclasses.replace(p, _batch_min=None)
    with pytest.raises(ValueError, match="per-batch minima unavailable"):
        estimate_sigmas(no_batch_min, batch_size=2)


# --- argument checks ---------------------------------------------------------------

def test_theory_inputs_validation():
    with pytest.raises(ValueError, match="dist0_sq"):
        ngn_m_bound(1.0, 1.0, 10, -1.0)
    with pytest.raises(ValueError, match="sigma_int_sq"):
        ngn_m_bound(1.0, 1.0, 10, 1.0, sigma_int_sq=-0.1)
    with pytest.raises(ValueError, match="sigma_pos_sq"):
        ngn_m_bound_decaying(1.0, 1.0, 10, 1.0, sigma_pos_sq=-0.1)
    with pytest.raises(ValueError, match="f0_gap"):
        ngn_d_bound(np.array([0.1]), np.array([1.0]), 10, -2.0, "nonconvex")
    with pytest.raises(ValueError, match="K"):
        ngn_m_bound(1.0, 1.0, 0, 1.0)
    # a negative distance once gave a negative "bound"
    with pytest.raises(ValueError, match="dist0_sq"):
        ngn_m_bound_decaying(1, 1, 10, -5.0)
    # an integer beyond the double range once raised OverflowError
    with pytest.raises(ValueError, match="^K must be finite and positive"):
        ngn_m_bound(1.0, 1.0, 10 ** 400, 1.0)


NAN, INF = float("nan"), float("inf")
POSITIVE = ("c", "c0", "L", "K", "c_coord", "L_coord", "mu")
VALID_ARGUMENTS = [
    (ngn_m_params, dict(c=1.0, L=1.0)),
    (ngn_m_bound, dict(c=1.0, L=1.0, K=100, dist0_sq=1.0, sigma_int_sq=0.5, sigma_pos_sq=0.25)),
    (ngn_m_bound_decaying, dict(c0=1.0, L=1.0, K=100, dist0_sq=1.0, sigma_int_sq=0.5,
                                sigma_pos_sq=0.25)),
    (decaying_weights, dict(c0=1.0, L=1.0, K=100)),
] + [
    (ngn_d_bound, dict(c_coord=np.array([0.2, 0.1]), L_coord=np.array([1.0, 2.0]), K=100,
                       f0_gap=2.0, mode=mode, sigma_coord=np.array([0.3, 0.4]), mu=1.0))
    for mode in ("nonconvex", "pl")
]


def bad_argument_cases():
    for fn, kwargs in VALID_ARGUMENTS:
        for name, value in kwargs.items():
            if name == "mode":
                continue
            out_of_range = (0.0, -1.0) if name in POSITIVE else (-1e-300, -1.0)
            for bad in (NAN, INF, -INF) + out_of_range:
                label = "-".join(filter(None, (fn.__name__, kwargs.get("mode"), name, repr(bad))))
                if isinstance(value, np.ndarray):
                    bad = np.array([value[0], bad])  # one bad coordinate
                yield pytest.param(fn, {**kwargs, name: bad}, name, id=label)


@pytest.mark.parametrize("fn, kwargs", VALID_ARGUMENTS)
def test_theory_functions_accept_the_valid_arguments(fn, kwargs):
    value = fn(**kwargs)
    assert np.all(np.isfinite(value))


@pytest.mark.parametrize("fn, kwargs, name", bad_argument_cases())
def test_theory_functions_reject_non_finite_and_out_of_range_arguments(fn, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite and"):
        fn(**kwargs)
