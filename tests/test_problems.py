import dataclasses
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ngnopt import (
    Batch,
    ProblemSpec,
    build_problem,
    evaluate,
    finite_diff_grad,
    least_squares_problem,
    sample_batch,
)
from ngnopt.problems import PROBLEM_KINDS, StepSample, _poly_growth_constant


def reference_sample_indices(seed, step, n, batch_size):
    """The element-swap partial Fisher-Yates shuffle sample_batch used
    before its draws were vectorized; its batches are the contract."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))
    idx = np.arange(n)
    for i in range(batch_size):
        j = i + int(rng.integers(n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:batch_size])


def rel_err(a, b):
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


# --- spec validation ---------------------------------------------------------

def test_problem_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown problem kind"):
        ProblemSpec(kind="nope")


def test_problem_spec_rejects_bad_dim_and_seed():
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", dim=0)
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", seed=-1)
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", n_samples=0)


@pytest.mark.parametrize("r", [float("nan"), float("inf"), float("-inf")])
def test_problem_spec_rejects_non_finite_r(r):
    with pytest.raises(ValueError, match="r must be finite"):
        ProblemSpec(kind="ridge_quadratic", dim=3, r=r)


def test_build_is_deterministic_given_seed():
    a = build_problem(ProblemSpec(kind="least_squares", dim=4, n_samples=9, seed=7))
    b = build_problem(ProblemSpec(kind="least_squares", dim=4, n_samples=9, seed=7))
    x = np.arange(4.0)
    batch = a.full_batch()
    sa = evaluate(a, x, batch)
    sb = evaluate(b, x, batch)
    assert sa.loss == sb.loss
    assert np.array_equal(sa.grad, sb.grad)


# --- least squares: metadata oracles ----------------------------------------

def test_identity_least_squares_metadata():
    # A = I_2, b = (1, 2): the mean-normalized loss is (1/4)||x - b||^2,
    # metadata smoothness constants are the batch-uniform bounds
    # L = lambda_max(A^T A) = 1 and L_coord = diag(A^T A) = (1, 1).
    p = least_squares_problem(np.eye(2), np.array([1.0, 2.0]))
    assert p.metadata.L == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(p.metadata.L_coord, [1.0, 1.0])
    assert np.allclose(p.metadata.x_star, [1.0, 2.0])
    assert p.metadata.f_star == pytest.approx(0.0, abs=1e-15)
    assert p.metadata.mu == pytest.approx(1.0, abs=1e-12)
    s = evaluate(p, np.zeros(2), p.full_batch())
    assert s.loss == pytest.approx(1.25)
    assert np.allclose(s.grad, [-0.5, -1.0])


def test_least_squares_batch_loss_is_mean_of_samples():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=8, seed=1))
    x = np.array([0.3, -0.7, 1.1])
    singles = [evaluate(p, x, Batch(np.array([i]))).loss for i in range(8)]
    full = evaluate(p, x, p.full_batch()).loss
    assert full == pytest.approx(np.mean(singles), rel=1e-12)


def test_metadata_L_bounds_every_batch_hessian():
    p = build_problem(ProblemSpec(kind="least_squares", dim=5, n_samples=12, seed=3))
    # the recorded L and L_coord must dominate every single-sample batch
    for i in range(12):
        idx = np.array([i])
        h = 1e-6
        x = np.zeros(5)
        g0 = evaluate(p, x, Batch(idx)).grad
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            gj = evaluate(p, x + e, Batch(idx)).grad
            hess_col = (gj - g0) / h
            assert abs(hess_col[j]) <= p.metadata.L_coord[j] * (1 + 1e-6) + 1e-8
            assert np.linalg.norm(hess_col) <= p.metadata.L * (1 + 1e-6) + 1e-8


def test_interpolating_build_has_zero_noise():
    p = build_problem(ProblemSpec(kind="least_squares", dim=6, n_samples=12,
                                  seed=2, interpolating=True))
    assert p.metadata.f_star <= 1e-25
    s = evaluate(p, p.metadata.x_star, p.full_batch())
    assert s.loss <= 1e-25


# --- least squares: the full batch reads A in place ---------------------------

def _gather_form(A, b, x, idx):
    """The batch oracle with explicit row gathers: the mean over the
    listed samples, repeats and order included."""
    r = A[idx] @ x - b[idx]
    return float(np.sum(r * r)) / (2.0 * idx.size), A[idx].T @ r / idx.size


def _lsq_cases(tmp_path):
    """(problem, A, b) for every least-squares kind at a few (n, d); A and
    b are rebuilt here from each kind's definition."""
    rng = np.random.default_rng(11)
    cases = []
    for n, d in ((1, 1), (7, 3), (40, 10), (300, 50)):
        A = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        cases.append((least_squares_problem(A, b), A, b))
        # a Fortran-ordered A must still match the C-ordered gathers
        A_f = np.asfortranarray(A)
        cases.append((least_squares_problem(A_f, b), A_f, b))
    for d, seed, r in ((4, 0, 0.0), (25, 3, 0.5), (400, 1, 0.0)):
        g = np.random.default_rng(seed)
        M = g.standard_normal((d, d)) + r * np.eye(d)
        y = g.standard_normal(d)
        cases.append((build_problem(ProblemSpec(kind="ridge_quadratic", dim=d, seed=seed, r=r)), M, y))
    for n, d in ((5, 1), (60, 4)):
        data = rng.standard_normal((n, d + 1))
        path = tmp_path / f"reg_{n}_{d}.csv"
        path.write_text("\n".join(",".join("%.17g" % v for v in row) for row in data), encoding="utf-8")
        X, y = data[:, :-1], data[:, -1]
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        A = (X - X.mean(axis=0)) / std
        spec = ProblemSpec(kind="linear_regression_data", data_path=str(path))
        cases.append((build_problem(spec), A, y))
    return cases


def test_full_batch_oracle_is_bit_identical_to_gathers(tmp_path):
    rng = np.random.default_rng(5)
    kinds = set()
    for p, A, b in _lsq_cases(tmp_path):
        kinds.add(p.kind)
        n = p.n_samples
        everything = np.arange(n)
        for _ in range(3):
            x = rng.standard_normal(p.dim)
            full = evaluate(p, x, p.full_batch())
            loss, grad = _gather_form(A, b, x, everything)
            assert full.loss == loss
            assert np.array_equal(full.grad, grad)
            gathered = evaluate(p, x, Batch(everything))
            assert gathered.loss == full.loss and np.array_equal(gathered.grad, full.grad)
    assert kinds == {"least_squares", "ridge_quadratic", "linear_regression_data"}


def test_size_n_batch_that_is_not_in_order_gathers(tmp_path):
    rng = np.random.default_rng(6)
    for p, A, b in _lsq_cases(tmp_path):
        n = p.n_samples
        if n < 2:
            continue
        x = rng.standard_normal(p.dim)
        repeated = np.sort(rng.integers(0, n, size=n))
        repeated[0] = repeated[1] = 0  # sample 0 twice, so it is not a permutation
        full = evaluate(p, x, p.full_batch())
        for idx in (rng.permutation(n), repeated):
            s = evaluate(p, x, Batch(idx))
            loss, grad = _gather_form(A, b, x, idx)
            assert s.loss == loss
            assert np.array_equal(s.grad, grad)
        # the repeated batch is a different objective: a size check alone would miss it
        assert evaluate(p, x, Batch(repeated)).loss != full.loss


# --- fixed test functions ----------------------------------------------------

def test_rosenbrock_reference_values():
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    assert np.allclose(p.x0_default, [-1.2, 1.0])
    s = evaluate(p, p.x0_default, p.full_batch())
    assert s.loss == pytest.approx(24.2, rel=1e-15)
    assert np.allclose(s.grad, [-215.6, -88.0], rtol=1e-13)
    at_min = evaluate(p, np.array([1.0, 1.0]), p.full_batch())
    assert at_min.loss == 0.0
    assert np.allclose(at_min.grad, [0.0, 0.0])


def test_multimodal_zero_is_global_minimum():
    p = build_problem(ProblemSpec(kind="multimodal_1d"))
    f0 = evaluate(p, np.array([0.0]), p.full_batch()).loss
    assert f0 <= 1e-30
    xs = np.linspace(-30.0, 30.0, 20001)
    vals = [evaluate(p, np.array([t]), p.full_batch()).loss for t in xs]
    assert min(vals) >= f0
    # strictly positive away from the single global minimum
    away = [v for t, v in zip(xs, vals) if abs(t) > 0.5]
    assert min(away) > 1e-4


def test_multimodal_has_many_local_minima():
    p = build_problem(ProblemSpec(kind="multimodal_1d"))
    xs = np.linspace(-20.0, 20.0, 4001)
    vals = np.array([evaluate(p, np.array([t]), p.full_batch()).loss for t in xs])
    interior = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    suboptimal = interior & (vals[1:-1] > 0.1)
    assert int(np.sum(suboptimal)) >= 5


def test_polynomial_reference_values():
    p = build_problem(ProblemSpec(kind="polynomial_1d"))
    assert p.metadata.C_poly == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(p.x0_default, [3.0])
    s = evaluate(p, np.array([3.0]), p.full_batch())
    assert s.loss == pytest.approx(90.0, rel=1e-14)
    assert s.grad[0] == pytest.approx(114.0, rel=1e-14)


def test_polynomial_scale_and_constant_coeffs():
    p = build_problem(ProblemSpec(kind="polynomial_1d", scale=2.5, coeffs=(0.0,)))
    # p(x) = 0 gives f = L x^2 and C = 0
    assert p.metadata.C_poly == 0.0
    s = evaluate(p, np.array([2.0]), p.full_batch())
    assert s.loss == pytest.approx(10.0)
    assert s.grad[0] == pytest.approx(10.0)
    with pytest.raises(ValueError, match="scale"):
        build_problem(ProblemSpec(kind="polynomial_1d", scale=0.0))


def test_poly_growth_constant_is_the_supremum_at_the_critical_points():
    P = np.polynomial.Polynomial
    assert _poly_growth_constant(P([0.0, 1.0])) == 1.0
    p = P([0.5, -2.0, 0.0, 1.0])
    C = _poly_growth_constant(p)
    # an 800k-point grid scan read 6.037878575 here, below the supremum
    assert C == pytest.approx(6.037878596, abs=1e-9)
    xs = np.linspace(-10.0, 10.0, 200001)
    ratio = xs * p(xs) * p.deriv()(xs) / (1.0 + p(xs) ** 2)
    assert ratio.max() <= C
    assert ratio.max() > C - 1e-7
    # trailing zero coefficients do not raise the degree
    assert _poly_growth_constant(P([0.0, 0.0, 1.0, 0.0])) == 2.0


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_polynomial_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        build_problem(ProblemSpec(kind="polynomial_1d", scale=scale))


def test_ridge_metadata_scales_with_r():
    small = build_problem(ProblemSpec(kind="ridge_quadratic", dim=20, seed=0, r=0.01))
    large = build_problem(ProblemSpec(kind="ridge_quadratic", dim=20, seed=0, r=100.0))
    assert large.metadata.L > small.metadata.L
    assert large.metadata.mu is not None and large.metadata.mu > 100.0


def test_regression_synthetic_shape_and_standardization():
    p = build_problem(ProblemSpec(kind="linear_regression_data", seed=0))
    assert p.dim == 10
    assert p.n_samples == 442
    assert p.metadata.L > 0
    assert p.metadata.L_coord.shape == (10,)


def test_regression_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f1,f2,target\n1,2,3\n4,5,6\n7,8,10\n", encoding="utf-8")
    p = build_problem(ProblemSpec(kind="linear_regression_data", data_path=str(path)))
    assert p.dim == 2
    assert p.n_samples == 3


def test_regression_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed"):
        build_problem(ProblemSpec(kind="linear_regression_data", data_path=str(bad)))
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("1\n2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        build_problem(ProblemSpec(kind="linear_regression_data", data_path=str(narrow)))


# --- evaluation guard rails --------------------------------------------------

def test_evaluate_rejects_bad_input():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0))
    with pytest.raises(ValueError, match="shape"):
        evaluate(p, np.zeros(2), p.full_batch())
    with pytest.raises(ValueError, match="finite"):
        evaluate(p, np.array([np.nan, 0.0, 0.0]), p.full_batch())


# --- batch sampling ----------------------------------------------------------

def test_sample_batch_is_pure_in_seed_and_step():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=20, seed=0))
    a = sample_batch(p, seed=5, step=17, batch_size=7).indices
    b = sample_batch(p, seed=5, step=17, batch_size=7).indices
    assert np.array_equal(a, b)
    c = sample_batch(p, seed=5, step=18, batch_size=7).indices
    d = sample_batch(p, seed=6, step=17, batch_size=7).indices
    assert not np.array_equal(a, c) or not np.array_equal(a, d)


def test_sample_batch_sorted_unique_in_range():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=30, seed=0))
    for step in range(25):
        idx = sample_batch(p, seed=1, step=step, batch_size=11).indices
        assert idx.shape == (11,)
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 30


def test_full_batch_bypasses_rng():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=12, seed=0))
    idx = sample_batch(p, seed=123, step=456, batch_size=12).indices
    assert np.array_equal(idx, np.arange(12))


def test_only_full_batches_are_marked_full():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=12, seed=0))
    assert p.full_batch().full
    assert sample_batch(p, seed=1, step=2, batch_size=12).full
    assert not sample_batch(p, seed=1, step=2, batch_size=11).full
    assert not Batch(np.arange(12)).full


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), step=st.integers(0, 2**32 - 1),
       n_bs=st.integers(2, 2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
def test_sample_batch_matches_element_swap_reference(seed, step, n_bs):
    n, bs = n_bs
    p = build_problem(ProblemSpec(kind="rosenbrock"))
    p = dataclasses.replace(p, n_samples=n)
    got = sample_batch(p, seed=seed, step=step, batch_size=bs).indices
    want = reference_sample_indices(seed, step, n, bs)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype == np.intp


def test_sample_batch_draws_share_no_state():
    # sample_batch re-keys one generator per process; draws for many
    # (seed, step, n, bs), interleaved in a shuffled order with repeats,
    # must each equal a draw from a freshly built generator. Odd batch
    # sizes leave a buffered 32-bit half behind, which must not leak.
    base = build_problem(ProblemSpec(kind="rosenbrock"))
    cases = [(seed, step, n, bs)
             for seed in (0, 1, 2**32 - 1)
             for step in (0, 1, 7, 2**31)
             for n, bs in ((10, 3), (1000, 33), (50, 49), (2, 1))]
    order = list(range(len(cases))) * 2
    random.Random(0).shuffle(order)
    for i in order:
        seed, step, n, bs = cases[i]
        p = dataclasses.replace(base, n_samples=n)
        got = sample_batch(p, seed=seed, step=step, batch_size=bs).indices
        assert np.array_equal(got, reference_sample_indices(seed, step, n, bs)), cases[i]


def test_sample_batch_validates_arguments():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=12, seed=0))
    with pytest.raises(ValueError):
        sample_batch(p, seed=0, step=0, batch_size=0)
    with pytest.raises(ValueError):
        sample_batch(p, seed=0, step=0, batch_size=13)
    with pytest.raises(ValueError):
        sample_batch(p, seed=-1, step=0, batch_size=3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), step=st.integers(0, 2**31),
       bs=st.integers(1, 15))
def test_sample_batch_property(seed, step, bs):
    p = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=15, seed=0))
    idx = sample_batch(p, seed=seed, step=step, batch_size=bs).indices
    assert len(set(idx.tolist())) == bs
    assert np.all(np.diff(idx) >= 1) if bs > 1 else True


# --- gradients agree with finite differences ---------------------------------

def _fd_points(problem, rng, count):
    if problem.kind == "multimodal_1d":
        return rng.uniform(-20.0, 20.0, size=(count, 1))
    if problem.kind == "polynomial_1d":
        return rng.uniform(-3.0, 3.0, size=(count, 1))
    return rng.uniform(-3.0, 3.0, size=(count, problem.dim))


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_gradients_match_finite_differences(kind):
    spec = ProblemSpec(kind=kind, dim=4, n_samples=9, seed=0)
    p = build_problem(spec)
    rng = np.random.default_rng(0)
    batch = p.full_batch()
    for x in _fd_points(p, rng, 10):
        s = evaluate(p, x, batch)
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
        fd = finite_diff_grad(p, x, batch, h)
        assert rel_err(fd, s.grad) <= 1e-5


def test_gradients_match_on_stochastic_batches():
    p = build_problem(ProblemSpec(kind="least_squares", dim=4, n_samples=10, seed=1))
    rng = np.random.default_rng(1)
    for step in range(5):
        batch = sample_batch(p, seed=0, step=step, batch_size=3)
        x = rng.uniform(-2.0, 2.0, size=4)
        s = evaluate(p, x, batch)
        fd = finite_diff_grad(p, x, batch, 1e-6)
        assert rel_err(fd, s.grad) <= 1e-5


def test_finite_diff_rejects_bad_h():
    p = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=4, seed=0))
    with pytest.raises(ValueError):
        finite_diff_grad(p, np.zeros(2), p.full_batch(), 0.0)


# --- the shared squared gradient norm --------------------------------------------

GRAD_ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.floats(5e149, 2e150), st.floats(-2e150, -5e149))


@settings(max_examples=200, deadline=None)
@given(g=st.integers(1, 600).flatmap(lambda d: arrays(np.float64, d, elements=GRAD_ENTRIES)))
def test_step_sample_grad_sq_equals_np_sum(g):
    got = StepSample(1.0, g, Batch(np.array([0]))).grad_sq
    want = float(np.sum(g * g))
    assert type(got) is float
    assert struct.pack("<d", got) == struct.pack("<d", want)
