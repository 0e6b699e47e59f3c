import contextlib
import dataclasses
import inspect
import io
import math
import os
import pathlib
import random
import re
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ngnopt import (
    Batch,
    ObjectiveMetadata,
    OptimizerSpec,
    ProblemSpec,
    RunBudget,
    SweepSpec,
    build_problem,
    evaluate,
    finite_diff_grad,
    least_squares_problem,
    parse_config,
    run_once,
    run_sweep,
    sample_batch,
    sample_batches,
)
from ngnopt import problems
from ngnopt.harness import cli
from ngnopt.theory import estimate_sigmas
from ngnopt.verify import multimodal_global_basin
from ngnopt.problems import PROBLEM_KINDS, StepSample

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize("kind", ["linear_regression_data", "regression"])
def test_problem_spec_rejects_the_removed_regression_kind(kind):
    # the CSV-backed regression kind and its alias are gone; a spec that
    # names either fails at construction instead of building something else
    with pytest.raises(ValueError, match=f"unknown problem kind {kind!r}"):
        ProblemSpec(kind=kind)


def test_problem_spec_rejects_bad_dim_and_seed():
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", dim=0)
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", seed=-1)
    with pytest.raises(ValueError):
        ProblemSpec(kind="least_squares", n_samples=0)
    # a fraction fails here, naming its field, not later inside NumPy
    with pytest.raises(ValueError, match="dim must be a whole number >= 1, got 2.5"):
        ProblemSpec(kind="least_squares", dim=2.5)
    with pytest.raises(ValueError, match="n_samples must be a whole number"):
        ProblemSpec(kind="least_squares", n_samples=6.5)
    with pytest.raises(ValueError, match="seed must be a whole number"):
        ProblemSpec(kind="least_squares", seed=1.5)


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


# --- metadata on first read ----------------------------------------------------

def eager_least_squares_metadata(A, b):
    """The metadata every least-squares build computed up front before it
    moved to the first read of `metadata`: the reference for its bits."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    AtA = A.T @ A
    evals = np.linalg.eigvalsh((AtA + AtA.T) / 2.0)
    L = float(evals[-1])
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    resid = A @ x_star - b
    pos = evals[evals > 1e-12 * max(L, 1.0)]
    return ObjectiveMetadata(L=L, L_coord=np.diag(AtA).copy(),
                             f_star=float(resid @ resid) / (2.0 * A.shape[0]),
                             x_star=x_star, mu=float(pos[0]) if pos.size else None)


def least_squares_data(dim, n, seed, interpolating):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, dim))
    return A, (A @ rng.standard_normal(dim) if interpolating else rng.standard_normal(n))


def ridge_data(dim, seed, r):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    return A + r * np.eye(dim), rng.standard_normal(dim)


def assert_same_metadata(got, want):
    for f in dataclasses.fields(ObjectiveMetadata):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if w is None:
            assert g is None, f.name
        elif isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w), f.name
        else:
            assert type(g) is type(w) and g == w, f.name


@pytest.mark.parametrize("dim, n, seed, interpolating", [
    (3, 6, 0, False), (5, 12, 3, False), (6, 12, 2, True), (20, 40, 0, True),
    (50, 100, 5, False), (10, 442, 0, False), (8, 4, 1, False),  # n < d: rank-deficient
])
def test_least_squares_metadata_keeps_the_eager_bits(dim, n, seed, interpolating):
    p = build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=n, seed=seed,
                                  interpolating=interpolating))
    assert_same_metadata(p.metadata, eager_least_squares_metadata(
        *least_squares_data(dim, n, seed, interpolating)))


@pytest.mark.parametrize("dim, seed, r", [
    (5, 0, 0.0), (5, 1, 0.01), (20, 0, 1.0), (20, 3, 100.0), (40, 2, -0.5),
])
def test_ridge_metadata_keeps_the_eager_bits(dim, seed, r):
    p = build_problem(ProblemSpec(kind="ridge_quadratic", dim=dim, seed=seed, r=r))
    assert_same_metadata(p.metadata, eager_least_squares_metadata(*ridge_data(dim, seed, r)))


@pytest.mark.parametrize("A, b", [
    (np.eye(2), np.array([1.0, 2.0])),
    (np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]]),
     np.array([1.0, -1.0, 2.0, 0.5])),  # two equal columns: rank 2 of 3
    (np.zeros((4, 3)), np.ones(4)),  # L = 0 and no positive eigenvalue: mu is None
    (np.asfortranarray(np.random.default_rng(7).standard_normal((9, 4))),
     np.random.default_rng(8).standard_normal(9)),
])
def test_least_squares_problem_metadata_keeps_the_eager_bits(A, b):
    want = eager_least_squares_metadata(A, b)
    assert_same_metadata(least_squares_problem(A, b).metadata, want)
    if not A.any():
        assert want.mu is None


@pytest.mark.parametrize("coeffs, scale", [
    ((0.0, 1.0), 1.0), ((0.0,), 2.5), ((0.5, -2.0, 0.0, 1.0), 1.0), ((1.0, 0.0, 0.3), 0.5),
])
def test_polynomial_metadata_keeps_the_eager_bits(coeffs, scale):
    p = build_problem(ProblemSpec(kind="polynomial_1d", coeffs=coeffs, scale=scale))
    assert_same_metadata(p.metadata, ObjectiveMetadata(f_star=0.0, x_star=np.array([0.0])))


def _raise_if_called(*args, **kwargs):
    raise AssertionError("metadata was computed")


LAZY_CASES = [
    (ProblemSpec(kind="least_squares", dim=4, n_samples=9, seed=1), 3),
    (ProblemSpec(kind="ridge_quadratic", dim=6, seed=2, r=0.5), None),
    (ProblemSpec(kind="least_squares", dim=10, n_samples=442, seed=0), 32),
    (ProblemSpec(kind="polynomial_1d", coeffs=(0.5, -2.0, 0.0, 1.0)), None),
]


@pytest.mark.parametrize("spec, batch_size", LAZY_CASES)
def test_builds_runs_and_sweeps_compute_no_metadata(monkeypatch, spec, batch_size):
    monkeypatch.setattr(problems, "_spd_eigvals", _raise_if_called)
    monkeypatch.setattr(np.linalg, "lstsq", _raise_if_called)
    monkeypatch.setattr(problems, "ObjectiveMetadata", _raise_if_called)
    budget = RunBudget(max_steps=30, batch_size=batch_size)
    p = build_problem(spec)
    run_once(p, OptimizerSpec(kind="ngn_m_v1", c=0.1, beta1=0.9), budget, seed=0)
    rows = run_sweep(SweepSpec(spec, ["ngn", "ngn_md_v1"], [0.1, 1.0], [0.9], [0, 1],
                               budget)).rows
    assert [row["status"] for row in rows if row["status"] == "error"] == []
    with pytest.raises(AssertionError, match="metadata was computed"):
        p.metadata


def test_least_squares_problem_computes_no_metadata(monkeypatch):
    monkeypatch.setattr(problems, "_spd_eigvals", _raise_if_called)
    monkeypatch.setattr(np.linalg, "lstsq", _raise_if_called)
    A, b = least_squares_data(4, 10, 0, False)
    p = least_squares_problem(A, b)
    run_once(p, OptimizerSpec(kind="ngn", c=0.1), RunBudget(max_steps=30, batch_size=2), seed=0)
    with pytest.raises(AssertionError, match="metadata was computed"):
        p.metadata


@pytest.mark.parametrize("spec, computes", [
    (ProblemSpec(kind="ridge_quadratic", dim=5), "_spd_eigvals"),
    (ProblemSpec(kind="least_squares", dim=3, seed=4), "_spd_eigvals"),
])
def test_metadata_is_computed_once_on_first_read(monkeypatch, spec, computes):
    real = getattr(problems, computes)
    calls = []

    def counted(arg):
        calls.append(arg)
        return real(arg)

    monkeypatch.setattr(problems, computes, counted)
    p = build_problem(spec)
    assert calls == []
    first = p.metadata
    assert p.metadata is first
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["rosenbrock", "multimodal_1d", "polynomial_1d"])
def test_closed_form_metadata_is_kept_after_the_first_read(kind):
    p = build_problem(ProblemSpec(kind=kind))
    assert p.metadata is p.metadata
    assert p.metadata.f_star == 0.0


# --- non-finite data and bad starts fail the build ------------------------------

@pytest.mark.parametrize("where", ["A", "b"])
def test_least_squares_problem_rejects_non_finite_data(where):
    A, b = least_squares_data(3, 6, 0, False)
    (A if where == "A" else b)[2] = np.inf
    with pytest.raises(ValueError, match=f"data {where} has non-finite entries"):
        least_squares_problem(A, b)


@pytest.mark.parametrize("shapes", [((6, 3), (5,)), ((6,), (6,)), ((6, 3), (6, 1))])
def test_least_squares_problem_rejects_mismatched_data(shapes):
    A, b = (np.ones(shape) for shape in shapes)
    with pytest.raises(ValueError, match="dimension mismatch between A"):
        least_squares_problem(A, b)


@pytest.mark.parametrize("kind, x0, match", [
    ("least_squares", (1.0, 2.0), r"x0 has shape \(2,\), problem dimension is 3"),
    ("ridge_quadratic", (1.0, 2.0, 3.0, 4.0), r"x0 has shape \(4,\), problem dimension is 3"),
    ("rosenbrock", (1.0,), r"x0 has shape \(1,\), problem dimension is 2"),
    ("polynomial_1d", (1.0, 2.0), r"x0 has shape \(2,\), problem dimension is 1"),
    ("least_squares", (1.0, float("nan"), 0.0), "x0 must be finite"),
    ("multimodal_1d", (float("inf"),), "x0 must be finite"),
])
def test_build_rejects_a_bad_start(kind, x0, match):
    with pytest.raises(ValueError, match=match):
        build_problem(ProblemSpec(kind=kind, dim=3, x0=x0))


# --- least squares: the full batch reads A in place ---------------------------

def _gather_form(A, b, x, idx):
    """The batch oracle with explicit row gathers: the mean over the
    listed samples, repeats and order included."""
    r = A[idx] @ x - b[idx]
    return float(np.sum(r * r)) / (2.0 * idx.size), A[idx].T @ r / idx.size


def _lsq_cases():
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
    spec = ProblemSpec(kind="least_squares", dim=10, n_samples=442, seed=0)
    cases.append((build_problem(spec), *least_squares_data(10, 442, 0, False)))
    return cases


def test_full_batch_oracle_is_bit_identical_to_gathers():
    rng = np.random.default_rng(5)
    kinds = set()
    for p, A, b in _lsq_cases():
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
    assert kinds == {"least_squares", "ridge_quadratic"}


def test_size_n_batch_that_is_not_in_order_gathers():
    rng = np.random.default_rng(6)
    for p, A, b in _lsq_cases():
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
    assert np.allclose(p.x0_default, [3.0])
    s = evaluate(p, np.array([3.0]), p.full_batch())
    assert s.loss == pytest.approx(90.0, rel=1e-14)
    assert s.grad[0] == pytest.approx(114.0, rel=1e-14)


def test_polynomial_scale_and_constant_coeffs():
    p = build_problem(ProblemSpec(kind="polynomial_1d", scale=2.5, coeffs=(0.0,)))
    # p(x) = 0 gives f = L x^2
    s = evaluate(p, np.array([2.0]), p.full_batch())
    assert s.loss == pytest.approx(10.0)
    assert s.grad[0] == pytest.approx(10.0)
    with pytest.raises(ValueError, match="scale"):
        build_problem(ProblemSpec(kind="polynomial_1d", scale=0.0))


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_polynomial_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        build_problem(ProblemSpec(kind="polynomial_1d", scale=scale))


@pytest.mark.parametrize("coeffs, message", [
    ((0.0, float("inf")), "polynomial coeffs must be finite"),
    ((float("nan"),), "polynomial coeffs must be finite"),
    ((1.0, -float("inf"), 2.0), "polynomial coeffs must be finite"),
    # 2 * 1e308 overflows: p' would be inf at every x != 0
    ((0.0, 0.0, 1e308), r"polynomial coeffs\[2\] = 1e\+308 overflows the derivative"),
], ids=["inf", "nan", "-inf", "derivative-overflow"])
def test_polynomial_rejects_non_finite_coeffs(coeffs, message):
    with pytest.raises(ValueError, match=message):
        build_problem(ProblemSpec(kind="polynomial_1d", coeffs=coeffs))


@pytest.mark.parametrize("coeffs", [(), ((1.0, 2.0),)], ids=["empty", "2-d"])
def test_polynomial_rejects_empty_or_2d_coeffs(coeffs):
    with pytest.raises(ValueError, match="polynomial coeffs must be a non-empty list of numbers"):
        build_problem(ProblemSpec(kind="polynomial_1d", coeffs=coeffs))


def test_polynomial_takes_a_single_number_as_one_coefficient():
    one = build_problem(ProblemSpec(kind="polynomial_1d", coeffs=-2.0))
    listed = build_problem(ProblemSpec(kind="polynomial_1d", coeffs=(-2.0,)))
    a, b = (evaluate(p, np.array([1.5]), p.full_batch()) for p in (one, listed))
    assert bits([a.loss, *a.grad]) == bits([b.loss, *b.grad])


_COEFFICIENTS = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300]),
                          st.floats(-1e300, 1e300), st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(_COEFFICIENTS, min_size=1, max_size=8))
def test_polynomial_derivative_has_the_bits_of_polynomial_deriv(coef):
    reference = np.polynomial.Polynomial(np.asarray(coef, dtype=float)).deriv().coef
    assert [d.hex() for d in problems._derivative(coef)] == [d.hex() for d in reference.tolist()]


def test_building_and_running_every_kind_leaves_numpy_polynomial_unimported():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "from ngnopt import OptimizerSpec, ProblemSpec, RunBudget, build_problem, run_once\n"
            "from ngnopt.problems import PROBLEM_KINDS\n"
            "for kind in PROBLEM_KINDS:\n"
            "    p = build_problem(ProblemSpec(kind=kind, dim=3))\n"
            "    run_once(p, OptimizerSpec(kind='ngn', c=0.1), RunBudget(max_steps=5), seed=0)\n"
            "print('numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src),
                                                                    os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_ridge_metadata_scales_with_r():
    small = build_problem(ProblemSpec(kind="ridge_quadratic", dim=20, seed=0, r=0.01))
    large = build_problem(ProblemSpec(kind="ridge_quadratic", dim=20, seed=0, r=100.0))
    assert large.metadata.L > small.metadata.L
    assert large.metadata.mu is not None and large.metadata.mu > 100.0


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
    with pytest.raises(ValueError, match=r"batch_size must be a whole number in \[1, 12\], got 2\.5"):
        sample_batch(p, seed=0, step=0, batch_size=2.5)
    # a seed or step that cannot key Philox: no truncation, no OverflowError
    for sample in (lambda seed, step: sample_batch(p, seed, step, 3),
                   lambda seed, step: sample_batches(p, seed, step, 2, 3)):
        for seed, step, bad in ((1.5, 0, "seed"), (0, 2.5, "step"), (2**64, 0, "seed"),
                                (0, 2**64, "step"), (-1, 0, "seed"), (0, -1, "step")):
            with pytest.raises(ValueError, match=rf"{bad} must be a whole number in \[0, 2\*\*64\)"):
                sample(seed, step)
    for count in (0, 1.5, -1):
        with pytest.raises(ValueError, match=rf"count must be a whole number >= 1, got {count}"):
            sample_batches(p, 0, 0, count, 3)
    with pytest.raises(ValueError, match=r"step \+ count - 1 = 18446744073709551616"):
        sample_batches(p, 0, 2**64 - 2, 3, 3)
    with pytest.raises(ValueError, match="batch_size"):
        sample_batches(p, 0, 0, 2, 13)
    assert len(sample_batches(p, 2**64 - 1, 2**64 - 2, 2, 3)) == 2


def same_batch(got, want):
    return (np.array_equal(got.indices, want.indices) and got.indices.dtype == want.indices.dtype
            and got.full == want.full)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       n_bs=st.integers(2, 2000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
       count_step=st.integers(1, 130).flatmap(
           lambda count: st.tuples(st.just(count), st.integers(0, 2**64 - count))))
def test_sample_batches_equal_sample_batch_at_each_step(seed, n_bs, count_step):
    n, bs = n_bs
    count, step = count_step
    p = dataclasses.replace(build_problem(ProblemSpec(kind="rosenbrock")), n_samples=n)
    got = sample_batches(p, seed, step, count, bs)
    assert len(got) == count
    for row, batch in enumerate(got):
        assert same_batch(batch, sample_batch(p, seed, step + row, bs)), row


def dict_swap_reference(seed, step, n, batch_size):
    """The batch of reference_sample_indices, drawn one offset per
    `integers` call, with its swaps kept in a dict: no length-n array."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))
    displaced = {}
    picked = []
    for i in range(batch_size):
        j = i + int(rng.integers(n - i))
        picked.append(displaced.get(j, j))
        displaced[j] = displaced.get(i, i)
    return np.sort(np.array(picked, dtype=np.intp))


@pytest.mark.parametrize("n, bs, fallback", [
    (3 * 2**30, 1, "some"),  # Lemire rejects a quarter of all 32-bit words
    (3 * 2**30, 3, "some"),
    (2**32 + 5, 1, "all"),  # NumPy draws 64-bit words
    (2**32 + 5, 9, "all"),  # and 32-bit ones from i = 5, the first at a bound of 2**32
])
def test_sample_batches_on_huge_sample_counts(monkeypatch, n, bs, fallback):
    p = dataclasses.replace(build_problem(ProblemSpec(kind="rosenbrock")), n_samples=n)
    single = []

    def counted(problem, seed, step, batch_size):
        single.append(step)
        return sample_batch(problem, seed, step, batch_size)

    monkeypatch.setattr(problems, "sample_batch", counted)
    got = sample_batches(p, 7, 100, 64, bs)
    for row, batch in enumerate(got):
        want = dict_swap_reference(7, 100 + row, n, bs)
        assert np.array_equal(batch.indices, want) and batch.indices.dtype == np.intp, row
        assert not batch.full
    if fallback == "all":
        assert single == list(range(100, 164))
    else:  # rows drawn by sample_batch and rows computed in the block
        assert 0 < len(single) < 64


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


# every kind at dim 4, and least squares at the 442 x 10 shape of the old regression data
GRADIENT_PROBLEMS = {kind: ProblemSpec(kind=kind, dim=4, n_samples=9, seed=0)
                     for kind in PROBLEM_KINDS} | {
    "least_squares_442": ProblemSpec(kind="least_squares", dim=10, n_samples=442, seed=0)}


@pytest.mark.parametrize("kind", sorted(GRADIENT_PROBLEMS))
def test_gradients_match_finite_differences(kind):
    p = build_problem(GRADIENT_PROBLEMS[kind])
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


@pytest.mark.parametrize("x, h, match", [
    ([0.0, 0.0], 0.0, "h must be positive"),
    ([1e200, 0.0], 1e-6, "non-finite intermediate values"),  # the squared residual overflows
], ids=["h=0", "overflowing loss"])
def test_finite_diff_rejects_bad_input(x, h, match):
    p = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=4, seed=0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
        finite_diff_grad(p, np.array(x), p.full_batch(), h)


# --- the shared squared gradient norm --------------------------------------------

GRAD_ENTRIES = st.one_of(st.floats(-1e3, 1e3), st.floats(5e149, 2e150), st.floats(-2e150, -5e149))


@settings(max_examples=200, deadline=None)
@given(g=st.integers(1, 600).flatmap(lambda d: arrays(np.float64, d, elements=GRAD_ENTRIES)))
def test_step_sample_grad_sq_equals_np_sum(g):
    # the bits a hand-built sample passes, and the row sums evaluate_cells
    # takes for a stack of gradients
    got = StepSample(1.0, g, float((g * g).sum())).grad_sq
    G = np.stack([g, -g])
    want = float(np.sum(g * g))
    assert type(got) is float
    for value in [got, *np.add.reduce(G * G, axis=1).tolist()]:
        assert struct.pack("<d", value) == struct.pack("<d", want)


# --- the one-point oracle of closed-form objectives ------------------------------------

def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


CLOSED_FORM = {
    "rosenbrock": ProblemSpec(kind="rosenbrock"),
    "multimodal": ProblemSpec(kind="multimodal_1d"),
    "poly_x": ProblemSpec(kind="polynomial_1d"),
    "poly_cubic": ProblemSpec(kind="polynomial_1d", coeffs=(0.5, -2.0, 0.0, 1.0)),
    "poly_constant": ProblemSpec(kind="polynomial_1d", coeffs=(2.0,), scale=0.5),
    "poly_quartic": ProblemSpec(kind="polynomial_1d", coeffs=(1.0, 0.0, -3.0, 0.0, 0.25),
                                scale=3.0),
}
# moderate points, and points far enough out that losses and squares overflow
COORDS = st.one_of(st.floats(-30.0, 30.0), st.floats(-1e200, 1e200), st.sampled_from([0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORM)), data=st.data())
def test_one_point_oracle_has_the_bits_of_a_stacked_row(name, data):
    p = build_problem(CLOSED_FORM[name])
    count = data.draw(st.integers(2, 6))
    X = data.draw(arrays(np.float64, (count, p.dim), elements=COORDS))
    with np.errstate(all="ignore"):
        losses, grads, grad_sqs = problems.evaluate_cells(p, X, p.full_batch())
        for i in range(count):
            for Y in (X[i], X[i:i + 1]):  # one point (a one-point call) and a one-row stack
                loss, grad, grad_sq = problems.evaluate_cells(p, Y, p.full_batch())
                assert type(loss[0]) is float and type(grad_sq[0]) is float
                assert grad[0].shape == (p.dim,) and grad[0].dtype == np.float64
                assert bits(loss[0]) == bits(losses[i])
                assert bits(grad[0]) == bits(grads[i])
                assert bits(grad_sq[0]) == bits(grad_sqs[i])


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(CLOSED_FORM)), data=st.data())
def test_stacked_gradient_has_np_stacks_values_shape_and_dtype(name, data):
    # the cell-axis oracle transposes the (d, C) partials instead of
    # calling np.stack, which costs a few microseconds a call
    p = build_problem(CLOSED_FORM[name])
    count = data.draw(st.integers(2, 6))
    X = data.draw(arrays(np.float64, (count, p.dim), elements=COORDS))
    formula = inspect.getclosurevars(p._loss_grad).nonlocals["formula"]
    with np.errstate(all="ignore"):
        want = np.stack(formula(*X.T)[1], axis=1)
        got = p._loss_grad(X, None)[1]
        sq_want, sq_got = (np.add.reduce(G * G, axis=1) for G in (want, got))
    assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.float64, (count, p.dim))
    assert got.tobytes() == want.tobytes() and sq_got.tobytes() == sq_want.tobytes()


LEAST_SQUARES = {
    "least_squares": ProblemSpec(kind="least_squares", dim=4, n_samples=12, seed=1),
    "least_squares_50": ProblemSpec(kind="least_squares", dim=50, n_samples=120, seed=2),
    "ridge": ProblemSpec(kind="ridge_quadratic", dim=5, seed=3, r=0.5),
    "least_squares_442": ProblemSpec(kind="least_squares", dim=10, n_samples=442, seed=0),
}
_LEAST_SQUARES_BUILT: dict = {}


def draw_batch(p, batching, data):
    """A batch of p: the full one, a sample_batch draw, or hand-built
    indices, a permutation of all n or n' draws with repeats."""
    n = p.n_samples
    if batching == "full":
        return p.full_batch()
    if batching == "sampled":
        return sample_batch(p, data.draw(st.integers(0, 99)), data.draw(st.integers(0, 99)),
                            data.draw(st.integers(1, n)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if batching == "permuted":
        return Batch(rng.permutation(n))
    return Batch(rng.integers(0, n, size=data.draw(st.integers(1, 2 * n))))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(LEAST_SQUARES)),
       batching=st.sampled_from(["full", "sampled", "permuted", "repeated"]), data=st.data())
def test_least_squares_one_point_oracle_has_the_bits_of_a_stacked_row(name, batching, data):
    if name not in _LEAST_SQUARES_BUILT:
        _LEAST_SQUARES_BUILT[name] = build_problem(LEAST_SQUARES[name])
    p = _LEAST_SQUARES_BUILT[name]
    batch = draw_batch(p, batching, data)
    count = data.draw(st.integers(2, 6))
    X = data.draw(arrays(np.float64, (count, p.dim), elements=COORDS))
    with np.errstate(all="ignore"):
        losses, grads, grad_sqs = problems.evaluate_cells(p, X, batch)
        assert bits(problems.evaluate_loss(p, X, batch)) == bits(losses)
        for i in range(count):
            for Y in (X[i], X[i:i + 1]):  # one point (a one-point call) and a one-row stack
                loss, grad, grad_sq = problems.evaluate_cells(p, Y, batch)
                assert type(loss[0]) is float and type(grad_sq[0]) is float
                assert grad[0].shape == (p.dim,) and grad[0].dtype == np.float64
                assert bits(loss[0]) == bits(losses[i])
                assert bits(grad[0]) == bits(grads[i])
                assert bits(grad_sq[0]) == bits(grad_sqs[i])
            assert bits(problems.evaluate_loss(p, X[i:i + 1], batch)) == bits(loss)
            sample = evaluate(p, X[i], batch)
            assert bits([sample.loss, sample.grad_sq]) == bits([losses[i], grad_sqs[i]])
            assert bits(sample.grad) == bits(grads[i])


# --- the oracle contract at non-finite points ----------------------------------------

CONTRACT_PROBLEMS = {kind: ProblemSpec(kind=kind, dim=4) for kind in PROBLEM_KINDS} | {
    "least_squares_442": ProblemSpec(kind="least_squares", dim=10, n_samples=442)}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
def test_a_non_finite_point_gets_a_non_finite_loss_and_leaves_its_stack_alone(name, value):
    # the run loop reads a non-finite iterate off its loss, with no scan
    # before the oracle: neither oracle may raise on it, and the finite
    # rows beside it keep the bits of their one-point evaluation
    p = build_problem(CONTRACT_PROBLEMS[name])
    finite = p.x0_default + 0.5
    batches = [None] + ([np.array([0, 2, 3])] if p.n_samples > 3 else [])
    with np.errstate(all="ignore"):
        for idx in batches:
            loss, grad, _ = p._point(finite, idx)
            for j in range(p.dim):
                bad = finite.copy()
                bad[j] = value
                assert not math.isfinite(p._point(bad, idx)[0])
                losses, grads = p._loss_grad(np.array([finite, bad, finite]), idx)
                assert not math.isfinite(losses[1])
                for i in (0, 2):
                    assert bits(losses[i]) == bits(loss) and bits(grads[i]) == bits(grad)


def multimodal_eight_calls(t):
    """The multimodal oracle as first written, with eight sin/cos calls:
    the reference for the bits of the four-call form."""
    u1 = 1.0 + np.cos(-np.pi + t)
    u2 = 1.0 + np.cos(np.pi - t)
    t1 = np.sin(u1) - 0.2 * t
    t2 = np.sin(u2) + 0.2 * t
    t2_cubed = t2 * t2 * t2
    loss = t1 * t1 + t2_cubed * t2
    dt1 = np.cos(u1) * (-np.sin(-np.pi + t)) - 0.2
    dt2 = np.cos(u2) * np.sin(np.pi - t) + 0.2
    return loss, (2.0 * t1 * dt1 + 4.0 * t2_cubed * dt2,)


MULTIMODAL_POINTS = st.one_of(
    st.floats(-50.0, 50.0), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, math.pi, -math.pi, 1e300, -1e300]))


@settings(max_examples=300, deadline=None)
@given(ts=st.lists(MULTIMODAL_POINTS, min_size=1, max_size=8))
def test_multimodal_oracle_has_the_bits_of_the_eight_call_form(ts):
    with np.errstate(all="ignore"):
        column = np.array(ts)
        want_loss, (want_grad,) = multimodal_eight_calls(column)
        loss, (grad,) = problems._multimodal(column)
        assert bits(loss) == bits(want_loss) and bits(grad) == bits(want_grad)
        for t in ts:  # one point, on Python floats
            want_loss, (want_grad,) = multimodal_eight_calls(t)
            loss, (grad,) = problems._multimodal(t)
            assert bits(loss) == bits(want_loss) and bits(grad) == bits(want_grad)


# --- least-squares data at a cache-line boundary ---------------------------------------

def oracle_rows(problem):
    """The data matrix the least-squares oracle reads, from its closure."""
    return inspect.getclosurevars(problem._loss_grad).nonlocals["rows"]


def test_least_squares_data_is_cache_aligned_and_kept_once():
    kinds = set()
    for p, A, _ in _lsq_cases():
        kinds.add(p.kind)
        rows = oracle_rows(p)
        assert rows.ctypes.data % 64 == 0 and rows.flags.c_contiguous
        assert np.array_equal(rows, A)
        # metadata and batch_min read the oracle's array: no second copy of A
        for reader in (p._metadata, p._batch_min):
            held = inspect.getclosurevars(reader).nonlocals
            assert held["rows"] is rows and "A" not in held
    assert kinds == {"least_squares", "ridge_quadratic"}


@pytest.mark.parametrize("spec", [
    ProblemSpec(kind="least_squares", dim=50, n_samples=1000, seed=0),
    ProblemSpec(kind="ridge_quadratic", dim=400, seed=0, r=0.1),
], ids=["least_squares", "ridge"])
def test_builds_draw_their_data_aligned_without_a_copy(monkeypatch, spec):
    # a copy would hold a second matrix while the first is alive and
    # raise the peak memory of every build by one matrix
    real, made = problems._aligned_empty, []

    def recorded(shape):
        made.append(real(shape))
        return made[-1]

    monkeypatch.setattr(problems, "_aligned_empty", recorded)
    p = build_problem(spec)
    assert len(made) == 1 and oracle_rows(p) is made[0]


def ridge_with_a_dense_shift(spec):
    """The ridge build as first written: A + r * eye(d), a dense add."""
    rng = np.random.default_rng(spec.seed)
    M = rng.standard_normal((spec.dim, spec.dim))
    y = rng.standard_normal(spec.dim)
    return problems._least_squares_objective(problems.KIND_RIDGE, M + spec.r * np.eye(spec.dim), y)


@pytest.mark.parametrize("d, seed, r", [(1, 0, 0.1), (5, 3, -0.5), (400, 0, 0.1), (37, 1, 0.0)])
def test_ridge_adds_its_shift_on_the_diagonal(d, seed, r):
    spec = ProblemSpec(kind="ridge_quadratic", dim=d, seed=seed, r=r)
    want = oracle_rows(ridge_with_a_dense_shift(spec))
    got = oracle_rows(build_problem(spec))
    assert np.array_equal(got, want) and bits(got) == bits(want)


def test_shipped_ridge_summary_keeps_its_bytes(monkeypatch, tmp_path):
    # the shipped quadratic config, with its budget cut to keep the suite
    # fast, against the same sweep on the dense-shift build
    sweep = parse_config(str(CONFIG_DIR / "quadratic_schedules.cfg"))
    sweep.budget = dataclasses.replace(sweep.budget, max_steps=300)
    sweep.out_path = str(tmp_path / "diagonal.csv")
    run_sweep(sweep)
    monkeypatch.setitem(problems._BUILDERS, problems.KIND_RIDGE, ridge_with_a_dense_shift)
    sweep.out_path = str(tmp_path / "dense.csv")
    run_sweep(sweep)
    assert (tmp_path / "diagonal.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_ridge_build_peak_memory_is_under_two_matrices():
    # the matrix itself is 8 d^2 bytes; a dense r * eye(d) would add two more
    d = 400
    build_problem(ProblemSpec(kind="ridge_quadratic", dim=d, seed=0, r=0.1))  # warm caches
    tracemalloc.start()
    try:
        build_problem(ProblemSpec(kind="ridge_quadratic", dim=d, seed=0, r=0.1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * d * d < peak < 2 * 8 * d * d


def misaligned_copy(A):
    """A C-ordered copy of A whose data starts 16 bytes past a cache line."""
    buf = np.empty(A.nbytes + 128, dtype=np.uint8)
    start = (-buf.ctypes.data % 64) + 16
    out = buf[start:start + A.nbytes].view(np.float64).reshape(A.shape)
    out[...] = A
    return out


def test_least_squares_oracle_bits_do_not_depend_on_alignment(monkeypatch):
    aligned = _lsq_cases()
    monkeypatch.setattr(problems, "_cache_aligned", misaligned_copy)
    moved = _lsq_cases()
    rng = np.random.default_rng(12)
    for (p, _, _), (q, _, _) in zip(aligned, moved):
        assert oracle_rows(q).ctypes.data % 64 == 16
        n = p.n_samples
        batches = [p.full_batch(), Batch(np.sort(rng.choice(n, size=max(1, n // 3), replace=False)))]
        for C in (1, 6):
            X = rng.standard_normal((C, p.dim))
            for batch in batches:
                for Y in (X, X[0]) if C == 1 else (X,):  # a one-row stack and one point
                    want = problems.evaluate_cells(p, Y, batch)
                    got = problems.evaluate_cells(q, Y, batch)
                    assert bits(got[0]) == bits(want[0]) and bits(got[2]) == bits(want[2])
                    assert bits(got[1]) == bits(want[1])
                assert bits(problems.evaluate_loss(q, X, batch)) == bits(
                    problems.evaluate_loss(p, X, batch))
        assert_same_metadata(q.metadata, p.metadata)


def _lsq12():
    return build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=12, seed=0))


def _one_cell_sweep():
    return SweepSpec(ProblemSpec(kind="polynomial_1d"), ["sgdm"], [1e-3], [0.9], [0],
                     RunBudget(max_steps=10))


def _cli_sweep_workers(workers):
    """`ngnopt sweep --workers N` as a call: its one stderr line, the text
    after "error: ", raised as a ValueError when it exits 1."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli(["sweep", "--config", "unread.cfg", "--workers", str(workers)])
    assert code == 1 and err.getvalue().startswith("error: ") and err.getvalue().endswith("\n")
    assert err.getvalue().count("\n") == 1
    raise ValueError(err.getvalue()[len("error: "):-1])


# Every whole-number check: (entry point of a value, the name it reports,
# low, high or None). Each rejects a fraction, a bool (True, and False
# where low is 0) and a value out of range. argparse's type=int turns a
# fraction or a bool away before `ngnopt sweep` checks --workers, so the
# CLI is checked below its low only.
_CLI_WORKERS = "ngnopt sweep --workers"
WHOLE_NUMBER_CHECKS = {
    "RunBudget.max_steps": (lambda v: RunBudget(max_steps=v), "max_steps", 1, None),
    "RunBudget.batch_size": (lambda v: RunBudget(max_steps=1, batch_size=v), "batch_size", 1, None),
    "ProblemSpec.dim": (lambda v: ProblemSpec(kind="least_squares", dim=v), "dim", 1, None),
    "ProblemSpec.n_samples": (lambda v: ProblemSpec(kind="least_squares", n_samples=v),
                              "n_samples", 1, None),
    "ProblemSpec.seed": (lambda v: ProblemSpec(kind="least_squares", seed=v), "seed", 0, None),
    "OptimizerSpec.total_steps": (lambda v: OptimizerSpec(kind="ngn", c=1.0, total_steps=v),
                                  "total_steps", 1, None),
    "run_sweep.workers": (lambda v: run_sweep(_one_cell_sweep(), workers=v), "workers", 1, None),
    _CLI_WORKERS: (_cli_sweep_workers, "--workers", 1, None),
    "sample_batch.batch_size": (lambda v: sample_batch(_lsq12(), 0, 0, v), "batch_size", 1, 12),
    "sample_batches.batch_size": (lambda v: sample_batches(_lsq12(), 0, 0, 2, v),
                                  "batch_size", 1, 12),
    "sample_batches.count": (lambda v: sample_batches(_lsq12(), 0, 0, v, 3), "count", 1, None),
    "estimate_sigmas.batch_size": (lambda v: estimate_sigmas(_lsq12(), v), "batch_size", 1, 12),
    "multimodal_global_basin.n_grid": (
        lambda v: multimodal_global_basin(build_problem(ProblemSpec(kind="multimodal_1d")),
                                          n_grid=v), "n_grid", 1, None),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, low, high) in WHOLE_NUMBER_CHECKS.items()
    for bad in (() if entry == _CLI_WORKERS else (2.5, True)) + (low - 1,)
    + (() if high is None else (high + 1,)) + ((False,) if low == 0 else ())])
def test_every_whole_number_check_rejects_a_fraction_and_a_value_out_of_range(entry, bad):
    call, name, low, high = WHOLE_NUMBER_CHECKS[entry]
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    message = f"{name} must be a whole number {bound}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)
