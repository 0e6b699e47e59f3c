import dataclasses
import itertools
import math
import pickle
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ngnopt
from ngnopt import (
    OptimizerSpec,
    OptimizerState,
    ProblemSpec,
    RunBudget,
    StepReport,
    StepSample,
    apply_step,
    build_problem,
    cli,
    evaluate,
    init_state,
    ngn_gamma,
    precond_update,
    run_once,
    sample_batch,
    schedule_c,
)
from ngnopt import optimizers
from ngnopt.harness import TRAJECTORY_COLUMNS, _fmt, _step_stats
from ngnopt.optimizers import OPTIMIZER_KINDS, SCHEDULES

WD_KINDS = ("dec_ngn_mdv1", "ngn_mdv1w")
FLOAT_SIDE_KINDS = ("ngn_m_v1", "sgdm")  # the rules with a float side
REPORT_STATS = ("gamma_scalar", "gamma_coord_min", "gamma_coord_max", "gamma_coord_mean",
                "update_norm")


def make_sample(loss, grad):
    grad = np.asarray(grad, dtype=float)
    return StepSample(float(loss), grad, float((grad * grad).sum()))


def step(state, sample, spec):
    """apply_step on a copy of state: the advanced copy and a StepReport of
    the step sizes it returned; state itself is left as it was."""
    new = dataclasses.replace(state)
    return new, StepReport(*apply_step(new, sample, spec))


def reference_scalar_report(gamma, x_new, x):
    """The eager scalar report statistics, as once built on every step;
    returns the REPORT_STATS values."""
    upd = x_new - x
    return (gamma, gamma, gamma, gamma, math.sqrt(float(np.sum(upd * upd))))


def reference_coord_report(gamma_scalar, coord, x_new, x):
    """The eager per-coordinate report, as reference_scalar_report."""
    upd = x_new - x
    return (gamma_scalar, float(np.min(coord)), float(np.max(coord)), float(np.mean(coord)),
            math.sqrt(float(np.sum(upd * upd))))


def reference_stats(rep, x_new, x):
    if rep.gamma_coord is None:
        return reference_scalar_report(rep.gamma_scalar, x_new, x)
    return reference_coord_report(rep.gamma_scalar, rep.gamma_coord, x_new, x)


def same_bits(a, b) -> bool:
    """Equal as IEEE doubles, bit for bit; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


# --- the step-size formula ----------------------------------------------------

def test_ngn_gamma_reference_value():
    # c=1, f=2, ||g||^2=4: gamma = 2*1*2 / (2*2 + 1*4) = 0.5
    assert ngn_gamma(1.0, 2.0, 4.0) == pytest.approx(0.5)


def test_ngn_gamma_zero_gradient_returns_c():
    assert ngn_gamma(0.7, 3.0, 0.0) == 0.7
    assert ngn_gamma(0.7, 0.0, 0.0) == 0.7  # 0/0 case is division-safe


def test_ngn_gamma_zero_loss_positive_gradient():
    assert ngn_gamma(1.0, 0.0, 4.0) == 0.0


def test_ngn_gamma_vector_matches_scalar():
    c = np.array([0.5, 1.0, 2.0])
    gs = np.array([0.0, 4.0, 1.0])
    out = ngn_gamma(c, 2.0, gs)
    expected = [ngn_gamma(ci, 2.0, gi) for ci, gi in zip(c, gs)]
    assert np.allclose(out, expected, rtol=0, atol=0)
    assert out[0] == 0.5


SCALAR_TYPES = {
    "np.float64": np.float64,
    "np.float32": np.float32,
    "0-d array": np.array,
}


@pytest.mark.parametrize("position", [0, 1, 2], ids=["c", "loss", "grad_sq"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("wrap", list(SCALAR_TYPES.values()), ids=list(SCALAR_TYPES))
def test_ngn_gamma_rejects_non_finite_scalars_of_every_type(wrap, bad, position):
    args = [1.0, 2.0, 4.0]
    args[position] = wrap(bad)
    with pytest.raises(ValueError, match="non-finite"):
        ngn_gamma(*args)


@pytest.mark.parametrize("position,value", [(0, 0), (0, -1), (1, -1), (2, -1)],
                         ids=["c=0", "c<0", "loss<0", "grad_sq<0"])
@pytest.mark.parametrize("wrap", [int] + list(SCALAR_TYPES.values()),
                         ids=["int"] + list(SCALAR_TYPES))
def test_ngn_gamma_rejects_out_of_range_scalars_of_every_type(wrap, position, value):
    args = [1.0, 2.0, 4.0]
    args[position] = wrap(value)
    with pytest.raises(ValueError, match="requires"):
        ngn_gamma(*args)
    with pytest.raises(ValueError, match="requires"):
        ngn_gamma(*(wrap(a) for a in args))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(1e-8, 1e8), loss=st.floats(0.0, 1e12), gs=st.floats(0.0, 1e12))
def test_ngn_gamma_same_result_for_python_and_numpy_floats(c, loss, gs):
    want = ngn_gamma(c, loss, gs)
    assert type(want) is float
    for args in [(np.float64(c), np.float64(loss), np.float64(gs)),
                 (np.float64(c), loss, gs), (c, loss, np.float64(gs)),
                 (np.array(c), loss, np.array(gs))]:
        got = ngn_gamma(*args)
        assert type(got) is float
        assert same_bits(got, want)


def test_ngn_gamma_int_inputs_equal_float_inputs():
    assert same_bits(ngn_gamma(2, 3, 4), ngn_gamma(2.0, 3.0, 4.0))
    assert ngn_gamma(2, 3, 0) == 2.0


def test_ngn_gamma_rejects_invalid():
    with pytest.raises(ValueError):
        ngn_gamma(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ngn_gamma(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        ngn_gamma(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        ngn_gamma(1.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        ngn_gamma(np.array([1.0, -1.0]), 1.0, np.array([1.0, 1.0]))


@settings(max_examples=200, deadline=None)
@given(c=st.floats(1e-8, 1e8), loss=st.floats(0.0, 1e12),
       gs=st.floats(0.0, 1e12))
def test_ngn_gamma_always_in_unit_interval_of_c(c, loss, gs):
    g = ngn_gamma(c, loss, gs)
    assert 0.0 <= g <= c


def test_ngn_gamma_cap_holds_when_denominator_rounds_down():
    # with a tiny gradient the rounded quotient can land one ulp above
    # the cap unless it is clamped; these inputs used to do exactly that
    c = 26843546.410672996
    loss = 5.0
    gs = 3.0964001530201247e-200
    assert ngn_gamma(c, loss, gs) <= c
    vec = ngn_gamma(np.full(2, c), loss, np.full(2, gs))
    assert np.all(vec <= c)


def test_ngn_gamma_zero_loss_with_underflowing_denominator():
    # c*gs underflows to 0 at f = 0, so the whole denominator is 0; both
    # paths return the limit 0 instead of dividing by zero
    assert ngn_gamma(0.5, 0.0, 5e-324) == 0.0
    assert np.all(ngn_gamma(np.full(2, 0.5), 0.0, np.full(2, 5e-324)) == 0.0)


@pytest.mark.parametrize("c, loss, gs, want", [
    (1e308, 1.0, 4.0, 0.5),                       # 2 c f and the denominator overflow
    (1e200, 1.0, 1e200, 2e-200),                  # the denominator alone overflows
    (1.7976931348623157e308, 0.0, 1.0, 0.0),      # 2c overflows against a zero loss
])
def test_ngn_gamma_takes_the_finite_value_where_the_quotient_overflows(c, loss, gs, want):
    assert ngn_gamma(c, loss, gs) == pytest.approx(want, rel=1e-15, abs=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        vec = ngn_gamma(np.array([c, 0.5]), loss, np.array([gs, 4.0]))
    assert vec[0] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert same_bits(vec[1], ngn_gamma(0.5, loss, 4.0))  # no overflow: the plain quotient's bits


def test_cli_run_of_ngn_where_2c_overflows(capsys):
    assert cli(["run", "--problem", "least_squares", "--dim", "3", "--optimizer", "ngn",
                "--c", "1e308", "--steps", "200"]) == 0
    assert capsys.readouterr().out.startswith("status=budget_exhausted steps=200 ")


@settings(max_examples=100, deadline=None)
@given(c=st.floats(1e-6, 1e6), loss=st.floats(1e-12, 1e12),
       gs=st.floats(0.0, 1e12), factor=st.floats(1.0 + 1e-9, 1e6))
def test_ngn_gamma_monotone_in_gradient(c, loss, gs, factor):
    assert ngn_gamma(c, loss, gs * factor) <= ngn_gamma(c, loss, gs)


def test_ngn_gamma_smoothness_lower_bound():
    # with ||g||^2 <= 2 L f, gamma >= c/(1+cL)
    c, L = 1.7, 3.0
    for f in (1e-8, 0.5, 10.0, 1e6):
        gs = 2.0 * L * f
        assert ngn_gamma(c, f, gs) >= c / (1.0 + c * L) * (1 - 1e-12)


def exact_ngn_gamma(c, loss, grad_sq):
    """NGN's step size 2 c f / (2 f + c g^2) (c where g^2 = 0) in exact
    rational arithmetic, one Fraction for each entry of c and grad_sq
    broadcast together; raises ngn_gamma's errors for what it rejects."""
    c, gs = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(grad_sq, dtype=float))
    loss = float(loss)
    if not (np.isfinite(c).all() and math.isfinite(loss) and np.isfinite(gs).all()):
        raise ValueError("non-finite inputs to ngn_gamma")
    if (c <= 0.0).any() or loss < 0.0 or (gs < 0.0).any():
        raise ValueError("ngn_gamma requires c > 0, loss >= 0, grad_sq >= 0")
    f = Fraction(loss)
    return [Fraction(cj) if gj == 0.0 else 2 * Fraction(cj) * f / (2 * f + Fraction(cj) * Fraction(gj))
            for cj, gj in zip(c.ravel().tolist(), gs.ravel().tolist())]


TINY = sys.float_info.min  # the smallest normal double
STEP_BOUND = 1 + 8 * Fraction(sys.float_info.epsilon)


def assert_near_exact(got, c, loss, gs) -> None:
    """got, ngn_gamma's value, against the exact one: within 4 ulps where
    that is a normal double, within a subnormal of it otherwise, in [0, c],
    and with gamma g^2 <= 2 f (1 + 8 eps)."""
    want = exact_ngn_gamma(c, loss, gs)
    c, gs, got = (np.broadcast_to(v, np.shape(got)).ravel().tolist() for v in (c, gs, got))
    for g, w, cj, gj in zip(got, want, c, gs):
        exact = float(w)
        tol = 4.0 * math.ulp(exact) if exact >= TINY else TINY
        assert 0.0 <= g <= cj, (cj, loss, gj, g)
        assert abs(Fraction(g) - w) <= Fraction(tol), (cj, loss, gj, g, exact)
        assert Fraction(g) * Fraction(gj) <= 2 * Fraction(loss) * STEP_BOUND, (cj, loss, gj, g)


# zero, subnormals, the smallest normal, and values whose products
# underflow or overflow
EDGE_VALUES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-160, 0.5, 1.0,
               3.0, 1e160, 1e200, 1.7976931348623157e308)
non_negative = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1e300),
                         st.floats(0.0, allow_infinity=False, allow_subnormal=True))
positive = non_negative.filter(lambda v: v > 0.0)
bad_values = st.sampled_from((math.nan, math.inf, -math.inf, -1.0, -5e-324, -0.0, -1e300))


def vector_inputs(draw, length):
    """(c, grad_sq): at least one of them a vector of length `length`."""
    shape = draw(st.sampled_from(("both", "c scalar", "grad_sq scalar")))
    c = np.array(draw(st.lists(positive, min_size=length, max_size=length)))
    gs = np.array(draw(st.lists(non_negative, min_size=length, max_size=length)))
    if shape == "c scalar":
        c = draw(positive)
    elif shape == "grad_sq scalar":
        gs = draw(non_negative)
    return c, gs


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def assert_same_outcome(c, loss, gs):
    """ngn_gamma raises what exact_ngn_gamma raises, and else returns an
    array of the broadcast shape near the exact value, each entry with the
    bits of a scalar call."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore", divide="ignore"):
        got = outcome(ngn_gamma, c, loss, gs)
        want = outcome(exact_ngn_gamma, c, loss, gs)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert type(got[1]) is np.ndarray and got[1].dtype == float
        assert got[1].shape == np.broadcast_shapes(np.shape(c), np.shape(gs))
        assert_near_exact(got[1], c, loss, gs)
        c, gs = np.broadcast_arrays(c, gs)
        for gj, cj, gsj in zip(got[1].tolist(), c.ravel().tolist(), gs.ravel().tolist()):
            assert same_bits(gj, ngn_gamma(cj, loss, gsj)), (cj, loss, gsj, gj)


# every positive finite double, subnormals included, log-uniform: a uniform bit pattern
positive_doubles = st.integers(1, 0x7FEFFFFFFFFFFFFF).map(
    lambda i: struct.unpack("<d", struct.pack("<q", i))[0])
any_positive = st.one_of(positive_doubles, positive)


@settings(max_examples=500, deadline=None)
@given(c=any_positive, loss=st.one_of(positive_doubles, non_negative),
       gs=st.one_of(positive_doubles, non_negative))
def test_ngn_gamma_is_near_its_exact_value(c, loss, gs):
    got = ngn_gamma(c, loss, gs)
    assert_near_exact(got, c, loss, gs)
    assert same_bits(got, ngn_gamma(np.array([c]), loss, np.array([gs]))[0])


@settings(max_examples=400, deadline=None)
@given(data=st.data(), length=st.integers(1, 6), loss=non_negative)
def test_ngn_gamma_vector_is_near_its_exact_value(data, length, loss):
    c, gs = vector_inputs(data.draw, length)
    assert_same_outcome(c, loss, gs)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), length=st.integers(1, 6), loss=non_negative, bad=bad_values,
       where=st.sampled_from(("c", "loss", "grad_sq")))
def test_ngn_gamma_vector_rejects_what_the_reference_rejects(data, length, loss, bad, where):
    c, gs = vector_inputs(data.draw, length)
    if where == "loss":
        loss = bad
    else:
        arr = np.array(c if where == "c" else gs, dtype=float, ndmin=1)
        arr[data.draw(st.integers(0, arr.size - 1))] = bad
        c, gs = (arr, gs) if where == "c" else (c, arr)
    assert_same_outcome(c, loss, gs)


@settings(max_examples=400, deadline=None)
@given(c=positive, loss=non_negative, gs=non_negative)
def test_ngn_gamma_scalar_has_the_bits_of_a_one_element_array(c, loss, gs):
    # loss is drawn up to the largest double: at loss >= 2^1023, 2 loss
    # overflows and gamma's limit is c on both paths
    want = ngn_gamma(np.array([c]), loss, np.array([gs]))[0]
    got = ngn_gamma(c, loss, gs)
    assert type(got) is float and same_bits(got, want), (c, loss, gs, got, want)
    assert 0.0 <= got <= c


@pytest.mark.parametrize("c, loss, gs", [(1.0, 1.7976931348623157e308, 1.0), (1.0, 1e308, 4.0)])
def test_ngn_gamma_is_c_where_2_loss_overflows(c, loss, gs):
    assert ngn_gamma(c, loss, gs) == c
    assert ngn_gamma(np.array([c, c]), loss, np.array([gs, 0.0])).tolist() == [c, c]
    assert_near_exact(c, c, loss, gs)


@pytest.mark.parametrize("c, loss, gs, want", [
    (3.0, 2.0 ** 1023, 1e308, 1.124),          # 2 loss overflows, and gamma ||g||^2 <= 2 loss bites
    (0.5, 8e307, 4e307, 0.4444),               # 2 loss / c overflows too
    (1e-20, 1e-300, 1.0, 2e-300),              # 2 c loss underflows
    (3.1e-295, 3e-85, 6e150, 3.1e-295),        # 2 c loss underflows to 0; gamma is about c
    (1.7976931348623157e308, 1e-300, 1e-300, 2.0),  # 2/c would be subnormal; 4/c is normal
    (1.0, 2.2250738585072014e-308, 2.0, 2.2250738585072014e-308),  # 2 g^2 / loss overflows
])
def test_ngn_gamma_where_2_c_loss_or_2_loss_leaves_the_double_range(c, loss, gs, want):
    got = ngn_gamma(c, loss, gs)
    assert got == pytest.approx(want, rel=1e-3)
    assert_near_exact(got, c, loss, gs)
    assert ngn_gamma(np.array([c, c]), loss, np.array([gs, 0.0])).tolist() == [got, c]


@pytest.mark.parametrize("c", [5e-324, 1e-310, 2.2250738585072014e-308])
def test_ngn_gamma_is_c_at_a_tiny_c_where_4_over_c_overflows(c):
    # c (2 / (2 + c g^2 / f)) rounds to c, so gamma >= c / (1 + c L) holds there too
    assert ngn_gamma(c, 1.0, 1.0) == c
    assert ngn_gamma(np.array([c, c]), 1.0, np.array([1.0, 0.0])).tolist() == [c, c]
    assert_near_exact(c, c, 1.0, 1.0)


def test_ngn_gamma_vector_edge_cases_are_near_the_exact_value():
    one = np.ones(3)
    for c, loss, gs in [
        (one, 0.0, one),                                   # zero loss
        (one, 2.0, np.array([0.0, 1.0, 0.0])),             # zero g_j^2
        (one, 0.0, np.zeros(3)),                           # 0/0 corner
        (np.full(3, 1e-200), 1.0, np.full(3, 1e-200)),     # c*gs underflows
        (np.full(3, 0.5), 0.0, np.full(3, 5e-324)),        # whole denominator underflows
        (np.full(3, 1e200), 1e200, np.full(3, 1e200)),     # numerator and denominator overflow
        (np.full(3, 1.7976931348623157e308), 1.0, one),   # 2c overflows
        (np.full(3, 5e-324), 5e-324, np.full(3, 5e-324)),  # all subnormal
        (0.5, 3.0, np.array([4.0])),                       # scalar c, one coordinate
        (np.array([0.5, 2.0]), 3.0, 4.0),                  # scalar grad_sq
        (np.array([1.0, math.nan]), 1.0, one[:2]),         # NaN cap
        (one, 1.0, np.array([1.0, -0.0, 1.0])),            # negative zero
        (one, -0.0, one),
        (one, math.inf, one),
        (np.array([1.0, 0.0]), 1.0, one[:2]),              # zero cap
        (np.empty(0), 1.0, np.empty(0)),                   # no coordinates
        (np.array([5e-324, 1.0]), -0.0, np.full(2, 1.0)),  # gamma is 0 at a -0.0 loss
        (np.full(2, 1.7976931348623157e308), 1e-300, np.array([1e-300, 5e-324])),  # 2/c subnormal
        (np.array([1e-310, 2.2250738585072014e-308]), 5e-324, one[:2]),  # 4/c and g^2/f overflow
    ]:
        assert_same_outcome(c, loss, gs)


# --- schedules and preconditioner ----------------------------------------------

def test_schedules():
    assert schedule_c("constant", 2.0, 99) == 2.0
    assert schedule_c("inv_sqrt_k", 2.0, 5, total_steps=100) == pytest.approx(0.2)
    assert schedule_c("inv_sqrt_step", 2.0, 3) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        schedule_c("inv_sqrt_k", 2.0, 5)
    with pytest.raises(ValueError):
        schedule_c("nope", 2.0, 5)


@pytest.mark.parametrize("schedule, k, total", [("inv_sqrt_k", 0, 4), ("inv_sqrt_step", 3, None)])
def test_a_decaying_c_that_underflows_stays_positive(schedule, k, total):
    # 5e-324 / 2 rounds to 0, which ngn_gamma rejects; the run goes on
    assert schedule_c(schedule, 5e-324, k, total_steps=total) == 5e-324
    spec = OptimizerSpec(kind="ngn", c=5e-324, schedule=schedule, total_steps=total)
    rec = run_once(build_problem(ProblemSpec(kind="multimodal_1d")), spec, RunBudget(max_steps=5),
                   seed=0)
    assert rec.status == "budget_exhausted" and len(rec.step_reports) == 5


def test_precond_update_bias_correction():
    v0 = np.zeros(2)
    g = np.array([3.0, 4.0])
    beta2 = 0.9
    v1, d = precond_update(v0, g, beta2, k=0, eps=1e-8)
    # at k=0 the corrector (1 - beta2) cancels the (1 - beta2) weight
    assert np.allclose(v1, 0.1 * g * g)
    assert np.allclose(d, 1e-8 + np.abs(g))


# --- spec validation ------------------------------------------------------------

def test_optimizer_spec_validation():
    with pytest.raises(ValueError):
        OptimizerSpec(kind="nope", c=1.0)
    with pytest.raises(ValueError):
        OptimizerSpec(kind="ngn", c=0.0)
    with pytest.raises(ValueError):
        OptimizerSpec(kind="ngn", c=1.0, beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerSpec(kind="ngn", c=1.0, schedule="inv_sqrt_k")
    for total in (0, -3, 2.5):
        with pytest.raises(ValueError, match="total_steps must be a whole number >= 1"):
            OptimizerSpec(kind="ngn", c=1.0, schedule="inv_sqrt_k", total_steps=total)
    assert OptimizerSpec(kind="ngn", c=1.0, schedule="inv_sqrt_k", total_steps=np.int64(1)).total_steps == 1
    with pytest.raises(ValueError):
        OptimizerSpec(kind="ngn_d", c=1.0, c_coord=np.array([1.0, -1.0]))


@pytest.mark.parametrize("field", ["eps", "wd_lambda"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_optimizer_spec_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerSpec(kind="dec_ngn_mdv1", c=1.0, **{field: value})


# --- one-step oracles, hand computed --------------------------------------------

def test_ngn_step_oracle():
    # apply_step advances the state in place and returns the step sizes,
    # the fields of a StepReport
    spec = OptimizerSpec(kind="ngn", c=1.0)
    state = init_state(np.array([1.0, 0.0]))
    x = state.x
    sample = make_sample(2.0, [2.0, 0.0])
    sizes = apply_step(state, sample, spec)
    # gamma = 2*1*2/(4+4) = 0.5; x' = (1,0) - 0.5*(2,0) = (0,0)
    assert sizes == (0.5, None, None, None)
    assert np.allclose(state.x, [0.0, 0.0])
    assert state.x_prev is x and x.tolist() == [1.0, 0.0]
    assert state.k == 1


def test_ngn_m_v1_step_oracle():
    beta = 0.5
    spec = OptimizerSpec(kind="ngn_m_v1", c=1.0, beta1=beta)
    state = init_state(np.array([1.0]))
    state = ngnopt.OptimizerState(np.array([1.0]), np.array([2.0]),
                                  np.zeros(1), np.zeros(1), 1)
    sample = make_sample(2.0, [2.0])
    new, rep = step(state, sample, spec)
    # gamma = 0.5; x' = 1 - 0.5*0.5*2 + 0.5*(1-2) = 1 - 0.5 - 0.5 = 0
    assert new.x[0] == pytest.approx(0.0)
    assert rep.gamma_scalar == pytest.approx(0.5)


def test_ngn_m_v2_step_oracle():
    beta = 0.5
    spec = OptimizerSpec(kind="ngn_m_v2", c=1.0, beta1=beta)
    state = init_state(np.array([1.0]))
    sample = make_sample(2.0, [2.0])
    new, _ = step(state, sample, spec)
    # m' = 0.5*0 + 0.5*2 = 1; gamma = 2*2/(4+1) = 0.8; x' = 1 - 0.8*1 = 0.2
    assert new.x[0] == pytest.approx(0.2)
    assert np.allclose(new.m, [1.0])


def test_ngn_d_step_oracle():
    spec = OptimizerSpec(kind="ngn_d", c=1.0)
    state = init_state(np.array([0.0, 0.0]))
    sample = make_sample(2.0, [2.0, 0.0])
    new, rep = step(state, sample, spec)
    # gamma_0 = 2*2/(4+4) = 0.5; gamma_1 = c = 1 (zero gradient coordinate)
    assert np.allclose(rep.gamma_coord, [0.5, 1.0])
    assert np.allclose(new.x, [-1.0, 0.0])
    assert rep.gamma_coord.min() == 0.5
    assert rep.gamma_coord.max() == 1.0


def test_ngn_d_c_coord_oracle():
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=np.array([1.0, 2.0]))
    state = init_state(np.zeros(2))
    sample = make_sample(2.0, [2.0, 2.0])
    _, rep = step(state, sample, spec)
    # gamma_j = 2 c_j f / (2f + c_j g_j^2): [4/8, 8/12]
    assert np.allclose(rep.gamma_coord, [0.5, 2.0 / 3.0])
    assert np.allclose(rep.c_coord_used, [1.0, 2.0])


def test_ngn_d_takes_no_step_where_a_scheduled_c_j_underflows():
    # 5e-324 / 2 rounds to 0 from step 3 on, which ngn_gamma would reject
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=np.array([5e-324, 1.0]),
                         schedule="inv_sqrt_step")
    problem = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=6, seed=0))
    rec = run_once(problem, spec, RunBudget(max_steps=10), seed=0)
    assert rec.status == "budget_exhausted" and len(rec.step_reports) == 10
    assert rec.step_reports[-1].c_coord_used[0] == rec.step_reports[-1].gamma_coord[0] == 0.0


def test_ngn_d_takes_no_step_where_c_j_underflowed_and_g_j_squared_over_f_overflows():
    # at k = 3, c_j = 5e-324 / 2 rounds to 0; g_j^2 / f is inf, and 0 * inf is NaN
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=np.array([5e-324, 1.0]),
                         schedule="inv_sqrt_step")
    state = init_state(np.zeros(2))
    state.k = 3
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the run loop
        new, rep = step(state, make_sample(5e-324, [1.0, 0.0]), spec)
    assert rep.c_coord_used.tolist() == [0.0, 0.5] and rep.gamma_coord.tolist() == [0.0, 0.5]
    assert new.x.tolist() == [0.0, 0.0]


def test_ngn_d_c_coord_shape_mismatch():
    spec = OptimizerSpec(kind="ngn_d", c=1.0, c_coord=np.array([1.0, 2.0, 3.0]))
    state = init_state(np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        apply_step(state, make_sample(1.0, [1.0, 1.0]), spec)


def test_ngn_md_v1_step_oracle():
    # identity preconditioner: reduces to the scalar heavy-ball rule
    spec = OptimizerSpec(kind="ngn_md_v1", c=1.0, beta1=0.0, precond_identity=True)
    state = init_state(np.array([1.0, 0.0]))
    sample = make_sample(2.0, [2.0, 0.0])
    new, rep = step(state, sample, spec)
    assert rep.gamma_scalar == pytest.approx(0.5)
    assert np.allclose(new.x, [0.0, 0.0])


def test_ngn_md_v1_with_real_preconditioner():
    spec = OptimizerSpec(kind="ngn_md_v1", c=1.0, beta1=0.0, beta2=0.9, eps=1e-8)
    state = init_state(np.array([0.0]))
    g = 2.0
    sample = make_sample(2.0, [g])
    new, rep = step(state, sample, spec)
    d = 1e-8 + abs(g)  # bias-corrected at k=0
    wsq = g * g / d
    gamma = 2.0 * 1.0 * 2.0 / (2.0 * 2.0 + 1.0 * wsq)
    assert rep.gamma_scalar == pytest.approx(gamma, rel=1e-12)
    assert new.x[0] == pytest.approx(-gamma * g / d, rel=1e-12)


def test_ngn_md_v2_step_oracle():
    spec = OptimizerSpec(kind="ngn_md_v2", c=1.0, beta1=0.0, precond_identity=True)
    state = init_state(np.zeros(2))
    sample = make_sample(2.0, [2.0, 0.0])
    new, rep = step(state, sample, spec)
    assert np.allclose(rep.gamma_coord, [0.5, 1.0])
    assert np.allclose(new.x, [-1.0, 0.0])


def test_ngn_md_v2_takes_the_limit_in_c_where_c_over_d_overflows():
    # beta2 = 0 makes D_j = eps + |g_j|: c / D_j overflows on the first two
    # coordinates, and the third keeps ngn_gamma's bits
    spec = OptimizerSpec(kind="ngn_md_v2", c=1e308, beta2=0.0)
    with np.errstate(over="ignore"):
        new, rep = step(init_state(np.zeros(3)), make_sample(0.5, [0.5, 0.0, 1.5]), spec)
    c3 = 1e308 / (1e-8 + 1.5)
    assert rep.c_coord_used.tolist() == [math.inf, math.inf, c3]
    gamma3 = ngn_gamma(np.array([c3]), 0.5, np.array([2.25]))[0]
    # gamma_j -> 2 f / g_j^2 and the step -> 2 f / g_j; c_j, and no step, where g_j = 0
    assert rep.gamma_coord.tolist() == [4.0, math.inf, gamma3]
    assert new.x.tolist() == [-2.0, 0.0, -(gamma3 * 1.5)]


def test_ngn_md_v2_takes_the_limit_in_c_where_c_over_d_underflows():
    spec = OptimizerSpec(kind="ngn_md_v2", c=1e-300, beta2=0.0)
    new, rep = step(init_state(np.zeros(2)), make_sample(1.0, [1e30, 2.0]), spec)
    c2 = 1e-300 / (1e-8 + 2.0)
    assert rep.c_coord_used.tolist() == [0.0, c2]
    gamma2 = ngn_gamma(np.array([c2]), 1.0, np.array([4.0]))[0]
    assert rep.gamma_coord.tolist() == [0.0, gamma2]
    assert new.x.tolist() == [0.0, -(gamma2 * 2.0)]


def test_ngn_md_v2_still_rejects_a_bad_loss():
    spec = OptimizerSpec(kind="ngn_md_v2", c=1e308, beta2=0.0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="requires c > 0, loss >= 0"):
        step(init_state(np.zeros(2)), make_sample(-1.0, [0.5, 1.0]), spec)


def test_dec_ngn_mdv1_shrinks_weights():
    lam = 0.1
    spec = OptimizerSpec(kind="dec_ngn_mdv1", c=1.0, beta1=0.0, wd_lambda=lam,
                         precond_identity=True)
    state = init_state(np.array([2.0]))
    sample = make_sample(0.0, [0.0])  # zero gradient: pure decay step
    new, _ = step(state, sample, spec)
    # x' = x - lam*c*x - 0 = 0.9 * 2
    assert new.x[0] == pytest.approx(1.8)


def test_ngn_mdv1w_zero_lambda_equals_plain():
    spec_w = OptimizerSpec(kind="ngn_mdv1w", c=1.0, beta1=0.3, wd_lambda=0.0)
    spec_p = OptimizerSpec(kind="ngn_md_v1", c=1.0, beta1=0.3)
    state = init_state(np.array([1.0, -2.0]))
    sample = make_sample(2.0, [2.0, 1.0])
    new_w, _ = step(state, sample, spec_w)
    new_p, _ = step(state, sample, spec_p)
    assert np.array_equal(new_w.x, new_p.x)


@pytest.mark.parametrize("loss, x, g, want", [
    (1e308, [1.0, -2.0], [3.0, 1.0], 1.0),    # 2 f overflows: gamma -> c_eff = c / (1 + lam c)
    (1.7e308, [1.0, -2.0], [3.0, 1.0], 1.0),
    (5e-324, [-1.0], [1.0], 1.0),             # g.x / f overflows: gamma -> c_eff (-g.x) / ||g||^2
    (1e-300, [-1e9], [1.0], 1e9),
])
def test_ngn_mdv1w_takes_its_limit_where_2_loss_or_g_x_over_loss_overflows(loss, x, g, want):
    # gamma = c_eff [2 f - c lam g.x]_+ / (2 f + c_eff ||g||^2), with c_eff = 1
    spec = OptimizerSpec(kind="ngn_mdv1w", c=2.0, wd_lambda=0.5, precond_identity=True)
    new, rep = step(init_state(np.array(x)), make_sample(loss, g), spec)
    assert rep.gamma_scalar == want
    assert new.x.tolist() == (np.array(x) / 2.0 - want * np.array(g)).tolist()  # x / 2 - gamma g


def test_ngn_mdv1w_negative_bracket_zeroes_gradient_term():
    # 2f - c lam g.x = 25 - 2*1*25 < 0 at x=5, f=12.5, g=5
    lam, c, beta = 1.0, 2.0, 0.25
    spec = OptimizerSpec(kind="ngn_mdv1w", c=c, beta1=beta, wd_lambda=lam,
                         precond_identity=True)
    x = np.array([5.0])
    state = init_state(x)
    sample = make_sample(12.5, [5.0])
    new, rep = step(state, sample, spec)
    # gamma = 0: the update is the pure shrink x/(1 + lam c)
    assert rep.gamma_scalar == 0.0
    assert new.x[0] == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_ngn_mdv1w_division_safe_at_origin():
    spec = OptimizerSpec(kind="ngn_mdv1w", c=2.0, beta1=0.0, wd_lambda=0.5,
                         precond_identity=True)
    state = init_state(np.array([0.0]))
    sample = make_sample(0.0, [0.0])
    new, rep = step(state, sample, spec)
    assert rep.gamma_scalar == pytest.approx(2.0 / (1.0 + 0.5 * 2.0))
    assert new.x[0] == 0.0


def test_sgdm_is_undampened_heavy_ball():
    spec = OptimizerSpec(kind="sgdm", c=0.1, beta1=0.9)
    state = ngnopt.OptimizerState(np.array([1.0]), np.array([0.5]),
                                  np.zeros(1), np.zeros(1), 3)
    sample = make_sample(1.0, [2.0])
    new, rep = step(state, sample, spec)
    # x' = 1 - 0.1*2 + 0.9*(1 - 0.5) = 1.25
    assert new.x[0] == pytest.approx(1.25)
    assert rep.gamma_scalar == pytest.approx(0.1)


def test_sgdm_equals_buffer_form():
    # x' = x - c m' with m' = beta m + g matches the two-point recursion
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=0))
    c, beta = 1e-3, 0.9
    spec = OptimizerSpec(kind="sgdm", c=c, beta1=beta)
    state = init_state(p.x0_default)
    x = p.x0_default.copy()
    m = np.zeros_like(x)
    batch = p.full_batch()
    for _ in range(25):
        s = evaluate(p, state.x, batch)
        apply_step(state, s, spec)
        s2 = evaluate(p, x, batch)
        m = beta * m + s2.grad
        x = x - c * m
        assert np.allclose(state.x, x, rtol=1e-12, atol=1e-14)


def test_adam_matches_reference_implementation():
    p = build_problem(ProblemSpec(kind="least_squares", dim=3, n_samples=6, seed=2))
    c, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    spec = OptimizerSpec(kind="adam", c=c, beta1=b1, beta2=b2, eps=eps)
    state = init_state(p.x0_default)
    x = p.x0_default.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    batch = p.full_batch()
    for k in range(30):
        s = evaluate(p, state.x, batch)
        apply_step(state, s, spec)
        s2 = evaluate(p, x, batch)
        m = b1 * m + (1 - b1) * s2.grad
        v = b2 * v + (1 - b2) * s2.grad ** 2
        mhat = m / (1 - b1 ** (k + 1))
        vhat = v / (1 - b2 ** (k + 1))
        x = x - c * mhat / (np.sqrt(vhat) + eps)
        assert np.allclose(state.x, x, rtol=1e-12, atol=1e-15)


# --- step-size schedule threading ----------------------------------------------

def test_inv_sqrt_step_schedule_threads_through_steps():
    p = build_problem(ProblemSpec(kind="least_squares", dim=2, n_samples=4, seed=0))
    spec = OptimizerSpec(kind="ngn", c=1.0, schedule="inv_sqrt_step")
    state = init_state(np.array([5.0, -3.0]))
    batch = p.full_batch()
    for k in range(5):
        s = evaluate(p, state.x, batch)
        c_k = 1.0 / math.sqrt(k + 1)
        expected = ngn_gamma(c_k, s.loss, float(np.sum(s.grad * s.grad)))
        gamma = apply_step(state, s, spec)[0]
        assert gamma == pytest.approx(expected, rel=1e-15)


def assert_same_step(got, want) -> None:
    """Two (state, report) results of step hold the same bits."""
    for obj, ref in zip(got, want):
        for f in dataclasses.fields(obj):
            a, b = getattr(obj, f.name), getattr(ref, f.name)
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
            elif isinstance(a, float):
                assert same_bits(a, b), f.name
            else:
                assert a == b, f.name


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_a_schedule_reaches_each_rule_only_through_c_k(kind, schedule):
    # apply_step at step k has the bits of the same rule under the constant
    # schedule with c = c_k; NGN-D's per-coordinate c_j scale by c_k / c
    c, horizon = 0.7, 40
    for dim in (1, 5, optimizers._FLOAT_MAX + 1):
        p = build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=4 * dim, seed=dim))
        base = OptimizerSpec(kind=kind, c=c, beta1=0.6, wd_lambda=0.05 if kind in WD_KINDS else 0.0,
                             schedule=schedule, total_steps=horizon)
        specs = [base]
        if kind == "ngn_d":
            specs.append(dataclasses.replace(base, c_coord=np.linspace(0.2, 0.9, dim)))
        for spec in specs:
            state = init_state(p.x0_default + 1.0)
            for k in range(12):
                sample = evaluate(p, state.x, sample_batch(p, 1, k, dim))
                c_k = schedule_c(schedule, c, k, horizon)
                c_coord = None if spec.c_coord is None else spec.c_coord * (c_k / c)
                constant = dataclasses.replace(spec, c=c_k, schedule="constant", c_coord=c_coord)
                got = step(state, sample, spec)
                assert_same_step(got, step(state, sample, constant))
                state = got[0]


# --- gamma stays within [c/(1+cL), c] on smooth runs -----------------------------

@pytest.mark.parametrize("kind", ["ngn", "ngn_m_v1"])
def test_scalar_gamma_bounds_on_quadratic(kind):
    p = build_problem(ProblemSpec(kind="least_squares", dim=10, n_samples=20, seed=4))
    L = p.metadata.L
    c = 0.5
    spec = OptimizerSpec(kind=kind, c=c, beta1=0.7 if kind == "ngn_m_v1" else 0.0)
    state = init_state(p.x0_default + 1.0)
    batch = p.full_batch()
    lo = c / (1.0 + c * L)
    for _ in range(200):
        s = evaluate(p, state.x, batch)
        gamma = apply_step(state, s, spec)[0]
        assert lo - 1e-12 * c <= gamma <= c + 1e-12 * c


# --- report statistics against the eager formulas -------------------------------

def spec_for(kind):
    wd = 0.05 if kind in WD_KINDS else 0.0
    return OptimizerSpec(kind=kind, c=0.5, beta1=0.6, wd_lambda=wd)


# both sides of the float-side threshold
DIMS = [1, 5, optimizers._FLOAT_MAX + 1]


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_lazy_report_matches_eager_reference(kind, dim):
    # a report is plain data; the trajectory writer derives its statistics
    # from it and the two iterates, only when it writes them
    p = build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=4 * dim + 2, seed=dim))
    spec = spec_for(kind)
    state = init_state(p.x0_default + 1.0)
    for k in range(25):
        sample = evaluate(p, state.x, sample_batch(p, 3, k, 2 * dim))
        new, rep = step(state, sample, spec)
        assert rep.grad is (sample.grad if kind in ("ngn_d", "ngn_md_v2") else None)
        want = reference_stats(rep, new.x, state.x)
        for name, got, value in zip(REPORT_STATS, _step_stats(rep, state.x, new.x), want):
            assert isinstance(got, float), name
            assert same_bits(got, value), (k, name, got, value)
        state = new


@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_cli_trajectory_matches_eager_reference(kind, tmp_path):
    for dim in DIMS:
        path = tmp_path / f"traj_{dim}.csv"
        argv = ["run", "--problem", "least_squares", "--optimizer", kind, "--c", "0.5",
                "--beta", "0.6", "--dim", str(dim), "--n-samples", str(4 * dim), "--batch-size",
                str(dim), "--steps", "40", "--seed", "2", "--out", str(path)]
        if kind in WD_KINDS:
            argv += ["--wd", "0.05"]
        assert cli(argv) == 0
        problem = build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=4 * dim))
        rec = run_once(problem, spec_for(kind), RunBudget(40, batch_size=dim), seed=2)
        full = dict(rec.full_losses)
        lines = [",".join(TRAJECTORY_COLUMNS)]
        for k, loss in enumerate(rec.losses):
            cells = [str(k), _fmt(loss), _fmt(full.get(k)), _fmt(rec.grad_norms[k])]
            if k < len(rec.step_reports):
                stats = reference_stats(rec.step_reports[k], rec.iterates[k + 1], rec.iterates[k])
                cells += [_fmt(v) for v in stats]
            else:
                cells += [""] * len(REPORT_STATS)
            lines.append(",".join(cells))
        assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n", dim


# --- step objects are plain data, and rules never touch their inputs ----------

@pytest.mark.parametrize("cls, args, scalar", [
    (OptimizerState, (np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2), 3), "k"),
    (StepReport, (0.5, np.ones(2), np.ones(2), np.ones(2)), "gamma_scalar"),
])
def test_step_objects_are_slotted_plain_data(cls, args, scalar):
    obj = cls(*args)
    assert not hasattr(obj, "__dict__")
    assert not cls.__dataclass_params__.frozen
    names = [f.name for f in dataclasses.fields(cls) if f.init]
    assert all(getattr(obj, name) is arg for name, arg in zip(names, args))
    copy = dataclasses.replace(obj, **{scalar: 7})
    assert getattr(copy, scalar) == 7 and getattr(obj, scalar) == args[names.index(scalar)]
    restored = pickle.loads(pickle.dumps(obj))
    for f in dataclasses.fields(cls):
        assert np.array_equal(getattr(restored, f.name), getattr(obj, f.name))


def test_step_sample_is_a_named_triple():
    # a rule unpacks its sample, so a StepSample and the run loop's plain
    # (loss, grad, grad_sq) tuple step alike
    args = (2.0, np.array([3.0, 4.0]), 25.0)
    sample = StepSample(*args)
    assert isinstance(sample, tuple) and not hasattr(sample, "__dict__")
    assert all(a is b for a, b in zip(sample, args))
    assert (sample.loss, sample.grad, sample.grad_sq) == tuple(sample)
    restored = pickle.loads(pickle.dumps(sample))
    assert type(restored) is StepSample and restored.grad.tobytes() == sample.grad.tobytes()
    spec = OptimizerSpec(kind="ngn", c=1.0)
    named, plain = init_state(np.ones(2)), init_state(np.ones(2))
    assert apply_step(named, sample, spec) == apply_step(plain, args, spec)
    assert named.x.tobytes() == plain.x.tobytes()


def rule_specs(kind, dim):
    """The spec variants of a kind that take different branches."""
    base = spec_for(kind)
    specs = [base, dataclasses.replace(base, schedule="inv_sqrt_step")]
    if kind == "ngn_d":
        specs.append(dataclasses.replace(base, c_coord=np.linspace(0.2, 0.7, dim)))
    if kind.startswith("ngn_md") or kind in WD_KINDS:
        specs.append(dataclasses.replace(base, precond_identity=True))
    if kind in WD_KINDS:
        specs.append(dataclasses.replace(base, wd_lambda=0.0))
    return specs


def held(obj) -> dict:
    """Each field of a dataclass or named tuple: the object it holds and,
    for an array, its bytes."""
    names = obj._fields if isinstance(obj, tuple) else [f.name for f in dataclasses.fields(obj)]
    out = {}
    for name in names:
        value = getattr(obj, name)
        out[name] = (value, value.tobytes() if isinstance(value, np.ndarray) else None)
    return out


def assert_untouched(obj, before: dict) -> None:
    for name, (value, data) in before.items():
        assert getattr(obj, name) is value, name
        if data is not None:
            assert value.tobytes() == data, name


@pytest.mark.parametrize("minibatch", [False, True], ids=["full", "minibatch"])
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
def test_step_rules_never_mutate_their_inputs(kind, dim, minibatch):
    # a run record keeps every iterate by reference, so a rule that wrote
    # into an input array would rewrite the history behind it; apply_step
    # advances the state by rebinding its fields, never by writing into one
    p = build_problem(ProblemSpec(kind="least_squares", dim=dim, n_samples=4 * dim + 2, seed=dim))
    for spec in rule_specs(kind, dim):
        spec_before = held(spec)
        state = init_state(p.x0_default + 1.0)
        seen = [(state.x, state.x.tobytes())]
        for k in range(20):
            batch = sample_batch(p, 3, k, 2 * dim) if minibatch else p.full_batch()
            sample = evaluate(p, state.x, batch)
            state_before, sample_before = held(state), held(sample)
            before = [value for value, data in state_before.values() if data is not None]
            batch_indices = batch.indices.tobytes()
            apply_step(state, sample, spec)
            for value, data in state_before.values():
                assert data is None or value.tobytes() == data
            assert_untouched(sample, sample_before)
            assert state.x_prev is state_before["x"][0] and state.k == k + 1
            # a fresh iterate, on either side of the float-side threshold
            assert state.x.dtype == np.float64 and state.x.shape == (dim,)
            assert state.x.flags.c_contiguous and state.x.flags.owndata
            inputs = (*before, sample.grad, batch.indices)
            assert not any(np.shares_memory(state.x, a) for a in inputs)
            assert batch.indices.tobytes() == batch_indices
            seen.append((state.x, state.x.tobytes()))
        assert_untouched(spec, spec_before)
        assert all(x.tobytes() == data for x, data in seen), spec


# --- small iterates step on Python floats, with the array side's bits ---------

# every sign of zero and infinity, NaN, subnormals, and magnitudes near both
# ends of the double range; values of one magnitude, whose sums round, too
COORDINATE_EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e-300,
                    -1e-300, 1.0, -3.0, 1e300, -1e300, 1.7976931348623157e308, math.inf,
                    -math.inf, math.nan)
coordinates = st.one_of(st.sampled_from(COORDINATE_EDGES), st.floats(-4.0, 4.0),
                        st.floats(allow_subnormal=True))
step_size = st.one_of(positive, st.floats(1e-3, 10.0))
momentum = st.one_of(st.sampled_from((0.0, 0.5, 0.9, 1.0 - 2.0 ** -53)),
                     st.floats(0.0, 1.0, exclude_max=True))


def step_on(side, state, sample, spec):
    """step with the size threshold moved so that the update runs on
    `side`: "float" or "array"."""
    saved = optimizers._FLOAT_MAX
    optimizers._FLOAT_MAX = 2 ** 62 if side == "float" else -1
    try:
        with np.errstate(all="ignore"):
            return step(state, sample, spec)
    finally:
        optimizers._FLOAT_MAX = saved


def assert_sides_agree(kind, x, x_prev, g, c, beta, loss, grad_sq):
    state = OptimizerState(x, x_prev, np.zeros(x.size), np.zeros(x.size), 0)
    sample = StepSample(loss, g, grad_sq)
    spec = OptimizerSpec(kind=kind, c=c, beta1=beta)
    on_floats, float_report = step_on("float", state, sample, spec)
    on_arrays, array_report = step_on("array", state, sample, spec)
    assert same_bits(float_report.gamma_scalar, array_report.gamma_scalar)
    assert on_floats.x.dtype == on_arrays.x.dtype and on_floats.x.shape == on_arrays.x.shape
    for i, (got, want) in enumerate(zip(on_floats.x.tolist(), on_arrays.x.tolist())):
        assert same_bits(got, want), (x[i], x_prev[i], g[i], got, want)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), kind=st.sampled_from(FLOAT_SIDE_KINDS), c=step_size, beta=momentum,
       loss=non_negative, grad_sq=non_negative)
def test_float_side_has_the_array_sides_bits(data, kind, c, beta, loss, grad_sq):
    # gamma is ngn_gamma(c, loss, grad_sq), anywhere in [0, c]; c itself
    # when grad_sq = 0. SGDM steps with c.
    d = data.draw(st.integers(1, optimizers._FLOAT_MAX + 3), label="d")
    x, x_prev, g = (np.array(data.draw(st.lists(coordinates, min_size=d, max_size=d), label=name))
                    for name in ("x", "x_prev", "g"))
    assert_sides_agree(kind, x, x_prev, g, c, beta, loss, grad_sq)


@pytest.mark.parametrize("kind", FLOAT_SIDE_KINDS)
def test_float_side_has_the_array_sides_bits_on_every_edge_triple(kind):
    # random draws rarely meet the signed-zero cases, which need exact
    # zeros of chosen signs in all three inputs at once
    edges = (0.0, -0.0, 5e-324, -1.0, 1e300, math.inf, -math.inf, math.nan)
    x, x_prev, g = (np.array(v) for v in zip(*itertools.product(edges, repeat=3)))
    # gamma = c (grad_sq = 0), 0 (loss = 0) and in between
    for c, beta, loss, grad_sq in itertools.product((0.5, 1e300), (0.0, 0.9), (0.0, 2.0), (0.0, 3.0)):
        assert_sides_agree(kind, x, x_prev, g, c, beta, loss, grad_sq)
        for i in range(x.size):  # each triple alone, as a one-coordinate iterate
            assert_sides_agree(kind, x[i:i + 1], x_prev[i:i + 1], g[i:i + 1], c, beta, loss, grad_sq)


@pytest.mark.parametrize("kind", FLOAT_SIDE_KINDS)
@pytest.mark.parametrize("x, x_prev, g", [
    (np.array(1.5), np.array(0.5), np.array(2.0)),  # a 0-d iterate
    (np.ones((2, 2)), np.zeros((2, 2)), np.full((2, 2), 3.0)),
    (np.ones(3), np.zeros(3), np.array([2.0])),  # a broadcast gradient
    (np.ones(2), np.zeros(2), np.ones(3)),  # mismatched, as on arrays
], ids=["0-d", "2-d", "broadcast", "mismatched"])
def test_small_iterates_of_other_shapes_step_on_arrays(kind, x, x_prev, g):
    state = OptimizerState(x, x_prev, np.zeros_like(x), np.zeros_like(x), 0)
    sample = StepSample(1.0, g, float((g * g).sum()))
    spec = OptimizerSpec(kind=kind, c=0.5, beta1=0.9)
    want = outcome(step_on, "array", state, sample, spec)
    got = outcome(step, state, sample, spec)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1][0].x.shape == want[1][0].x.shape
        assert got[1][0].x.tobytes() == want[1][0].x.tobytes()
    else:
        assert got[1] == want[1]
