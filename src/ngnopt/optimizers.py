"""NGN step-size rules and update rules, plus SGDM and Adam baselines.

The scalar NGN step size is

    gamma = 2 c f_S(x) / (2 f_S(x) + c ||g||^2) = 4 / (4/c + 2 ||g||^2 / f_S(x)),

computed in the second, reciprocal form and capped at c (ngn_gamma; as
c (2 / (2 + c ||g||^2 / f_S)) where 4/c overflows): c when ||g||^2 = 0
(the 0/0 corner f_S = 0, g = 0 included), 0 when f_S = 0 < ||g||^2. Momentum uses the heavy-ball form x' = x - (1-beta) gamma g +
beta (x - x_prev), whose iterate-moving-average twin is exercised by the
verification layer. Diagonal variants rescale either the squared
gradient norm (V1) or the per-coordinate c (V2) by an RMSprop-style
preconditioner D = eps + sqrt(vhat).

apply_step(state, sample, spec) computes the schedule's c_k once, calls
the kind's rule as rule(state, sample, spec, c_k) -> (x_new, v, m,
sizes), advances state in place to (x_new, state.x, v, m, k + 1) and
returns sizes, the fields of a StepReport (the run loop builds one only
for a run that keeps history), so a rule sees the schedule only through
c_k. OPTIMIZER_KINDS lists the keys of that rule table, _STEP_FNS. The
NGN-MD kinds share one rule, the only one that reads spec.kind; every
other kind has its own. Adam shares the NGN-MD kinds' second moment and
D (precond_update). A rule unpacks its sample, a StepSample or any
(loss, grad, grad_sq) tuple. Rules are pure, and apply_step only
rebinds the fields of the slotted OptimizerState: nothing writes into
an array, so a run history can keep iterates and gradients by reference.

Reductions use ndarray methods such as `(g*g).sum()`. They run the same
ufunc reductions as `np.sum` (`add.reduce`), so they give the same bits
without the wrappers' dispatch. They never use BLAS dot, so that the
documented reduction identities (beta=0, D=I, lambda=0 collapses) hold
bit for bit.
The squared gradient norm of a sample is computed once, as its grad_sq,
and the rules that need ||g||^2 read it.

NGN-M V1 and SGDM write their update once, as a module function of the
step size, beta, x, x_prev and g. When x, x_prev and g are vectors of
one length of at most _FLOAT_MAX coordinates, it runs on Python floats
(one call for one coordinate, else mapped); else on the arrays, which
also serve other shapes and broadcasting. Both sides give the same bits:
these updates only add, subtract and multiply, each +, - and * is one
IEEE double operation on either side, in the same order, and neither
side fuses operations. Python float + - * never raises on overflow, inf
or NaN. The rules that divide (Adam, NGN-MD), take per-coordinate step
sizes (NGN-D) or reduce (NGN-M V2) stay on arrays: a Python float
division by zero raises, and a Python sum adds in another order. Plain
NGN stays on arrays too: its update is two ufunc calls, and mapped over
floats it was no faster at any d (the update alone: 1.3-2.1 against
1.3-1.8 us at d=1-4). _FLOAT_MAX is a measured crossover: the largest d
at which neither rule's float side of `apply_step` is slower. Median
ratio of float-side to array-side time, over 60 adjacent pairs of
2000-call timeit runs (Python 3.11, NumPy 2.4, 2-vCPU VM): ngn_m_v1 0.43
at d=1 (0.57 mapped), 0.86 at d=7, 0.98 at d=10 and 1.03 at d=11; sgdm,
one ufunc call cheaper on arrays, 0.43 at d=1 (0.63 mapped), 0.97 at d=7
and 1.01-1.03 at d=8. _float_or_array picks the side for both rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .problems import StepSample, _check_whole

NGN = "ngn"
NGN_M_V1 = "ngn_m_v1"
NGN_M_V2 = "ngn_m_v2"
NGN_D = "ngn_d"
NGN_MD_V1 = "ngn_md_v1"
NGN_MD_V2 = "ngn_md_v2"
DEC_NGN_MDV1 = "dec_ngn_mdv1"
NGN_MDV1W = "ngn_mdv1w"
SGDM = "sgdm"
ADAM = "adam"

SCHEDULE_CONSTANT = "constant"
SCHEDULE_INV_SQRT_K = "inv_sqrt_k"
SCHEDULE_INV_SQRT_STEP = "inv_sqrt_step"

SCHEDULES = (SCHEDULE_CONSTANT, SCHEDULE_INV_SQRT_K, SCHEDULE_INV_SQRT_STEP)

# Largest iterate size whose NGN-M V1 and SGDM updates run on Python
# floats: a measured crossover, see the module docstring.
_FLOAT_MAX = 7


@dataclass(frozen=True, eq=False)
class OptimizerSpec:
    """Hyperparameters for one optimizer instance.

    beta1 is the momentum weight (beta in the heavy-ball updates), beta2
    the second-moment decay, wd_lambda the weight-decay strength for the
    decoupled/coupled variants (WD_KINDS). c_coord supplies per-coordinate
    c_j for NGN-D; precond_identity forces D = I in the diagonal variants
    (used by the reduction audits). total_steps is the horizon K required by
    the inv_sqrt_k schedule, an integer >= 1 when set.
    """

    kind: str
    c: float
    beta1: float = 0.0
    beta2: float = 0.999
    eps: float = 1e-8
    wd_lambda: float = 0.0
    schedule: str = SCHEDULE_CONSTANT
    total_steps: Optional[int] = None
    c_coord: Optional[np.ndarray] = None
    precond_identity: bool = False

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}; expected one of {OPTIMIZER_KINDS}")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("c must be positive and finite")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must lie in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must lie in [0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError("eps must be positive and finite")
        if not (math.isfinite(self.wd_lambda) and self.wd_lambda >= 0.0):
            raise ValueError("wd_lambda must be finite and >= 0")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}")
        if self.schedule == SCHEDULE_INV_SQRT_K and self.total_steps is None:
            raise ValueError("inv_sqrt_k schedule requires total_steps")
        if self.total_steps is not None:
            _check_whole("total_steps", self.total_steps, 1)
        if self.c_coord is not None:
            cc = np.asarray(self.c_coord, dtype=float)
            if cc.ndim != 1 or not np.all(np.isfinite(cc)) or not np.all(cc > 0.0):
                raise ValueError("c_coord must be a 1-D vector of positive finite values")
            object.__setattr__(self, "c_coord", cc)


@dataclass(eq=False, slots=True)
class OptimizerState:
    """Iterate, previous iterate, second-moment buffer, momentum buffer,
    and the 0-based step counter k: the apply_step calls it has taken."""

    x: np.ndarray
    x_prev: np.ndarray
    v: np.ndarray
    m: np.ndarray
    k: int


@dataclass(eq=False, slots=True)
class StepReport:
    """Per-step diagnostics of one update: the sizes apply_step returns.

    gamma_scalar is the scalar step size (NaN for purely per-coordinate
    rules); gamma_coord, the per-coordinate effective step sizes, and
    c_coord_used, the per-coordinate caps, are set by the rules that have
    them. The two per-coordinate NGN rules (NGN-D and NGN-MD V2), the only
    ones that set c_coord_used, also keep a reference to their batch
    gradient in grad, for the fundamental-equality audit.
    """

    gamma_scalar: float
    gamma_coord: Optional[np.ndarray] = None
    c_coord_used: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None


def init_state(x0: np.ndarray) -> OptimizerState:
    x0 = np.asarray(x0, dtype=float)
    return OptimizerState(x0.copy(), x0.copy(), np.zeros_like(x0), np.zeros_like(x0), 0)


def ngn_gamma(c, loss, grad_sq):
    """gamma = 2 c loss / (2 loss + c grad_sq); c when grad_sq = 0.

    Accepts scalars or arrays (per-coordinate c_j and g_j^2 broadcast
    against a scalar loss). Always lies in [0, c], is non-increasing in
    grad_sq, and non-decreasing in loss. Every input is validated; Python
    floats, the inputs of every scalar rule, skip np.ndim. Both paths take
    4 / (4/c + 2 grad_sq / loss), capped at c, where 4/c is a normal double
    (c > 2^-1022), c (2 / (2 + c grad_sq / loss)) at a smaller c, and 0
    where loss = 0 < grad_sq, so a scalar has the bits of a one-element
    array. Where 4/c + 2 grad_sq / loss overflows, gamma is at most about
    2^-1022, and both take the halved form 2 / (2/c + grad_sq / loss).
    IEEE arithmetic takes every other limit: gamma is within 4 ulps of its
    exact value where that is a normal double, and within a subnormal of
    it elsewhere."""
    if ((type(c) is float or np.ndim(c) == 0)
            and (type(grad_sq) is float or np.ndim(grad_sq) == 0)):
        c, loss, gs = float(c), float(loss), float(grad_sq)
        if not (math.isfinite(c) and math.isfinite(loss) and math.isfinite(gs)):
            raise ValueError("non-finite inputs to ngn_gamma")
        if c <= 0.0 or loss < 0.0 or gs < 0.0:
            raise ValueError("ngn_gamma requires c > 0, loss >= 0, grad_sq >= 0")
        if gs == 0.0:
            return c
        if loss == 0.0:
            return 0.0
        if c <= 2.2250738585072014e-308:  # 4/c overflows
            return c * (2.0 / (2.0 + c * (gs / loss)))
        gamma = 4.0 / (4.0 / c + gs / loss * 2.0)
        if gamma == 0.0:  # the denominator overflowed
            gamma = 2.0 / (4.0 / c * 0.5 + gs / loss)
        return c if gamma > c else gamma
    c = np.asarray(c, dtype=float)
    c_lo, c_hi = c.min(initial=1.0), float(c.max(initial=1.0))  # see every NaN and +-inf
    if not (math.isfinite(c_lo) and math.isfinite(c_hi)):
        raise ValueError("non-finite inputs to ngn_gamma")
    with np.errstate(all="ignore"):  # 4/c overflows where c <= 2^-1022; c <= 0 is rejected below,
        gamma = _ngn_gamma_array(4.0 / c, c, loss, grad_sq)  # after a non-finite loss or grad_sq
    if c_lo <= 0.0:
        raise ValueError("ngn_gamma requires c > 0, loss >= 0, grad_sq >= 0")
    return gamma


def _ngn_gamma_array(four_over_c, c, loss, grad_sq):
    """ngn_gamma's forms on arrays, given 4/c; checks loss and grad_sq only.
    A c_j of 0 (a per-coordinate rule's c_j that underflowed) gives 0
    where g_j^2 > 0."""
    gs = np.asarray(grad_sq, dtype=float)
    loss = float(loss)
    gs_lo, gs_hi = gs.min(initial=1.0), float(gs.max(initial=1.0))
    if not (math.isfinite(loss) and math.isfinite(gs_lo) and math.isfinite(gs_hi)):
        raise ValueError("non-finite inputs to ngn_gamma")
    if loss < 0.0 or gs_lo < 0.0:
        raise ValueError("ngn_gamma requires c > 0, loss >= 0, grad_sq >= 0")
    if loss == 0.0:
        return np.where(gs == 0.0, c, 0.0)
    r = gs / loss
    gamma = np.minimum(c, 4.0 / (four_over_c + r * 2.0))
    if gamma.min(initial=1.0) == 0.0:  # some denominator overflowed, 4/c_j's included
        gamma = np.where(gamma == 0.0, np.minimum(c, 2.0 / (four_over_c * 0.5 + r)), gamma)
        # fmin: 0 where c_j = 0 and r_j = inf, where the product is NaN
        gamma = np.where(four_over_c == math.inf, np.fmin(c, c * (2.0 / (2.0 + c * r))), gamma)
    return gamma if gs_lo > 0.0 else np.where(gs == 0.0, c, gamma)


def precond_update(v: np.ndarray, grad: np.ndarray, beta2: float, k: int, eps: float):
    """RMSprop-style second-moment update with bias correction.

    v' = beta2 v + (1 - beta2) g*g, D = eps + sqrt(v' / (1 - beta2^(k+1)))
    with k the 0-based step index, so the corrector is well defined from
    the first step on.
    """
    v_new = beta2 * v + (1.0 - beta2) * grad * grad
    bias = 1.0 - beta2 ** (k + 1)
    d = eps + np.sqrt(v_new / bias)
    return v_new, d


def schedule_c(schedule: str, c0: float, k: int, total_steps: Optional[int] = None) -> float:
    """Step-size hyperparameter at step k: c0, c0/sqrt(K), or c0/sqrt(k+1);
    a decaying c_k that underflows to 0 is 5e-324, so that c_k > 0."""
    if schedule == SCHEDULE_CONSTANT:
        return c0
    if schedule == SCHEDULE_INV_SQRT_K:
        if total_steps is None or total_steps < 1:
            raise ValueError("inv_sqrt_k schedule requires a positive total_steps")
        return c0 / math.sqrt(total_steps) or 5e-324
    if schedule == SCHEDULE_INV_SQRT_STEP:
        return c0 / math.sqrt(k + 1) or 5e-324
    raise ValueError(f"unknown schedule {schedule!r}")


def _ngn_m_v1_update(gamma, beta, x, x_prev, g):
    return x - (1.0 - beta) * (gamma * g) + beta * (x - x_prev)


def _sgdm_update(c, beta, x, x_prev, g):
    return x - c * g + beta * (x - x_prev)


def _float_or_array(update, step, beta, x, x_prev, g):
    """update(step, beta, x, x_prev, g) over Python floats for vectors of
    one length of at most _FLOAT_MAX coordinates, else on the arrays."""
    if x.size <= _FLOAT_MAX and x.ndim == 1 and x.shape == x_prev.shape == g.shape:
        if x.size == 1:
            return np.array([update(step, beta, x.item(), x_prev.item(), g.item())])
        update = partial(update, step, beta)
        return np.fromiter(map(update, x.tolist(), x_prev.tolist(), g.tolist()), float, x.size)
    return update(step, beta, x, x_prev, g)


def step_ngn(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """x' = x - gamma g with the scalar NGN step size."""
    loss, g, grad_sq = sample
    gamma = ngn_gamma(c_k, loss, grad_sq)
    return state.x - gamma * g, state.v, state.m, (gamma, None, None, None)


def step_ngn_m_v1(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """NGN-M V1 (heavy ball): gamma from the raw gradient,
    x' = x - (1-beta) gamma g + beta (x - x_prev)."""
    loss, g, grad_sq = sample
    gamma = ngn_gamma(c_k, loss, grad_sq)
    x_new = _float_or_array(_ngn_m_v1_update, gamma, spec.beta1, state.x, state.x_prev, g)
    return x_new, state.v, state.m, (gamma, None, None, None)


def step_ngn_m_v2(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """NGN-M V2 (averaged direction): m' = beta m + (1-beta) g, gamma from
    m', x' = x - gamma m'. The buffer is used without bias correction."""
    loss, g, _ = sample
    beta = spec.beta1
    m_new = beta * state.m + (1.0 - beta) * g
    gamma = ngn_gamma(c_k, loss, float((m_new * m_new).sum()))
    return state.x - gamma * m_new, state.v, m_new, (gamma, None, None, None)


def step_ngn_d(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """Per-coordinate NGN: gamma_j = ngn_gamma(c_j, f_S, g_j^2), x'_j = x_j - gamma_j g_j.

    c_j comes from spec.c_coord (rescaled by the schedule factor c_k/c) or
    from broadcasting the scalar c. The preconditioner-assisted mode
    c_j = c / D_j is NGN-MD V2 with beta1 = 0.
    """
    loss, g, _ = sample
    if spec.c_coord is not None:
        if spec.c_coord.shape != g.shape:
            raise ValueError(f"c_coord has shape {spec.c_coord.shape}, gradient has {g.shape}")
        c_vec = spec.c_coord * (c_k / spec.c)
    else:
        c_vec = np.full_like(g, c_k)
    gamma = _ngn_gamma_array(4.0 / c_vec, c_vec, loss, g * g)  # gamma_j = 0 where c_j underflowed
    sizes = (float("nan"), gamma, np.asarray(c_vec, dtype=float), g)
    return state.x - gamma * g, state.v, state.m, sizes


def step_ngn_md(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """Diagonally preconditioned NGN with heavy-ball momentum, and the
    weight-decay variants of its V1 rule (lambda = wd_lambda).

    After D = eps + sqrt(vhat) (or D = I when precond_identity):
    V1: gamma = ngn_gamma(c, f_S, ||g||^2_{D^-1}), Sigma^-1 g = gamma D^-1 g.
    V2: gamma_j = ngn_gamma(c / D_j, f_S, g_j^2),  Sigma^-1 g = gamma_j g_j.
    Then x' = base - (1-beta1) Sigma^-1 g + beta1 (x - x_prev), with base = x.
    V2 passes 4 D_j / c as 4 / c_j, so a c_j that rounds to inf (D_j < 1
    and c near the largest double) or to 0 needs no branch; gamma_j = c_j
    = inf where g_j = 0 takes no step.

    Decoupled: base = x - lambda c x, with gamma exactly as in V1.

    Coupled: gamma = (c/(1+lambda c)) [2 f_S - c lambda g.x]_+ /
                     (2 f_S + (c/(1+lambda c)) ||g||^2_{D^-1}),
             base = x/(1+lambda c),
    computed halved, as c_eff ([f_S - (c lambda/2) g.x]_+ / (f_S + (c_eff/2)
    ||g||^2_{D^-1})) with c_eff = c/(1+lambda c), so that neither 2 f_S nor
    a quotient by f_S overflows; c_eff where f_S = 0 and g = 0.
    Both weight-decay variants reduce bit-exactly to V1 at lambda = 0.
    With D = I they converge to x_lambda = argmin f + (lambda/2)||x||^2
    at beta1 = 0, and near x_{lambda/(1-beta1)} with momentum: the shrink
    is applied undamped, the gradient step damped by (1 - beta1).
    """
    (loss, g, _), x = sample, state.x
    v_new, d = precond_update(state.v, g, spec.beta2, state.k, spec.eps)
    if spec.precond_identity:
        d = np.ones_like(g)
    base = x
    if spec.kind == NGN_MD_V2:
        with np.errstate(over="ignore", invalid="ignore"):  # c_j or g_j^2 may round to inf
            c_vec = c_k / d
            gamma = _ngn_gamma_array(4.0 * d / c_k, c_vec, loss, g * g)
            sigma_inv_g = np.where(g == 0.0, g, gamma * g)  # no step where gamma_j = c_j = inf
        sizes = (float("nan"), gamma, c_vec, g)
    else:
        lam = spec.wd_lambda
        gdsq = float((g * g / d).sum())  # ||g||^2_{D^-1}
        if spec.kind == NGN_MDV1W and lam != 0.0:
            one_plus = 1.0 + lam * c_k
            c_eff = c_k / one_plus
            denom = loss + 0.5 * c_eff * gdsq
            gamma = (c_eff if denom == 0.0  # f = 0 and g = 0
                     else c_eff * (max(0.0, loss - 0.5 * c_k * lam * float((g * x).sum())) / denom))
            base = x / one_plus
        else:  # V1's step size, so that lambda = 0 collapses bit-exactly, cap clamp included
            gamma = ngn_gamma(c_k, loss, gdsq)
        if spec.kind == DEC_NGN_MDV1:
            base = x - (lam * c_k) * x
        sigma_inv_g = gamma * (g / d)
        sizes = (gamma, gamma / d, None, None)
    x_new = base - (1.0 - spec.beta1) * sigma_inv_g + spec.beta1 * (x - state.x_prev)
    return x_new, v_new, state.m, sizes


WD_KINDS = (DEC_NGN_MDV1, NGN_MDV1W)  # the kinds that read wd_lambda; every other kind ignores it


def step_sgdm(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """SGDM as undampened heavy ball, x' = x - c g + beta (x - x_prev)
    (the buffer form m' = beta m + g, x' = x - c m')."""
    x_new = _float_or_array(_sgdm_update, c_k, spec.beta1, state.x, state.x_prev, sample[1])
    return x_new, state.v, state.m, (c_k, None, None, None)


def step_adam(state: OptimizerState, sample: StepSample, spec: OptimizerSpec, c_k: float):
    """Bias-corrected Adam, whose second moment and denominator
    eps + sqrt(vhat) are the NGN-MD kinds' D (precond_update)."""
    g = sample[1]
    m_new = spec.beta1 * state.m + (1.0 - spec.beta1) * g
    v_new, denom = precond_update(state.v, g, spec.beta2, state.k, spec.eps)
    mhat = m_new / (1.0 - spec.beta1 ** (state.k + 1))
    return state.x - c_k * mhat / denom, v_new, m_new, (c_k, c_k / denom, None, None)


_STEP_FNS = {
    NGN: step_ngn,
    NGN_M_V1: step_ngn_m_v1,
    NGN_M_V2: step_ngn_m_v2,
    NGN_D: step_ngn_d,
    NGN_MD_V1: step_ngn_md,
    NGN_MD_V2: step_ngn_md,
    DEC_NGN_MDV1: step_ngn_md,
    NGN_MDV1W: step_ngn_md,
    SGDM: step_sgdm,
    ADAM: step_adam,
}

OPTIMIZER_KINDS = tuple(_STEP_FNS)


def apply_step(state: OptimizerState, sample: StepSample, spec: OptimizerSpec) -> tuple:
    """One update, in place: c_k of the schedule at step k, the kind's
    rule, and state's next fields; returns the rule's step sizes, the
    fields of a StepReport in order."""
    c_k = (spec.c if spec.schedule == SCHEDULE_CONSTANT
           else schedule_c(spec.schedule, spec.c, state.k, spec.total_steps))
    x_new, state.v, state.m, sizes = _STEP_FNS[spec.kind](state, sample, spec, c_k)
    state.x, state.x_prev, state.k = x_new, state.x, state.k + 1
    return sizes
