"""Convergence bounds and hyperparameter constraints as closed-form functions.

Implements the guarantees for the NGN family exactly as stated: the
heavy-ball parameter cap and rate constant for NGN-M, the constant-c and
decaying-c suboptimality bounds, and the per-coordinate nonconvex and PL
bounds for NGN-D. Every function takes plain numbers (vectors for the
per-coordinate constants) and raises ValueError, naming the argument,
when one is non-finite or out of range; the two NGN-M bounds also raise
it when the bound overflows a double. Also estimates the two noise
quantities the bounds consume, sigma_int^2 = E_S[f* - f_S*] and
sigma_pos^2 = E_S[f_S*].
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .problems import StochasticObjective, _check_whole, sample_batches


def _check(low: str, **values) -> None:
    """ValueError naming the first argument that is not finite and
    `low`: "positive" or "non-negative". A vector must be so in every
    entry; None is no number and fails."""
    for name, value in values.items():
        try:
            a = np.asarray(value, dtype=float)
        except OverflowError:  # an integer beyond the double range
            a = np.array(math.inf)
        if not (np.isfinite(a).all() and (a > 0.0 if low == "positive" else a >= 0.0).all()):
            raise ValueError(f"{name} must be finite and {low}, got {value!r}")


def _finite(bound: float, name: str, *args) -> float:
    """bound, or ValueError when it overflowed a double: an infinite or
    NaN bound bounds nothing."""
    if not math.isfinite(bound):
        raise ValueError(f"{name}{args!r} overflows a double")
    return bound


def ngn_m_params(c: float, L: float) -> tuple:
    """Rate constant and momentum cap for NGN-M under L-smoothness.

    rho = c / ((1+cL)(1+2cL)) is the usable fraction of the step size;
    the momentum parameter lambda must satisfy
    lambda <= min{cL, 0.5 (1+cL)^-1 (1+2cL)^-1}, and beta = lambda/(1+lambda).
    Returns (rho, lambda_max, beta_max).
    """
    _check("positive", c=c, L=L)
    cl = c * L
    denom = (1.0 + cl) * (1.0 + 2.0 * cl)
    rho = c / denom
    lambda_max = min(cl, 0.5 / denom)
    beta_max = lambda_max / (1.0 + lambda_max)
    return rho, lambda_max, beta_max


def ngn_m_bound(c: float, L: float, K: int, dist0_sq: float,
                sigma_int_sq: float = 0.0, sigma_pos_sq: float = 0.0) -> float:
    """Average-iterate suboptimality bound for constant-c NGN-M, with
    dist0_sq = ||x0 - x*||^2:

    ||x0-x*||^2 (1+2cL)^2 / (cK) + 8cL(1+2cL)^2 sigma_int^2
      + 2cL max{2cL - 1, 0} sigma_pos^2.
    """
    _check("positive", c=c, L=L, K=K)
    _check("non-negative", dist0_sq=dist0_sq, sigma_int_sq=sigma_int_sq, sigma_pos_sq=sigma_pos_sq)
    cl = c * L
    try:
        sq = (1.0 + 2.0 * cl) ** 2
    except OverflowError:  # float ** raises where * returns inf
        sq = math.inf
    bound = (dist0_sq * sq / (c * K)
             + 8.0 * cl * sq * sigma_int_sq
             + 2.0 * cl * max(2.0 * cl - 1.0, 0.0) * sigma_pos_sq)
    return _finite(bound, "ngn_m_bound", c, L, K, dist0_sq, sigma_int_sq, sigma_pos_sq)


def ngn_m_bound_decaying(c0: float, L: float, K: int, dist0_sq: float,
                         sigma_int_sq: float = 0.0, sigma_pos_sq: float = 0.0) -> float:
    """Weighted-average suboptimality bound for c_k = c0/sqrt(k+1):

    5(1+c0 L)(1+2c0 L)||x0-x*||^2 / (4 c0 sqrt(K))
      + 10 L c0 (1+c0 L)(1+2c0 L) sigma_int^2 log(K+2)/sqrt(K)
      + 5 c0 L (1+c0 L) (log(K+2)/(2 sqrt(K))) max{2c0 L - 1, 0} sigma_pos^2.

    The averaged iterate uses the weights from decaying_weights().
    """
    _check("positive", c0=c0, L=L, K=K)
    _check("non-negative", dist0_sq=dist0_sq, sigma_int_sq=sigma_int_sq, sigma_pos_sq=sigma_pos_sq)
    cl = c0 * L
    one = (1.0 + cl) * (1.0 + 2.0 * cl)
    sqrt_k = math.sqrt(K)
    log_k = math.log(K + 2.0)
    bound = (5.0 * one * dist0_sq / (4.0 * c0 * sqrt_k)
             + 10.0 * L * c0 * one * sigma_int_sq * log_k / sqrt_k
             + 5.0 * cl * (1.0 + cl) * (log_k / (2.0 * sqrt_k)) * max(2.0 * cl - 1.0, 0.0) * sigma_pos_sq)
    return _finite(bound, "ngn_m_bound_decaying", c0, L, K, dist0_sq, sigma_int_sq, sigma_pos_sq)


def decaying_weights(c0: float, L: float, K: int) -> np.ndarray:
    """Normalized averaging weights rho_k / sum rho_k for the decaying
    schedule, with rho_k = c_k / ((1+c_k L)(1+2 c_k L)), c_k = c0/sqrt(k+1)."""
    _check("positive", c0=c0, L=L, K=K)
    ks = np.arange(K, dtype=float)
    ck = c0 / np.sqrt(ks + 1.0)
    rho = ck / ((1.0 + ck * L) * (1.0 + 2.0 * ck * L))
    return rho / np.sum(rho)


MODE_NONCONVEX = "nonconvex"
MODE_PL = "pl"


def ngn_d_bound(c_coord, L_coord, K: int, f0_gap: float, mode: str,
                sigma_coord=None, mu=None) -> float:
    """Per-coordinate NGN-D bounds, with f0_gap = f(x0) - f* and the
    per-coordinate step caps c_j, smoothness constants L_j and noise
    levels sigma_j (zero when sigma_coord is None).

    Nonconvex (requires c_j <= 1/(2 L_j) for all j):
        12 f0_gap / (c_min K) + (1/c_min) sum_j 18 L_j c_j^2 sigma_j^2,
    bounding min_k E||grad f(x^k)||^2.

    PL with constant mu (requires c_j <= min{1/(2 L_j), 6/mu}):
        (1 - mu c_min / 6)^K f0_gap + (9/(mu c_min)) sum_j L_j c_j^2 sigma_j^2,
    bounding E[f(x^K)] - f*.
    """
    _check("positive", c_coord=c_coord, L_coord=L_coord, K=K)
    if mu is not None or mode == MODE_PL:
        _check("positive", mu=mu)
    c = np.asarray(c_coord, dtype=float)
    Lc = np.asarray(L_coord, dtype=float)
    sigma = np.zeros_like(c) if sigma_coord is None else np.asarray(sigma_coord, dtype=float)
    _check("non-negative", f0_gap=f0_gap, sigma_coord=sigma)
    if c.shape != Lc.shape or c.ndim != 1:
        raise ValueError("c_coord and L_coord must be 1-D vectors of equal length")
    if sigma.shape != c.shape:
        raise ValueError("sigma_coord must match c_coord in length")
    c_min = float(np.min(c))
    if mode == MODE_NONCONVEX:
        if np.any(c > 1.0 / (2.0 * Lc)):
            raise ValueError("nonconvex mode requires c_j <= 1/(2 L_j) for every coordinate")
        return (12.0 * f0_gap / (c_min * K)
                + (1.0 / c_min) * float(np.sum(18.0 * Lc * c * c * sigma * sigma)))
    if mode == MODE_PL:
        if np.any(c > np.minimum(1.0 / (2.0 * Lc), 6.0 / mu)):
            raise ValueError("PL mode requires c_j <= min{1/(2 L_j), 6/mu} for every coordinate")
        rate = 1.0 - mu * c_min / 6.0
        return (rate ** K * f0_gap
                + (9.0 / (mu * c_min)) * float(np.sum(Lc * c * c * sigma * sigma)))
    raise ValueError(f"unknown mode {mode!r}; expected 'nonconvex' or 'pl'")


_ENUMERATION_LIMIT = 10 ** 4


def estimate_sigmas(problem: StochasticObjective, batch_size: int,
                    n_mc: int = 10 ** 4, seed: int = 0) -> tuple:
    """Estimate (sigma_int_sq, sigma_pos_sq) for a uniform random batch.

    Enumerates all C(n, batch_size) batches when there are at most 10^4 of
    them, otherwise Monte-Carlo averages over the batches of steps
    0 .. n_mc - 1 for seed, drawn in one block. Requires
    f* metadata and a per-batch minimizer (least-squares problems); batch
    minima use minimum-norm solutions so rank-deficient batches are exact.
    """
    f_star = problem.metadata.f_star
    if f_star is None:
        raise ValueError("estimate_sigmas requires f_star metadata")
    n = problem.n_samples
    _check_whole("batch_size", batch_size, 1, n)
    _check_whole("n_mc", n_mc, 1)  # also where the batches are enumerated

    def batch_min(idx):
        if batch_size == n:
            return f_star
        if problem._batch_min is None:
            raise ValueError("per-batch minima unavailable for this problem")
        return problem._batch_min(idx)

    if math.comb(n, batch_size) <= _ENUMERATION_LIMIT:
        mins = [batch_min(np.asarray(comb, dtype=np.intp))
                for comb in itertools.combinations(range(n), batch_size)]
    else:
        mins = [batch_min(batch.indices)
                for batch in sample_batches(problem, seed, 0, n_mc, batch_size)]
    mins = np.asarray(mins)
    sigma_int_sq = float(np.mean(f_star - mins))
    sigma_pos_sq = float(np.mean(mins))
    return sigma_int_sq, sigma_pos_sq
