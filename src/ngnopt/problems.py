"""Non-negative stochastic test objectives with exact gradients.

Every objective is a finite-sum loss f(x) = mean_i f_i(x) with f_i >= 0.
A problem bundles a mini-batch loss/gradient oracle, deterministic batch
sampling that is a pure function of (seed, step), and analytic metadata
(smoothness constants, optima, per-batch minima) consumed by the theory
and verification layers. The step rules read none of the metadata, so
an objective computes it on the first read of `metadata` and keeps it:
runs and sweeps never pay for the eigendecomposition or the lstsq.

Every oracle works on a cell axis: it takes C points stacked as X of
shape (C, d) and returns the C losses, shape (C,), and gradients, shape
(C, d). Row i depends on X[i] alone and has the bits a one-point call at
X[i] has, so the run loop can evaluate all the cells that share a batch
in one call. The oracles therefore use only operations that round the
same on any number of rows: stacked matvecs `rows @ X[:, :, None]` (one
gemv per cell), row sums, and explicit products in place of `**`. Every
objective also has a one-point oracle with the bits of a stacked row,
which `evaluate` and `evaluate_cells` take for one point: a closed form
computes on Python floats, least squares with a row's gemvs and sums.

Least-squares style problems use the per-sample convention
f_i(x) = (1/2)(a_i^T x - b_i)^2, so the full-batch loss is
(1/(2n))||Ax - b||^2 and L = lambda_max(A^T A), L_j = (A^T A)_jj are
smoothness upper bounds valid for every batch, not just the full one.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

KIND_LEAST_SQUARES = "least_squares"
KIND_RIDGE = "ridge_quadratic"
KIND_ROSENBROCK = "rosenbrock"
KIND_MULTIMODAL = "multimodal_1d"
KIND_POLYNOMIAL = "polynomial_1d"


@dataclass(frozen=True, eq=False)
class ObjectiveMetadata:
    """Analytic facts about an objective; None where no closed form exists.

    L is a global smoothness constant (lambda_max(A^T A) for quadratics),
    L_coord the per-coordinate constants (diag(A^T A)), and mu the
    smallest positive eigenvalue of A^T A. L and L_coord bound every batch
    loss. The mean loss (1/(2n))||Ax - b||^2 has Hessian A^T A / n, so its
    PL constant is mu / n: a bound evaluated at mu itself is not one.
    """

    L: Optional[float] = None
    L_coord: Optional[np.ndarray] = None
    f_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    mu: Optional[float] = None


@dataclass(frozen=True, eq=False)
class Batch:
    """Indices of the samples participating in one stochastic evaluation.

    `full` is set only by `full_batch()` and by `sample_batch` for a
    size-n draw: the indices are then 0..n-1 in order, and oracles may
    read their data without gathering it. A hand-built Batch, even a
    permutation of all n samples, always gathers.
    """

    indices: np.ndarray
    full: bool = False


class StepSample(NamedTuple):
    """One oracle evaluation: the loss, the gradient and grad_sq =
    ||grad||^2, which the NGN rules read for the step size and the run
    loop for the gradient norm. The oracles compute grad_sq as a row sum
    or a float sum, with the bits of float((grad*grad).sum()) and of
    float(np.sum(grad*grad)); a hand-built sample passes those bits.
    A tuple, so it unpacks as the run loop's plain (loss, grad, grad_sq)
    does: the step rules take either, and never write into the gradient.
    """

    loss: float
    grad: np.ndarray
    grad_sq: float


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative problem descriptor, picklable and cheap to rebuild from.

    Fields not meaningful for a kind are ignored by it. `coeffs` are the
    ascending coefficients of p(x) for the polynomial objective, `scale`
    its leading constant L in f(x) = L x^2 (1 + p(x)^2), `r` the ridge
    shift, and `interpolating` requests b in range(A) for generated least
    squares.
    """

    kind: str
    dim: int = 1
    n_samples: Optional[int] = None
    seed: int = 0
    r: float = 0.0
    coeffs: tuple = (0.0, 1.0)
    scale: float = 1.0
    interpolating: bool = False
    x0: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r!r}")
        _check_whole("dim", self.dim, 1)
        if self.n_samples is not None:  # None: the kind's default
            _check_whole("n_samples", self.n_samples, 1)
        _check_whole("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class StochasticObjective:
    """A finite-sum objective with a batched loss/gradient oracle.

    `_loss_grad(X, indices)` returns the mean losses (C,) and gradients
    (C, d) over the indexed samples at the C rows of X; `indices=None`
    means all samples in order (see `Batch.full`).
    `_batch_min(indices)`, when available, returns the exact minimum of
    that batch loss (least-squares subproblems). `_point(x, indices)` maps
    one point x (d,) to its batch loss, gradient (d,) and ||g||^2, the
    loss and ||g||^2 as floats, with the bits of a row of `_loss_grad`
    and its row sum. `_metadata()` computes the ObjectiveMetadata;
    `metadata` calls it on first read.

    A point with an inf or NaN coordinate gets a non-finite loss from
    `_point` and `_loss_grad`, neither raises, and the other rows of a
    stack keep their bits: the run loop tests an iterate only when its
    loss is not finite.

    x0_default must be a finite point of dimension `dim`.
    """

    kind: str
    dim: int
    n_samples: int
    _metadata: Callable[[], ObjectiveMetadata]
    x0_default: np.ndarray
    _loss_grad: Callable[[np.ndarray, np.ndarray], tuple]
    _point: Callable[[np.ndarray, np.ndarray], tuple]
    _batch_min: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        x0 = self.x0_default
        if x0.shape != (self.dim,):
            raise ValueError(f"x0 has shape {x0.shape}, problem dimension is {self.dim}")
        if not np.isfinite(x0).all():
            raise ValueError(f"x0 must be finite, got {x0.tolist()}")

    @functools.cached_property
    def metadata(self) -> ObjectiveMetadata:
        """The objective's ObjectiveMetadata, computed on the first read and
        kept: every later read returns the same object."""
        return self._metadata()

    def full_batch(self) -> Batch:
        return Batch(np.arange(self.n_samples), full=True)


def _oracle_indices(batch: Batch) -> Optional[np.ndarray]:
    return None if batch.full else batch.indices


def check_point(problem: StochasticObjective, x: np.ndarray) -> np.ndarray:
    """x as a float vector of the problem's dimension; ValueError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"x has shape {x.shape}, problem dimension is {problem.dim}")
    return x


def evaluate(problem: StochasticObjective, x: np.ndarray, batch: Batch) -> StepSample:
    """Evaluate the batch loss and gradient at x.

    Raises ValueError on shape mismatch or non-finite coordinates; the run
    loop is expected to detect divergence before the iterate degenerates.
    """
    x = check_point(problem, x)
    if not np.isfinite(x).all():
        raise ValueError("non-finite input coordinates")
    return StepSample(*problem._point(x, _oracle_indices(batch)))


def evaluate_cells(problem: StochasticObjective, X: np.ndarray, batch: Batch) -> tuple:
    """The losses and squared gradient norms, as lists of C floats, and
    the C gradients (d,) at the rows of X (C, d), from one oracle call.
    Row i has the bits of `evaluate` at X[i]: a row sum reduces a row as
    the whole-vector sum reduces the vector. A point X (d,), a lone cell's
    iterate, gets a one-point call, with a stacked row's bits: a fresh
    iterate starts on a stacked row's 16-byte boundary, so its BLAS dots
    round alike. No input checks: a non-finite row gets a non-finite loss."""
    if X.ndim == 1:
        loss, grad, grad_sq = problem._point(X, _oracle_indices(batch))
        return [loss], [grad], [grad_sq]
    loss, grad = problem._loss_grad(X, _oracle_indices(batch))
    return loss.tolist(), grad, np.add.reduce(grad * grad, axis=1).tolist()


def evaluate_loss(problem: StochasticObjective, X: np.ndarray, batch: Batch) -> np.ndarray:
    """The batch losses (C,) at the rows of X (C, d), with no input
    checks: the losses of `_loss_grad`, whose gradients it drops, and so
    the same bits as the losses of `evaluate_cells`."""
    return problem._loss_grad(X, _oracle_indices(batch))[0]


KEY_BOUND = 2 ** 64  # a seed and a step key Philox as two 64-bit words
_WORD = 2 ** 32  # NumPy draws a bound below 2**32 from 32-bit words


def _is_whole(value) -> bool:  # a bool is a numbers.Integral too
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_key(name: str, value) -> None:
    if not (_is_whole(value) and 0 <= value < KEY_BOUND):
        raise ValueError(f"{name} must be a whole number in [0, 2**64), got {value!r}")


def _check_whole(name: str, value, low: int, high: Optional[int] = None) -> None:
    """ValueError unless value is a whole number >= low, and <= high when given."""
    if not (_is_whole(value) and low <= value and (high is None or value <= high)):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be a whole number {bound}, got {value!r}")


@functools.cache
def _shared_philox() -> tuple:
    """(bit generator, the state of a new Philox, Generator): one per
    process, built on the first draw, so importing the package does not
    load numpy.random. Constructing Philox(key=...) first seeds a
    SeedSequence from OS entropy, which the key then replaces; re-keying
    this one skips that. The integer seed only avoids reading entropy: a
    draw writes its key into the state and sets all of it, so the counter,
    buffer and flags are those of any new Philox. The state holds Python
    ints, not arrays, which the state setter reads in a third of the time
    (0.8 against 2.4 us, timeit, 2-vCPU x86 VM)."""
    bitgen = np.random.Philox(0)
    fresh = bitgen.state
    state = {**fresh, "state": {"counter": fresh["state"]["counter"].tolist(), "key": None},
             "buffer": fresh["buffer"].tolist()}
    return bitgen, state, np.random.Generator(bitgen)


def _swap_pick(offsets: list) -> np.ndarray:
    """The sorted intp batch that a partial Fisher-Yates shuffle of 0..n-1
    picks when draw i swaps positions i and i + offsets[i]. The swaps go to
    a dict of displaced entries instead of a length-n array, and give the
    same batch as swapping array elements one draw at a time."""
    displaced: dict = {}  # position -> value, for positions swapped away from identity
    picked = []
    for i, offset in enumerate(offsets):
        j = i + offset
        picked.append(displaced.get(j, j))
        displaced[j] = displaced.get(i, i)
    idx = np.array(picked, dtype=np.intp)
    idx.sort()
    return idx


def sample_batch(problem: StochasticObjective, seed: int, step: int, batch_size: int) -> Batch:
    """Draw a without-replacement batch as a pure function of (seed, step).

    Uses a Philox stream keyed by (seed, step), each a whole number in
    [0, 2**64), and a partial Fisher-Yates shuffle of 0..n-1 (_swap_pick),
    so the batch sequence is identical across platforms and processes. All
    batch_size offsets come from one `Generator.integers(n - arange(bs))`
    call. Returns sorted intp indices. A full-batch request returns all
    indices in ascending order, marked `full`, without consuming
    randomness. sample_batches draws a block of steps at a time with the
    same batches; this is the single draw and its reference.

    Every draw resets the process's one Philox generator to the state a new
    Philox(key=(seed, step)) has, so no state carries from one call to the
    next. That generator is shared: do not call sample_batch from two
    threads at once. The package parallelises across processes only, and
    each process has its own generator.
    """
    n = problem.n_samples
    _check_whole("batch_size", batch_size, 1, n)
    _check_key("seed", seed)
    _check_key("step", step)
    if batch_size == n:
        return Batch(np.arange(n), full=True)
    bitgen, state, rng = _shared_philox()
    state["state"]["key"] = (seed, step)
    bitgen.state = state
    return Batch(_swap_pick(rng.integers(n - np.arange(batch_size)).tolist()))


def sample_batches(problem: StochasticObjective, seed: int, step: int, count: int,
                   batch_size: int) -> list:
    """The batches of steps step .. step + count - 1: each has the indices,
    dtype and `full` flag that sample_batch gives for its step. In a
    block of 64 at n = 1000, batch 32, a batch costs 6.4-7.4 us against
    18-22 us for sample_batch (timeit, 2-vCPU x86 VM).

    For n < 2**32, NumPy draws offset i below n - i from one 32-bit word
    u_i by Lemire's multiply-and-shift: m = u_i (n - i), offset m >> 32,
    unless the low word m mod 2**32 is below its rejection threshold
    2**32 mod (n - i), when it draws another word. The 32-bit words are
    the halves of Philox's 64-bit outputs, low half first, so each step is
    re-keyed and its raw outputs read, and the draws of the whole block
    are computed at once. With targets j_i = i + offset_i, each step takes
    one of three routes:

    - distinct targets: an earlier draw k writes positions k and j_k,
      neither of which is j_i (k < i <= j_i, and j_k != j_i), so draw i
      picks j_i itself: the batch is the sorted targets;
    - a repeated target: the shuffle's swaps (_swap_pick) run on the
      offsets, which are NumPy's, as no word was rejected;
    - a low word below n - i, which is above the rejection threshold, so
      every step with a rejected word takes this route: sample_batch
      draws the step. So does every step when n >= 2**32, where NumPy
      draws from 64-bit words.

    Shares sample_batch's generator, and its threading caveat.
    """
    n = problem.n_samples
    _check_whole("batch_size", batch_size, 1, n)
    _check_key("seed", seed)
    _check_key("step", step)
    _check_whole("count", count, 1)
    step, count = int(step), int(count)  # Python ints: a NumPy step + count could wrap
    if step + count - 1 >= KEY_BOUND:
        raise ValueError(f"the last step, step + count - 1 = {step + count - 1}, must be below 2**64")
    steps = range(step, step + count)
    if batch_size == n:
        return [Batch(np.arange(n), full=True) for _ in steps]
    if n >= _WORD:
        return [sample_batch(problem, seed, s, batch_size) for s in steps]
    bitgen, state, _ = _shared_philox()
    key = state["state"]
    words = np.empty((count, (batch_size + 1) // 2), dtype=np.uint64)
    for row, s in enumerate(steps):
        key["key"] = (seed, s)
        bitgen.state = state
        words[row] = bitgen.random_raw(words.shape[1])
    i = np.arange(batch_size, dtype=np.uint64)
    bound = n - i
    halves = words.astype("<u8", copy=False).view("<u4")  # little-endian: low half first
    m = halves[:, :batch_size] * bound
    offsets = m >> 32
    targets = offsets + i
    targets.sort(axis=1)
    redraw = ((m & (_WORD - 1)) < bound).any(axis=1).tolist()
    repeat = (targets[:, 1:] == targets[:, :-1]).any(axis=1).tolist()
    picked = targets.astype(np.intp)
    return [sample_batch(problem, seed, s, batch_size) if redraw[row]
            else Batch(_swap_pick(offsets[row].tolist())) if repeat[row]
            else Batch(picked[row]) for row, s in enumerate(steps)]


def finite_diff_grad(problem: StochasticObjective, x: np.ndarray, batch: Batch, h: float) -> np.ndarray:
    """Central-difference gradient (f(x+h e_j) - f(x-h e_j)) / (2h)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = float(evaluate_loss(problem, xp[None, :], batch)[0])
        fm = float(evaluate_loss(problem, xm[None, :], batch)[0])
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError("non-finite intermediate values in finite differences")
        grad[j] = (fp - fm) / (2.0 * h)
    return grad


def _spd_eigvals(H: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((H + H.T) / 2.0)


# Cache-line size in bytes. The stacked ridge oracle (d=400, 6 cells) took
# 209-240 us with its data at a 64-byte boundary and 298-360 us at offsets
# 16, 32 and 48, with the same bits (2-vCPU x86 VM, OpenBLAS, 1 thread).
_CACHE_LINE = 64


def _aligned_empty(shape: tuple) -> np.ndarray:
    """An empty C-ordered float array starting at a cache line."""
    nbytes = 8 * math.prod(shape)
    buf = np.empty(nbytes + _CACHE_LINE, dtype=np.uint8)
    start = -buf.ctypes.data % _CACHE_LINE
    return buf[start:start + nbytes].view(np.float64).reshape(shape)


def _cache_aligned(A: np.ndarray) -> np.ndarray:
    """A itself when it is C-contiguous from a cache line, else such a copy."""
    if A.flags.c_contiguous and A.ctypes.data % _CACHE_LINE == 0:
        return A
    out = _aligned_empty(A.shape)
    out[...] = A
    return out


def _least_squares_objective(kind: str, A: np.ndarray, b: np.ndarray) -> StochasticObjective:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch between A {A.shape} and b {b.shape}")
    for name, data in (("A", A), ("b", b)):
        if not np.isfinite(data).all():
            raise ValueError(f"least-squares data {name} has non-finite entries")
    n, d = A.shape
    # A gather A[idx] is C-ordered; reading the full batch from a C-ordered
    # A keeps both matvecs on the same BLAS path, so they round alike.
    # metadata and batch_min read rows too, so no second copy of A is kept.
    rows = _cache_aligned(A)
    rows_t, n_float = rows.T, float(n)  # for `point`: a float m divides faster, same bits

    def metadata():
        AtA = rows.T @ rows
        evals = _spd_eigvals(AtA)
        L = float(evals[-1])
        L_coord = np.diag(AtA).copy()
        x_star = np.linalg.lstsq(rows, b, rcond=None)[0]
        resid = rows @ x_star - b
        f_star = float(resid @ resid) / (2.0 * n)
        pos = evals[evals > 1e-12 * max(L, 1.0)]
        mu = float(pos[0]) if pos.size else None
        return ObjectiveMetadata(L=L, L_coord=L_coord, f_star=f_star, x_star=x_star, mu=mu)

    def loss_grad(X, idx):
        """The losses (C,) and gradients (C, d) over the samples idx, or
        over all samples in order when idx is None. The full batch reads A
        and b in place; a gather of 0..n-1 would copy them unchanged, so
        both give the same bits. Any other index array, permuted or
        repeated, gathers once for all C points."""
        A_b, b_b = (rows, b) if idx is None else (rows[idx], b[idx])
        R = (A_b @ X[:, :, None])[:, :, 0] - b_b
        m = R.shape[1]
        return np.add.reduce(R * R, axis=1) / (2.0 * m), (A_b.T @ R[:, :, None])[:, :, 0] / m

    def point(x, idx):
        """One point x (d,): a stacked row's gather, BLAS calls and sums, no
        stacking views. ndarray.dot is matmul's BLAS call at half its cost."""
        A_b, b_b = (rows, b) if idx is None else (rows[idx], b[idx])
        A_t, m = (rows_t, n_float) if idx is None else (A_b.T, float(b_b.shape[0]))
        r = A_b.dot(x) - b_b
        g = A_t.dot(r) / m
        return float(np.add.reduce(r * r)) / (2.0 * m), g, float(np.add.reduce(g * g))

    def batch_min(idx):
        sol = np.linalg.lstsq(rows[idx], b[idx], rcond=None)[0]
        r = rows[idx] @ sol - b[idx]
        return float(np.sum(r * r)) / (2.0 * idx.size)

    return StochasticObjective(kind, d, n, metadata, np.zeros(d), loss_grad, point, batch_min)


def least_squares_problem(A: np.ndarray, b: np.ndarray) -> StochasticObjective:
    """Least squares from explicit data: f_i(x) = (1/2)(a_i^T x - b_i)^2."""
    return _least_squares_objective(KIND_LEAST_SQUARES, A, b)


def _build_least_squares(spec: ProblemSpec) -> StochasticObjective:
    d = spec.dim
    n = spec.n_samples if spec.n_samples is not None else 2 * d
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal(out=_aligned_empty((n, d)))
    if spec.interpolating:
        x_true = rng.standard_normal(d)
        b = A @ x_true
    else:
        b = rng.standard_normal(n)
    return _least_squares_objective(KIND_LEAST_SQUARES, A, b)


def _build_ridge(spec: ProblemSpec) -> StochasticObjective:
    """f(x) = mean_i (1/2)((A + rI)x - y)_i^2 with A, y standard normal."""
    d = spec.dim
    rng = np.random.default_rng(spec.seed)
    M = rng.standard_normal(out=_aligned_empty((d, d)))
    y = rng.standard_normal(d)
    M.ravel()[::d + 1] += spec.r  # A + rI: r added to the diagonal in place
    return _least_squares_objective(KIND_RIDGE, M, y)


def _closed_form(kind: str, x0: list, x_star: list, formula: Callable) -> StochasticObjective:
    """A one-sample objective of dimension d = len(x0) <= 2, started at x0,
    with f* = 0 at x_star. Its oracles are the cell-axis `_loss_grad` and
    the one-point `_point`; both ignore the batch.

    formula takes the d coordinates and returns the loss and a tuple of
    the d partial derivatives. `_loss_grad` passes the columns (C,) of a
    stack. `_point` passes one point's Python floats: their +, - and *
    are the same IEEE operations, and a ufunc such as np.sin runs the
    same loop on them, without the per-call cost of an array. It sums
    ||g||^2 in floats too: with at most two terms, the row sum's single
    rounding. One-cell runs (pool tasks, run_once) take it: on the
    quartic-pool benchmark, 1-element arrays made the whole run 1.6x
    slower, and a loop that takes floats from `_point` cut its wall time
    by another 28% (2-vCPU x86 VM).
    """

    def point(x, idx):
        loss, grad = formula(*x.tolist())
        grad_sq = 0.0
        for g in grad:
            grad_sq += g * g
        return float(loss), np.array(grad), float(grad_sq)

    def loss_grad(X, idx):
        loss, grad = formula(*X.T)
        return loss, np.array(grad).T  # np.stack: 2.2-3.1 against 0.5-1.2 us (timeit)

    def metadata():
        return ObjectiveMetadata(f_star=0.0, x_star=np.array(x_star))

    return StochasticObjective(kind, len(x0), 1, metadata, np.array(x0), loss_grad, point)


def _rosenbrock(a, b):
    gap = b - a * a
    loss = (a - 1.0) * (a - 1.0) + 100.0 * gap * gap
    return loss, (2.0 * (a - 1.0) - 400.0 * a * gap, 200.0 * gap)


def _build_rosenbrock(spec: ProblemSpec) -> StochasticObjective:
    return _closed_form(KIND_ROSENBROCK, [-1.2, 1.0], [1.0, 1.0], _rosenbrock)


def _float_sin(t: float) -> float:
    return float(np.sin(t))


def _float_cos(t: float) -> float:
    return float(np.cos(t))


def _multimodal(t):
    """The multimodal loss and derivative with four sin/cos calls, not
    eight: fl(-pi + t) is exactly -fl(pi - t), and np.cos is even and
    np.sin odd bit for bit, so 1 + cos(-pi + t) and 1 + cos(pi - t) are
    one u, and cos(u) * (-sin(-pi + t)) is cos(u) * sin(pi - t). On one
    point's Python float (`_point`) the four results become floats, so
    the rest is float arithmetic, not np.float64 scalar operations."""
    sin, cos = (_float_sin, _float_cos) if type(t) is float else (np.sin, np.cos)
    y = np.pi - t
    u = 1.0 + cos(y)
    sin_u = sin(u)
    t1 = sin_u - 0.2 * t
    t2 = sin_u + 0.2 * t
    t2_cubed = t2 * t2 * t2
    loss = t1 * t1 + t2_cubed * t2
    w = cos(u) * sin(y)
    return loss, (2.0 * t1 * (w - 0.2) + 4.0 * t2_cubed * (w + 0.2),)


def _build_multimodal(spec: ProblemSpec) -> StochasticObjective:
    """f(x) = (sin(1+cos(-pi+x)) - 0.2x)^2 + (sin(1+cos(pi-x)) + 0.2x)^4.

    Many sharp suboptimal local minima, one flat global minimum f(0) = 0.
    """
    return _closed_form(KIND_MULTIMODAL, [10.0], [0.0], _multimodal)


def _horner(coef: list, t):
    """p(t) for ascending coefficients by Horner's rule: the multiply-adds
    Polynomial.__call__ runs, so both give the same bits. Its first one,
    coef[-1] + t*0, is coef[-1] itself at a finite t."""
    value = coef[-1]
    for c in coef[-2::-1]:
        value = c + value * t
    return value


def _build_polynomial(spec: ProblemSpec) -> StochasticObjective:
    """f(x) = L x^2 (1 + p(x)^2) with L = spec.scale and p from spec.coeffs."""
    L = float(spec.scale)
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError("polynomial scale must be positive and finite")
    coeffs = np.asarray(spec.coeffs, dtype=float)
    if not np.isfinite(coeffs).all():
        raise ValueError(f"polynomial coeffs must be finite, got {coeffs.tolist()}")
    p = np.polynomial.Polynomial(coeffs)
    coef, dcoef = p.coef.tolist(), p.deriv().coef.tolist()

    def polynomial(t):
        pv = _horner(coef, t)
        grow = 1.0 + pv * pv
        loss = L * t * t * grow
        return loss, (2.0 * L * t * (grow + t * pv * _horner(dcoef, t)),)

    return _closed_form(KIND_POLYNOMIAL, [3.0], [0.0], polynomial)


_BUILDERS = {
    KIND_LEAST_SQUARES: _build_least_squares,
    KIND_RIDGE: _build_ridge,
    KIND_ROSENBROCK: _build_rosenbrock,
    KIND_MULTIMODAL: _build_multimodal,
    KIND_POLYNOMIAL: _build_polynomial,
}

PROBLEM_KINDS = tuple(_BUILDERS)


def build_problem(spec: ProblemSpec) -> StochasticObjective:
    """Construct the objective described by spec (deterministic given
    seed), started at spec.x0 when it is set and at the kind's default
    start otherwise."""
    problem = _BUILDERS[spec.kind](spec)
    if spec.x0 is None:
        return problem
    return replace(problem, x0_default=np.asarray(spec.x0, dtype=float))
