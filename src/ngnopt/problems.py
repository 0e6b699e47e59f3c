"""Non-negative stochastic test objectives with exact gradients.

Every objective is a finite-sum loss f(x) = mean_i f_i(x) with f_i >= 0.
A problem bundles a mini-batch loss/gradient oracle, deterministic batch
sampling that is a pure function of (seed, step), and analytic metadata
(smoothness constants, optima, per-batch minima) consumed by the theory
and verification layers.

Every oracle works on a cell axis: it takes C points stacked as X of
shape (C, d) and returns the C losses, shape (C,), and gradients, shape
(C, d). Row i depends on X[i] alone and has the bits a one-point call at
X[i] has, so the run loop can evaluate all the cells that share a batch
in one call. The oracles therefore use only operations that round the
same on any number of rows: stacked matvecs `rows @ X[:, :, None]` (one
gemv per cell), row sums, and explicit products in place of `**`.

Least-squares style problems use the per-sample convention
f_i(x) = (1/2)(a_i^T x - b_i)^2, so the full-batch loss is
(1/(2n))||Ax - b||^2 and L = lambda_max(A^T A), L_j = (A^T A)_jj are
smoothness upper bounds valid for every batch, not just the full one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

KIND_LEAST_SQUARES = "least_squares"
KIND_RIDGE = "ridge_quadratic"
KIND_ROSENBROCK = "rosenbrock"
KIND_MULTIMODAL = "multimodal_1d"
KIND_POLYNOMIAL = "polynomial_1d"
KIND_REGRESSION = "linear_regression_data"

PROBLEM_KINDS = (
    KIND_LEAST_SQUARES,
    KIND_RIDGE,
    KIND_ROSENBROCK,
    KIND_MULTIMODAL,
    KIND_POLYNOMIAL,
    KIND_REGRESSION,
)


@dataclass(frozen=True, eq=False)
class ObjectiveMetadata:
    """Analytic facts about an objective; None where no closed form exists.

    L is a global smoothness constant (lambda_max(A^T A) for quadratics),
    L_coord the per-coordinate constants (diag(A^T A)), mu the smallest
    positive eigenvalue of A^T A when the objective satisfies a PL-type
    inequality, and C_poly the growth constant C with
    C (1 + p(x)^2) >= x p(x) p'(x) for the scaled polynomial objective.
    """

    L: Optional[float] = None
    L_coord: Optional[np.ndarray] = None
    f_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    mu: Optional[float] = None
    C_poly: Optional[float] = None


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

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True, eq=False)
class StepSample:
    """One oracle evaluation: loss value, gradient vector, batch identity.

    grad_sq is ||grad||^2, computed by the constructor as
    float((grad*grad).sum()), the same bits as float(np.sum(grad*grad)).
    The NGN rules read it for the step size.
    """

    loss: float
    grad: np.ndarray
    batch: Batch
    grad_sq: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "grad_sq", float((self.grad * self.grad).sum()))

    @classmethod
    def _with_grad_sq(cls, loss: float, grad: np.ndarray, batch: Batch,
                      grad_sq: float) -> "StepSample":
        """A sample whose grad_sq the run loop has already computed, as a
        row of evaluate_cells' row sums: the same bits the constructor
        computes."""
        sample = cls.__new__(cls)
        object.__setattr__(sample, "loss", loss)
        object.__setattr__(sample, "grad", grad)
        object.__setattr__(sample, "batch", batch)
        object.__setattr__(sample, "grad_sq", grad_sq)
        return sample


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative problem descriptor, picklable and cheap to rebuild from.

    Fields not meaningful for a kind are ignored by it. `coeffs` are the
    ascending coefficients of p(x) for the polynomial objective, `scale`
    its leading constant L in f(x) = L x^2 (1 + p(x)^2), `r` the ridge
    shift, `interpolating` requests b in range(A) for generated least
    squares, and `data_path` points at a CSV whose last column is the
    regression target.
    """

    kind: str
    dim: int = 1
    n_samples: Optional[int] = None
    seed: int = 0
    r: float = 0.0
    coeffs: tuple = (0.0, 1.0)
    scale: float = 1.0
    data_path: Optional[str] = None
    interpolating: bool = False
    x0: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}; expected one of {PROBLEM_KINDS}")
        if not math.isfinite(self.r):
            raise ValueError(f"r must be finite, got {self.r!r}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.n_samples is not None and self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class StochasticObjective:
    """A finite-sum objective with a batched loss/gradient oracle.

    `_loss_grad(X, indices)` returns the mean losses (C,) and gradients
    (C, d) over the indexed samples at the C rows of X; `indices=None`
    means all samples in order (see `Batch.full`). `_loss(X, indices)`,
    when available, returns the same losses without the gradients.
    `_batch_min(indices)`, when available, returns the exact minimum of
    that batch loss (least-squares subproblems).
    """

    kind: str
    dim: int
    n_samples: int
    metadata: ObjectiveMetadata
    x0_default: np.ndarray
    _loss_grad: Callable[[np.ndarray, np.ndarray], tuple]
    _batch_min: Optional[Callable[[np.ndarray], float]] = None
    _loss: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

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
    loss, grad = problem._loss_grad(x[None, :], _oracle_indices(batch))
    return StepSample(float(loss[0]), grad[0], batch)


def evaluate_cells(problem: StochasticObjective, X: np.ndarray, batch: Batch) -> tuple:
    """Losses (C,), gradients (C, d) and squared gradient norms (C,) at
    the rows of X (C, d), from one oracle call. Row i has the bits of
    `evaluate` at X[i]: a row sum reduces a row as the whole-vector sum
    reduces the vector. No input checks; the run loop checks its iterates
    before it evaluates them."""
    loss, grad = problem._loss_grad(X, _oracle_indices(batch))
    return loss, grad, np.add.reduce(grad * grad, axis=1)


def evaluate_loss(problem: StochasticObjective, X: np.ndarray, batch: Batch) -> np.ndarray:
    """The batch losses (C,) at the rows of X (C, d), with no gradient and
    no input checks; the same bits as the losses of `evaluate_cells`."""
    if problem._loss is None:
        return problem._loss_grad(X, _oracle_indices(batch))[0]
    return problem._loss(X, _oracle_indices(batch))


@functools.cache
def _shared_philox() -> tuple:
    """(bit generator, its state when new, Generator): one per process,
    built on the first draw, so importing the package does not load
    numpy.random. Constructing Philox(key=...) first seeds a SeedSequence
    from OS entropy, which the key then replaces; re-keying this one skips
    that. The integer seed only avoids reading entropy: every draw replaces
    the key, and the counter, buffer and flags are those of any new Philox."""
    bitgen = np.random.Philox(0)
    return bitgen, bitgen.state, np.random.Generator(bitgen)


def sample_batch(problem: StochasticObjective, seed: int, step: int, batch_size: int) -> Batch:
    """Draw a without-replacement batch as a pure function of (seed, step).

    Uses a Philox stream keyed by (seed, step) and a partial Fisher-Yates
    shuffle of 0..n-1, so the batch sequence is identical across platforms
    and processes. All batch_size offsets are drawn in one call; the swaps
    are applied to a dict of displaced entries instead of a length-n
    array, and give the same batch as swapping array elements one draw at
    a time. Returns sorted intp indices. A full-batch request returns all
    indices in ascending order, marked `full`, without consuming
    randomness.

    Every draw resets the process's one Philox generator to the state a new
    Philox(key=(seed, step)) has, so no state carries from one call to the
    next. That generator is shared: do not call sample_batch from two
    threads at once. The package parallelises across processes only, and
    each process has its own generator.
    """
    n = problem.n_samples
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size {batch_size} out of range [1, {n}]")
    if seed < 0 or step < 0:
        raise ValueError("seed and step must be >= 0")
    if batch_size == n:
        return Batch(np.arange(n), full=True)
    bitgen, fresh, rng = _shared_philox()
    bitgen.state = {**fresh, "state": {**fresh["state"], "key": (seed, step)}}
    offsets = rng.integers(n - np.arange(batch_size)).tolist()
    displaced: dict = {}  # position -> value, for positions swapped away from identity
    picked = []
    for i, offset in enumerate(offsets):
        j = i + offset
        picked.append(displaced.get(j, j))
        displaced[j] = displaced.get(i, i)
    idx = np.array(picked, dtype=np.intp)
    idx.sort()
    return Batch(idx)


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


def _least_squares_objective(kind: str, A: np.ndarray, b: np.ndarray,
                             x0: Optional[np.ndarray] = None) -> StochasticObjective:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch between A {A.shape} and b {b.shape}")
    n, d = A.shape
    AtA = A.T @ A
    evals = _spd_eigvals(AtA)
    L = float(evals[-1])
    L_coord = np.diag(AtA).copy()
    x_star = np.linalg.lstsq(A, b, rcond=None)[0]
    resid = A @ x_star - b
    f_star = float(resid @ resid) / (2.0 * n)
    pos = evals[evals > 1e-12 * max(L, 1.0)]
    mu = float(pos[0]) if pos.size else None
    # A gather A[idx] is C-ordered; reading the full batch from a C-ordered
    # A keeps both matvecs on the same BLAS path, so they round alike.
    rows = np.ascontiguousarray(A)

    def residuals(X, idx):
        """The rows of A and the residuals (C, m) over the samples idx, or
        over all samples in order when idx is None. The full batch reads A
        and b in place; a gather of 0..n-1 would copy them unchanged, so
        both give the same bits. Any other index array, permuted or
        repeated, gathers once for all C points. One point skips the
        stacking views: its product is the same gemv."""
        A_b, b_b = (rows, b) if idx is None else (rows[idx], b[idx])
        if X.shape[0] == 1:
            return A_b, (A_b @ X[0] - b_b)[None, :]
        return A_b, (A_b @ X[:, :, None])[:, :, 0] - b_b

    def loss(X, idx):
        _, R = residuals(X, idx)
        return np.add.reduce(R * R, axis=1) / (2.0 * R.shape[1])

    def loss_grad(X, idx):
        A_b, R = residuals(X, idx)
        m = R.shape[1]
        if R.shape[0] == 1:
            grad = (A_b.T @ R[0] / m)[None, :]
        else:
            grad = (A_b.T @ R[:, :, None])[:, :, 0] / m
        return np.add.reduce(R * R, axis=1) / (2.0 * m), grad

    def batch_min(idx):
        sol = np.linalg.lstsq(A[idx], b[idx], rcond=None)[0]
        r = A[idx] @ sol - b[idx]
        return float(np.sum(r * r)) / (2.0 * idx.size)

    meta = ObjectiveMetadata(L=L, L_coord=L_coord, f_star=f_star, x_star=x_star, mu=mu)
    if x0 is None:
        x0 = np.zeros(d)
    return StochasticObjective(kind, d, n, meta, np.asarray(x0, dtype=float), loss_grad,
                               batch_min, loss)


def least_squares_problem(A: np.ndarray, b: np.ndarray,
                          x0: Optional[np.ndarray] = None) -> StochasticObjective:
    """Least squares from explicit data: f_i(x) = (1/2)(a_i^T x - b_i)^2."""
    return _least_squares_objective(KIND_LEAST_SQUARES, A, b, x0)


def _build_least_squares(spec: ProblemSpec) -> StochasticObjective:
    d = spec.dim
    n = spec.n_samples if spec.n_samples is not None else 2 * d
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((n, d))
    if spec.interpolating:
        x_true = rng.standard_normal(d)
        b = A @ x_true
    else:
        b = rng.standard_normal(n)
    x0 = None if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    return _least_squares_objective(KIND_LEAST_SQUARES, A, b, x0)


def _build_ridge(spec: ProblemSpec) -> StochasticObjective:
    """f(x) = mean_i (1/2)((A + rI)x - y)_i^2 with A, y standard normal."""
    d = spec.dim
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((d, d))
    y = rng.standard_normal(d)
    M = A + spec.r * np.eye(d)
    x0 = None if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    return _least_squares_objective(KIND_RIDGE, M, y, x0)


def _pointwise(formula: Callable) -> Callable:
    """The cell-axis oracle of a closed-form objective.

    formula takes the d coordinates and returns the loss and a tuple of
    the d partial derivatives. A stack of points passes columns of shape
    (C,). One point passes Python floats: their +, - and * are the same
    IEEE operations, and a ufunc such as np.sin runs the same loop on
    them, without the per-call cost of an array. One-cell runs (pool
    tasks, run_once) take this path: on the quartic-pool benchmark,
    1-element arrays made the whole run 1.6x slower (2-vCPU x86 VM).
    """

    def loss_grad(X, idx):
        if X.shape[0] == 1:
            loss, grad = formula(*X[0].tolist())
            return np.array([loss]), np.array([grad])
        loss, grad = formula(*X.T)
        return loss, np.stack(grad, axis=1)

    return loss_grad


def _rosenbrock(a, b):
    gap = b - a * a
    loss = (a - 1.0) * (a - 1.0) + 100.0 * gap * gap
    return loss, (2.0 * (a - 1.0) - 400.0 * a * gap, 200.0 * gap)


def _build_rosenbrock(spec: ProblemSpec) -> StochasticObjective:
    meta = ObjectiveMetadata(f_star=0.0, x_star=np.array([1.0, 1.0]))
    x0 = np.array([-1.2, 1.0]) if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    return StochasticObjective(KIND_ROSENBROCK, 2, 1, meta, x0, _pointwise(_rosenbrock))


def _multimodal(t):
    u1 = 1.0 + np.cos(-np.pi + t)
    u2 = 1.0 + np.cos(np.pi - t)
    t1 = np.sin(u1) - 0.2 * t
    t2 = np.sin(u2) + 0.2 * t
    t2_cubed = t2 * t2 * t2
    loss = t1 * t1 + t2_cubed * t2
    dt1 = np.cos(u1) * (-np.sin(-np.pi + t)) - 0.2
    dt2 = np.cos(u2) * np.sin(np.pi - t) + 0.2
    return loss, (2.0 * t1 * dt1 + 4.0 * t2_cubed * dt2,)


def _build_multimodal(spec: ProblemSpec) -> StochasticObjective:
    """f(x) = (sin(1+cos(-pi+x)) - 0.2x)^2 + (sin(1+cos(pi-x)) + 0.2x)^4.

    Many sharp suboptimal local minima, one flat global minimum f(0) = 0.
    """
    meta = ObjectiveMetadata(f_star=0.0, x_star=np.array([0.0]))
    x0 = np.array([10.0]) if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    return StochasticObjective(KIND_MULTIMODAL, 1, 1, meta, x0, _pointwise(_multimodal))


def _poly_growth_constant(p: np.polynomial.Polynomial) -> float:
    """Smallest C with C(1 + p(x)^2) >= x p(x) p'(x): the supremum of
    r = x p p' / (1 + p^2).

    r tends to deg p as |x| -> inf, so the supremum is the larger of
    deg p and r's largest value at a real critical point, a root of
    (x p p')' (1 + p^2) - x p p' (1 + p^2)'. r is evaluated at the real
    part of every root: any real point gives a value no larger than the
    supremum, and r is flat at a critical point, so a root error of delta
    moves the value by O(delta^2). p(x) = x gives C = 1.
    """
    p = p.trim()
    deg = int(p.degree())
    if deg == 0:
        return 0.0
    dp = p.deriv()
    x = np.polynomial.Polynomial([0.0, 1.0])
    num = x * p * dp
    den = 1.0 + p * p
    xs = (num.deriv() * den - num * den.deriv()).roots().real
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = num(xs) / den(xs)
    return float(np.max(ratio[np.isfinite(ratio)], initial=float(deg)))


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
    p = np.polynomial.Polynomial(np.asarray(spec.coeffs, dtype=float))
    coef, dcoef = p.coef.tolist(), p.deriv().coef.tolist()
    C = _poly_growth_constant(p)

    def polynomial(t):
        pv = _horner(coef, t)
        grow = 1.0 + pv * pv
        loss = L * t * t * grow
        return loss, (2.0 * L * t * (grow + t * pv * _horner(dcoef, t)),)

    meta = ObjectiveMetadata(f_star=0.0, x_star=np.array([0.0]), C_poly=C)
    x0 = np.array([3.0]) if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    return StochasticObjective(KIND_POLYNOMIAL, 1, 1, meta, x0, _pointwise(polynomial))


def _load_regression_csv(path: str) -> tuple:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty regression CSV {path!r}")
    start = 0
    try:
        [float(c) for c in lines[0].split(",")]
    except ValueError:
        start = 1  # header row
    for ln in lines[start:]:
        cells = ln.split(",")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"malformed row in {path!r}: {ln!r}") from exc
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ValueError("regression CSV needs at least one feature column plus a target column")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("regression CSV rows have inconsistent column counts")
    return data[:, :-1], data[:, -1]


def _build_regression(spec: ProblemSpec) -> StochasticObjective:
    """Linear regression data: CSV when given, else a seeded synthetic
    442 x 10 Gaussian regression. Features standardized to zero mean and
    unit variance; the last CSV column is the target."""
    if spec.data_path is not None:
        X, y = _load_regression_csv(spec.data_path)
    else:
        rng = np.random.default_rng(spec.seed)
        X = rng.standard_normal((442, 10))
        w = rng.standard_normal(10)
        y = X @ w + 0.5 * rng.standard_normal(442)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    A = (X - mean) / std
    x0 = None if spec.x0 is None else np.asarray(spec.x0, dtype=float)
    return _least_squares_objective(KIND_REGRESSION, A, y, x0)


_BUILDERS = {
    KIND_LEAST_SQUARES: _build_least_squares,
    KIND_RIDGE: _build_ridge,
    KIND_ROSENBROCK: _build_rosenbrock,
    KIND_MULTIMODAL: _build_multimodal,
    KIND_POLYNOMIAL: _build_polynomial,
    KIND_REGRESSION: _build_regression,
}


def build_problem(spec: ProblemSpec) -> StochasticObjective:
    """Construct the objective described by spec (deterministic given seed)."""
    return _BUILDERS[spec.kind](spec)
