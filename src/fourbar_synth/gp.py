"""Gaussian-process regression for the objective and constraint surrogates.

Exact GP regression with a Matern-5/2 ARD kernel.  Inputs are min-max
normalized to the unit cube using the search bounds (not the data), targets
are standardized; hyperparameters (signal variance, per-dimension
lengthscales, noise variance) maximize the log marginal likelihood by
multi-start L-BFGS ascent in log-space with analytic gradients.

The implementation is deliberately small and deterministic: a seeded RNG
draws the multistart points, scipy does the factorizations, and the fitted
model caches its Cholesky factor so prediction is a pair of triangular
solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky, solve_triangular
from scipy.optimize import minimize

__all__ = ["KernelParams", "GpModel", "gp_fit", "gp_predict", "log_marginal_likelihood"]

_SQRT5 = math.sqrt(5.0)
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)

# log-space box for the hyperparameter search (standardized targets,
# unit-cube inputs), order: signal variance, lengthscales..., noise variance
_LOG_BOUNDS_SIGNAL = (math.log(1e-4), math.log(1e4))
_LOG_BOUNDS_LENGTH = (math.log(1e-2), math.log(1e2))
_LOG_BOUNDS_NOISE = (math.log(1e-10), math.log(1e1))


@dataclass(frozen=True)
class KernelParams:
    """Matern-5/2 ARD hyperparameters in normalized/standardized space."""

    signal_variance: float
    lengthscales: tuple[float, ...]
    noise_variance: float


@dataclass
class GpModel:
    """Fitted GP: training data, kernel, and cached factorization."""

    train_x: np.ndarray  # (n, d) raw inputs
    train_y: np.ndarray  # (n,) raw targets
    bounds: tuple[tuple[float, float], ...]
    kernel: KernelParams
    degenerate: bool
    y_mean: float
    y_sd: float
    x_unit: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    chol: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    alpha: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def prior_variance(self) -> float:
        """Prior predictive variance in original target units."""
        return self.kernel.signal_variance * self.y_sd * self.y_sd


def _normalize(x: np.ndarray, bounds: tuple[tuple[float, float], ...]) -> np.ndarray:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return (x - lo) / (hi - lo)


def _scaled_sq_dists(x1: np.ndarray, x2: np.ndarray, ls: np.ndarray) -> np.ndarray:
    """Pairwise squared distances after per-dimension lengthscale division."""
    a = x1[:, None, :] / ls
    b = x2[None, :, :] / ls
    d = a - b
    return np.einsum("ijk,ijk->ij", d, d)


def _matern52(r: np.ndarray, s2: float) -> np.ndarray:
    c = _SQRT5 * r
    return s2 * (1.0 + c + 5.0 * r * r / 3.0) * np.exp(-c)


def _kernel_matrix(x_unit: np.ndarray, params: KernelParams) -> np.ndarray:
    ls = np.asarray(params.lengthscales)
    r = np.sqrt(np.maximum(_scaled_sq_dists(x_unit, x_unit, ls), 0.0))
    k = _matern52(r, params.signal_variance)
    k[np.diag_indices_from(k)] += params.noise_variance
    return k


def _factorize(k: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky with escalating jitter; returns (L, alpha = K^-1 y)."""
    last: Exception | None = None
    for jitter in _JITTERS:
        try:
            kj = k if jitter == 0.0 else k + jitter * np.eye(k.shape[0])
            low = cholesky(kj, lower=True)
            alpha = cho_solve((low, True), y)
            return low, alpha
        except LinAlgError as exc:
            last = exc
    raise LinAlgError(f"kernel matrix not positive definite even with jitter: {last}")


def _neg_lml_and_grad(
    log_params: np.ndarray, raw_sq: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Negative log marginal likelihood and gradient in log-space.

    ``raw_sq`` holds the per-dimension squared coordinate differences of the
    normalized training inputs, shape (d, n, n), precomputed once per fit.
    """
    d = raw_sq.shape[0]
    n = raw_sq.shape[1]
    s2 = math.exp(log_params[0])
    inv_l2 = np.exp(-2.0 * log_params[1 : 1 + d])
    noise = math.exp(log_params[1 + d])

    r2 = np.tensordot(inv_l2, raw_sq, axes=1)
    r = np.sqrt(np.maximum(r2, 0.0))
    c = _SQRT5 * r
    expc = np.exp(-c)
    k_signal = s2 * (1.0 + c + 5.0 * r2 / 3.0) * expc
    k = k_signal.copy()
    k[np.diag_indices(n)] += noise

    try:
        low, alpha = _factorize(k, y)
    except LinAlgError:
        return 1e25, np.zeros_like(log_params)

    nlml = 0.5 * float(y @ alpha) + float(np.log(np.diag(low)).sum()) + 0.5 * n * math.log(2.0 * math.pi)

    k_inv = cho_solve((low, True), np.eye(n))
    w = np.outer(alpha, alpha) - k_inv  # dLML/dK = 0.5 * W

    grad = np.empty_like(log_params)
    grad[0] = -0.5 * float((w * k_signal).sum())  # d/dlog s2 (negated for NLML)
    wb = w * (s2 * (5.0 / 3.0) * (1.0 + c) * expc)
    for j in range(d):
        grad[1 + j] = -0.5 * inv_l2[j] * float((wb * raw_sq[j]).sum())
    grad[1 + d] = -0.5 * noise * float(np.trace(w))
    return nlml, grad


def gp_fit(
    points: list[tuple[tuple[float, ...], float]],
    bounds: tuple[tuple[float, float], ...],
    seed: int = 0,
    kernel: KernelParams | None = None,
) -> GpModel:
    """Fit a GP to (input, target) pairs inside the given box.

    Needs at least two points with finite targets.  If all targets are
    identical the data cannot identify a signal variance; the fit returns a
    flagged constant model (zero signal variance, zero predictive variance)
    instead of failing.

    Pass ``kernel`` to skip hyperparameter optimization and condition on
    fixed values (used by tests and diagnostics).  The multistart search is
    deterministic for a given seed.
    """
    if len(points) < 2:
        raise ValueError("gp_fit needs at least 2 observations")
    x = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise ValueError("gp_fit requires finite inputs and targets")
    n, d = x.shape
    if len(bounds) != d:
        raise ValueError("bounds dimension does not match inputs")

    if float(np.ptp(y)) == 0.0:
        return GpModel(
            train_x=x,
            train_y=y,
            bounds=tuple(bounds),
            kernel=KernelParams(0.0, (1.0,) * d, 0.0),
            degenerate=True,
            y_mean=float(y[0]),
            y_sd=1.0,
        )

    y_mean = float(y.mean())
    y_sd = float(y.std())
    y_std = (y - y_mean) / y_sd
    x_unit = _normalize(x, tuple(bounds))

    if kernel is None:
        diff = x_unit.T[:, :, None] - x_unit.T[:, None, :]
        raw_sq = diff * diff  # (d, n, n), fixed across hyperparameter evals
        rng = np.random.default_rng(seed)
        starts = [np.array([0.0] + [math.log(0.5)] * d + [math.log(1e-4)])]
        for _ in range(7):
            s = np.concatenate(
                [
                    rng.uniform(math.log(0.1), math.log(10.0), 1),
                    rng.uniform(math.log(0.05), math.log(2.0), d),
                    rng.uniform(math.log(1e-8), math.log(1e-2), 1),
                ]
            )
            starts.append(s)
        box = [_LOG_BOUNDS_SIGNAL] + [_LOG_BOUNDS_LENGTH] * d + [_LOG_BOUNDS_NOISE]
        best = None
        for s in starts:
            res = minimize(
                _neg_lml_and_grad,
                s,
                args=(raw_sq, y_std),
                jac=True,
                method="L-BFGS-B",
                bounds=box,
                options={"maxiter": 200, "gtol": 1e-6},
            )
            if best is None or res.fun < best.fun:
                best = res
        log_p = best.x
        kernel = KernelParams(
            signal_variance=float(math.exp(log_p[0])),
            lengthscales=tuple(float(v) for v in np.exp(log_p[1 : 1 + d])),
            noise_variance=float(math.exp(log_p[1 + d])),
        )

    k = _kernel_matrix(x_unit, kernel)
    low, alpha = _factorize(k, y_std)
    return GpModel(
        train_x=x,
        train_y=y,
        bounds=tuple(bounds),
        kernel=kernel,
        degenerate=False,
        y_mean=y_mean,
        y_sd=y_sd,
        x_unit=x_unit,
        chol=low,
        alpha=alpha,
    )


def gp_predict(model: GpModel, x) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Posterior mean and variance at query inputs, in original units.

    Accepts a single d-vector (returns floats) or an (m, d) array (returns
    arrays).  Variance is that of the latent function; tiny negative values
    from rounding are clamped to zero.
    """
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    if single:
        q = q[None, :]

    if model.degenerate:
        mean = np.full(q.shape[0], model.y_mean)
        var = np.zeros(q.shape[0])
        return (float(mean[0]), float(var[0])) if single else (mean, var)

    ls = np.asarray(model.kernel.lengthscales)
    q_unit = _normalize(q, model.bounds)
    r = np.sqrt(np.maximum(_scaled_sq_dists(q_unit, model.x_unit, ls), 0.0))
    k_star = _matern52(r, model.kernel.signal_variance)  # (m, n)
    mean_std = k_star @ model.alpha
    v = solve_triangular(model.chol, k_star.T, lower=True)
    var_std = model.kernel.signal_variance - np.einsum("ij,ij->j", v, v)
    var_std = np.maximum(var_std, 0.0)

    mean = model.y_mean + model.y_sd * mean_std
    var = (model.y_sd * model.y_sd) * var_std
    return (float(mean[0]), float(var[0])) if single else (mean, var)


def log_marginal_likelihood(model: GpModel) -> float:
    """LML of the fitted (non-degenerate) model on its standardized targets."""
    if model.degenerate:
        raise ValueError("log marginal likelihood undefined for a constant model")
    y_std = (model.train_y - model.y_mean) / model.y_sd
    n = y_std.shape[0]
    return (
        -0.5 * float(y_std @ model.alpha)
        - float(np.log(np.diag(model.chol)).sum())
        - 0.5 * n * math.log(2.0 * math.pi)
    )
