"""Gaussian-process regression for the objective and constraint surrogates.

Exact GP regression with a Matern-5/2 ARD kernel.  Inputs are min-max
normalized to the unit cube using the search bounds (not the data), targets
are standardized; hyperparameters (signal variance s2, per-dimension
lengthscales, noise variance) maximize the log marginal likelihood.  The
signal variance is profiled out, as in the concentrated likelihood of
Jones, Schonlau & Welch (1998) and DiceKriging (Roustant et al., 2012):
with K = s2 (C + g I), for given lengthscales and noise ratio g its best
value is y'(C + g I)^-1 y / n, clipped to a box.  So a multi-start L-BFGS-B
with analytic gradients searches only log(lengthscales) and log(g).  A cold
fit runs 8 starts (a fixed default and 7 seeded random points).  A warm
fit, given the kernel of the same surrogate's previous fit, runs that
kernel alone, or, with ``restart``, that kernel and then the default.
Among several starts the winner is the one whose returned point scores
the lowest NLML, ties going to the earlier start.

The fit is dominated by call overhead, not arithmetic: training sets are
small (tens of points) and L-BFGS-B evaluates the likelihood dozens of
times per start.  ``_LmlWorkspace`` therefore holds everything that stays
fixed across one fit (the per-dimension squared differences flattened to
(d, n^2), the identity, the diagonal view, reused (n, n) buffers).  It owns
the fit's one training kernel matrix: it fills K in place from natural
parameters and factors it through ``lapack.dpotrf``/``dpotrs`` with
escalating jitter.  The likelihood gradient is GPML eq. 5.9, with R^-1
from ``dpotrs`` against the identity.  The fitted model factors its kernel
as a fixed kernel is factored, s2 C + (s2 g) I, and prediction is one
cross-covariance block, two row-wise sums and one ``dtrtrs``, so that a
point's prediction does not depend on its batch.

Invariant: these shortcuts change only call overhead.  Every elementwise
operation and every reduction runs in the same order and over the same
memory layout as the plain expressions they replace (for instance each
gradient sum is a pairwise sum over the n^2 elements of a C-ordered
(n, n) block, as ``.sum()`` of that block is), so for a given
seed the likelihood, the fitted factors and the predictions are bit-for-bit
what the straightforward scipy.linalg code gives.
Deterministic: a seeded RNG draws a cold fit's random starts, and a warm
fit draws none, so it does not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize
from scipy.linalg import LinAlgError, lapack

__all__ = ["KernelParams", "GpModel", "gp_fit", "gp_predict"]

_SQRT5 = math.sqrt(5.0)
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)
_COLD_RANDOM_STARTS = 7  # besides the default start

# the box of the profiled signal variance (standardized targets)
_SIGNAL_BOUNDS = (1e-4, 1e4)
# log-space box for the hyperparameter search (unit-cube inputs), order:
# lengthscales..., noise ratio g = noise variance / signal variance
_LOG_BOUNDS_LENGTH = (math.log(1e-2), math.log(1e2))
_LOG_BOUNDS_RATIO = (math.log(1e-10), math.log(1e1))


@dataclass(frozen=True)
class KernelParams:
    """Matern-5/2 ARD hyperparameters in normalized/standardized space.

    A searched fit's noise variance is s2 times a noise ratio g in
    [1e-10, 10], and its signal variance lies in [1e-4, 1e4].
    """

    signal_variance: float
    lengthscales: tuple[float, ...]
    noise_variance: float


@dataclass
class GpModel:
    """Fitted GP: training targets, kernel, and what prediction reuses.

    Besides the Cholesky factor of the fit workspace's kernel matrix and
    K^-1 y, a non-degenerate model keeps the box offset ``lo`` and ``width``
    (hi - lo), the lengthscale array ``ls`` and the training inputs in
    kernel units ``x_scaled`` (unit-cube inputs divided by ``ls``).
    """

    train_y: np.ndarray  # (n,) raw targets
    bounds: tuple[tuple[float, float], ...]
    kernel: KernelParams
    degenerate: bool
    y_mean: float
    y_sd: float
    chol: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    alpha: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    lo: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    width: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    ls: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    x_scaled: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def prior_variance(self) -> float:
        """Prior predictive variance in original target units."""
        return self.kernel.signal_variance * self.y_sd * self.y_sd


def _scaled_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared distances between rows already divided by the lengthscales.

    The squared differences are added one input dimension at a time, left
    to right, into one (m, n) buffer: a broadcast over an (m, n, d) array
    would run m * n inner loops of length d.
    """
    sq = np.subtract(a[:, 0, None], b[:, 0])
    np.multiply(sq, sq, out=sq)
    diff = np.empty_like(sq)
    for k in range(1, a.shape[1]):
        np.subtract(a[:, k, None], b[:, k], out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(sq, diff, out=sq)
    return sq


def _matern52(r: np.ndarray, s2: float) -> np.ndarray:
    c = _SQRT5 * r
    return s2 * (1.0 + c + 5.0 * r * r / 3.0) * np.exp(-c)


class _LmlWorkspace:
    """The training kernel matrix of one fit, its likelihood and gradient.

    Built once from the unit-cube inputs and standardized targets.
    ``factor`` fills K from natural parameters and factors it.  Calling the
    workspace with log(lengthscales..., noise ratio g) returns (NLML,
    gradient), the pair ``minimize`` descends, with the signal variance
    profiled out: for R = K / s2 = C + g I it factors R, sets s2 to the
    likelihood's best, y'R^-1 y / n, clipped to its box, and scores
    K = s2 R.  A kernel matrix that no jitter rung can factor scores 1e25
    with a zero gradient, which steers L-BFGS-B away.
    """

    def __init__(self, x_unit: np.ndarray, y: np.ndarray) -> None:
        n, d = x_unit.shape
        diff = x_unit.T[:, :, None] - x_unit.T[:, None, :]
        self.raw_sq = diff * diff  # (d, n, n) squared coordinate differences
        # a strided view, not a copy: raw_sq is laid out (n, n, d) in memory,
        # and the BLAS kernel behind the dot below (so its rounding) follows
        self.flat = self.raw_sq.reshape(d, n * n)
        self.y = y
        self.eye = np.eye(n)
        self.const = 0.5 * n * math.log(2.0 * math.pi)
        self.d = d
        self.n = n
        self.c = np.empty((n, n))
        self.expc = np.empty((n, n))
        self.onec = np.empty((n, n))  # 1 + c, then the lengthscale factor
        self.tmp = np.empty((n, n))
        self.tmp_d = np.empty((d, n, n))
        self.k = np.empty((n, n))
        self.k_diag = self.k.reshape(n * n)[:: n + 1]
        self.w = np.empty((n, n))

    def natural(self, log_params: np.ndarray) -> tuple[np.ndarray, float]:
        """(1 / lengthscales^2, noise ratio g) of a search point."""
        return np.exp(-2.0 * log_params[: self.d]), math.exp(log_params[self.d])

    def signal_variance(self, alpha: np.ndarray) -> float:
        """The likelihood's best s2 given alpha = R^-1 y: y'R^-1 y / n, clipped to its box."""
        return min(max(float(self.y @ alpha) / self.n, _SIGNAL_BOUNDS[0]), _SIGNAL_BOUNDS[1])

    def factor(self, s2: float, inv_l2: np.ndarray, noise: float) -> tuple[np.ndarray, np.ndarray]:
        """Fill K, then Cholesky with escalating jitter: (L, alpha = K^-1 y)."""
        n = self.n
        c, expc, onec, tmp, k = self.c, self.expc, self.onec, self.tmp, self.k
        r2 = np.dot(inv_l2[None, :], self.flat).reshape(n, n)  # >= 0: needs no clamp
        np.sqrt(r2, out=c)
        np.multiply(c, _SQRT5, out=c)
        np.negative(c, out=expc)
        np.exp(expc, out=expc)
        # K = s2 * (1 + c + 5 r^2 / 3) * exp(-c) + noise I, left to right
        np.add(c, 1.0, out=onec)
        np.multiply(r2, 5.0, out=tmp)
        np.divide(tmp, 3.0, out=tmp)
        np.add(onec, tmp, out=k)
        np.multiply(k, s2, out=k)
        np.multiply(k, expc, out=k)
        np.add(self.k_diag, noise, out=self.k_diag)
        for jitter in _JITTERS:
            kj = k if jitter == 0.0 else k + jitter * self.eye
            low, info = lapack.dpotrf(kj, lower=1)
            if info == 0:
                alpha, _ = lapack.dpotrs(low, self.y, lower=1)
                return low, alpha
        raise LinAlgError(f"kernel matrix not positive definite even with jitter (dpotrf info {info})")

    def __call__(self, log_params: np.ndarray) -> tuple[float, np.ndarray]:
        d = self.d
        expc, onec, w = self.expc, self.onec, self.w
        inv_l2, g = self.natural(log_params)
        try:
            low, alpha = self.factor(1.0, inv_l2, g)  # R and R^-1 y
        except LinAlgError:
            return 1e25, np.zeros_like(log_params)

        s2 = self.signal_variance(alpha)
        nlml = 0.5 * float(self.y @ alpha) / s2 + 0.5 * self.n * math.log(s2)
        nlml += float(np.log(low.diagonal()).sum()) + self.const

        # GPML eq. 5.9 at fixed s2, which is the whole gradient both where s2
        # is the likelihood's best (it is stationary in s2) and where it is
        # clipped (constant): dLML/dR = 0.5 * W
        r_inv, _ = lapack.dpotrs(low, self.eye, lower=1)
        np.multiply((alpha / s2)[:, None], alpha[None, :], out=w)
        np.subtract(w, r_inv, out=w)

        grad = np.empty_like(log_params)
        np.multiply(onec, 5.0 / 3.0, out=onec)
        np.multiply(onec, expc, out=onec)
        np.multiply(w, onec, out=onec)
        # one (n, n) sum per lengthscale, over the last two axes of a C-ordered array
        grad[:d] = -0.5 * inv_l2 * np.multiply(onec, self.raw_sq, out=self.tmp_d).sum(axis=(1, 2))
        grad[d] = -0.5 * g * float(w.trace())
        return nlml, grad


def minimize(fun, x0: np.ndarray, bounds: list[tuple[float, float]]) -> scipy.optimize.OptimizeResult:
    """L-BFGS-B from ``x0`` inside a finite box; ``fun(x)`` returns (value, gradient).

    scipy's L-BFGS-B with maxiter 200 and gtol 1e-6.  ``gp_fit`` looks it
    up as a module attribute, so a wrapper here sees every search.
    """
    options = {"maxiter": 200, "gtol": 1e-6}
    return scipy.optimize.minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=options)


def _check_kernel(name: str, k: KernelParams, d: int, positive_noise: bool) -> None:
    """Raise ``ValueError`` naming the first field of ``k`` a d-input fit cannot use."""
    if len(k.lengthscales) != d:
        raise ValueError(f"{name}.lengthscales has {len(k.lengthscales)} entries for {d} input dimensions")
    fields = [("signal_variance", k.signal_variance)]
    fields += [(f"lengthscales[{j}]", v) for j, v in enumerate(k.lengthscales)]
    fields.append(("noise_variance", k.noise_variance))
    for key, value in fields:
        if not math.isfinite(value):
            raise ValueError(f"{name}.{key} must be finite, got {value!r}")
        zero_ok = key == "noise_variance" and not positive_noise  # zero noise interpolates
        if value < 0.0 or (value == 0.0 and not zero_ok):
            raise ValueError(f"{name}.{key} must be {'>= 0' if zero_ok else '> 0'}, got {value!r}")


def gp_fit(
    points: list[tuple[tuple[float, ...], float]],
    bounds: tuple[tuple[float, float], ...],
    seed: int = 0,
    kernel: KernelParams | None = None,
    start: KernelParams | None = None,
    restart: bool = True,
) -> GpModel:
    """Fit a GP to (input, target) pairs inside the given box.

    Needs at least two points with finite targets.  If all targets are
    identical the data cannot identify a signal variance; the fit returns a
    flagged constant model (zero signal variance, zero predictive variance)
    instead of failing.

    Otherwise the hyperparameters maximize the log marginal likelihood.
    Each start is one ``minimize`` search, scipy's L-BFGS-B (maxiter 200,
    gtol 1e-6), over log(lengthscales) in [1e-2, 1e2] and log of the noise
    ratio g = noise / s2 in [1e-10, 10]; the signal variance s2 is the
    likelihood's best for them, clipped to [1e-4, 1e4].  Without ``start``
    the search is cold: 8 starts, the fixed default and 7 seeded random
    points.  ``start``, such as the same surrogate's fit on one point
    fewer, makes it warm: one start at log(lengthscales), log(noise / s2),
    followed by the default only if ``restart``; a warm fit draws no
    random start and ignores ``seed``, and a cold fit ignores ``restart``.
    Of several starts the winner is the one whose returned point the
    workspace scores lowest, the earliest on a tie (L-BFGS-B's ``fun``
    after an abnormal line-search exit need not be the value at that
    point); a lone start's point is not scored again.  The model is
    ``KernelParams(s2, lengthscales, s2 g)`` at the winning point,
    factored as a fixed kernel is.

    Pass ``kernel`` to skip the search and condition on fixed values (used
    by tests and diagnostics); its kernel matrix comes from the same
    workspace.  ``start`` and ``kernel`` need d lengthscales, and finite,
    positive variances and lengthscales, else ``ValueError`` names the
    field; only a fixed kernel's noise variance may be zero (it is added
    to K's diagonal as given).  Each ``bounds[k]`` must be finite with
    lo < hi, else ``ValueError`` names it.  Raises ``LinAlgError`` when no
    jitter rung can factor the kernel matrix.  The search is deterministic
    for a given seed and start.
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
    for k, (lo, hi) in enumerate(bounds):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds[{k}] must be finite with lo < hi, got {(lo, hi)!r}")
    if start is not None:
        _check_kernel("start", start, d, positive_noise=True)
    if kernel is not None:
        _check_kernel("kernel", kernel, d, positive_noise=False)

    if float(np.ptp(y)) == 0.0:
        return GpModel(
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
    lo = np.array([b[0] for b in bounds])
    width = np.array([b[1] for b in bounds]) - lo
    x_unit = (x - lo) / width

    lml = _LmlWorkspace(x_unit, y_std)
    if kernel is None:
        default = np.array([math.log(0.5)] * d + [math.log(1e-4)])
        if start is not None:
            starts = [np.log([*start.lengthscales, start.noise_variance / start.signal_variance])]
            if restart:
                starts.append(default)
        else:
            rng = np.random.default_rng(seed)
            starts = [default]
            for _ in range(_COLD_RANDOM_STARTS):
                s = np.concatenate(
                    [rng.uniform(math.log(0.05), math.log(2.0), d), rng.uniform(math.log(1e-8), math.log(1e-2), 1)]
                )
                starts.append(s)
        box = [_LOG_BOUNDS_LENGTH] * d + [_LOG_BOUNDS_RATIO]
        found = [minimize(lml, s, box).x for s in starts]
        # min keeps the first of equal scores
        best_x = found[0] if len(found) == 1 else min(found, key=lambda point: lml(point)[0])
        inv_l2, g = lml.natural(best_x)
        s2 = lml.signal_variance(lml.factor(1.0, inv_l2, g)[1])
        noise = s2 * g
        ls = np.exp(best_x[:d])
        kernel = KernelParams(s2, tuple(ls.tolist()), noise)
    else:
        s2, noise = kernel.signal_variance, kernel.noise_variance
        ls = np.asarray(kernel.lengthscales)
        inv_l2 = 1.0 / (ls * ls)

    low, alpha = lml.factor(s2, inv_l2, noise)
    return GpModel(
        train_y=y,
        bounds=tuple(bounds),
        kernel=kernel,
        degenerate=False,
        y_mean=y_mean,
        y_sd=y_sd,
        chol=low,
        alpha=alpha,
        lo=lo,
        width=width,
        ls=ls,
        x_scaled=x_unit / ls,
    )


def gp_predict(model: GpModel, x) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Posterior mean and variance at query inputs, in original units.

    Accepts a single d-vector (returns floats) or an (m, d) array (returns
    arrays); any other shape raises ``ValueError``.  Variance is that of the
    latent function; tiny negative values from rounding are clamped to zero.

    A point's prediction does not depend on the other rows of its batch,
    bit for bit: the mean and the variance are row-wise sums over the
    training points, and a lone query is solved as a pair of equal rows,
    because ``dtrtrs`` solves one right-hand side in another order than
    two or more.
    """
    q = np.asarray(x, dtype=float)
    d = len(model.bounds)
    if q.ndim not in (1, 2) or q.shape[-1] != d:
        raise ValueError(f"query shape {q.shape} does not match a {d}-dimensional model")
    single = q.ndim == 1
    if single:
        q = q[None, :]
    m = q.shape[0]

    if model.degenerate:
        mean = np.full(m, model.y_mean)
        var = np.zeros(m)
        return (float(mean[0]), float(var[0])) if single else (mean, var)

    if m == 1:
        q = np.repeat(q, 2, axis=0)
    s2 = model.kernel.signal_variance
    q_scaled = (q - model.lo) / model.width / model.ls
    r = np.sqrt(_scaled_sq_dists(q_scaled, model.x_scaled))
    k_star = _matern52(r, s2)  # (m, n), C-ordered
    mean_std = (k_star * model.alpha).sum(axis=1)
    v, _ = lapack.dtrtrs(model.chol, k_star.T, lower=1, overwrite_b=1)  # solves in k_star
    vt = v.T  # (m, n), C-ordered: dtrtrs returns a Fortran-ordered solution
    var_std = s2 - (vt * vt).sum(axis=1)
    var_std = np.maximum(var_std, 0.0)

    mean = model.y_mean + model.y_sd * mean_std[:m]
    var = (model.y_sd * model.y_sd) * var_std[:m]
    return (float(mean[0]), float(var[0])) if single else (mean, var)
