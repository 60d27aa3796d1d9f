"""Gaussian-process regression for the objective and constraint surrogates.

Exact GP regression with a Matern-5/2 ARD kernel.  Inputs are min-max
normalized to the unit cube using the search bounds (not the data), targets
are standardized; hyperparameters (signal variance, per-dimension
lengthscales, noise variance) maximize the log marginal likelihood by
multi-start L-BFGS-B in log-space with analytic gradients.  A cold fit runs
8 starts (a fixed default and 7 seeded random points).  A warm fit, given
the kernel of the same surrogate's previous fit, runs 2: that kernel, then
the default.  The winner is the start whose returned point scores the
lowest NLML, ties going to the earlier start.

The fit is dominated by call overhead, not arithmetic: training sets are
small (tens of points) and L-BFGS-B evaluates the likelihood dozens of
times per start.  ``_LmlWorkspace`` therefore holds everything that stays
fixed across one fit (the per-dimension squared differences flattened to
(d, n^2), the identity, the diagonal view, reused (n, n) buffers).  It owns
the fit's one training kernel matrix: it fills K in place from natural
parameters and factors it through ``lapack.dpotrf``/``dpotrs`` with
escalating jitter.  The likelihood gradient is GPML eq. 5.9, with K^-1
from ``dpotrs`` against the identity.  The fitted model factors that same
K, at the values the search scored at its optimum or at a fixed kernel's
own values, and prediction is one cross-covariance block, two row-wise
sums and one ``dtrtrs``, so that a point's prediction does not depend on
its batch.  ``minimize`` drives scipy's compiled L-BFGS-B iteration,
``_lbfgsb.setulb`` (Byrd, Lu, Nocedal & Zhu 1995), directly: scipy's
``minimize`` wrapper around it cost about as much per evaluation as the
likelihood itself.

Invariant: these shortcuts change only call overhead.  Every elementwise
operation and every reduction runs in the same order and over the same
memory layout as the plain expressions they replace (for instance each
gradient sum is a pairwise sum over the n^2 elements of a C-ordered
(n, n) block, as ``.sum()`` of that block is), so for a given
seed the likelihood, the fitted factors and the predictions are bit-for-bit
what the straightforward scipy.linalg code gives, and each search stops at
the point, after the evaluations, that ``scipy.optimize.minimize`` reaches.
Deterministic: a seeded RNG draws a cold fit's random starts, and a warm
fit draws none, so it does not depend on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, lapack
from scipy.optimize import _lbfgsb

__all__ = ["KernelParams", "GpModel", "gp_fit", "gp_predict"]

_SQRT5 = math.sqrt(5.0)
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6)
_COLD_RANDOM_STARTS = 7  # besides the default start

# log-space box for the hyperparameter search (standardized targets,
# unit-cube inputs), order: signal variance, lengthscales..., noise variance
_LOG_BOUNDS_SIGNAL = (math.log(1e-4), math.log(1e4))
_LOG_BOUNDS_LENGTH = (math.log(1e-2), math.log(1e2))
_LOG_BOUNDS_NOISE = (math.log(1e-10), math.log(1e1))

# L-BFGS-B settings of every search: scipy's defaults for L-BFGS-B but
# maxiter 200 and gtol 1e-6; factr is scipy's ftol in units of eps
_LBFGSB_M = 10  # stored correction pairs
_LBFGSB_FACTR = 2.220446049250313e-09 / np.finfo(float).eps
_LBFGSB_PGTOL = 1e-6
_LBFGSB_MAXLS = 20
_LBFGSB_MAXITER = 200
_LBFGSB_MAXFUN = 15000
# setulb's task codes: task[0] is what it asks for next, task[1] the reason
_TASK_FG, _TASK_NEW_X, _TASK_STOP = 3, 1, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


@dataclass(frozen=True)
class KernelParams:
    """Matern-5/2 ARD hyperparameters in normalized/standardized space."""

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
    ``factor`` fills K from natural parameters and factors it; calling the
    workspace with log(signal variance, lengthscales..., noise variance)
    returns (NLML, gradient), the pair ``minimize`` descends.  A kernel
    matrix that no jitter rung can factor scores 1e25 with a zero gradient,
    which steers L-BFGS-B away.
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
        self.k_signal = np.empty((n, n))
        self.k = np.empty((n, n))
        self.k_diag = self.k.reshape(n * n)[:: n + 1]
        self.w = np.empty((n, n))

    def natural(self, log_params: np.ndarray) -> tuple[float, np.ndarray, float]:
        """(signal variance, 1 / lengthscales^2, noise variance) of a search point."""
        d = self.d
        return math.exp(log_params[0]), np.exp(-2.0 * log_params[1 : 1 + d]), math.exp(log_params[1 + d])

    def factor(self, s2: float, inv_l2: np.ndarray, noise: float) -> tuple[np.ndarray, np.ndarray]:
        """Fill K, then Cholesky with escalating jitter: (L, alpha = K^-1 y)."""
        n = self.n
        c, expc, onec, tmp, ks = self.c, self.expc, self.onec, self.tmp, self.k_signal
        r2 = np.dot(inv_l2[None, :], self.flat).reshape(n, n)  # >= 0: needs no clamp
        np.sqrt(r2, out=c)
        np.multiply(c, _SQRT5, out=c)
        np.negative(c, out=expc)
        np.exp(expc, out=expc)
        # k_signal = s2 * (1 + c + 5 r^2 / 3) * exp(-c), left to right
        np.add(c, 1.0, out=onec)
        np.multiply(r2, 5.0, out=tmp)
        np.divide(tmp, 3.0, out=tmp)
        np.add(onec, tmp, out=ks)
        np.multiply(ks, s2, out=ks)
        np.multiply(ks, expc, out=ks)
        np.copyto(self.k, ks)
        np.add(self.k_diag, noise, out=self.k_diag)
        for jitter in _JITTERS:
            kj = self.k if jitter == 0.0 else self.k + jitter * self.eye
            low, info = lapack.dpotrf(kj, lower=1)
            if info == 0:
                alpha, _ = lapack.dpotrs(low, self.y, lower=1)
                return low, alpha
        raise LinAlgError(f"kernel matrix not positive definite even with jitter (dpotrf info {info})")

    def __call__(self, log_params: np.ndarray) -> tuple[float, np.ndarray]:
        d = self.d
        expc, onec, tmp, ks, w = self.expc, self.onec, self.tmp, self.k_signal, self.w
        s2, inv_l2, noise = self.natural(log_params)
        try:
            low, alpha = self.factor(s2, inv_l2, noise)
        except LinAlgError:
            return 1e25, np.zeros_like(log_params)

        nlml = 0.5 * float(self.y @ alpha) + float(np.log(low.diagonal()).sum()) + self.const

        k_inv, _ = lapack.dpotrs(low, self.eye, lower=1)
        np.multiply(alpha[:, None], alpha[None, :], out=w)
        np.subtract(w, k_inv, out=w)  # dLML/dK = 0.5 * W

        grad = np.empty_like(log_params)
        grad[0] = -0.5 * float(np.multiply(w, ks, out=tmp).sum())  # d/dlog s2 (negated for NLML)
        np.multiply(onec, s2 * (5.0 / 3.0), out=onec)
        np.multiply(onec, expc, out=onec)
        np.multiply(w, onec, out=onec)
        # one (n, n) sum per lengthscale, over the last two axes of a C-ordered array
        grad[1 : 1 + d] = -0.5 * inv_l2 * np.multiply(onec, self.raw_sq, out=self.tmp_d).sum(axis=(1, 2))
        grad[1 + d] = -0.5 * noise * float(w.trace())
        return nlml, grad


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Where one L-BFGS-B search stopped: its point, ``fun`` and evaluation count.

    ``fun`` is the value of the last evaluation, which after an abnormal
    line-search exit need not be the value at ``x``.
    """

    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun, x0: np.ndarray, bounds: list[tuple[float, float]]) -> SearchResult:
    """L-BFGS-B from ``x0`` inside a finite box; ``fun(x)`` returns (value, gradient).

    The same search, bit for bit, as ``scipy.optimize.minimize(fun, x0,
    jac=True, method="L-BFGS-B", bounds=bounds, options={"maxiter": 200,
    "gtol": 1e-6})``: x0 is clipped to the box and evaluated first; an
    evaluation is reused while ``setulb`` asks again at an equal x; the
    search stops after 200 iterations or once more than 15000 evaluations
    have run, and ``nfev`` counts evaluations as scipy does.
    """
    lower = np.array([b[0] for b in bounds], dtype=float)
    upper = np.array([b[1] for b in bounds], dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    n = x.size
    nbd = np.full(n, 2, dtype=np.int32)  # every variable bounded on both sides
    wa = np.zeros(2 * _LBFGSB_M * n + 5 * n + 11 * _LBFGSB_M * _LBFGSB_M + 8 * _LBFGSB_M)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)

    seen_x = x.tolist()
    seen_f, seen_g = fun(x.copy())
    nfev = 1
    f, g = np.array(0.0), np.zeros(n)
    iterations = 0
    while True:
        _lbfgsb.setulb(
            _LBFGSB_M, x, lower, upper, nbd, f, g, _LBFGSB_FACTR, _LBFGSB_PGTOL,
            wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task,
        )
        if task[0] == _TASK_FG:
            # float equality, as scipy's np.array_equal, but on lists: cheaper
            now = x.tolist()
            if now != seen_x:
                seen_x = now
                seen_f, seen_g = fun(x.copy())
                nfev += 1
            # setulb gets its own copy of the gradient, as under scipy
            f, g = seen_f, seen_g.copy()
        elif task[0] == _TASK_NEW_X:
            iterations += 1
            if iterations >= _LBFGSB_MAXITER:
                task[:] = (_TASK_STOP, _STOP_MAXITER)
            elif nfev > _LBFGSB_MAXFUN:
                task[:] = (_TASK_STOP, _STOP_MAXFUN)
        else:
            return SearchResult(x, f, nfev)


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
) -> GpModel:
    """Fit a GP to (input, target) pairs inside the given box.

    Needs at least two points with finite targets.  If all targets are
    identical the data cannot identify a signal variance; the fit returns a
    flagged constant model (zero signal variance, zero predictive variance)
    instead of failing.

    Otherwise the hyperparameters maximize the log marginal likelihood, and
    the model factors the very kernel matrix whose likelihood the search
    scored best.  Each start is one ``minimize`` search, the module's own
    L-BFGS-B loop (maxiter 200, gtol 1e-6), equal step for step to
    scipy's.  Without ``start`` the search is cold: 8 starts, the fixed
    default and 7 seeded random points.  ``start``, such as the same
    surrogate's fit on one point fewer, makes it warm: log(start), then the
    default; a warm fit draws no random start and ignores ``seed``.
    The winner is the start whose returned point the workspace scores
    lowest, the earliest on a tie (L-BFGS-B's ``fun`` after an abnormal
    line-search exit need not be the value at that point).

    Pass ``kernel`` to skip the search and condition on fixed values (used
    by tests and diagnostics); its kernel matrix comes from the same
    workspace.  ``start`` and ``kernel`` need d lengthscales, and finite,
    positive variances and lengthscales, else ``ValueError`` names the
    field; only a fixed kernel's noise variance may be zero (it is added
    to K's diagonal as given).  Raises ``LinAlgError`` when no jitter rung
    can factor the kernel matrix.  The search is deterministic for a given
    seed and start.
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
        default = np.array([0.0] + [math.log(0.5)] * d + [math.log(1e-4)])
        if start is not None:
            starts = [np.log([start.signal_variance, *start.lengthscales, start.noise_variance]), default]
        else:
            rng = np.random.default_rng(seed)
            starts = [default]
            for _ in range(_COLD_RANDOM_STARTS):
                s = np.concatenate(
                    [
                        rng.uniform(math.log(0.1), math.log(10.0), 1),
                        rng.uniform(math.log(0.05), math.log(2.0), d),
                        rng.uniform(math.log(1e-8), math.log(1e-2), 1),
                    ]
                )
                starts.append(s)
        box = [_LOG_BOUNDS_SIGNAL] + [_LOG_BOUNDS_LENGTH] * d + [_LOG_BOUNDS_NOISE]
        best_x, best_nlml = None, math.inf
        for s in starts:
            res = minimize(lml, s, box)
            nlml = lml(res.x)[0]
            if best_x is None or nlml < best_nlml:
                best_x, best_nlml = res.x, nlml
        s2, inv_l2, noise = lml.natural(best_x)
        ls = np.exp(best_x[1 : 1 + d])
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
