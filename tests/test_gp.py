import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from fourbar_synth import gp
from fourbar_synth.gp import KernelParams, _LmlWorkspace, gp_fit, gp_predict

BOUNDS = ((0.0, 1.0), (0.0, 1.0))


def linear(p):
    return 2.0 * p[:, 0] - p[:, 1] + 0.5


def matern52_dense(xa, xb, kernel):
    ls = np.asarray(kernel.lengthscales)
    d = (xa[:, None, :] - xb[None, :, :]) / ls
    r = np.sqrt((d * d).sum(axis=2))
    sr5 = math.sqrt(5.0) * r
    return kernel.signal_variance * (1.0 + sr5 + 5.0 * r * r / 3.0) * np.exp(-sr5)


def make_points(n, seed=7):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.05, 0.95, size=(n, 2))
    return xs, [(tuple(x), float(y)) for x, y in zip(xs, linear(xs))]


def test_posterior_matches_dense_solve():
    # independent path: plain dense inverse, no Cholesky, no normalization
    # shortcuts (bounds are the unit box so inputs pass through unchanged)
    xs, pts = make_points(5)
    kernel = KernelParams(signal_variance=1.5, lengthscales=(0.4, 0.7), noise_variance=1e-4)
    model = gp_fit(pts, BOUNDS, kernel=kernel)

    y = np.array([p[1] for p in pts])
    y_std = (y - y.mean()) / y.std()
    k = matern52_dense(xs, xs, kernel) + 1e-4 * np.eye(len(xs))
    k_inv = np.linalg.inv(k)

    q = np.array([[0.2, 0.3], [0.8, 0.1], [0.5, 0.9], [0.35, 0.55]])
    k_star = matern52_dense(q, xs, kernel)
    mean = y.mean() + y.std() * (k_star @ k_inv @ y_std)
    var = y.std() ** 2 * (
        kernel.signal_variance - np.einsum("ij,ij->i", k_star @ k_inv, k_star)
    )

    mu, v = gp_predict(model, q)
    assert mu == pytest.approx(mean, abs=1e-10)
    assert v == pytest.approx(var, abs=1e-10)


def test_lml_matches_dense_formula():
    # the signal variance is profiled out: the likelihood's best, y'R^-1 y / n
    xs, pts = make_points(6)
    y_std = standardized(pts)
    nlml, _ = _LmlWorkspace(xs, y_std)(np.log([0.3, 0.6, 1e-3]))
    r = matern52_dense(xs, xs, KernelParams(1.0, (0.3, 0.6), 0.0)) + 1e-3 * np.eye(len(xs))
    k = y_std @ np.linalg.solve(r, y_std) / len(xs) * r
    _, logdet = np.linalg.slogdet(k)
    expected = (
        -0.5 * y_std @ np.linalg.solve(k, y_std)
        - 0.5 * logdet
        - 0.5 * len(xs) * math.log(2.0 * math.pi)
    )
    assert -nlml == pytest.approx(expected, abs=1e-8)


def test_interpolates_with_vanishing_noise():
    xs, pts = make_points(6)
    kernel = KernelParams(signal_variance=1.0, lengthscales=(0.5, 0.5), noise_variance=1e-12)
    model = gp_fit(pts, BOUNDS, kernel=kernel)
    mu, var = gp_predict(model, xs)
    assert np.abs(mu - linear(xs)).max() < 1e-8
    assert np.all(var >= 0.0)


def test_reverts_to_prior_far_from_data():
    pts = [((0.05, 0.05), 1.0), ((0.1, 0.08), 1.3), ((0.07, 0.12), 0.9)]
    kernel = KernelParams(signal_variance=2.0, lengthscales=(0.03, 0.03), noise_variance=1e-6)
    model = gp_fit(pts, BOUNDS, kernel=kernel)
    mu, var = gp_predict(model, (0.95, 0.95))
    y = np.array([1.0, 1.3, 0.9])
    assert mu == pytest.approx(y.mean(), abs=1e-6)
    assert var == pytest.approx(model.prior_variance, rel=1e-6)


def test_constant_targets_degenerate_model():
    pts = [((0.1, 0.2), 3.5), ((0.5, 0.5), 3.5), ((0.9, 0.3), 3.5)]
    model = gp_fit(pts, BOUNDS)
    assert model.degenerate
    mu, var = gp_predict(model, (0.42, 0.77))
    assert mu == 3.5
    assert var == 0.0


def test_conflicting_duplicates_absorbed_as_noise():
    pts = [((0.3, 0.3), 0.0), ((0.3, 0.3), 1.0), ((0.7, 0.6), 0.5), ((0.2, 0.8), 0.4)]
    model = gp_fit(pts, BOUNDS, seed=0)
    mu, var = gp_predict(model, (0.3, 0.3))
    assert math.isfinite(mu) and math.isfinite(var)
    assert 0.0 <= mu <= 1.0
    assert model.kernel.noise_variance > 1e-3


def test_variance_never_exceeds_prior():
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.0, 1.0, size=(12, 2))
    ys = np.sin(6.0 * xs[:, 0]) + xs[:, 1] ** 2
    model = gp_fit([(tuple(x), float(y)) for x, y in zip(xs, ys)], BOUNDS, seed=1)
    q = rng.uniform(0.0, 1.0, size=(200, 2))
    _, var = gp_predict(model, q)
    assert np.all(var <= model.prior_variance + 1e-9)
    assert np.all(var >= 0.0)


def test_more_data_never_increases_variance():
    # same kernel, same target standardization (mean 0, sd 1 by construction)
    xs = np.array([[0.1, 0.1], [0.9, 0.2], [0.4, 0.8], [0.7, 0.7], [0.2, 0.5], [0.6, 0.35]])
    ys = [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]
    kernel = KernelParams(signal_variance=1.2, lengthscales=(0.35, 0.35), noise_variance=1e-6)
    pts = [(tuple(x), y) for x, y in zip(xs, ys)]
    small = gp_fit(pts[:4], BOUNDS, kernel=kernel)
    full = gp_fit(pts, BOUNDS, kernel=kernel)
    rng = np.random.default_rng(5)
    q = rng.uniform(0.0, 1.0, size=(100, 2))
    _, var_small = gp_predict(small, q)
    _, var_full = gp_predict(full, q)
    assert np.all(var_full <= var_small + 1e-12)


def test_fit_is_deterministic():
    _, pts = make_points(8)
    a = gp_fit(pts, BOUNDS, seed=3)
    b = gp_fit(pts, BOUNDS, seed=3)
    assert a.kernel == b.kernel
    q = np.array([[0.33, 0.44], [0.6, 0.2]])
    assert np.array_equal(gp_predict(a, q)[0], gp_predict(b, q)[0])


def test_recovers_linear_function():
    xs, pts = make_points(10)
    model = gp_fit(pts, BOUNDS, seed=0)
    rng = np.random.default_rng(9)
    q = rng.uniform(0.15, 0.85, size=(20, 2))
    mu, _ = gp_predict(model, q)
    assert np.abs(mu - linear(q)).max() < 1e-3


def test_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        gp_fit([((0.1, 0.2), 1.0)], BOUNDS)
    with pytest.raises(ValueError):
        gp_fit([((0.1, 0.2), 1.0), ((0.3, 0.4), float("nan"))], BOUNDS)
    with pytest.raises(ValueError):
        gp_fit([((0.1,), 1.0), ((0.3,), 2.0)], BOUNDS)


@pytest.mark.parametrize("box", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (0.0, 0.0), (1.0, 0.0)])
def test_fit_rejects_bounds_that_are_not_a_box_naming_the_axis(box):
    # an infinite width scales every input of the axis to 0, a NaN one makes
    # every prediction NaN, a zero one divides by zero
    _, pts = make_points(5)
    with pytest.raises(ValueError, match=r"^bounds\[1\] must be finite with lo < hi"):
        gp_fit(pts, ((0.0, 1.0), box))


def test_prediction_does_not_depend_on_the_batch():
    # the same points predicted in one batch, behind other points, in
    # uneven pieces and one at a time give the same bits
    rng = np.random.default_rng(11)
    bounds = ((0.03, 0.14), (0.15, 0.34), (0.08, 0.25))
    lo = np.array([b[0] for b in bounds])
    width = np.array([b[1] for b in bounds]) - lo
    for n in (5, 23, 47):
        xs = lo + rng.uniform(size=(n, 3)) * width
        ys = np.sin(xs @ np.array([30.0, 20.0, 10.0])) + 0.1 * rng.normal(size=n)
        model = gp_fit([(tuple(x), float(y)) for x, y in zip(xs, ys)], bounds, seed=n)
        q = lo + rng.uniform(size=(40, 3)) * width
        mean, var = gp_predict(model, q)
        others = lo + rng.uniform(size=(13, 3)) * width
        shifted = [a[13:] for a in gp_predict(model, np.vstack([others, q]))]
        pieces = [gp_predict(model, q[i:j]) for i, j in ((0, 1), (1, 3), (3, 10), (10, 40))]
        split = [np.concatenate(a) for a in zip(*pieces)]
        alone = [np.array(a) for a in zip(*(gp_predict(model, row) for row in q))]
        for got_mean, got_var in (shifted, split, alone):
            assert np.array_equal(got_mean.view(np.int64), mean.view(np.int64))
            assert np.array_equal(got_var.view(np.int64), var.view(np.int64))


def test_predict_rejects_query_of_wrong_dimension():
    bounds3 = ((0.0, 1.0),) * 3
    pts = [((0.1, 0.2, 0.3), 1.0), ((0.5, 0.6, 0.4), 2.0), ((0.9, 0.1, 0.7), 0.5)]
    constant = [(p[0], 4.0) for p in pts]
    for model in (gp_fit(pts, bounds3, seed=0), gp_fit(constant, bounds3)):
        for bad in ([0.5], np.full((4, 1), 0.5), np.full((2, 3, 3), 0.5), 0.5):
            with pytest.raises(ValueError):
                gp_predict(model, bad)
        gp_predict(model, (0.5, 0.5, 0.5))


def standardized(pts):
    y = np.array([p[1] for p in pts])
    return (y - y.mean()) / y.std()


def capture_minimize(monkeypatch):
    """Record every ``gp.minimize`` result of the fits that follow."""
    results = []
    real = gp.minimize

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(gp, "minimize", recording)
    return results


def search_optimum(results, lml):
    """The winning start as ``gp_fit`` picks it: the first whose point scores the lowest NLML."""
    return min(results, key=lambda res: lml(res.x)[0])


def test_lml_workspace_value_matches_fitted_model(monkeypatch):
    # a fixed kernel is factored by the workspace at its own values
    xs, pts = make_points(7)
    y_std = standardized(pts)
    kernel = KernelParams(signal_variance=0.7, lengthscales=(0.35, 0.8), noise_variance=2e-3)
    ls = np.array(kernel.lengthscales)
    low, alpha = _LmlWorkspace(xs, y_std).factor(0.7, 1.0 / (ls * ls), 2e-3)
    model = gp_fit(pts, BOUNDS, kernel=kernel)
    assert np.array_equal(model.chol, low)
    assert np.array_equal(model.alpha, alpha)

    # a searched model's kernel is the winning start's point, with the
    # signal variance the workspace profiles there (the winner is picked by
    # its point's score, not by its ``fun``, which after an abnormal
    # line-search exit need not be the value at that point).  The model
    # factors that kernel as a fixed kernel is factored, s2 C + (s2 g) I
    results = capture_minimize(monkeypatch)
    model = gp_fit(pts, BOUNDS, seed=5)
    lml = _LmlWorkspace(xs, y_std)
    best = search_optimum(results, lml).x
    inv_l2, g = lml.natural(best)
    s2 = lml.signal_variance(lml.factor(1.0, inv_l2, g)[1])
    assert model.kernel == KernelParams(s2, tuple(np.exp(best[:2]).tolist()), s2 * g)
    low, alpha = lml.factor(s2, inv_l2, s2 * g)
    assert np.array_equal(model.chol, low)
    assert np.array_equal(model.alpha, alpha)


def test_fit_picks_the_start_whose_point_scores_lowest(monkeypatch):
    # many starts end on an abnormal line-search exit, where L-BFGS-B's
    # ``fun`` is not the NLML at its ``x``; at some seeds the lowest ``fun``
    # belongs to a start whose point scores worse than another start's
    xs, pts = make_points(7)
    lml = _LmlWorkspace(xs, standardized(pts))
    results = capture_minimize(monkeypatch)

    def starts_run(**fit_args):
        results.clear()
        model = gp_fit(pts, BOUNDS, **fit_args)
        scores = [lml(res.x)[0] for res in results]
        winner = scores.index(min(scores))
        assert model.kernel.lengthscales == tuple(np.exp(results[winner].x[:2]).tolist())
        abnormal = any(res.message.startswith("ABNORMAL") for res in results)
        return len(results), abnormal, winner != int(np.argmin([res.fun for res in results]))

    warm = KernelParams(0.9, (0.6, 1.4), 1e-5)
    cold_runs = [starts_run(seed=seed) for seed in range(8)]
    assert [count for count, _, _ in cold_runs] == [8] * 8
    assert any(abnormal and fooled for _, abnormal, fooled in cold_runs)
    assert [starts_run(seed=seed, start=warm)[0] for seed in range(8)] == [2] * 8


def test_warm_fit_adds_the_default_start_only_on_restart(monkeypatch):
    # a warm fit searches from its start kernel alone unless ``restart``
    # adds the default start; a lone start's point is not scored again,
    # while each of several starts is scored once to pick the winner.  A
    # cold fit runs its 8 starts either way
    _, pts = make_points(7)
    warm = KernelParams(0.9, (0.6, 1.4), 1e-5)
    results = capture_minimize(monkeypatch)
    calls = []
    workspace_call = _LmlWorkspace.__call__

    def counting_call(self, log_params):
        calls.append(log_params)
        return workspace_call(self, log_params)

    monkeypatch.setattr(_LmlWorkspace, "__call__", counting_call)

    def searches_and_rescores(**fit_args):
        results.clear()
        calls.clear()
        gp_fit(pts, BOUNDS, **fit_args)
        return len(results), len(calls) - sum(res.nfev for res in results)

    assert searches_and_rescores(start=warm, restart=False) == (1, 0)
    assert searches_and_rescores(start=warm, restart=True) == (2, 2)
    assert searches_and_rescores(start=warm) == (2, 2)
    assert searches_and_rescores(seed=3, restart=False) == (8, 8)
    assert searches_and_rescores(seed=3) == (8, 8)


def same_model(a, b):
    """Every field of two fitted models equal, arrays elementwise."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name))
        if isinstance(getattr(a, f.name), np.ndarray)
        else getattr(a, f.name) == getattr(b, f.name)
        for f in dataclasses.fields(a)
    )


def test_warm_fit_draws_no_random_start(monkeypatch):
    _, pts = make_points(7)
    warm = KernelParams(0.9, (0.6, 1.4), 1e-5)
    models = [gp_fit(pts, BOUNDS, seed=seed, start=warm) for seed in range(8)]
    assert all(same_model(model, models[0]) for model in models[1:])

    def no_rng(*args, **kwargs):
        raise AssertionError("a warm fit drew from an RNG")

    monkeypatch.setattr(gp.np.random, "default_rng", no_rng)
    assert same_model(gp_fit(pts, BOUNDS, seed=3, start=warm), models[0])


UNUSABLE_KERNELS = [
    (KernelParams(-1.0, (0.5, 0.5), 1e-4), "signal_variance"),
    (KernelParams(0.0, (0.5, 0.5), 1e-4), "signal_variance"),
    (KernelParams(math.inf, (0.5, 0.5), 1e-4), "signal_variance"),
    (KernelParams(1.0, (0.5, math.nan), 1e-4), "lengthscales[1]"),
    (KernelParams(1.0, (0.0, 0.5), 1e-4), "lengthscales[0]"),
    (KernelParams(1.0, (0.5,), 1e-4), "lengthscales"),
    (KernelParams(1.0, (0.5, 0.5, 0.5), 1e-4), "lengthscales"),
    (KernelParams(1.0, (0.5, 0.5), math.nan), "noise_variance"),
]


# log(start) is the first search point, so a start's noise must be > 0 too;
# a fixed kernel's noise is added to K as given (zero noise interpolates)
@pytest.mark.parametrize(
    "field, params, named",
    [(field, params, named) for field in ("start", "kernel") for params, named in UNUSABLE_KERNELS]
    + [("start", KernelParams(1.0, (0.5, 0.5), noise), "noise_variance") for noise in (0.0, -1e-4)],
)
def test_fit_rejects_an_unusable_kernel_naming_its_field(field, params, named):
    _, pts = make_points(7)
    with pytest.raises(ValueError, match=rf"^{field}\.{re.escape(named)} "):
        gp_fit(pts, BOUNDS, **{field: params})


def test_lml_workspace_gradient_matches_central_differences():
    # at standardized targets the profiled signal variance lies inside its
    # box; targets scaled by 1e3 or 1e-3 put it above or below, where the
    # clip binds and s2 is constant
    xs, pts = make_points(9, seed=4)
    log_params = np.log([0.4, 0.6, 1e-2])
    low_s2, high_s2 = gp._SIGNAL_BOUNDS
    for scale, clipped in ((1.0, None), (1e3, high_s2), (1e-3, low_s2)):
        lml = _LmlWorkspace(xs, scale * standardized(pts))
        s2 = lml.signal_variance(lml.factor(1.0, *lml.natural(log_params))[1])
        assert s2 == clipped if clipped else low_s2 < s2 < high_s2
        _, grad = lml(log_params)
        h = 1e-5
        for i in range(log_params.size):  # each lengthscale, the noise ratio
            step = np.zeros_like(log_params)
            step[i] = h
            fd = (lml(log_params + step)[0] - lml(log_params - step)[0]) / (2.0 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_lml_workspace_survives_singular_kernel():
    # duplicated inputs and a vanishing noise make K exactly singular, so
    # only a jitter rung can factor it
    xs, pts = make_points(5)
    xs = np.vstack([xs, xs[:2]])
    pts = pts + pts[:2]
    log_params = np.array([math.log(0.3), math.log(0.3), math.log(1e-300)])
    kernel = KernelParams(1.0, (0.3, 0.3), 1e-300)
    k = matern52_dense(xs, xs, kernel) + 1e-300 * np.eye(len(xs))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(k)
    nlml, grad = _LmlWorkspace(xs, standardized(pts))(log_params)
    assert math.isfinite(nlml) and nlml < 1e25
    assert np.all(np.isfinite(grad))


def test_zero_noise_fixed_kernel_fits_without_warnings():
    # a fixed kernel never passes through log-space, where 0 would warn
    xs, pts = make_points(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = gp_fit(pts, BOUNDS, kernel=KernelParams(1.0, (0.3, 0.3), 0.0))
        mu, _ = gp_predict(model, xs)
    assert np.abs(mu - linear(xs)).max() < 1e-8


def test_fixed_kernel_negative_noise_raises_naming_it():
    # even a noise small enough that K still factors
    _, pts = make_points(5)
    with pytest.raises(ValueError, match=r"^kernel\.noise_variance must be >= 0, got -1e-06$"):
        gp_fit(pts, BOUNDS, kernel=KernelParams(1.0, (0.3, 0.3), -1e-6))


def test_fixed_kernel_no_jitter_can_factor_raises():
    # one input observed twice: with zero noise two rows of K are equal, and
    # every jitter rung (at most 1e-6) rounds away on a diagonal of 1e12
    pts = [((0.5, 0.5), 1.0), ((0.5, 0.5), 2.0), ((0.2, 0.7), 0.0)]
    with pytest.raises(np.linalg.LinAlgError):
        gp_fit(pts, BOUNDS, kernel=KernelParams(1e12, (0.3, 0.3), 0.0))


def test_fit_reaches_minimize_through_module_global(monkeypatch):
    # the benchmark counts likelihood evaluations by wrapping gp.minimize
    results = capture_minimize(monkeypatch)
    _, pts = make_points(8)
    gp_fit(pts, BOUNDS, seed=2)
    assert len(results) == 8
    assert all(res.nfev > 0 for res in results)


# Straightforward scipy.linalg versions of the fit's likelihood, the fit's
# factorization and the prediction.  The module computes the same
# expressions through reused buffers and direct LAPACK calls; its results
# must equal these bit for bit.  The likelihood, with R = C + g I, and the
# fitted model, with K = s2 C + (s2 g) I, build their matrices through one
# ``plain_gram``.


def plain_natural(log_params, d):
    return np.exp(-2.0 * log_params[:d]), math.exp(log_params[d])


def plain_gram(x_unit, s2, inv_l2, noise):
    """Squared differences, sqrt(5) r, exp(-sqrt(5) r) and K."""
    diff = x_unit.T[:, :, None] - x_unit.T[:, None, :]
    raw_sq = diff * diff
    r2 = np.tensordot(inv_l2, raw_sq, axes=1)
    c = math.sqrt(5.0) * np.sqrt(np.maximum(r2, 0.0))
    expc = np.exp(-c)
    k = s2 * (1.0 + c + 5.0 * r2 / 3.0) * expc
    k[np.diag_indices(len(x_unit))] += noise
    return raw_sq, c, expc, k


def plain_profile(x_unit, y, inv_l2, g):
    """Gram terms of R = C + g I, its Cholesky factor, R^-1 y and the clipped best s2."""
    raw_sq, c, expc, r = plain_gram(x_unit, 1.0, inv_l2, g)
    low = cholesky(r, lower=True)
    alpha = cho_solve((low, True), y)
    s2 = min(max(float(y @ alpha) / len(y), 1e-4), 1e4)
    return raw_sq, c, expc, low, alpha, s2


def plain_neg_lml_and_grad(log_params, x_unit, y):
    n, d = x_unit.shape
    inv_l2, g = plain_natural(log_params, d)
    raw_sq, c, expc, low, alpha, s2 = plain_profile(x_unit, y, inv_l2, g)
    nlml = 0.5 * float(y @ alpha) / s2 + 0.5 * n * math.log(s2)
    nlml += float(np.log(np.diag(low)).sum()) + 0.5 * n * math.log(2.0 * math.pi)
    w = np.outer(alpha / s2, alpha) - cho_solve((low, True), np.eye(n))
    grad = np.empty_like(log_params)
    wb = w * ((5.0 / 3.0) * (1.0 + c) * expc)
    for j in range(d):
        grad[j] = -0.5 * inv_l2[j] * float((wb * raw_sq[j]).sum())
    grad[d] = -0.5 * g * float(np.trace(w))
    return nlml, grad


def plain_kernel(xa, xb, kernel):
    ls = np.asarray(kernel.lengthscales)
    diff = xa[:, None, :] / ls - xb[None, :, :] / ls
    sq = diff * diff
    r2 = sq[:, :, 0]
    for k in range(1, sq.shape[2]):  # dimension by dimension, left to right
        r2 = r2 + sq[:, :, k]
    r = np.sqrt(np.maximum(r2, 0.0))
    c = math.sqrt(5.0) * r
    return kernel.signal_variance * (1.0 + c + 5.0 * r * r / 3.0) * np.exp(-c)


def plain_predict(model, x_unit, q):
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    k_star = plain_kernel((q - lo) / (hi - lo), x_unit, model.kernel)
    # a lone row is solved as a pair: one right-hand side takes another path
    rhs = np.repeat(k_star, 2, axis=0) if len(q) == 1 else k_star
    v = np.ascontiguousarray(solve_triangular(model.chol, rhs.T, lower=True).T[: len(q)])
    var = np.maximum(model.kernel.signal_variance - (v * v).sum(axis=1), 0.0)
    mean = (k_star * model.alpha).sum(axis=1)
    return model.y_mean + model.y_sd * mean, model.y_sd * model.y_sd * var


@pytest.mark.parametrize("n, d", [(3, 1), (9, 2), (17, 3), (40, 3)])
def test_lml_workspace_is_bit_identical_to_plain_expressions(n, d):
    rng = np.random.default_rng(n)
    x_unit = rng.uniform(0.0, 1.0, size=(n, d))
    y = rng.normal(size=n)
    lml = _LmlWorkspace(x_unit, y)
    for _ in range(20):
        log_params = np.concatenate([rng.uniform(-2.5, 1.0, d), rng.uniform(-9.0, -2.0, 1)])
        nlml, grad = lml(log_params)
        ref_nlml, ref_grad = plain_neg_lml_and_grad(log_params, x_unit, y)
        assert nlml == ref_nlml
        assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("n, d", [(4, 1), (12, 3), (30, 3)])
def test_fit_and_predict_are_bit_identical_to_plain_expressions(n, d, monkeypatch):
    results = capture_minimize(monkeypatch)
    rng = np.random.default_rng(100 + n)
    bounds = tuple((lo, lo + w) for lo, w in zip(rng.uniform(-1.0, 1.0, d), rng.uniform(0.1, 2.0, d)))
    lo = np.array([b[0] for b in bounds])
    width = np.array([b[1] for b in bounds]) - lo
    xs = lo + rng.uniform(0.0, 1.0, size=(n, d)) * width
    pts = [(tuple(x), float(v)) for x, v in zip(xs, rng.normal(size=n))]
    model = gp_fit(pts, bounds, seed=n)

    # the model factors K = s2 C + (s2 g) I at the winning start's point,
    # with the signal variance profiled there
    x_unit = (xs - lo) / width
    y_std = standardized(pts)
    best = search_optimum(results, _LmlWorkspace(x_unit, y_std)).x
    inv_l2, g = plain_natural(best, d)
    s2 = plain_profile(x_unit, y_std, inv_l2, g)[-1]
    assert model.kernel == KernelParams(s2, tuple(np.exp(best[:d]).tolist()), s2 * g)
    *_, k = plain_gram(x_unit, s2, inv_l2, s2 * g)
    low = cholesky(k, lower=True)
    assert np.array_equal(model.chol, low)
    assert np.array_equal(model.alpha, cho_solve((low, True), y_std))

    for m in (1, 7, 300):
        q = lo + rng.uniform(-0.1, 1.1, size=(m, d)) * width
        mean, var = gp_predict(model, q)
        ref_mean, ref_var = plain_predict(model, x_unit, q)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(var, ref_var)
