import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
import scipy.optimize
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
    xs, pts = make_points(6)
    kernel = KernelParams(signal_variance=0.8, lengthscales=(0.3, 0.6), noise_variance=1e-3)
    y_std = standardized(pts)
    nlml, _ = _LmlWorkspace(xs, y_std)(np.log([0.8, 0.3, 0.6, 1e-3]))
    k = matern52_dense(xs, xs, kernel) + 1e-3 * np.eye(len(xs))
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


def model_nlml(model, y_std):
    """The NLML of a fitted model, from its own factors."""
    return (
        0.5 * float(y_std @ model.alpha)
        + float(np.log(model.chol.diagonal()).sum())
        + 0.5 * len(y_std) * math.log(2.0 * math.pi)
    )


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

    # a searched model factors the matrix the workspace scores at the
    # winning start's point (not its ``fun``, which after an abnormal
    # line-search exit need not be the value at that point)
    results = capture_minimize(monkeypatch)
    model = gp_fit(pts, BOUNDS, seed=5)
    lml = _LmlWorkspace(xs, y_std)
    assert model_nlml(model, y_std) == lml(search_optimum(results, lml).x)[0]


def test_fit_picks_the_start_whose_point_scores_lowest(monkeypatch):
    # some starts end on an abnormal line-search exit, where L-BFGS-B's
    # ``fun`` is not the NLML at its ``x``; at seed 5 the lowest ``fun``
    # belongs to a start whose point scores worse than another start's
    xs, pts = make_points(7)
    y_std = standardized(pts)
    lml = _LmlWorkspace(xs, y_std)
    results = capture_minimize(monkeypatch)

    def starts_run(**fit_args):
        results.clear()
        model = gp_fit(pts, BOUNDS, **fit_args)
        assert model_nlml(model, y_std) == min(lml(res.x)[0] for res in results)
        return len(results)

    warm = KernelParams(0.9, (0.6, 1.4), 1e-5)
    assert [starts_run(seed=seed) for seed in range(8)] == [8] * 8
    assert [starts_run(seed=seed, start=warm) for seed in range(8)] == [2] * 8


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
    xs, pts = make_points(9, seed=4)
    lml = _LmlWorkspace(xs, standardized(pts))
    log_params = np.log([1.3, 0.4, 0.6, 1e-2])
    _, grad = lml(log_params)
    h = 1e-5
    for i in range(log_params.size):  # signal variance, each lengthscale, noise
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
    log_params = np.array([0.0, math.log(0.3), math.log(0.3), math.log(1e-300)])
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


def test_fixed_kernel_no_jitter_can_factor_raises():
    # a negative noise variance leaves K indefinite beyond the largest jitter
    _, pts = make_points(5)
    with pytest.raises(np.linalg.LinAlgError):
        gp_fit(pts, BOUNDS, kernel=KernelParams(1.0, (0.3, 0.3), -1.0))


def scipy_lbfgsb(fun, x0, bounds):
    """The reference search: scipy's L-BFGS-B wrapper with the fit's options."""
    return scipy.optimize.minimize(
        fun, x0, jac=True, method="L-BFGS-B", bounds=bounds, options={"maxiter": 200, "gtol": 1e-6}
    )


def same_search(res, ref):
    """Equal points, equal evaluation counts and equal last values."""
    return np.array_equal(res.x, ref.x) and res.nfev == ref.nfev and res.fun == ref.fun


def log_box(d):
    return [gp._LOG_BOUNDS_SIGNAL] + [gp._LOG_BOUNDS_LENGTH] * d + [gp._LOG_BOUNDS_NOISE]


@pytest.mark.parametrize("n, d", [(4, 1), (12, 3), (30, 3)])
def test_minimize_is_scipy_lbfgsb_on_likelihood_workspaces(n, d):
    rng = np.random.default_rng(200 + n)
    y = rng.normal(size=n)
    lml = _LmlWorkspace(rng.uniform(0.0, 1.0, size=(n, d)), (y - y.mean()) / y.std())
    for _ in range(6):
        # some starts lie outside the box and are clipped into it
        x0 = np.concatenate([rng.uniform(-3.0, 3.0, 1), rng.uniform(-6.0, 6.0, d), rng.uniform(-26.0, 3.0, 1)])
        assert same_search(gp.minimize(lml, x0, log_box(d)), scipy_lbfgsb(lml, x0, log_box(d)))


def test_minimize_is_scipy_lbfgsb_on_abnormal_exits_and_the_noise_floor(monkeypatch):
    searches = []
    real = gp.minimize

    def checked(fun, x0, bounds):
        res = real(fun, x0, bounds)
        searches.append((res, scipy_lbfgsb(fun, x0, bounds)))
        return res

    monkeypatch.setattr(gp, "minimize", checked)
    _, pts = make_points(7)
    gp_fit(pts, BOUNDS, seed=5)
    assert len(searches) == 8
    assert all(same_search(res, ref) for res, ref in searches)
    # seed 5 has starts that end on an abnormal line-search exit, and
    # starts whose noise variance ends at its 1e-10 floor
    assert any(ref.message.startswith("ABNORMAL") for _, ref in searches)
    assert any(ref.x[-1] == gp._LOG_BOUNDS_NOISE[0] for _, ref in searches)


def test_minimize_is_scipy_lbfgsb_at_the_iteration_limit():
    scale = np.logspace(0.0, 8.0, 10)  # ill-conditioned: 200 iterations do not converge

    def quadratic(x):
        return float(0.5 * (scale * x * x).sum()), scale * x

    x0 = np.where(np.arange(10) % 2 == 0, -1.2, 1.5)
    ref = scipy_lbfgsb(quadratic, x0, [(-2.0, 2.0)] * 10)
    assert ref.nit == 200
    assert same_search(gp.minimize(quadratic, x0, [(-2.0, 2.0)] * 10), ref)


def test_minimize_evaluates_the_clipped_start_first_and_never_twice_in_a_row():
    _, pts = make_points(6)
    xs = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    lml = _LmlWorkspace(xs, (y - y.mean()) / y.std())
    seen = []

    def recording(x):
        seen.append(x.copy())
        return lml(x)

    x0 = np.array([12.0, math.log(0.5), math.log(0.5), math.log(1e-4)])  # signal variance above its box
    res = gp.minimize(recording, x0, log_box(2))
    assert np.array_equal(seen[0], np.clip(x0, *np.array(log_box(2)).T))
    assert res.nfev == len(seen) > 1
    assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))


def test_setulb_has_the_signature_minimize_drives():
    # the compiled L-BFGS-B step that gp.minimize calls; scipy's own wrapper
    # has called it this way since its L-BFGS-B moved from Fortran to C
    signature = scipy.optimize._lbfgsb.setulb.__doc__.splitlines()[0]
    assert signature == "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


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
# must equal these bit for bit.  The likelihood and the fitted model share
# one kernel matrix, ``plain_gram``.


def plain_natural(log_params, d):
    return math.exp(log_params[0]), np.exp(-2.0 * log_params[1 : 1 + d]), math.exp(log_params[1 + d])


def plain_gram(x_unit, s2, inv_l2, noise):
    """Squared differences, sqrt(5) r, exp(-sqrt(5) r), the signal part of K, and K."""
    diff = x_unit.T[:, :, None] - x_unit.T[:, None, :]
    raw_sq = diff * diff
    r2 = np.tensordot(inv_l2, raw_sq, axes=1)
    c = math.sqrt(5.0) * np.sqrt(np.maximum(r2, 0.0))
    expc = np.exp(-c)
    k_signal = s2 * (1.0 + c + 5.0 * r2 / 3.0) * expc
    k = k_signal.copy()
    k[np.diag_indices(len(x_unit))] += noise
    return raw_sq, c, expc, k_signal, k


def plain_neg_lml_and_grad(log_params, x_unit, y):
    n, d = x_unit.shape
    s2, inv_l2, noise = plain_natural(log_params, d)
    raw_sq, c, expc, k_signal, k = plain_gram(x_unit, s2, inv_l2, noise)
    low = cholesky(k, lower=True)
    alpha = cho_solve((low, True), y)
    nlml = 0.5 * float(y @ alpha) + float(np.log(np.diag(low)).sum()) + 0.5 * n * math.log(2.0 * math.pi)
    w = np.outer(alpha, alpha) - cho_solve((low, True), np.eye(n))
    grad = np.empty_like(log_params)
    grad[0] = -0.5 * float((w * k_signal).sum())
    wb = w * (s2 * (5.0 / 3.0) * (1.0 + c) * expc)
    for j in range(d):
        grad[1 + j] = -0.5 * inv_l2[j] * float((wb * raw_sq[j]).sum())
    grad[1 + d] = -0.5 * noise * float(np.trace(w))
    return nlml, grad


def plain_kernel(xa, xb, kernel):
    ls = np.asarray(kernel.lengthscales)
    diff = xa[:, None, :] / ls - xb[None, :, :] / ls
    r = np.sqrt(np.maximum(np.einsum("ijk,ijk->ij", diff, diff), 0.0))
    c = math.sqrt(5.0) * r
    return kernel.signal_variance * (1.0 + c + 5.0 * r * r / 3.0) * np.exp(-c)


def plain_predict(model, x_unit, q):
    lo = np.array([b[0] for b in model.bounds])
    hi = np.array([b[1] for b in model.bounds])
    k_star = plain_kernel((q - lo) / (hi - lo), x_unit, model.kernel)
    v = solve_triangular(model.chol, k_star.T, lower=True)
    var = np.maximum(model.kernel.signal_variance - np.einsum("ij,ij->j", v, v), 0.0)
    return model.y_mean + model.y_sd * (k_star @ model.alpha), model.y_sd * model.y_sd * var


@pytest.mark.parametrize("n, d", [(3, 1), (9, 2), (17, 3), (40, 3)])
def test_lml_workspace_is_bit_identical_to_plain_expressions(n, d):
    rng = np.random.default_rng(n)
    x_unit = rng.uniform(0.0, 1.0, size=(n, d))
    y = rng.normal(size=n)
    lml = _LmlWorkspace(x_unit, y)
    for _ in range(20):
        log_params = np.concatenate(
            [rng.uniform(-2.0, 2.0, 1), rng.uniform(-2.5, 1.0, d), rng.uniform(-9.0, -2.0, 1)]
        )
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

    # the model factors the search's kernel matrix at the winning start
    x_unit = (xs - lo) / width
    lml = _LmlWorkspace(x_unit, standardized(pts))
    *_, k = plain_gram(x_unit, *plain_natural(search_optimum(results, lml).x, d))
    low = cholesky(k, lower=True)
    assert np.array_equal(model.chol, low)
    assert np.array_equal(model.alpha, cho_solve((low, True), standardized(pts)))

    for m in (1, 7, 300):
        q = lo + rng.uniform(-0.1, 1.1, size=(m, d)) * width
        mean, var = gp_predict(model, q)
        ref_mean, ref_var = plain_predict(model, x_unit, q)
        assert np.array_equal(mean, ref_mean)
        assert np.array_equal(var, ref_var)
