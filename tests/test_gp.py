import math

import numpy as np
import pytest

from fourbar_synth.gp import KernelParams, gp_fit, gp_predict, log_marginal_likelihood

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
    model = gp_fit(pts, BOUNDS, kernel=kernel)
    y = np.array([p[1] for p in pts])
    y_std = (y - y.mean()) / y.std()
    k = matern52_dense(xs, xs, kernel) + 1e-3 * np.eye(len(xs))
    _, logdet = np.linalg.slogdet(k)
    expected = (
        -0.5 * y_std @ np.linalg.solve(k, y_std)
        - 0.5 * logdet
        - 0.5 * len(xs) * math.log(2.0 * math.pi)
    )
    assert log_marginal_likelihood(model) == pytest.approx(expected, abs=1e-8)


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
    with pytest.raises(ValueError):
        log_marginal_likelihood(model)


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
