import math
from dataclasses import replace

import numpy as np
import pytest

import ckgraph as ck
from ckgraph.ambient import (fd_ambient_derivatives, leaf_mean_curvature,
                             preset_ambient, rho, rho_t, round_sphere_metric)
from ckgraph.errors import DomainError, ParameterError

ALL_PRESETS = ["killing_flat", "example_a", "example_b", "example_c",
               "euclidean_radial"]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_normalization(name):
    amb = preset_ambient(name)
    assert abs(float(np.asarray(amb.lam(0.0))) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_positivity(name):
    amb = preset_ambient(name)
    hi = amb.interval_end if math.isfinite(amb.interval_end) else 2.0
    ts = np.linspace(hi - 6.0, hi - 1e-6, 200)
    assert np.all(np.asarray(amb.lam(ts)) > 0)


def test_unnormalized_factor_rejected():
    with pytest.raises(ParameterError):
        ck.AmbientSpace(
            name="bad", lam=lambda t: 2.0 * np.exp(np.asarray(t)),
            lam_t=lambda t: 2.0 * np.exp(np.asarray(t)),
            lam_tt=lambda t: 2.0 * np.exp(np.asarray(t)),
            interval_end=math.inf,
            gamma=lambda u: np.ones(np.asarray(u).shape[:-1]),
            grad_gamma=lambda u: np.zeros(np.asarray(u).shape),
            base_metric=ck.flat_metric)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_derivatives_match_finite_differences(name):
    amb = preset_ambient(name)
    hi = min(0.5, amb.interval_end - 0.3) if math.isfinite(amb.interval_end) else 0.5
    ts = np.linspace(-2.0, hi, 41)
    step = 1e-6
    fd1 = (np.asarray(amb.lam(ts + step)) - np.asarray(amb.lam(ts - step))) / (2 * step)
    fd2 = (np.asarray(amb.lam(ts + step)) - 2 * np.asarray(amb.lam(ts))
           + np.asarray(amb.lam(ts - step))) / step**2
    lt = np.asarray(amb.lam_t(ts))
    ltt = np.asarray(amb.lam_tt(ts))
    assert (np.abs(fd1 - lt) / np.maximum(1.0, np.abs(lt))).max() < 1e-6
    assert (np.abs(fd2 - ltt) / np.maximum(1.0, np.abs(ltt))).max() < 1e-3


def test_example_b_rho_t_closed_form():
    amb = preset_ambient("example_b")
    ts = np.linspace(-3.0, 0.9, 50)
    expected = 1.0 / (1.0 - ts) ** 2
    assert np.allclose(np.asarray(rho_t(amb, ts)), expected, atol=1e-9)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_rho_closed_form(name):
    # rho = lambda_t / lambda to rounding where the quotient is defined, and
    # finite where lambda underflows (e^t below t = -745), which the
    # quotient of a custom ambient is not
    amb = preset_ambient(name)
    hi = amb.interval_end if math.isfinite(amb.interval_end) else 2.0
    ts = np.linspace(-12.0, hi - 1e-3, 400)
    quotient = np.asarray(amb.lam_t(ts)) / np.asarray(amb.lam(ts))
    assert np.allclose(rho(amb, ts), quotient, rtol=1e-15, atol=0.0)
    assert np.all(np.isfinite(rho(amb, np.array([-800.0, -2000.0]))))
    custom = replace(amb, rho=None)
    assert np.array_equal(rho(custom, ts), quotient)


def test_example_c_interval_end():
    amb = preset_ambient("example_c")
    assert amb.interval_end == pytest.approx(math.asinh(1.0), abs=1e-15)
    # rate conditions hold up to the end
    ts = np.linspace(-4.0, amb.interval_end - 1e-6, 300)
    assert np.all(np.asarray(amb.lam_t(ts)) > 0)
    assert np.all(np.asarray(rho_t(amb, ts)) > 0)


def test_interval_enforced():
    amb = preset_ambient("example_b")
    with pytest.raises(DomainError):
        amb.check_t(1.0)
    with pytest.raises(DomainError):
        rho_t(amb, 1.5)
    assert amb.check_t(0.999) == 0.999


def test_leaf_curvature_sign():
    # k = -lambda_t(0) sqrt(gamma) at the base leaf: zero for the Killing
    # case, negative when the factor grows
    flat = preset_ambient("killing_flat")
    grow = preset_ambient("example_a")
    u = np.zeros(2)
    assert float(np.asarray(leaf_mean_curvature(flat, u))) == 0.0
    assert float(np.asarray(leaf_mean_curvature(grow, u))) == pytest.approx(-1.0)


def test_round_sphere_metric_radial_unit():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(50, 2))
    S = round_sphere_metric(pts)
    r = np.linalg.norm(pts, axis=1)
    rhat = pts / r[:, None]
    quad = np.einsum("mi,mij,mj->m", rhat, S, rhat)
    assert np.abs(quad - 1.0).max() < 1e-12


def test_round_sphere_metric_pole_smooth():
    near = round_sphere_metric(np.array([1e-9, 0.0]))
    assert np.allclose(near, np.eye(2), atol=1e-12)
    # tangential eigenvalue (sin r / r)^2
    pt = np.array([0.3, 0.0])
    S = round_sphere_metric(pt)
    assert S[1, 1] == pytest.approx((math.sin(0.3) / 0.3) ** 2, rel=1e-12)


def test_fd_fallback():
    lam = lambda t: np.exp(np.asarray(t, dtype=float))
    d1, d2 = fd_ambient_derivatives(lam)
    assert float(d1(0.3)) == pytest.approx(math.exp(0.3), rel=1e-8)
    assert float(d2(0.3)) == pytest.approx(math.exp(0.3), rel=1e-3)
