import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import ckgraph as ck
import ckgraph.expressions as expressions
from ckgraph.ambient import (expression_ambient, leaf_mean_curvature, preset_ambient,
                             round_sphere_metric)
from ckgraph.errors import DomainError, ParameterError
from conftest import central_difference

ALL_PRESETS = ["killing_flat", "example_a", "example_b", "example_c",
               "euclidean_radial"]


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_normalization(name):
    amb = preset_ambient(name)
    assert abs(float(np.asarray(amb.flow(0.0)[0])) - 1.0) <= 1e-12


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_positivity(name):
    amb = preset_ambient(name)
    hi = amb.interval_end if math.isfinite(amb.interval_end) else 2.0
    ts = np.linspace(hi - 6.0, hi - 1e-6, 200)
    assert np.all(np.asarray(amb.flow(ts)[0]) > 0)


def test_unnormalized_factor_rejected():
    with pytest.raises(ParameterError):
        ck.AmbientSpace(
            name="bad",
            flow=lambda t: (2.0 * np.exp(np.asarray(t)),
                            np.ones_like(np.asarray(t, dtype=float)),
                            np.zeros_like(np.asarray(t, dtype=float))),
            interval_end=math.inf,
            gamma=lambda u: (np.ones(np.asarray(u).shape[:-1]), np.zeros(np.asarray(u).shape)),
            base_metric=ck.flat_metric)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_derivatives_match_finite_differences(name):
    # rho against central differences of log lambda, rho_t against those of rho
    amb = preset_ambient(name)
    hi = min(0.5, amb.interval_end - 0.3) if math.isfinite(amb.interval_end) else 0.5
    ts = np.linspace(-2.0, hi, 41)
    log_lam = lambda t: np.log(np.asarray(amb.flow(t)[0]))
    fd1 = central_difference(log_lam, ts, 1e-6)
    fd2 = central_difference(lambda t: amb.flow(t)[1], ts, 1e-6)
    _, rho, rho_t = amb.flow(ts)
    assert (np.abs(fd1 - rho) / np.maximum(1.0, np.abs(rho))).max() < 1e-6
    assert (np.abs(fd2 - rho_t) / np.maximum(1.0, np.abs(rho_t))).max() < 1e-6


def test_example_b_rho_t_closed_form():
    amb = preset_ambient("example_b")
    ts = np.linspace(-3.0, 0.9, 50)
    expected = 1.0 / (1.0 - ts) ** 2
    assert np.allclose(np.asarray(amb.flow(ts)[2]), expected, atol=1e-9)


def _sinh_forms(t):
    s2 = ((math.sqrt(2.0) - 1.0) * np.exp(t)) ** 2
    return (1.0 + s2) / (1.0 - s2), 4.0 * s2 / (1.0 - s2) ** 2


# each preset's rho and rho_t, derived by hand: lambda is e^t, 1, 1/(1 - t),
# and 2 s / (1 - s^2) with s = (sqrt(2) - 1) e^t
_CLOSED_FORMS = {
    "killing_flat": lambda t: (np.zeros_like(t), np.zeros_like(t)),
    "example_a": lambda t: (np.ones_like(t), np.zeros_like(t)),
    "euclidean_radial": lambda t: (np.ones_like(t), np.zeros_like(t)),
    "example_b": lambda t: (1.0 / (1.0 - t), 1.0 / (1.0 - t) ** 2),
    "example_c": _sinh_forms,
}


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_rho_closed_form(name):
    # the jets of log(lambda) against the hand-derived forms, and finite
    # where lambda underflows (e^t below t = -745)
    amb = preset_ambient(name)
    hi = amb.interval_end if math.isfinite(amb.interval_end) else 2.0
    ts = np.linspace(-40.0, hi - 1e-3, 400)
    rho, rho_t = _CLOSED_FORMS[name](ts)
    _, got, got_t = amb.flow(ts)
    assert np.all(np.abs(got - rho) <= 1e-15 * np.abs(rho))
    assert np.all(np.abs(got_t - rho_t) <= 1e-12 * np.abs(rho_t))
    assert np.all(np.isfinite(amb.flow(np.array([-800.0, -2000.0]))[1:]))


@pytest.mark.parametrize("name, lam", [("killing_flat", np.ones_like),
                                       ("example_a", np.exp), ("euclidean_radial", np.exp)])
def test_preset_factor_bits(name, lam):
    # the ambients of the benchmark's workloads keep the closed forms' bits
    amb = preset_ambient(name)
    ts = np.linspace(-40.0, 2.0, 400)
    got_lam, got, got_t = amb.flow(ts)
    rho, rho_t = _CLOSED_FORMS[name](ts)
    assert np.array_equal(got_lam, lam(ts))
    assert np.array_equal(got, rho) and np.array_equal(got_t, rho_t)


def test_one_jet_pass_per_flow_call_two_per_gamma_call(monkeypatch):
    # flow: the plain pass of lam and one jet pass of log(lam) for both
    # derivatives; gamma: one jet pass per chart coordinate, the value taken
    # from the x pass.  ``evaluations`` counts whole-expression passes by
    # their variables, jets and plain passes alike.
    passes, evaluations = Counter(), Counter()
    along, compile_node = expressions._along, expressions._compile

    def counted_along(expr, env, name):
        passes[name] += 1
        return along(expr, env, name)

    def counted_compile(node, names, depth=0):
        fn = compile_node(node, names, depth)
        if depth:
            return fn

        def whole(env):
            evaluations[names] += 1
            return fn(env)
        return whole

    monkeypatch.setattr(expressions, "_along", counted_along)
    monkeypatch.setattr(expressions, "_compile", counted_compile)
    def counts(fn, arg):
        passes.clear()
        evaluations.clear()
        fn(arg)
        return passes, evaluations

    amb = expression_ambient("counted", "exp(t) + t*t", gamma="1 + 0.2*x*x + 0.1*sin(3*y)")
    for t in (np.linspace(-1.0, 0.5, 7), 0.25):
        assert counts(amb.flow, t) == (Counter(t=1), Counter({("t",): 2}))
    for u in (np.zeros((5, 2)), np.zeros((3, 5, 2))):
        assert counts(amb.gamma, u) == (Counter(x=1, y=1), Counter({("x", "y"): 2}))


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_presets_compare_by_value(name):
    # a preset is built once: two of one name are equal and hash equal
    assert preset_ambient(name) == preset_ambient(name)
    assert hash(preset_ambient(name)) == hash(preset_ambient(name))


def test_example_c_interval_end():
    amb = preset_ambient("example_c")
    assert amb.interval_end == pytest.approx(math.asinh(1.0), abs=1e-15)
    # rate conditions hold up to the end
    ts = np.linspace(-4.0, amb.interval_end - 1e-6, 300)
    lam, rho, rho_t = amb.flow(ts)
    assert np.all(lam * rho > 0)
    assert np.all(rho_t > 0)


def test_interval_enforced():
    # boundary data must stay below the interval end, and an iterate that
    # reaches it stops the operator
    amb = preset_ambient("example_b")
    mesh = ck.disk_mesh(0.4, 0.2, amb)
    with pytest.raises(ParameterError, match="below the interval end"):
        ck.Problem.create(amb, mesh, 0.0, 1.0)
    assembly = ck.Problem.create(amb, mesh, 0.0, 0.999).assembly()
    with pytest.raises(DomainError, match="reached the interval end"):
        assembly.residual(np.full(mesh.n_vertices, 1.0), 1.0)
    assert np.all(np.isfinite(assembly.residual(np.full(mesh.n_vertices, 0.999), 1.0)[0]))


def test_leaf_curvature_sign():
    # k = -rho(0) sqrt(gamma) at the base leaf: zero for the Killing
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


def test_other_leaf_metric_refused():
    # only the library API could pass one; its curvature and connection
    # would be unknown
    with pytest.raises(ParameterError, match="^base_metric: "):
        replace(preset_ambient("killing_flat"),
                base_metric=lambda u: 0.5 * ck.flat_metric(u))


def _metric_christoffel_fd(metric, pts, step=1e-5):
    """Christoffel symbols from central differences of the metric, an
    independent reference: Gamma^k_ij = 1/2 S^kl (d_i S_lj + d_j S_li - d_l S_ij)."""
    dS = np.stack([central_difference(metric, pts, step, e)
                   for e in np.eye(2)], axis=1)              # dS[p, l, i, j]
    term = np.einsum("pilj->plij", dS) + np.einsum("pjli->plij", dS) - dS
    return 0.5 * np.einsum("pkl,plij->pkij", np.linalg.inv(metric(pts)), term)


def test_round_christoffel_symbols_match_metric_differences():
    rng = np.random.default_rng(5)
    r, th = rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 2 * math.pi, 2000)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    pts[:20] *= 1e-4                 # the series branch near the pole
    symbols = preset_ambient("euclidean_radial").leaf.christoffel
    ref = _metric_christoffel_fd(round_sphere_metric, pts)
    # the central differences' own error is about 2.5e-11 here
    assert np.abs(symbols(pts) - ref).max() < 1e-10
    assert np.array_equal(symbols(np.zeros((1, 2))), np.zeros((1, 2, 2, 2)))
