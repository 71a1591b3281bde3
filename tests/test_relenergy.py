"""Relative energy functionals, regularity weights, residuals, Gronwall."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import dist, rotational_rhs, stacked
from support import analytic_test, forcing_coeffs, from_velocity, trilinears

from maxdiss.fields import Grid, from_function, pairing, project, random_field, spectral_tables
from maxdiss.relenergy import (
    WeightError,
    WeightSpec,
    cumulative_weight_integral,
    rel_terms,
    residual_A,
    weight_norms,
    weight_value,
)
from maxdiss.certificate import margin_series
from maxdiss.selector import assemble_family
from maxdiss.solver import Forcing, SystemSpec, TestTrajectory, _curl, _velocity, taylor_green


STRAIN = WeightSpec()


def _spec(nu=0.1, n=32):
    return SystemSpec(nu=nu, grid=Grid(n), t_end=1.0, dt=1e-3,
                      forcing=Forcing("zero"))


# -- quadratic functionals ---------------------------------------------------

def test_rel_energy_basics():
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid).coeffs
    R = rel_terms(_curl(np.stack([v - v, v])), 0.0)[0]
    assert R[0] == 0.0
    assert R[1] == pytest.approx(np.pi ** 2, rel=1e-13)
    assert R[1] == pytest.approx(0.5 * pairing(v, v), rel=1e-13)


def test_rel_energy_convexity_identity(rng):
    grid = Grid(16)
    u1, u2, v = (random_field(grid, rng, kmax=4).coeffs for _ in range(3))
    for lam in (0.2, 0.5, 0.8):
        mix = lam * u1 + (1 - lam) * u2
        R = rel_terms(_curl(np.stack([u1 - v, u2 - v, mix - v])), 0.0)[0]
        gap = lam * R[0] + (1 - lam) * R[1] - R[2]
        expect = lam * (1 - lam) * 0.5 * dist(u1, u2) ** 2
        assert gap == pytest.approx(expect, rel=1e-12)


def test_rel_dissipation():
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid).coeffs
    nu = 0.3
    assert rel_terms(_curl(v), 0.0)[1] == 0.0
    # TG sits on the |k|^2 = 2 shell: ||grad v||^2 = 2 ||v||^2 = 4 pi^2
    W = rel_terms(_curl(np.stack([v, -v])), nu)[1]
    assert W[0] == pytest.approx(nu * 2 * np.pi ** 2, rel=1e-13)
    assert W[0] == pytest.approx(W[1], rel=1e-14)


# -- weights -----------------------------------------------------------------

def test_euler_negsym_weight():
    grid = Grid(32)
    # a constant field has no strain
    const = np.zeros((2, 32, 17), dtype=complex)
    const[:, 0, 0] = (1.5, -0.5)
    # eps TG: (grad v)_sym = diag(eps cos x cos y, -eps cos x cos y), so sup |S| = eps
    eps = 0.37
    strain = eps * taylor_green(0.0, 0.0, grid).coeffs
    w = WeightSpec(kind="euler_negsym", kappa=3.0)  # the alias of "strain"
    K = weight_value(weight_norms(_curl(np.stack([const, 0.0 * const, strain]))), w)
    assert K[0] == 0.0 and K[1] == 0.0
    assert K[2] == pytest.approx(3.0 * eps, rel=1e-10)


@pytest.mark.parametrize("v1, v2", [
    (lambda x, y: np.sin(y), lambda x, y: 0.0 * x),
    (lambda x, y: -np.sin(y), lambda x, y: np.sin(x)),
], ids=["shear", "cellular"])
def test_euler_negsym_weight_bounds_sampled_trilinear(rng, v1, v2):
    # off-diagonal strain only: the weight must bound -b(w, v, w) / ||w||^2,
    # which reaches 0.061 (shear) and 0.085 (cellular) over this draw
    grid = Grid(32)
    v = from_function(grid, v1, v2, solenoidal=True)
    worst = max(-trilinears(w, v.coeffs, w) / pairing(w, w)
                for w in (random_field(grid, rng, kmax=6).coeffs for _ in range(300)))
    assert worst > 0.05
    assert weight_value(weight_norms(_curl(v.coeffs)), STRAIN) >= worst


def test_euler_quadratic_form_bound(rng):
    # -int d^T (grad v)_sym d <= weight * 2 R(u, v) for random ensembles
    grid = Grid(32)
    draws = [(random_field(grid, rng, kmax=6), random_field(grid, rng, kmax=6))
             for _ in range(50)]
    v, u = stacked([vu[0] for vu in draws]), stacked([vu[1] for vu in draws])
    d = u - v
    lhs = -trilinears(d, v, d)  # = -int d (grad v)_sym d for solenoidal d
    K = weight_value(weight_norms(_curl(v)), STRAIN)
    assert np.all(lhs <= K * 2 * rel_terms(_curl(d), 0.0)[0] * (1 + 1e-10) + 1e-12)


# -- residual ----------------------------------------------------------------

def _residual(vt, t, spec):
    """The residual A of vt at time t, a velocity."""
    return _velocity(residual_A(vt.values([t]), vt.derivs([t]), spec))[0]


def test_residual_exact_taylor_green():
    nu = 0.1
    spec = _spec(nu)
    vt = TestTrajectory.taylor_green(nu, spec.grid)
    for t in (0.0, 0.4, 1.0):
        assert dist(_residual(vt, t, spec)) <= 1e-10


def test_residual_zero_trajectory():
    spec = _spec()
    vt = TestTrajectory.zero(spec.grid)
    assert dist(_residual(vt, 0.5, spec)) == 0.0


def test_residual_linear_in_viscosity():
    # TG built for nu' run under nu: A = (nu' - nu) Lap v = 2 (nu - nu') v
    nu, nu_wrong = 0.1, 0.25
    spec = _spec(nu)
    vt = TestTrajectory.taylor_green(nu_wrong, spec.grid)
    t = 0.3
    a = _residual(vt, t, spec)
    expect = 2 * (nu - nu_wrong) * _velocity(vt.values([t]))[0]
    assert dist(a, expect) <= 1e-10


@pytest.mark.parametrize("forced", [False, True])
def test_residual_affine_in_viscosity_splits_exactly(rng, forced):
    # curl A_nu = curl A_0 + nu |k|^2 w, as the certifier assembles it per member,
    # on a stack of broadband vorticities
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0}) if forced else Forcing("zero")
    spec0 = SystemSpec(nu=0.0, grid=Grid(32), t_end=1.0, dt=1e-3, forcing=forcing)
    values, derivs = (np.stack([random_field(spec0.grid, rng, kmax=10, solenoidal=False).coeffs
                                for _ in range(3)]) for _ in range(2))
    tab = spectral_tables(32)
    a0 = residual_A(values, derivs, spec0)
    viscous = tab.k2 * values
    for nu in (0.0, 1e-3, 0.1):
        direct = residual_A(values, derivs, replace(spec0, nu=nu))
        assert np.all(dist(a0 + nu * viscous, direct) <= 1e-12 * dist(direct))


@pytest.mark.parametrize("forced", [False, True])
def test_residual_of_solenoidal_states_needs_no_projection(rng, forced):
    # the velocity of residual_A on the curls of solenoidal states is the Leray
    # projection of d/dt v + nu |k|^2 v less the rotational form
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0}) if forced else Forcing("zero")
    values, derivs = (np.stack([random_field(Grid(32), rng, kmax=10, solenoidal=True).coeffs
                                for _ in range(3)]) for _ in range(2))
    tab = spectral_tables(32)
    for nu in (0.0, 0.1):
        spec = SystemSpec(nu=nu, grid=Grid(32), t_end=1.0, dt=1e-3, forcing=forcing)
        projected = project(derivs + nu * tab.k2 * values, tab) - rotational_rhs(
            values, spec, forcing_coeffs(forcing, 32))
        got = _velocity(residual_A(_curl(values), _curl(derivs), spec))
        assert np.all(dist(got, projected) <= 1e-14 * dist(projected))


# -- trilinear form ----------------------------------------------------------

def test_trilinear_skew_symmetry(rng):
    grid = Grid(32)
    a, b, c = (random_field(grid, rng, kmax=6).coeffs for _ in range(3))
    abb, abc, acb, a2bc = trilinears(np.stack([a, a, a, 2.0 * a]), np.stack([b, b, c, b]),
                                     np.stack([b, c, b, c]))
    assert abs(abb) <= 1e-12 * dist(a) * dist(b) ** 2
    assert abc == pytest.approx(-acb, abs=1e-10)
    assert a2bc == pytest.approx(2 * abc, rel=1e-12)


def test_trilinear_taylor_green_gradient():
    # TG self-convection is a pure gradient: zero against solenoidal fields
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid)
    w = random_field(grid, np.random.default_rng(9), kmax=5)
    assert abs(trilinears(v.coeffs, v.coeffs, w.coeffs)) <= 1e-12


# -- Gronwall weight integral ------------------------------------------------

def test_margin_series_constant_weight_integral():
    grid = Grid(16)
    # constant field in time -> constant weight K = 2 sup |S| = 2, I(t) = K t
    v = taylor_green(0.0, 0.0, grid).coeffs
    vt = analytic_test(lambda t: v, lambda t: 0.0 * v, grid)
    nu = 0.1
    k0 = weight_value(weight_norms(_curl(v)), STRAIN)
    assert k0 == pytest.approx(2.0, rel=1e-14)
    times = np.linspace(0, 1, 21)
    u = from_velocity(SystemSpec(nu=nu, grid=grid, t_end=1.0, dt=0.05),
                      times, np.stack([v] * times.size))
    integral = margin_series(assemble_family([u]), vt, STRAIN).weight_integral
    assert integral[-1] == pytest.approx(k0, rel=1e-10)
    assert np.allclose(integral, k0 * times, rtol=1e-12, atol=0.0)


def test_cumulative_weight_integral():
    times = np.linspace(0, 2, 41)
    vals = 3.0 * np.ones_like(times)
    cum = cumulative_weight_integral(vals, times)
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(6.0, rel=1e-12)


def _quadrature_cases():
    rng = np.random.default_rng(17)
    for n in range(1, 41):
        uniform = np.linspace(0.0, 0.75, n)
        jittered = np.cumsum(rng.uniform(0.2, 1.0, n)) * 0.03
        for times in (uniform, jittered):
            for shape in ((n,), (n, 3, 3)):
                yield times, rng.standard_normal(shape)


def test_cumulative_weight_integral_matches_scipy_bitwise():
    from scipy.integrate import cumulative_simpson

    for times, y in _quadrature_cases():
        ours = cumulative_weight_integral(y, times)
        assert ours.shape == y.shape
        np.testing.assert_array_equal(
            ours, cumulative_simpson(y, x=times, axis=0, initial=0.0))


# -- the closure estimate ----------------------------------------------------

def test_kest_estimate_random_ensemble(rng):
    # |b(u-v, u-v, v)| <= W + K R under the strain weight: spot ensemble
    grid = Grid(32)
    nu = 0.1
    for _ in range(100):
        u = random_field(grid, rng, kmax=8).coeffs
        v = random_field(grid, rng, kmax=8).coeffs
        d = u - v
        R, W = rel_terms(_curl(d), nu)
        lhs = abs(trilinears(d, d, v))
        rhs = W + weight_value(weight_norms(_curl(v)), STRAIN) * R
        assert lhs <= rhs * (1 + 1e-12)


def test_weight_serialization():
    # "strain" is the one kind and the default; "euler_negsym" is read as it
    w = WeightSpec(kind="euler_negsym", kappa=3.0)
    assert w.to_dict() == {"kind": "strain", "kappa": 3.0}
    assert WeightSpec(**w.to_dict()) == w
    assert WeightSpec() == WeightSpec(kind="strain", kappa=2.0)
    for kind in ("serrin", "no_such_kind"):
        with pytest.raises(WeightError, match="unknown weight kind"):
            WeightSpec(kind=kind)


@pytest.mark.parametrize("kappa", [1.99, 0.0, -3.0, float("inf"), float("nan")])
def test_weightspec_rejects_unsound_kappa(kappa):
    # kappa sup|S| R bounds |b(u - v, v, u - v)| only for finite kappa >= 2
    with pytest.raises(WeightError, match=r"^kappa: expected a finite number >= 2, got"):
        WeightSpec(kappa=kappa)


def test_weight_value_dispatch(rng):
    # K = kappa times the strain norm, linear in v
    v = random_field(Grid(16), rng, kmax=4).coeffs
    norms = weight_norms(_curl(np.stack([v, -3.0 * v])))
    assert norms[1] == pytest.approx(3.0 * norms[0], rel=1e-13)
    assert np.all(weight_value(norms, WeightSpec(kappa=5.0)) == 5.0 * norms)
