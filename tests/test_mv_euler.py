"""Defect fields, the measure-valued momentum balance and its convexity."""

import numpy as np
import pytest
from conftest import stacked, states

from maxdiss.fields import (
    Grid,
    _embed,
    from_function,
    l2_norm,
    random_field,
    resample,
    samples,
    spectral_tables,
    tensor_samples,
    zero_field,
)
from maxdiss.mv_euler import (
    DefectField,
    MVError,
    _lowpass_restrict,
    defect_from_pair,
    min_eigenvalue,
    mv_convex_combine,
    mv_equation_residual,
    psd_clip,
    trace_energy_gap,
    trace_leakage_bound,
)
from maxdiss.solver import (
    Forcing,
    SystemSpec,
    TestTrajectory,
    Trajectory,
    solve,
    taylor_green,
)


def _phi_ramp(grid, T, psi=None, label="ramp-phi"):
    """phi(t) = (1 - t/T) psi with psi solenoidal; phi(T) = 0."""
    if psi is None:
        psi = taylor_green(0.0, 0.0, grid)
    return TestTrajectory.analytic(lambda t: (1.0 - t / T) * psi,
                                   lambda t: (-1.0 / T) * psi,
                                   grid, solenoidal=True, label=label)


@pytest.fixture(scope="module")
def resolution_pair():
    """A resolved run and its coarse-grained (restricted) candidate.

    The coarse member is the mode restriction of the fine states: its
    missing quadratic content is exactly what the defect absorbs.
    """
    from dataclasses import replace

    rng = np.random.default_rng(7)
    nu = 0.02
    fine_grid = Grid(32)
    r = random_field(fine_grid, rng, kmax=10, components=2, solenoidal=True)
    v0 = taylor_green(0.0, nu, fine_grid) + (1.0 / l2_norm(r)) * r
    fine = solve(SystemSpec(nu=nu, grid=fine_grid, t_end=0.25, dt=2e-3,
                            forcing=Forcing("zero")), v0, sample_stride=25)
    coarse = Trajectory(spec=replace(fine.spec, grid=Grid(16)),
                        times=fine.times,
                        coeffs=stacked([resample(s, 16) for s in states(fine)]),
                        provenance="restriction of fine")
    return fine, coarse


# -- PSD projection ----------------------------------------------------------

def test_psd_clip_identity_on_psd(rng):
    l11 = rng.standard_normal((4, 4))
    l21 = rng.standard_normal((4, 4))
    l22 = rng.standard_normal((4, 4))
    psd = np.stack([l11 ** 2, l11 * l21, l21 ** 2 + l22 ** 2])
    clipped, mag = psd_clip(psd)
    assert mag == 0.0
    assert np.abs(clipped - psd).max() == 0.0


def test_psd_clip_removes_negative_eigenvalue():
    density = np.zeros((3, 2, 2))
    density[0] = 1.0    # m11
    density[2] = -0.5   # m22: eigenvalues (1, -0.5)
    clipped, mag = psd_clip(density)
    assert mag == pytest.approx(0.5)
    assert np.abs(clipped[0] - 1.0).max() <= 1e-14
    assert np.abs(clipped[2]).max() <= 1e-14
    assert min_eigenvalue(clipped) >= -1e-14


def test_psd_clip_off_diagonal_case():
    # [[0, 1], [1, 0]] has eigenvalues +-1; projection gives [[.5,.5],[.5,.5]]
    density = np.zeros((3, 1, 1))
    density[1] = 1.0
    clipped, mag = psd_clip(density)
    assert mag == pytest.approx(1.0)
    assert clipped[0, 0, 0] == pytest.approx(0.5)
    assert clipped[1, 0, 0] == pytest.approx(0.5)
    assert clipped[2, 0, 0] == pytest.approx(0.5)


def test_min_eigenvalue_formula():
    density = np.zeros((3, 1, 1))
    density[0], density[1], density[2] = 2.0, 1.0, 2.0  # eigenvalues 3, 1
    assert min_eigenvalue(density) == pytest.approx(1.0)


# -- DefectField container ----------------------------------------------------

def test_defect_field_validation():
    grid = Grid(8)
    times = np.array([0.0, 0.5])
    with pytest.raises(MVError):
        DefectField(grid=grid, times=times, density=np.zeros((2, 3, 4, 4)),
                    mollifier_kmax=2)
    z = DefectField.zero(grid, times)
    assert z.trace_integrals().max() == 0.0
    assert z.min_eigenvalue() == 0.0


@pytest.mark.parametrize("n", [8, 12])
def test_density_interpolation_reproduces_samples(rng, n):
    # the Nyquist modes of the samples are split between +-n/2, not dropped
    m = rng.standard_normal((3, n, n))
    fine = samples(np.fft.rfft2(m, norm="forward"), 2 * n)
    assert np.abs(fine[:, ::2, ::2] - m).max() <= 1e-14


@pytest.mark.parametrize("n", [16, 32, 64])
def test_lowpass_restrict_matches_expression_form_bit_for_bit(n):
    # the forward column pass runs on the n//2 + 1 columns _embed reads
    m = 2 * n
    raw = np.random.default_rng(n).standard_normal((3, m, m))
    hat = np.fft.rfft2(raw, norm="forward")
    hat = hat * np.exp(-2.0 * spectral_tables(m).k2 / (n // 3) ** 2)
    want = np.fft.irfft2(_embed(hat, m, n), s=(n, n), norm="forward")
    assert np.array_equal(_lowpass_restrict(raw, m, n, n // 3), want)


def test_defect_trace_integral_constant_density():
    grid = Grid(8)
    density = np.zeros((1, 3, 8, 8))
    density[:, 0] = 1.0
    density[:, 2] = 1.0
    m = DefectField(grid=grid, times=np.array([0.0]), density=density,
                    mollifier_kmax=2)
    assert m.trace_integrals()[0] == pytest.approx(2 * (2 * np.pi) ** 2)


def test_defect_save_load_roundtrip(tmp_path, rng):
    grid = Grid(8)
    times = np.array([0.0, 0.1, 0.2])
    l11 = rng.standard_normal((3, 8, 8))
    l21 = rng.standard_normal((3, 8, 8))
    density = np.stack([l11 ** 2, l11 * l21, l21 ** 2], axis=1)
    m = DefectField(grid=grid, times=times, density=density,
                    mollifier_kmax=3, clip_magnitude=1.5e-4,
                    provenance="roundtrip")
    m.save(tmp_path / "defect")
    assert sorted(p.name for p in (tmp_path / "defect").iterdir()) == [
        "density.fld", "manifest.json"]
    back = DefectField.load(tmp_path / "defect")
    assert back.grid.n == 8
    assert back.mollifier_kmax == 3
    assert back.clip_magnitude == pytest.approx(1.5e-4)
    assert np.abs(back.density - density).max() == 0.0
    with pytest.raises((MVError, FileNotFoundError)):
        DefectField.load(tmp_path)  # no manifest / wrong format


# -- defect construction ------------------------------------------------------

def test_self_pair_zero_defect(resolution_pair):
    fine, _ = resolution_pair
    m = defect_from_pair(fine, fine)
    assert np.abs(m.density).max() <= 1e-14
    assert m.clip_magnitude <= 1e-12


def test_pair_defect_psd_and_trace(resolution_pair):
    fine, coarse = resolution_pair
    m = defect_from_pair(fine, coarse)
    trace_scale = max(np.mean(np.abs(m.density[:, 0] + m.density[:, 2])), 1e-30)
    assert m.min_eigenvalue() >= -1e-12 * trace_scale
    # trace integral tracks the kinetic-energy gap within the leakage bound
    gaps = trace_energy_gap(m, fine, coarse)
    assert gaps.max() <= trace_leakage_bound(m) + 1e-10
    assert trace_leakage_bound(m) == pytest.approx(
        2 * (2 * np.pi) ** 2 * m.clip_magnitude)


def test_orthogonal_fluctuation_defect():
    # coarse = 0, fine = w: the defect is exactly the low-passed w (x) w
    grid = Grid(16)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.1,
                      forcing=Forcing("zero"))
    w = from_function(grid, lambda x, y: 0.0 * x,
                      lambda x, y: np.sin(2 * x), solenoidal=True)
    times = np.linspace(0.0, 1.0, 3)
    fine = Trajectory(spec=spec, times=times, coeffs=stacked([w] * 3))
    coarse = Trajectory(spec=spec, times=times,
                        coeffs=stacked([zero_field(grid)] * 3))
    m = defect_from_pair(fine, coarse, mollifier_kmax=1)
    # w (x) w = diag(0, sin^2 2x): the k=0 part of m22 is 1/2 everywhere
    assert np.abs(m.density[:, 0]).max() <= 1e-10
    assert m.density[:, 2].mean() == pytest.approx(0.5, rel=1e-8)
    assert 0.5 * m.trace_integrals()[0] == pytest.approx(
        0.5 * l2_norm(w) ** 2, rel=1e-8)


def test_pair_validation_errors(resolution_pair):
    fine, coarse = resolution_pair
    with pytest.raises(MVError):  # coarse finer than fine
        defect_from_pair(coarse, fine)
    shifted = Trajectory(spec=coarse.spec, times=coarse.times * 0.5,
                         coeffs=coarse.coeffs)
    with pytest.raises(MVError):  # misaligned sample times
        defect_from_pair(fine, shifted)
    other = Trajectory(spec=coarse.spec, times=coarse.times,
                       coeffs=1.5 * coarse.coeffs)
    with pytest.raises(MVError):  # initial data differ below mollifier scale
        defect_from_pair(fine, other)


# -- measure-valued equation --------------------------------------------------

def test_residual_exact_steady_euler():
    grid = Grid(32)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=0.5, dt=5e-3,
                      forcing=Forcing("zero"))
    traj = solve(spec, taylor_green(0.0, 0.0, grid), sample_stride=10)
    phi = _phi_ramp(grid, 0.5)
    res = mv_equation_residual(traj, None, Forcing("zero"), [phi])
    assert abs(res[phi.label]) <= 1e-8


def test_residual_zero_everything():
    grid = Grid(16)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.1,
                      forcing=Forcing("zero"))
    times = np.linspace(0.0, 1.0, 5)
    traj = Trajectory(spec=spec, times=times,
                      coeffs=stacked([zero_field(grid)] * 5))
    res = mv_equation_residual(traj, None, Forcing("zero"),
                               [_phi_ramp(grid, 1.0)])
    assert res["ramp-phi"] == 0.0


def test_residual_defect_corrects_coarse(resolution_pair):
    # the defect-corrected coarse pair has a much smaller residual than the
    # bare coarse trajectory, measured against low-mode test functions
    fine, coarse = resolution_pair
    m = defect_from_pair(fine, coarse)
    grid = coarse.grid
    psi = taylor_green(0.0, 0.0, grid)
    phi = _phi_ramp(grid, 0.25, psi)
    bare_fine = mv_equation_residual(fine, None, Forcing("zero"), [phi])
    corrected = mv_equation_residual(coarse, m, Forcing("zero"), [phi])
    assert abs(corrected[phi.label] - bare_fine[phi.label]) <= 5e-3 * max(
        1.0, abs(bare_fine[phi.label]))


def test_residual_phi_admissibility(resolution_pair):
    fine, _ = resolution_pair
    grid = fine.grid
    nonsol = from_function(grid, lambda x, y: np.sin(x), lambda x, y: 0.0 * x)
    bad = TestTrajectory.analytic(lambda t: (1 - t / 0.25) * nonsol,
                                  lambda t: (-1 / 0.25) * nonsol,
                                  grid, solenoidal=False, label="nonsol")
    with pytest.raises(MVError):
        mv_equation_residual(fine, None, Forcing("zero"), [bad])
    psi = taylor_green(0.0, 0.0, grid)
    flat = TestTrajectory.analytic(lambda t: psi, lambda t: zero_field(grid),
                                   grid, solenoidal=True, label="flat")
    with pytest.raises(MVError):  # phi(T) != 0
        mv_equation_residual(fine, None, Forcing("zero"), [flat])


# -- convex combination --------------------------------------------------------

def _constant_pair(grid, field, times):
    spec = SystemSpec(nu=0.0, grid=grid, t_end=float(times[-1]), dt=0.1,
                      forcing=Forcing("zero"))
    traj = Trajectory(spec=spec, times=times,
                      coeffs=stacked([field] * times.size))
    return traj, DefectField.zero(grid, times)


def test_combine_endpoint_passthrough():
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 3)
    v1, m1 = _constant_pair(grid, taylor_green(0.0, 0.0, grid), times)
    v2, m2 = _constant_pair(grid, zero_field(grid), times)
    assert mv_convex_combine(v1, m1, v2, m2, 1.0) == (v1, m1)
    assert mv_convex_combine(v1, m1, v2, m2, 0.0) == (v2, m2)
    with pytest.raises(MVError):
        mv_convex_combine(v1, m1, v2, m2, 1.5)


def test_combine_opposite_velocities_closed_form():
    # lambda = 1/2, v2 = -v1, m1 = m2 = 0: v = 0 and m = v1 (x) v1
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 3)
    tg = taylor_green(0.0, 0.0, grid)
    v1, m1 = _constant_pair(grid, tg, times)
    v2, m2 = _constant_pair(grid, -1.0 * tg, times)
    v, m = mv_convex_combine(v1, m1, v2, m2, 0.5)
    assert max(l2_norm(s) for s in states(v)) <= 1e-14
    expect = tensor_samples(tg.coeffs, grid.n)
    for k in range(times.size):
        assert np.abs(m.density[k] - expect).max() <= 1e-12


def test_combine_residual_affine(rng):
    # equation residual of the combination equals the affine combination of
    # the member residuals (the algebraic cancellation, checked per phi)
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 5)
    v1, m1 = _constant_pair(grid, taylor_green(0.0, 0.0, grid), times)
    w = random_field(grid, rng, kmax=3, components=2, solenoidal=True)
    v2, m2 = _constant_pair(grid, w, times)
    phi = _phi_ramp(grid, 1.0)
    lam = 0.3
    v, m = mv_convex_combine(v1, m1, v2, m2, lam)
    r1 = mv_equation_residual(v1, m1, Forcing("zero"), [phi])[phi.label]
    r2 = mv_equation_residual(v2, m2, Forcing("zero"), [phi])[phi.label]
    rc = mv_equation_residual(v, m, Forcing("zero"), [phi])[phi.label]
    scale = max(abs(r1), abs(r2), 1.0)
    assert abs(rc - (lam * r1 + (1 - lam) * r2)) <= 1e-10 * scale


def test_combine_preserves_psd(rng):
    grid = Grid(8)
    times = np.linspace(0.0, 1.0, 2)

    def random_psd():
        l11 = rng.standard_normal((2, 8, 8))
        l21 = rng.standard_normal((2, 8, 8))
        l22 = rng.standard_normal((2, 8, 8))
        dens = np.stack([l11 ** 2, l11 * l21, l21 ** 2 + l22 ** 2], axis=1)
        return DefectField(grid=grid, times=times, density=dens,
                           mollifier_kmax=2)

    w1 = random_field(grid, rng, kmax=2, components=2, solenoidal=True)
    w2 = random_field(grid, rng, kmax=2, components=2, solenoidal=True)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.1,
                      forcing=Forcing("zero"))
    v1 = Trajectory(spec=spec, times=times, coeffs=stacked([w1] * 2))
    v2 = Trajectory(spec=spec, times=times, coeffs=stacked([w2] * 2))
    _, m = mv_convex_combine(v1, random_psd(), v2, random_psd(), 0.4)
    assert m.min_eigenvalue() >= -1e-12


def test_combine_requires_aligned_members():
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 3)
    v1, m1 = _constant_pair(grid, taylor_green(0.0, 0.0, grid), times)
    v2, m2 = _constant_pair(Grid(32), taylor_green(0.0, 0.0, Grid(32)), times)
    with pytest.raises(MVError):
        mv_convex_combine(v1, m1, v2, m2, 0.5)

