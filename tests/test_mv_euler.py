"""Defect fields, the measure-valued momentum balance and its convexity."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import dist, stacked
from support import (analytic_test, from_velocity, load_defect, mv_convex_combine,
                     mv_equation_residual, tensor_samples, trace_leakage_bound, velocity,
                     zero_defect)

from maxdiss import certificate, mv_euler
from maxdiss.fields import (
    Grid,
    SpectralField,
    _embed,
    from_function,
    random_field,
    resample,
    samples,
    spectral_tables,
)
from maxdiss.mv_euler import (
    DefectField,
    MVError,
    _lowpass_restrict,
    _SampleWork,
    _lowpassed_defect,
    defect_from_pair,
    min_eigenvalue,
    psd_clip,
    trace_energy_gap,
)
from maxdiss.solver import (
    Forcing,
    SystemSpec,
    Trajectory,
    _curl,
    _velocity,
    solve,
    taylor_green,
)


def _phi_ramp(grid, T, psi=None, label="ramp-phi"):
    """phi(t) = (1 - t/T) psi with psi solenoidal coefficients; phi(T) = 0."""
    if psi is None:
        psi = taylor_green(0.0, 0.0, grid).coeffs
    return analytic_test(lambda t: (1.0 - t / T) * psi, lambda t: (-1.0 / T) * psi, grid,
                         label=label)


@pytest.fixture(scope="module")
def resolution_pair():
    """A resolved run and its coarse-grained (restricted) candidate.

    The coarse member is the mode restriction of the fine states: its
    missing quadratic content is exactly what the defect absorbs.
    """
    rng = np.random.default_rng(7)
    nu = 0.02
    fine_grid = Grid(32)
    r = random_field(fine_grid, rng, kmax=10, components=2, solenoidal=True).coeffs
    v0 = SpectralField(fine_grid, taylor_green(0.0, nu, fine_grid).coeffs + (1.0 / dist(r)) * r)
    fine = solve(SystemSpec(nu=nu, grid=fine_grid, t_end=0.25, dt=2e-3,
                            forcing=Forcing("zero")), v0, sample_stride=25)
    coarse = from_velocity(replace(fine.spec, grid=Grid(16)),
                           fine.times,
                           resample(velocity(fine), 16),
                           provenance="restriction of fine")
    return fine, coarse


# -- PSD projection ----------------------------------------------------------

def test_psd_clip_identity_on_psd(rng):
    l11 = rng.standard_normal((4, 4))
    l21 = rng.standard_normal((4, 4))
    l22 = rng.standard_normal((4, 4))
    psd = np.stack([l11 ** 2, l11 * l21, l21 ** 2 + l22 ** 2])
    clipped, mag, least = psd_clip(psd)
    assert mag == 0.0
    assert np.abs(clipped - psd).max() == 0.0
    assert least == min_eigenvalue(psd)


def test_psd_clip_removes_negative_eigenvalue():
    density = np.zeros((3, 2, 2))
    density[0] = 1.0    # m11
    density[2] = -0.5   # m22: eigenvalues (1, -0.5)
    clipped, mag, least = psd_clip(density)
    assert mag == pytest.approx(0.5)
    assert np.abs(clipped[0] - 1.0).max() <= 1e-14
    assert np.abs(clipped[2]).max() <= 1e-14
    assert least == min_eigenvalue(clipped) >= -1e-14


def test_psd_clip_off_diagonal_case():
    # [[0, 1], [1, 0]] has eigenvalues +-1; projection gives [[.5,.5],[.5,.5]]
    density = np.zeros((3, 1, 1))
    density[1] = 1.0
    clipped, mag, _ = psd_clip(density)
    assert mag == pytest.approx(1.0)
    assert clipped[0, 0, 0] == pytest.approx(0.5)
    assert clipped[1, 0, 0] == pytest.approx(0.5)
    assert clipped[2, 0, 0] == pytest.approx(0.5)


def test_psd_clip_diagonal_with_negative_entry():
    # an eigenvector (b, lam1 - a) built from rounded eigenvalues points along the
    # wrong axis here, and the clip kept m22's place instead of m11's
    a = 1.0425133694426776
    density = np.array([a, 0.0, -1.4836004852469666]).reshape(3, 1, 1)
    clipped, mag, _ = psd_clip(density)
    np.testing.assert_allclose(clipped.ravel(), [a, 0.0, 0.0], rtol=1e-15, atol=1e-15)
    assert mag == pytest.approx(1.4836004852469666, rel=1e-15)


def _eigh_clip(density):
    """numpy.linalg.eigh's projection of (..., 3, n, n) samples, and max |eigenvalue|."""
    a, b, c = density[..., 0, :, :], density[..., 1, :, :], density[..., 2, :, :]
    w, v = np.linalg.eigh(np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2))
    r = (v * np.maximum(w, 0.0)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return np.stack([r[..., 0, 0], r[..., 0, 1], r[..., 1, 1]], -3), np.abs(w).max(-1)


def test_psd_clip_matches_eigh_projection(rng):
    density = rng.standard_normal((4, 3, 32, 32))
    density[1, 1] = 0.0      # diagonal samples
    density[2, 1] *= 1e-9    # nearly diagonal samples
    clipped, mag, _ = psd_clip(density)
    ref, scale = _eigh_clip(density)
    assert (np.abs(clipped - ref).max(axis=-3) <= 1e-12 * scale).all()
    assert mag == pytest.approx(-min_eigenvalue(density), rel=1e-15)


def test_psd_clip_keeps_psd_samples_bitwise(rng):
    density = rng.standard_normal((3, 8, 8))
    density[1] *= 0.1
    density[0::2] = np.abs(density[0::2]) + 1.0     # diagonally dominant: PSD
    density[:, 0, 0] = [1.0, 0.0, -1.0]             # one indefinite sample
    clipped, mag, _ = psd_clip(density)
    assert mag == 1.0
    keep = np.ones((8, 8), dtype=bool)
    keep[0, 0] = False
    np.testing.assert_array_equal(clipped[:, keep], density[:, keep])


def test_psd_clip_and_min_eigenvalue_sample_by_sample_match_the_series(rng):
    # the defect is clipped and its min eigenvalue taken one sample at a time:
    # both give the floats of one call on the stacked series, where samples 1
    # and 3 are indefinite and the others PSD
    series = rng.standard_normal((5, 3, 8, 8))
    series[:, 1] *= 0.1
    series[:, 0::2] = np.abs(series[:, 0::2]) + 1.0
    series[1, :, 2, 3] = [1.0, 0.0, -1.0]
    series[3, 1] *= 40.0
    clipped, mag, least = psd_clip(series)
    per_sample = [psd_clip(sample) for sample in series]
    assert np.array_equal(np.stack([c for c, _, _ in per_sample]), clipped)
    assert [m > 0.0 for _, m, _ in per_sample] == [False, True, False, True, False]
    assert max(m for _, m, _ in per_sample) == mag
    # the least eigenvalue of the output: the input's where a sample is PSD
    assert [e for _, _, e in per_sample] == [min_eigenvalue(c) for c, _, _ in per_sample]
    assert min(e for _, _, e in per_sample) == least == min_eigenvalue(clipped)
    assert [e == min_eigenvalue(x) for (_, _, e), x in zip(per_sample, series)][0::2] == [True] * 3
    field = DefectField(grid=Grid(8), times=np.arange(5.0), density=series, mollifier_kmax=2)
    assert field.min_eigenvalue() == min_eigenvalue(series) < 0.0


@pytest.mark.parametrize("kmax", [None, 2])
def test_pair_defect_keeps_its_least_eigenvalue_as_it_clips(resolution_pair, monkeypatch, kmax):
    # defect_from_pair takes each sample's eigenvalues once, for its clip, and keeps the
    # least one of the output: the clip's own lam2 where nothing is clipped, the clipped
    # sample's only where a sample is (kmax None clips samples, kmax 2 none); it is the
    # min_eigenvalue of the field built from the same density without it, bit for bit
    fine, coarse = resolution_pair
    calls, eigenvalues = [], mv_euler._sym_eigenvalues

    def counted(m):
        calls.append(m.shape)
        return eigenvalues(m)

    monkeypatch.setattr(mv_euler, "_sym_eigenvalues", counted)
    m = defect_from_pair(fine, coarse, mollifier_kmax=kmax)
    assert (m.clip_magnitude > 0.0) == (kmax is None)
    assert (len(calls) > fine.times.size) == (kmax is None) and len(calls) >= fine.times.size
    calls.clear()
    assert m.min_eigenvalue() == m.least_eigenvalue and not calls
    copy = replace(m)  # a field built any other way records none and takes them sample by sample
    assert copy.least_eigenvalue is None
    rebuilt = copy.min_eigenvalue()
    assert len(calls) == fine.times.size
    with pytest.raises(ValueError, match="least_eigenvalue"):  # and no caller can supply it
        replace(m, least_eigenvalue=0.0)
    with pytest.raises(TypeError, match="least_eigenvalue"):
        DefectField(grid=m.grid, times=m.times, density=m.density, mollifier_kmax=1,
                    least_eigenvalue=0.0)
    assert rebuilt == m.min_eigenvalue() and np.signbit(rebuilt) == np.signbit(m.min_eigenvalue())


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
    z = zero_defect(grid, times)
    assert z.trace_integrals().max() == 0.0
    assert z.min_eigenvalue() == 0.0


def test_defect_field_leaves_the_callers_arrays_writable():
    # the field's times and density are read-only views, as a trajectory's
    # are: the caller's own float64 arrays are not frozen
    t, d = np.array([0.0, 0.5]), np.zeros((2, 3, 4, 4))
    m = DefectField(grid=Grid(4), times=t, density=d, mollifier_kmax=1)
    assert not m.times.flags.writeable and not m.density.flags.writeable
    assert t.flags.writeable and d.flags.writeable
    t[0], d[0, 0, 0, 0] = 1.0, 1.0


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
        "density.npy", "manifest.json"]
    back = load_defect(tmp_path / "defect")
    assert back.grid.n == 8
    assert back.mollifier_kmax == 3
    assert back.clip_magnitude == pytest.approx(1.5e-4)
    assert np.abs(back.density - density).max() == 0.0
    with pytest.raises((MVError, FileNotFoundError)):
        load_defect(tmp_path)  # no manifest


# -- defect construction ------------------------------------------------------

def test_self_pair_zero_defect(resolution_pair):
    fine, _ = resolution_pair
    m = defect_from_pair(fine, fine)
    assert np.abs(m.density).max() <= 1e-14
    assert m.clip_magnitude <= 1e-12


def test_self_pair_density_is_exactly_zero(resolution_pair):
    # the members cancel in the spectra: v_f - v_c is 0, and so is every product
    fine, _ = resolution_pair
    m = defect_from_pair(fine, fine)
    assert not m.density.any()
    assert m.clip_magnitude == 0.0


def _full_band_vorticity(n, seed):
    grid = Grid(n)
    return _curl(random_field(grid, np.random.default_rng(seed), kmax=n // 2).coeffs)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("nc_over_n", [1, 2])
def test_defect_products_exact_on_the_three_halves_grid(n, nc_over_n):
    # products of two n-grid fields reach |k| = n - 2; on M = 2 ceil(3n/4) they
    # alias onto no mode the restriction to n keeps, so M gives the 2n grid's
    # density to roundoff, and M - 2 aliases onto the Nyquist modes
    nc = n // nc_over_n
    wf, wc = _full_band_vorticity(n, n), _full_band_vorticity(nc, n + 1)
    kmax, m = n // 3, 2 * -(-3 * n // 4)
    raw = tensor_samples(_velocity(wf), 2 * n) - tensor_samples(_velocity(wc), 2 * n)
    want = _lowpass_restrict(raw, 2 * n, n, kmax)
    scale = np.abs(want).max()
    wc = _embed(wc, nc, n)
    assert np.abs(_lowpassed_defect(wf, wc, m, kmax) - want).max() <= 1e-14 * scale
    assert np.abs(_lowpassed_defect(wf, wc, m - 2, kmax) - want).max() >= 1e-5 * scale


def test_reused_sample_work_keeps_nothing_of_the_last_sample():
    # one _SampleWork serves every sample of a pair: the padded band and the
    # restricted spectrum are zeroed before each use
    n, m = 32, 48
    a, b, c = (_full_band_vorticity(n, seed) for seed in (1, 2, 3))
    ws = _SampleWork(n, m)
    _lowpassed_defect(a, b, m, 10, ws)
    assert np.array_equal(_lowpassed_defect(b, c, m, 10, ws), _lowpassed_defect(b, c, m, 10))


def test_defect_from_pair_holds_one_series_and_one_sample():
    # memory: from T = 8 to T = 16 samples the peak grows by the output series'
    # growth alone, with no whole-series temporary beside it
    grid = Grid(64)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.1, forcing=Forcing("zero"))
    v = np.array(random_field(grid, np.random.default_rng(3), kmax=30).coeffs)
    kx, ky = grid.wavenumbers()
    v[:, (np.abs(kx) <= 8) & (np.abs(ky) <= 8)] = 0.0  # the coarse zero shares the low band

    def peak(size):
        times = np.linspace(0.0, 1.0, size)
        fine = from_velocity(spec, times, np.stack([v] * size))
        coarse = from_velocity(spec, times, np.zeros((size, 2, 64, 33)))
        defect_from_pair(fine, coarse, mollifier_kmax=8)  # the per-grid tables, built once
        tracemalloc.start()
        try:
            defect_from_pair(fine, coarse, mollifier_kmax=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) - peak(8) <= 1.1 * (8 * 3 * 64 * 64 * 8)


def test_pair_defect_psd_and_trace(resolution_pair):
    fine, coarse = resolution_pair
    m = defect_from_pair(fine, coarse)
    trace_scale = max(np.mean(np.abs(m.density[:, 0] + m.density[:, 2])), 1e-30)
    assert m.min_eigenvalue() >= -1e-12 * trace_scale
    # trace integral tracks the kinetic-energy gap within the leakage bound
    gaps = trace_energy_gap(m, fine, coarse)
    assert gaps.max() <= trace_leakage_bound(m) + 1e-10


def test_orthogonal_fluctuation_defect():
    # coarse = 0, fine = w: the defect is exactly the low-passed w (x) w
    grid = Grid(16)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.1,
                      forcing=Forcing("zero"))
    w = from_function(grid, lambda x, y: 0.0 * x,
                      lambda x, y: np.sin(2 * x), solenoidal=True)
    times = np.linspace(0.0, 1.0, 3)
    fine = from_velocity(spec, times, stacked([w] * 3))
    coarse = from_velocity(spec, times, np.zeros((3, 2, 16, 9)))
    m = defect_from_pair(fine, coarse, mollifier_kmax=1)
    # w (x) w = diag(0, sin^2 2x): the k=0 part of m22 is 1/2 everywhere
    assert np.abs(m.density[:, 0]).max() <= 1e-10
    assert m.density[:, 2].mean() == pytest.approx(0.5, rel=1e-8)
    assert 0.5 * m.trace_integrals()[0] == pytest.approx(
        0.5 * dist(w.coeffs) ** 2, rel=1e-8)


def test_pair_validation_errors(resolution_pair):
    fine, coarse = resolution_pair
    with pytest.raises(MVError):  # coarse finer than fine
        defect_from_pair(coarse, fine)
    shifted = Trajectory(coarse.spec, coarse.times * 0.5, coarse.vorticity)
    with pytest.raises(MVError):  # misaligned sample times
        defect_from_pair(fine, shifted)
    kol = Forcing("analytic", "kolmogorov", {"amplitude": 0.3})
    forced = Trajectory(replace(coarse.spec, forcing=kol), coarse.times, coarse.vorticity)
    with pytest.raises(MVError, match="sample times or forcing"):  # forcing mismatch
        defect_from_pair(fine, forced)
    other = Trajectory(coarse.spec, coarse.times, 1.5 * coarse.vorticity)
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
    traj = from_velocity(spec, times, np.zeros((5, 2, 16, 9)))
    res = mv_equation_residual(traj, None, Forcing("zero"),
                               [_phi_ramp(grid, 1.0)])
    assert res["ramp-phi"] == 0.0


def test_residual_defect_corrects_coarse(resolution_pair):
    # the defect-corrected coarse pair has a much smaller residual than the
    # bare coarse trajectory, measured against low-mode test functions
    fine, coarse = resolution_pair
    m = defect_from_pair(fine, coarse)
    grid = coarse.grid
    psi = taylor_green(0.0, 0.0, grid).coeffs
    phi = _phi_ramp(grid, 0.25, psi)
    bare_fine = mv_equation_residual(fine, None, Forcing("zero"), [phi])
    corrected = mv_equation_residual(coarse, m, Forcing("zero"), [phi])
    assert abs(corrected[phi.label] - bare_fine[phi.label]) <= 5e-3 * max(
        1.0, abs(bare_fine[phi.label]))


def test_residual_does_not_depend_on_block_split(monkeypatch, rng):
    # 14 samples span two blocks at n_q = 64; one sample per block must give
    # the same floats, with a defect, a forcing and a coarser phi grid
    grid = Grid(32)
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 0.5})
    spec = SystemSpec(nu=0.01, grid=grid, t_end=0.25, dt=2e-3, forcing=forcing)
    v0 = SpectralField(grid, taylor_green(0.0, 0.0, grid).coeffs
                       + 0.1 * random_field(grid, rng, kmax=6).coeffs)
    traj = solve(spec, v0, sample_stride=10)
    m = DefectField(grid=grid, times=traj.times, mollifier_kmax=8,
                    density=0.1 * tensor_samples(velocity(traj), grid.n))
    phis = [_phi_ramp(Grid(16), 0.25), _phi_ramp(grid, 0.25, label="fine-phi")]
    assert len(certificate._blocks(traj.times.size, grid.n)) == 2
    blocked = mv_equation_residual(traj, m, forcing, phis)
    monkeypatch.setattr(certificate, "_blocks",
                        lambda size, n: [slice(k, k + 1) for k in range(size)])
    assert mv_equation_residual(traj, m, forcing, phis) == blocked


# -- convex combination --------------------------------------------------------

def _constant_pair(grid, c, times):
    spec = SystemSpec(nu=0.0, grid=grid, t_end=float(times[-1]), dt=0.1,
                      forcing=Forcing("zero"))
    traj = from_velocity(spec, times, np.stack([c] * times.size))
    return traj, zero_defect(grid, times)


def test_combine_endpoint_passthrough():
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 3)
    v1, m1 = _constant_pair(grid, taylor_green(0.0, 0.0, grid).coeffs, times)
    v2, m2 = _constant_pair(grid, np.zeros((2, 16, 9)), times)
    for lam, (v_end, m_end) in ((1.0, (v1, m1)), (0.0, (v2, m2))):
        v, m = mv_convex_combine(v1, m1, v2, m2, lam)
        assert np.array_equal(v.vorticity, v_end.vorticity)
        assert np.array_equal(m.density, m_end.density)


def test_combine_opposite_velocities_closed_form():
    # lambda = 1/2, v2 = -v1, m1 = m2 = 0: v = 0 and m = v1 (x) v1
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 3)
    tg = taylor_green(0.0, 0.0, grid).coeffs
    v1, m1 = _constant_pair(grid, tg, times)
    v2, m2 = _constant_pair(grid, -1.0 * tg, times)
    v, m = mv_convex_combine(v1, m1, v2, m2, 0.5)
    assert max(dist(s) for s in velocity(v)) <= 1e-14
    expect = tensor_samples(tg, grid.n)
    for k in range(times.size):
        assert np.abs(m.density[k] - expect).max() <= 1e-12


def test_combine_residual_affine(rng):
    # equation residual of the combination equals the affine combination of
    # the member residuals (the algebraic cancellation, checked per phi)
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 5)
    v1, m1 = _constant_pair(grid, taylor_green(0.0, 0.0, grid).coeffs, times)
    w = random_field(grid, rng, kmax=3, components=2, solenoidal=True).coeffs
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
    v1 = from_velocity(spec, times, stacked([w1] * 2))
    v2 = from_velocity(spec, times, stacked([w2] * 2))
    _, m = mv_convex_combine(v1, random_psd(), v2, random_psd(), 0.4)
    assert m.min_eigenvalue() >= -1e-12


def test_combine_requires_aligned_members():
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 3)
    v1, m1 = _constant_pair(grid, taylor_green(0.0, 0.0, grid).coeffs, times)
    v2, m2 = _constant_pair(Grid(32), taylor_green(0.0, 0.0, Grid(32)).coeffs, times)
    with pytest.raises(MVError):
        mv_convex_combine(v1, m1, v2, m2, 0.5)

