"""Flow solver: right-hand side, stepping, oracles, pressure, persistence."""

import json
import tracemalloc

import numpy as np
import pytest
from conftest import (convection, dist, divergence_linf, rebuilt, reference_advance,
                      reference_curl, reference_rhs, reference_velocity, rotational_rhs,
                      stacked)
from support import (certify, forcing_coeffs, from_velocity, gradients, perfbench_configs,
                     perturbed_test, recover_pressure, spline_test, taylor_green_pressure,
                     velocity)

from maxdiss import solver
from maxdiss.fields import (SOLENOIDAL_RTOL, FieldError, Grid, SpectralField, from_function,
                            load_samples, normalized, pairing, project, random_field, resample,
                            save_field, save_samples, spectral_tables)
from maxdiss.relenergy import residual_A
from maxdiss.scenarios import ScenarioConfig, stage_simulate
from maxdiss.solver import (
    BlowUpError,
    Forcing,
    SolverError,
    SystemSpec,
    TestTrajectory,
    Trajectory,
    advance,
    solve,
    taylor_green,
)


def _spec(nu=0.1, n=32, t_end=1.0, dt=1e-3, forcing=None):
    return SystemSpec(nu=nu, grid=Grid(n), t_end=t_end, dt=dt,
                      forcing=forcing or Forcing("zero"))


# -- right-hand side ---------------------------------------------------------

def _vorticity_rhs(w, spec, cf=None):
    """``solver._curl_rhs`` of vorticity half spectra w in a new workspace of their shape."""
    return solver._curl_rhs(w, spec, cf, solver._Workspace(w.shape[:-2], spec.grid.n),
                            np.empty_like(w))


def test_rhs_zero_state():
    # the kernel writes all of its output, and the residual of the resting state is 0
    spec = _spec()
    w = np.zeros((32, 17), dtype=complex)
    ws = solver._Workspace((), 32)
    assert not np.any(solver._curl_rhs(w, spec, None, ws, np.ones_like(w)))
    z = np.zeros((1, 32, 17), dtype=complex)
    assert dist(residual_A(z, z, spec)) == 0.0


def test_rhs_euler_taylor_green_vanishes():
    # TG convection is a pure gradient, annihilated by the projection
    spec = _spec(nu=0.0)
    v = taylor_green(0.0, 0.0, spec.grid).coeffs
    assert np.abs(_vorticity_rhs(solver._curl(v), spec)).max() <= 1e-12
    assert dist(solver._velocity(residual_A(solver._curl(v)[None], 0.0, spec))) <= 1e-12


@pytest.mark.parametrize("n", [16, 24, 32, 48, 96])
def test_dealiased_convection_matches_padded_product(n):
    # data band-limited at the 2/3 cut: the convection that the residual takes
    # from the vorticity kernel must equal P of the exact convective product
    # (2x padded, alias-free) truncated to the cut band
    grid = Grid(n)
    mask = spectral_tables(n).dealias
    cut = int(np.abs(grid.wavenumbers()[0][mask]).max())
    v = random_field(grid, np.random.default_rng(n), kmax=cut).coeffs
    exact = resample(convection(resample(v, 2 * n), dealias=False), n)
    exact = project(exact * mask, spectral_tables(n))
    got = solver._velocity(residual_A(solver._curl(v)[None], 0.0, _spec(nu=0.0, n=n)))[0]
    assert dist(got, exact) <= 1e-13 * dist(exact)


def test_rhs_stacked_matches_single_calls():
    spec = _spec(n=24, forcing=Forcing("analytic", "kolmogorov", {"wavenumber": 2}))
    rng = np.random.default_rng(5)
    block, derivs = (solver._curl(np.stack([random_field(spec.grid, rng, kmax=7).coeffs
                                            for _ in range(3)])) for _ in range(2))
    got = residual_A(block, derivs, spec)
    assert got.shape == block.shape
    for b, d, g in zip(block, derivs, got):
        want = residual_A(b[None], d[None], spec)[0]
        assert np.abs(g - want).max() <= 1e-15 * np.abs(want).max()


def _with_mean(block):
    """A writable copy of stacked velocity coefficients with the mean (0.3, -0.2)."""
    block = np.array(block)
    block[..., 0, 0, 0], block[..., 1, 0, 0] = 0.3, -0.2
    return block


def _assert_kernels_match_expression_form(block, spec, f):
    """The vorticity kernel on the stack and on each state, with a workspace of each
    shape, against the expression form, with the curl of the forcing f."""
    cf = None if f is None else solver._curl(f)
    w = solver._curl(block)
    assert np.array_equal(w, reference_curl(block))
    ws = solver._Workspace(w.shape[:1], spec.grid.n)
    assert np.array_equal(solver._curl_rhs(w, spec, cf, ws, np.empty_like(w)),
                          reference_rhs(w, spec, cf))
    ws = solver._Workspace((), spec.grid.n)
    for one in w:
        assert np.array_equal(solver._curl_rhs(one, spec, cf, ws, ws.stages[2]),
                              reference_rhs(one, spec, cf))


def test_rhs_matches_expression_form_bit_for_bit():
    # stacked and single states with a mean, forced and unforced; the residual
    # is d/dt w + nu |k|^2 w less the vorticity kernel, bit for bit
    spec = _spec(n=24)
    rng = np.random.default_rng(8)
    block = _with_mean([random_field(spec.grid, rng, kmax=7).coeffs for _ in range(3)])
    derivs = np.stack([random_field(spec.grid, rng, kmax=7).coeffs for _ in range(3)])
    forcing = Forcing("analytic", "kolmogorov", {"wavenumber": 3})
    for f in (None, forcing_coeffs(forcing, 24)):
        _assert_kernels_match_expression_form(block, spec, f)
    assert np.array_equal(forcing.curl(24), solver._curl(forcing_coeffs(forcing, 24)))
    w, dw = reference_curl(block), reference_curl(derivs)
    for forced in (Forcing("zero"), forcing):
        s = _spec(n=24, forcing=forced)
        want = dw + 0.1 * spectral_tables(24).k2 * w - reference_rhs(w, s, forced.curl(24))
        assert np.array_equal(residual_A(w, dw, s), want)


def _out_of_band_forcing(grid, rng):
    """A non-solenoidal forcing with modes in every column, above the 2/3 band too."""
    n = grid.n
    f = random_field(grid, rng, kmax=n // 2, solenoidal=False).coeffs
    # every column between the band and the (zeroed) Nyquist column has modes
    assert np.all(np.abs(f[..., (n - 1) // 3 + 1:n // 2]).max(axis=-2) > 0)
    return f


def test_rhs_matches_expression_form_with_out_of_band_forcing():
    # the kernel transforms only the band's columns, but must add the
    # forcing over the whole half spectrum
    n = 24
    spec = _spec(n=n)
    rng = np.random.default_rng(11)
    f = _out_of_band_forcing(spec.grid, rng)
    block = _with_mean([random_field(spec.grid, rng, kmax=7).coeffs for _ in range(3)])
    _assert_kernels_match_expression_form(block, spec, f)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("n", [16, 24, 32, 96])
def test_rhs_matches_rotational_form(tmp_path, n, forced):
    # the divergence form against P[omega (v_y, -v_x) + f]: the two differ by
    # the gradient of |v|^2/2, which the projection removes; forced, by a
    # forcing file with modes above the 2/3 band
    grid, rng, forcing = Grid(n), np.random.default_rng(n + 1), Forcing("zero")
    block = np.stack([random_field(grid, rng, kmax=(n - 1) // 3).coeffs for _ in range(3)])
    if forced:
        save_field(SpectralField(grid, _out_of_band_forcing(grid, rng)), tmp_path / "f.fld")
        forcing = Forcing("file", path=str(tmp_path / "f.fld"))
    spec = _spec(nu=0.0, n=n, forcing=forcing)
    f = forcing_coeffs(forcing, n)
    assert not forced or np.abs(f[..., (n - 1) // 3 + 1:]).max() > 0.1 * np.abs(f).max()
    want = rotational_rhs(block, spec, f)
    got = -solver._velocity(residual_A(solver._curl(block), 0.0, spec))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # the vorticity kernel against the curl of the rotational form
    got = _vorticity_rhs(solver._curl(block), spec, forcing.curl(n))
    want = solver._curl(want)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_rhs_ignores_modes_above_the_band():
    # modes above the 2/3 cut, in the band's columns and above them, must not
    # enter the product: the state gives the kernel output of its band part
    n = 24
    spec = _spec(n=n)
    u = random_field(spec.grid, np.random.default_rng(4), kmax=n // 2).coeffs
    band = u * spectral_tables(n).dealias
    assert dist(u - band) >= 0.5 * dist(u)
    ws = solver._Workspace((), n)
    w, w_band = solver._curl(u), solver._curl(band)
    assert np.array_equal(solver._curl_rhs(w, spec, None, ws, np.empty_like(w)),
                          solver._curl_rhs(w_band, spec, None, ws, np.empty_like(w)))


# -- time stepping -----------------------------------------------------------

@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("n", [16, 24, 32, 64, 128])
def test_solve_matches_expression_form_bit_for_bit(n, forced):
    # the in-place steps of one reused workspace on the vorticity against the
    # expression-form step, sampled every step and every 20th (with the last
    # step), and the velocity rebuilt from a sampled vorticity
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0, "wavenumber": 2})
    spec = SystemSpec(nu=0.02, grid=Grid(n), t_end=21 * 2e-3, dt=2e-3,
                      forcing=forcing if forced else Forcing("zero"))
    v0 = random_field(spec.grid, np.random.default_rng(n), kmax=(n - 1) // 3).coeffs
    v0 = SpectralField(spec.grid, v0 * (1.0 / dist(v0)))
    want = [reference_curl(resample(v0.coeffs, n))]  # the curl leaves out what P_n removes
    for step in range(spec.n_steps):
        want.append(reference_advance(want[-1], spec, step * spec.dt))
    assert np.array_equal(advance(want[0], spec, 0.0), want[1])
    v = SpectralField(spec.grid, project(v0.coeffs, spectral_tables(n)), solenoidal=True)
    assert np.array_equal(advance(v, spec, 0.0).coeffs, normalized(
        reference_velocity(reference_advance(reference_curl(v.coeffs), spec, 0.0)), n, True))
    for stride, keep in ((1, range(22)), (20, (0, 20, 21))):
        traj = solve(spec, v0, sample_stride=stride)
        assert np.array_equal(traj.vorticity, np.stack([want[k] for k in keep]))
        velocities = reference_velocity(np.stack([want[k] for k in keep]))
        assert np.array_equal(velocity(traj), normalized(velocities, n, solenoidal=True))


def test_solve_calls_advance_once_per_step(monkeypatch):
    # one public advance per step on the vorticity array: the per-step spans
    # that a tracer of solver.advance records
    calls = []
    step = solver.advance
    monkeypatch.setattr(solver, "advance",
                        lambda w, *args, **kw: calls.append(type(w)) or step(w, *args, **kw))
    spec = _spec(nu=0.05, n=16, t_end=0.07, dt=1e-2)
    traj = solve(spec, taylor_green(0.0, 0.05, spec.grid), sample_stride=3)
    assert calls == [np.ndarray] * spec.n_steps
    assert traj.times.size == 4


def test_advance_allocates_little_beyond_the_new_state():
    # stage, transform and product arrays live in the solve's workspace: one
    # step of the vorticity at n = 128 peaks near 1.1x the bytes of the new
    # vorticity, which is half a velocity state's; a fresh (2, n, n) transform
    # output per call (numpy's irfft2 drops out=) would add about 2x, and a
    # velocity step read 2.5x a velocity state's bytes
    spec = _spec(nu=0.02, n=128, dt=2e-3)
    v = random_field(spec.grid, np.random.default_rng(3), kmax=42).coeffs
    ws = solver._Workspace((), 128)
    w = advance(solver._curl(v * (1.0 / dist(v))), spec, 0.0, _ws=ws)  # warm-up: caches, plans
    tracemalloc.start()
    try:
        advance(w, spec, spec.dt, _ws=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * w.nbytes


def test_advance_exact_on_stokes_mode():
    # single-mode linear data: the integrating factor is exact
    spec = _spec(nu=0.3, n=16, dt=0.1, t_end=1.0)
    u = from_function(spec.grid,
                      lambda x, y: np.sin(3 * x) * 0,
                      lambda x, y: np.sin(3 * x))
    u = SpectralField(spec.grid, u.coeffs, solenoidal=True)
    stepped = advance(u, spec, 0.0)
    decay = np.exp(-spec.nu * 9 * spec.dt)
    assert dist(stepped.coeffs, decay * u.coeffs) <= 1e-12 * dist(u.coeffs)


def test_advance_euler_taylor_green_steady():
    spec = _spec(nu=0.0, dt=0.01)
    v = taylor_green(0.0, 0.0, spec.grid)
    assert dist(advance(v, spec, 0.0).coeffs, v.coeffs) <= 1e-12


def test_advance_fourth_order_convergence():
    # nonlinear data (TG is integrated exactly); reference = dt/8 solution
    nu, T = 0.05, 0.1
    grid = Grid(32)
    rng = np.random.default_rng(11)
    v0 = random_field(grid, rng, kmax=4, components=2, solenoidal=True).coeffs
    v0 = SpectralField(grid, v0 * (1.0 / dist(v0)), solenoidal=True)

    def run(dt):
        spec = _spec(nu=nu, dt=dt, t_end=T)
        v = v0
        t = 0.0
        while t < T - 1e-12:
            v = advance(v, spec, t)
            t += dt
        return v.coeffs

    ref = run(0.02 / 8)
    errs = [dist(run(dt), ref) for dt in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 16 * 0.8 <= coarse / fine <= 16 * 1.25


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_advance_detects_blowup():
    spec = _spec(nu=0.0, n=16, dt=1e6, t_end=1e7)
    u = random_field(spec.grid, np.random.default_rng(1), kmax=5)
    with pytest.raises(BlowUpError):
        v = u
        for k in range(50):
            v = advance(v, spec, 0.0)


def _convective_advance(v, spec, dealias):
    """Reference IF-RK4 step with the convective form P[-(v.grad)v + f]."""
    f = forcing_coeffs(spec.forcing, spec.grid.n)

    def nonlinear(c):
        rhs = -convection(c, dealias)
        return project(rhs if f is None else rhs + f, spectral_tables(spec.grid.n))

    dt = spec.dt
    kx, ky = spec.grid.wavenumbers()
    k2 = kx * kx + ky * ky
    e_full = np.exp(-spec.nu * k2 * dt)
    e_half = np.exp(-spec.nu * k2 * (dt / 2))
    u = v.coeffs
    a = nonlinear(u)
    b = nonlinear(e_half * (u + 0.5 * dt * a))
    c = nonlinear(e_half * u + 0.5 * dt * b)
    d = nonlinear(e_full * u + dt * e_half * c)
    new = e_full * u + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    return SpectralField(spec.grid, new, solenoidal=True)


@pytest.mark.parametrize("forced", [False, True, "mean"])
@pytest.mark.parametrize("dealias", [True])  # the stepper always applies the 2/3 rule
@pytest.mark.parametrize("n", [32, 64, 128])
def test_advance_matches_convective_form(n, dealias, forced, tmp_path):
    # data band-limited at the 2/3 cut, stepped against a reference that
    # dealiases the convective form the same way; in the "mean" row the data
    # and a file forcing have a mean, which the vorticity lacks and its k = 0
    # entry carries: a run to T advects the flow by a mean that grows by T f_mean
    grid = Grid(n)
    v = random_field(grid, np.random.default_rng(n), kmax=(n - 1) // 3).coeffs
    v = v * (1.0 / dist(v))
    forcing = Forcing("analytic", "kolmogorov",
                      {"amplitude": 1.0, "wavenumber": 2}) if forced else Forcing("zero")
    if forced == "mean":
        v = _with_mean(v)
        save_field(from_function(grid, lambda X, Y: 0.5 + np.sin(2 * Y),
                                 lambda X, Y: 0.25 + np.cos(X + Y)), tmp_path / "forcing.fld")
        forcing = Forcing("file", path=str(tmp_path / "forcing.fld"))
    v = SpectralField(grid, v, solenoidal=True)
    spec = SystemSpec(nu=0.05, grid=grid, t_end=0.1, dt=1e-2, forcing=forcing)
    got = advance(v, spec, 0.3)
    want = _convective_advance(v, spec, dealias)
    assert dist(got.coeffs, want.coeffs) <= 1e-13 * dist(want.coeffs)
    if forced == "mean":
        traj = solve(spec, v, sample_stride=5)
        for _ in range(spec.n_steps - 1):
            want = _convective_advance(want, spec, dealias)
        assert dist(velocity(traj)[-1], want.coeffs) <= 1e-13 * dist(want.coeffs)
        f_mean = forcing_coeffs(forcing, n)[:, 0, 0]
        assert np.abs(f_mean - (0.5, 0.25)).max() <= 1e-15
        drift = v.coeffs[:, 0, 0] + traj.times[:, None] * f_mean
        assert np.abs(velocity(traj)[:, :, 0, 0] - drift).max() <= 1e-15


def test_advance_rejects_state_leaving_solenoidal_space():
    spec = _spec(nu=0.05, n=16, dt=1e-2)
    grad = from_function(spec.grid, lambda x, y: np.cos(x) * np.sin(y),
                         lambda x, y: np.sin(x) * np.cos(y))
    with pytest.raises(FieldError):
        advance(grad, spec, 0.0)


def test_integrating_factors_cached_and_read_only():
    factors = solver._integrating_factors(16, 0.1, 1e-2)
    assert solver._integrating_factors(16, 0.1, 1e-2)[0] is factors[0]
    e_half, e_full, dt_e_half, two_e_half = factors
    assert e_half.shape == (16, 9)
    assert np.array_equal(dt_e_half, 1e-2 * e_half)
    assert np.array_equal(two_e_half, 2.0 * e_half)
    for e in factors:
        with pytest.raises(ValueError):
            e[0, 0] = 0.0


# -- full solves -------------------------------------------------------------

def test_solve_zero_data_stays_zero():
    spec = _spec(t_end=0.05, dt=5e-3)
    traj = solve(spec, SpectralField(spec.grid, np.zeros((2, 32, 17))))
    assert not np.any(traj.vorticity)


def test_solve_taylor_green_short_horizon():
    nu = 0.1
    spec = _spec(nu=nu, t_end=0.2, dt=1e-3)
    traj = solve(spec, taylor_green(0.0, nu, spec.grid), sample_stride=20)
    err = max(dist(s, taylor_green(t, nu, spec.grid).coeffs)
              for t, s in zip(traj.times, velocity(traj)))
    assert err <= 1e-6


def test_euler_energy_conservation():
    spec = _spec(nu=0.0, t_end=1.0, dt=2e-3)
    traj = solve(spec, taylor_green(0.0, 0.0, spec.grid), sample_stride=50)
    e = traj.energies()
    assert np.abs(e - e[0]).max() <= 1e-8


def test_viscous_energy_monotone():
    spec = _spec(nu=0.05, t_end=0.5, dt=2e-3)
    traj = solve(spec, taylor_green(0.0, 0.05, spec.grid), sample_stride=10)
    e = traj.energies()
    assert np.all(np.diff(e) <= 10 * spec.dt ** 4)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_detects_nonfinite_state_partway(monkeypatch):
    # a forcing whose curl turns NaN in its fifth lookup poisons the state in the
    # step from t = 0.04; the energy check cannot see NaN, the finiteness check must
    lookups = []
    forcing_curl = Forcing.curl

    def poisoned(self, n):
        lookups.append(n)
        f = forcing_curl(self, n)
        return f * np.nan if len(lookups) >= 5 else f

    monkeypatch.setattr(Forcing, "curl", poisoned)
    spec = _spec(nu=0.1, n=16, t_end=0.1, dt=1e-2,
                 forcing=Forcing("analytic", "kolmogorov", {"amplitude": 0.0}))
    with pytest.raises(BlowUpError, match="non-finite .* t=0.04$"):
        solve(spec, taylor_green(0.0, 0.1, spec.grid))


def test_file_forcing_read_once(tmp_path, monkeypatch):
    grid = Grid(16)
    path = tmp_path / "forcing.fld"
    save_field(from_function(grid, lambda X, Y: np.sin(2 * Y),
                             lambda X, Y: np.zeros_like(X)), path)
    reads = []
    load = solver.load_field
    monkeypatch.setattr(solver, "load_field",
                        lambda p: reads.append(p) or load(p))
    from_file = solve(_spec(nu=0.1, n=16, t_end=0.05, dt=1e-2,
                            forcing=Forcing("file", path=str(path))),
                      taylor_green(0.0, 0.1, grid))
    assert len(reads) == 1
    analytic = solve(_spec(nu=0.1, n=16, t_end=0.05, dt=1e-2,
                           forcing=Forcing("analytic", "kolmogorov",
                                           {"amplitude": 1.0, "wavenumber": 2})),
                     taylor_green(0.0, 0.1, grid))
    assert dist(velocity(from_file)[-1], velocity(analytic)[-1]) <= 1e-13


def test_analytic_forcing_built_once_per_grid(monkeypatch):
    builds = []
    kolmogorov = solver.ANALYTIC_FORCINGS["kolmogorov"]
    monkeypatch.setitem(solver.ANALYTIC_FORCINGS, "kolmogorov",
                        lambda grid, params: builds.append(grid.n)
                        or kolmogorov(grid, params))
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0})
    spec = _spec(nu=0.1, n=16, t_end=0.05, dt=1e-2, forcing=forcing)
    solve(spec, taylor_green(0.0, 0.1, spec.grid))
    assert builds == [16]
    assert forcing.curl(32) is forcing.curl(32)
    assert builds == [16, 32]


def test_taylor_green_built_once_per_grid(monkeypatch):
    from maxdiss.relenergy import WeightSpec

    builds = []
    monkeypatch.setattr(solver, "from_function", lambda grid, *fns, **kw:
                        builds.append(grid.n) or from_function(grid, *fns, **kw))
    solver._unit_taylor_green.cache_clear()
    nu = 0.1
    for n in (16, 24):
        spec = _spec(nu=nu, n=n, t_end=0.075, dt=2.5e-3)
        times = np.arange(31) * spec.dt
        u = from_velocity(spec, times,
                          stacked([taylor_green(t, nu, spec.grid) for t in times]))
        family = [TestTrajectory.taylor_green(nu, spec.grid, label="exact"),
                  TestTrajectory.taylor_green(nu, spec.grid, amplitude=1.05)]
        report = certify(u, family, WeightSpec())
        assert sum(s["margin"].size for s in report.series.values()) == 62
    assert builds == [16, 24]
    # the scaled unit field matches sampling the scaled closed form
    for t in (0.0, 0.0375, 0.075):
        a = 1.05 * np.exp(-2.0 * nu * t)
        sampled = from_function(spec.grid, lambda X, Y: a * np.sin(X) * np.cos(Y),
                                lambda X, Y: -a * np.cos(X) * np.sin(Y), solenoidal=True)
        value = family[1].values([t])[0]
        assert np.abs(solver._velocity(value) - sampled.coeffs).max() <= 1e-15
        assert np.array_equal(family[1].derivs([t])[0], -2.0 * nu * value)


def test_solenoidality_preserved():
    spec = _spec(nu=0.01, n=32, t_end=0.5, dt=1e-3,
                 forcing=Forcing("analytic", "kolmogorov",
                                 {"amplitude": 1.0, "wavenumber": 2}))
    rng = np.random.default_rng(2)
    traj = solve(spec, random_field(spec.grid, rng, kmax=8), sample_stride=100)
    for s in velocity(traj):
        assert divergence_linf(SpectralField(spec.grid, s)) <= 1e-12


def test_galerkin_consistency_pad_vs_fine():
    # solving at n then padding agrees with solving at 2n from truncated data
    nu = 0.05
    rng = np.random.default_rng(3)
    v0 = random_field(Grid(32), rng, kmax=5, components=2, solenoidal=True).coeffs
    v0 = SpectralField(Grid(32), v0 * (1.0 / dist(v0)), solenoidal=True)
    t_end, dt = 0.1, 1e-3
    lo = velocity(solve(SystemSpec(nu=nu, grid=Grid(32), t_end=t_end, dt=dt), v0,
                        sample_stride=100))[-1]
    hi = velocity(solve(SystemSpec(nu=nu, grid=Grid(64), t_end=t_end, dt=dt), v0,
                        sample_stride=100))[-1]
    # the runs differ only by the coarse grid's dealias cutoff: the gap is
    # the spectral tail and is far smaller than the solution itself
    gap = dist(resample(lo, 64), hi)
    assert gap <= 1e-3 * dist(hi)
    # retained low modes agree much more closely than the full fields
    low_gap = dist(resample(lo, 16), resample(hi, 16))
    assert low_gap <= gap


# -- oracles -----------------------------------------------------------------

def test_taylor_green_energy_and_divergence():
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid)
    assert 0.5 * pairing(v.coeffs, v.coeffs) == pytest.approx(np.pi ** 2, rel=1e-13)
    assert divergence_linf(v) <= 1e-14


def test_taylor_green_momentum_residual():
    # d_t v + (v.grad)v - nu Lap v + grad p = 0 pointwise
    nu, t = 0.2, 0.3
    grid = Grid(64)
    n = grid.n
    v = taylor_green(t, nu, grid)
    p = taylor_green_pressure(t, nu, grid)
    dv = -2 * nu * v.physical()  # d_t of the closed form
    vp = v.physical()
    g = np.fft.irfft2(gradients(v.coeffs), s=(n, n), norm="forward")
    conv = np.stack([vp[0] * g[0, 0] + vp[1] * g[0, 1],
                     vp[0] * g[1, 0] + vp[1] * g[1, 1]])
    gp = np.fft.irfft2(np.stack(
        [1j * grid.wavenumbers()[0] * p.coeffs[0],
         1j * grid.wavenumbers()[1] * p.coeffs[0]]),
        s=(n, n), norm="forward")
    lap = -2 * v.physical()
    residual = dv + conv - nu * lap + gp
    assert np.abs(residual).max() <= 1e-12


def test_recover_pressure_taylor_green():
    nu, t = 0.1, 0.25
    grid = Grid(32)
    v = taylor_green(t, nu, grid)
    p = recover_pressure(v)
    expect = taylor_green_pressure(t, nu, grid)
    assert dist(p.coeffs, expect.coeffs) <= 1e-10
    assert abs(p.coeffs[0, 0, 0]) <= 1e-14


def test_recover_pressure_gradient_forcing():
    grid = Grid(32)
    phi = from_function(grid, lambda x, y: np.sin(x) * np.sin(2 * y))
    f = from_function(grid,
                      lambda x, y: np.cos(x) * np.sin(2 * y),
                      lambda x, y: 2 * np.sin(x) * np.cos(2 * y))
    p = recover_pressure(SpectralField(grid, np.zeros((2, 32, 17))), f)
    assert dist(p.coeffs, phi.coeffs) <= 1e-12  # phi is already mean-free


# -- trajectories and persistence --------------------------------------------

def test_trajectory_validation():
    spec = _spec(t_end=0.01, dt=0.01)
    z = np.zeros((2, 2, 32, 17))
    with pytest.raises(SolverError):
        from_velocity(spec, np.array([0.1, 0.2]), z)
    with pytest.raises(SolverError):
        from_velocity(spec, np.array([0.0, 0.0]), z)
    with pytest.raises(SolverError):
        from_velocity(spec, np.array([]), [])


def test_trajectory_leaves_the_callers_times_writable():
    # the trajectory's times are a read-only view, as its vorticity is: the
    # caller's own float64 array is not frozen
    spec = _spec(n=16, t_end=0.02, dt=1e-2)
    t = np.array([0.0, 0.01, 0.02])
    traj = Trajectory(spec, t, np.zeros((3, 16, 9), dtype=complex))
    assert not traj.times.flags.writeable
    t[0] = 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_trajectory_rejects_nonfinite_times(bad):
    # strictly increasing times may still end at inf, and NaN compares false
    spec = _spec(t_end=0.02, dt=0.01)
    z = np.zeros((3, 2, 32, 17))
    for times in ([0.0, 0.01, bad], [0.0, bad, 0.02]):
        with pytest.raises(SolverError, match="times: must be finite"):
            from_velocity(spec, np.array(times), z)


def test_trajectory_invariants_match_per_sample_fields():
    # one invariant pass over the stack gives each sample's field invariants;
    # the divergence check is per sample, so a weakly divergent sample beside
    # a large solenoidal one still fails (a stack-wide scale would pass it)
    spec = _spec(n=16, t_end=0.02, dt=1e-2)
    times = np.array([0.0, 0.01, 0.02])
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 2, 16, 9)) + 1j * rng.standard_normal((3, 2, 16, 9))
    sol = project(raw, spectral_tables(16))
    traj = from_velocity(spec, times, sol)
    assert not traj.vorticity.flags.writeable
    for k in range(times.size):
        field = SpectralField(spec.grid, sol[k], solenoidal=True)
        assert np.array_equal(velocity(traj)[k], rebuilt(field.coeffs))
    bad = sol.copy()
    bad[0] *= 1e7
    bad[2] += 1e-6 * raw[2]
    with pytest.raises(FieldError, match="tagged solenoidal"):
        from_velocity(spec, times, bad)
    with pytest.raises(SolverError, match="coefficient shape"):
        from_velocity(spec, times, sol[:2])


def test_trajectory_roundtrip(tmp_path):
    spec = _spec(nu=0.1, n=16, t_end=0.02, dt=1e-2)
    traj = solve(spec, taylor_green(0.0, 0.1, spec.grid))
    traj.save(tmp_path / "run")
    back = Trajectory.load(tmp_path / "run")
    assert np.allclose(back.times, traj.times)
    assert back.spec.nu == spec.nu and back.grid.n == 16
    assert np.array_equal(back.vorticity, traj.vorticity)
    # states.npy must match the manifest's sample count (the times left still
    # end at t_end, which load checks first)
    manifest = tmp_path / "run" / "manifest.json"
    meta = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(dict(meta, times=meta["times"][1:])))
    with pytest.raises(FieldError, match="states.npy"):
        Trajectory.load(tmp_path / "run")


def test_trajectory_stores_packed_half_spectra(tmp_path, rng):
    # states.npy holds the vorticity spectra less their zero Nyquist row and
    # column and loads them back bit for bit; a file of physical samples, the
    # layout of older run trees, is refused
    spec = _spec(nu=0.1, n=16, t_end=0.02, dt=1e-2)
    traj = solve(spec, random_field(spec.grid, rng, kmax=8, components=2, solenoidal=True))
    traj.save(tmp_path / "run")
    assert np.array_equal(Trajectory.load(tmp_path / "run").vorticity, traj.vorticity)
    path = tmp_path / "run" / "states.npy"
    packed = load_samples(path)
    assert packed.shape == (traj.times.size, 1, 15, 8) and packed.dtype == np.complex128
    assert path.stat().st_size - 16 * 8 * 15 * traj.times.size < 512  # the header
    save_samples(path, np.fft.irfft2(velocity(traj), s=(16, 16), norm="forward"))
    with pytest.raises(FieldError, match=r"float64 of shape \[3, 2, 16, 16\]; the manifest "
                                         r"needs complex128 of shape \[3, 1, 15, 8\]"):
        Trajectory.load(tmp_path / "run")


def test_trajectory_mean_survives_save_and_load(tmp_path):
    # the k = 0 vorticity carries the velocity mean as v_x + i v_y, which a file
    # forcing with a mean moves; save -> load keeps both of its parts bit for bit
    # (``normalized`` would keep the real one only)
    grid = Grid(16)
    save_field(from_function(grid, lambda X, Y: 0.5 + np.sin(2 * Y),
                             lambda X, Y: 0.25 + np.cos(X + Y)), tmp_path / "forcing.fld")
    spec = SystemSpec(nu=0.05, grid=grid, t_end=0.1, dt=1e-2,
                      forcing=Forcing("file", path=str(tmp_path / "forcing.fld")))
    v0 = _with_mean(random_field(grid, np.random.default_rng(4), kmax=5).coeffs)
    traj = solve(spec, SpectralField(grid, v0, solenoidal=True), sample_stride=5)
    mean = traj.vorticity[:, 0, 0]
    assert mean[0] == 0.3 - 0.2j and abs(mean[-1] - (0.35 - 0.175j)) <= 1e-15
    traj.save(tmp_path / "run")
    back = Trajectory.load(tmp_path / "run")
    assert np.array_equal(back.vorticity[:, 0, 0], mean)
    assert np.array_equal(back.vorticity, traj.vorticity)


def test_benchmark_members_are_solenoidal_far_below_the_bound(tmp_path):
    # the package checks no divergence (only the tests' from_velocity does); a
    # velocity rebuilt from the stored vorticity is solenoidal by construction.  On the
    # members of the three benchmark configs (config seed 0), max |k.v| is at
    # most 2.7e-20, 4.6e-9 of the bound ``normalized`` enforces, max(1e-13,
    # SOLENOIDAL_RTOL max|v| n) (measured on cert_dense_32's n_24)
    for i, cfg in enumerate(perfbench_configs()):
        config = ScenarioConfig.from_dict(dict(cfg, seed=0), out_dir=str(tmp_path / str(i)))
        for traj in stage_simulate(config).trajs:
            u, tab = velocity(traj), spectral_tables(traj.grid.n)
            div = np.abs(tab.kx * u[:, 0] + tab.ky * u[:, 1]).max(axis=(-2, -1))
            bound = np.maximum(1e-13, SOLENOIDAL_RTOL * np.abs(u).max(axis=(-3, -2, -1))
                               * traj.grid.n)
            assert np.all(div <= 1e-6 * bound)


def test_forcing_registry_and_serialization():
    grid = Grid(16)
    f = Forcing("analytic", "gradient_potential")
    # gradient forcings are annihilated by the projection inside the rhs
    assert dist(project(forcing_coeffs(f, grid.n), spectral_tables(grid.n))) <= 1e-12
    assert np.abs(f.curl(grid.n)).max() <= 1e-12
    assert Forcing("zero").curl(grid.n) is None
    assert Forcing.from_dict(f.to_dict()).to_dict() == f.to_dict()
    with pytest.raises(SolverError):
        Forcing("analytic", "no_such_forcing")
    # every key that to_dict writes for the kind is required
    for d, key in (({}, "kind"), ({"kind": "analytic", "name": "kolmogorov"}, "params"),
                   ({"kind": "analytic", "params": {}}, "name"), ({"kind": "file"}, "path")):
        with pytest.raises(SolverError, match=f"^forcing/{key}: missing required key"):
            Forcing.from_dict(d)


def test_gradient_forcing_leaves_the_solve_unchanged():
    # P f = 0 for a pure gradient: the forced solve is the unforced one
    unforced = _spec(nu=0.02, n=32, t_end=0.1, dt=2e-3)
    forced = SystemSpec(nu=0.02, grid=Grid(32), t_end=0.1, dt=2e-3,
                        forcing=Forcing("analytic", "gradient_potential", {"amplitude": 3.0}))
    f = forcing_coeffs(forced.forcing, 32)
    assert dist(project(f, spectral_tables(32))) <= 1e-14 * dist(f)
    v0 = random_field(unforced.grid, np.random.default_rng(6), kmax=10)
    want = solve(unforced, v0, sample_stride=10).vorticity
    got = solve(forced, v0, sample_stride=10).vorticity
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# -- test trajectories -------------------------------------------------------

def test_spline_test_trajectory_matches_analytic():
    nu = 0.1
    spec = _spec(nu=nu, t_end=0.5, dt=1e-3)
    traj = solve(spec, taylor_green(0.0, nu, spec.grid), sample_stride=25)
    vt = spline_test(traj)
    t = 0.25
    exact_v = taylor_green(t, nu, spec.grid).coeffs
    exact_dv = -2 * nu * exact_v
    v, dv = (solver._velocity(f([t])[0]) for f in (vt.values, vt.derivs))
    assert dist(v, exact_v) <= 1e-6
    assert dist(dv, exact_dv) <= 1e-4


def test_perturbed_test_trajectory():
    grid = Grid(16)
    base = TestTrajectory.taylor_green(0.1, grid)
    r = random_field(grid, np.random.default_rng(5), kmax=3)
    vt = perturbed_test(base, r, 0.25)
    gap = vt.values([0.3])[0] - base.values([0.3])[0]
    dgap = vt.derivs([0.3])[0] - base.derivs([0.3])[0]
    assert dist(solver._velocity(gap), 0.25 * r.coeffs) <= 1e-14
    assert dist(dgap[None]) <= 1e-14
