"""Flow solver: right-hand side, stepping, oracles, pressure, persistence."""

import json
import tracemalloc

import numpy as np
import pytest
from conftest import (convection, divergence_linf, reference_advance, reference_rhs,
                      stacked, states)

from maxdiss import solver
from maxdiss.fields import (FieldError, Grid, SpectralField,
                            from_function, inner, l2_norm,
                            leray_project, load_samples, project, random_field,
                            resample, save_field, save_samples, spectral_tables,
                            zero_field)
from maxdiss.solver import (
    BlowUpError,
    Forcing,
    SolverError,
    SystemSpec,
    TestTrajectory,
    Trajectory,
    advance,
    recover_pressure,
    solve,
    taylor_green,
    taylor_green_pressure,
)


def _spec(nu=0.1, n=32, t_end=1.0, dt=1e-3, forcing=None):
    return SystemSpec(nu=nu, grid=Grid(n), t_end=t_end, dt=dt,
                      forcing=forcing or Forcing("zero"))


# -- right-hand side ---------------------------------------------------------

def test_rhs_zero_state():
    spec = _spec()
    rhs = solver._rhs(zero_field(spec.grid).coeffs, spec, None)
    assert l2_norm(SpectralField(spec.grid, rhs)) == 0.0


def test_rhs_euler_taylor_green_vanishes():
    # TG convection is a pure gradient, annihilated by the projection
    spec = _spec(nu=0.0)
    v = taylor_green(0.0, 0.0, spec.grid)
    assert l2_norm(SpectralField(spec.grid, solver._rhs(v.coeffs, spec, None))) <= 1e-12


@pytest.mark.parametrize("n", [16, 24, 32, 48, 96])
def test_dealiased_convection_matches_padded_product(n):
    # data band-limited at the 2/3 cut: the dealiased rotational term must
    # equal -P of the exact convective product (2x padded, alias-free)
    # truncated to the cut band
    grid = Grid(n)
    mask = spectral_tables(n).dealias
    cut = int(np.abs(grid.wavenumbers()[0][mask]).max())
    v = random_field(grid, np.random.default_rng(n), kmax=cut)
    fine = resample(v, 2 * n)
    exact = resample(SpectralField(fine.grid, convection(fine.coeffs, dealias=False)), n)
    exact = -1.0 * leray_project(SpectralField(grid, exact.coeffs * mask))
    got = SpectralField(grid, solver._rhs(v.coeffs, _spec(n=n), None))
    assert l2_norm(got - exact) <= 1e-13 * l2_norm(exact)


def test_rhs_stacked_matches_single_calls():
    spec = _spec(n=24, forcing=Forcing("analytic", "kolmogorov", {"wavenumber": 2}))
    rng = np.random.default_rng(5)
    block = np.stack([random_field(spec.grid, rng, kmax=7).coeffs for _ in range(3)])
    f = solver._forcing_coeffs(spec, 0.0)
    got = solver._rhs(block, spec, f)
    assert got.shape == block.shape
    for b, g in zip(block, got):
        want = solver._rhs(b, spec, f)
        assert np.abs(g - want).max() <= 1e-15 * np.abs(want).max()


def test_rhs_matches_expression_form_bit_for_bit():
    # stacked and single states, forced and unforced, with and without a workspace
    spec = _spec(n=24, forcing=Forcing("analytic", "kolmogorov", {"wavenumber": 3}))
    rng = np.random.default_rng(8)
    block = np.stack([random_field(spec.grid, rng, kmax=7).coeffs for _ in range(3)])
    ws = solver._Workspace(block[0].shape)
    for f in (None, solver._forcing_coeffs(spec, 0.0)):
        assert np.array_equal(solver._rhs(block, spec, f), reference_rhs(block, spec, f))
        for b in block:
            assert np.array_equal(solver._rhs(b, spec, f, ws, ws.stages[2]),
                                  reference_rhs(b, spec, f))


def test_rhs_matches_expression_form_with_out_of_band_forcing():
    # a non-solenoidal forcing with modes in every column, above the 2/3
    # band too: the kernel transforms only the band's columns, but must add
    # the forcing and project over the whole half spectrum
    n = 24
    spec = _spec(n=n)
    rng = np.random.default_rng(11)
    f = random_field(spec.grid, rng, kmax=n // 2, solenoidal=False).coeffs
    # every column between the band and the (zeroed) Nyquist column has modes
    assert np.all(np.abs(f[..., (n - 1) // 3 + 1:n // 2]).max(axis=-2) > 0)
    block = np.stack([random_field(spec.grid, rng, kmax=7).coeffs for _ in range(3)])
    ws = solver._Workspace(block[0].shape)
    assert np.array_equal(solver._rhs(block, spec, f), reference_rhs(block, spec, f))
    for b in block:
        assert np.array_equal(solver._rhs(b, spec, f, ws, ws.stages[2]),
                              reference_rhs(b, spec, f))


# -- time stepping -----------------------------------------------------------

@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("n", [16, 24, 32, 64, 128])
def test_solve_matches_expression_form_bit_for_bit(n, forced):
    # the in-place steps of one reused workspace against the expression-form
    # step, sampled every step and every 20th (with the last step)
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0, "wavenumber": 2})
    spec = SystemSpec(nu=0.02, grid=Grid(n), t_end=21 * 2e-3, dt=2e-3,
                      forcing=forcing if forced else Forcing("zero"))
    v0 = random_field(spec.grid, np.random.default_rng(n), kmax=(n - 1) // 3)
    v0 = (1.0 / l2_norm(v0)) * v0
    v = leray_project(v0)
    want = [v.coeffs]
    for step in range(spec.n_steps):
        v = reference_advance(v, spec, step * spec.dt)
        want.append(v.coeffs)
    assert np.array_equal(advance(leray_project(v0), spec, 0.0).coeffs, want[1])
    for stride, keep in ((1, range(22)), (20, (0, 20, 21))):
        traj = solve(spec, v0, sample_stride=stride)
        assert np.array_equal(traj.coeffs, np.stack([want[k] for k in keep]))


def test_advance_allocates_little_beyond_the_new_state():
    # stage, transform and product arrays live in the solve's workspace: one
    # step at n = 128 peaks near 2.5x the state's bytes, the inverse
    # transform's intermediate half spectra and the new state; a fresh
    # (3, n, n) transform output per call (numpy's irfft2 drops out=) reads
    # 3.0x, and the expression form 9.5x
    spec = _spec(nu=0.02, n=128, dt=2e-3)
    v = random_field(spec.grid, np.random.default_rng(3), kmax=42)
    v = (1.0 / l2_norm(v)) * v
    ws = solver._Workspace(v.coeffs.shape)
    v = advance(v, spec, 0.0, _ws=ws)  # warm-up: caches, FFT plans
    tracemalloc.start()
    try:
        advance(v, spec, spec.dt, _ws=ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * v.coeffs.nbytes


def test_advance_exact_on_stokes_mode():
    # single-mode linear data: the integrating factor is exact
    spec = _spec(nu=0.3, n=16, dt=0.1, t_end=1.0)
    u = from_function(spec.grid,
                      lambda x, y: np.sin(3 * x) * 0,
                      lambda x, y: np.sin(3 * x))
    u = SpectralField(spec.grid, u.coeffs, solenoidal=True)
    stepped = advance(u, spec, 0.0)
    decay = np.exp(-spec.nu * 9 * spec.dt)
    assert l2_norm(stepped - decay * u) <= 1e-12 * l2_norm(u)


def test_advance_euler_taylor_green_steady():
    spec = _spec(nu=0.0, dt=0.01)
    v = taylor_green(0.0, 0.0, spec.grid)
    assert l2_norm(advance(v, spec, 0.0) - v) <= 1e-12


def test_advance_fourth_order_convergence():
    # nonlinear data (TG is integrated exactly); reference = dt/8 solution
    nu, T = 0.05, 0.1
    grid = Grid(32)
    rng = np.random.default_rng(11)
    v0 = random_field(grid, rng, kmax=4, components=2, solenoidal=True)
    v0 = (1.0 / l2_norm(v0)) * v0

    def run(dt):
        spec = _spec(nu=nu, dt=dt, t_end=T)
        v = v0
        t = 0.0
        while t < T - 1e-12:
            v = advance(v, spec, t)
            t += dt
        return v

    ref = run(0.02 / 8)
    errs = [l2_norm(run(dt) - ref) for dt in (0.02, 0.01, 0.005)]
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


def _convective_advance(v, spec, t, dealias):
    """Reference IF-RK4 step with the convective form P[-(v.grad)v + f]."""
    def nonlinear(c, s):
        rhs = -1.0 * SpectralField(spec.grid, convection(c, dealias))
        if not spec.forcing.is_zero():
            rhs = rhs + spec.forcing(s, spec.grid)
        return leray_project(rhs).coeffs

    dt = spec.dt
    kx, ky = spec.grid.wavenumbers()
    k2 = kx * kx + ky * ky
    e_full = np.exp(-spec.nu * k2 * dt)
    e_half = np.exp(-spec.nu * k2 * (dt / 2))
    u = v.coeffs
    a = nonlinear(u, t)
    b = nonlinear(e_half * (u + 0.5 * dt * a), t + 0.5 * dt)
    c = nonlinear(e_half * u + 0.5 * dt * b, t + 0.5 * dt)
    d = nonlinear(e_full * u + dt * e_half * c, t + dt)
    new = e_full * u + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    return SpectralField(spec.grid, new, solenoidal=True)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dealias", [True])  # the stepper always applies the 2/3 rule
@pytest.mark.parametrize("n", [32, 64, 128])
def test_advance_matches_convective_form(n, dealias, forced):
    # data band-limited at the 2/3 cut, stepped against a reference that
    # dealiases the convective form the same way
    v = random_field(Grid(n), np.random.default_rng(n), kmax=(n - 1) // 3)
    v = (1.0 / l2_norm(v)) * v
    forcing = Forcing("analytic", "kolmogorov",
                      {"amplitude": 1.0, "wavenumber": 2}) if forced else None
    spec = SystemSpec(nu=0.05, grid=Grid(n), t_end=0.1, dt=1e-2,
                      forcing=forcing or Forcing("zero"))
    got = advance(v, spec, 0.3)
    want = _convective_advance(v, spec, 0.3, dealias)
    assert l2_norm(got - want) <= 1e-13 * l2_norm(want)


def test_advance_rejects_state_leaving_solenoidal_space():
    spec = _spec(nu=0.05, n=16, dt=1e-2)
    grad = from_function(spec.grid, lambda x, y: np.cos(x) * np.sin(y),
                         lambda x, y: np.sin(x) * np.cos(y))
    with pytest.raises(FieldError):
        advance(grad, spec, 0.0)


def test_integrating_factors_cached_and_read_only():
    e_half, e_full = solver._integrating_factors(16, 0.1, 1e-2)
    assert solver._integrating_factors(16, 0.1, 1e-2)[0] is e_half
    assert e_half.shape == (16, 9)
    for e in (e_half, e_full):
        with pytest.raises(ValueError):
            e[0, 0] = 0.0


# -- full solves -------------------------------------------------------------

def test_solve_zero_data_stays_zero():
    spec = _spec(t_end=0.05, dt=5e-3)
    traj = solve(spec, zero_field(spec.grid))
    assert all(l2_norm(s) == 0.0 for s in states(traj))


def test_solve_taylor_green_short_horizon():
    nu = 0.1
    spec = _spec(nu=nu, t_end=0.2, dt=1e-3)
    traj = solve(spec, taylor_green(0.0, nu, spec.grid), sample_stride=20)
    err = max(l2_norm(s - taylor_green(t, nu, spec.grid))
              for t, s in zip(traj.times, states(traj)))
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
    # a forcing that turns NaN after t = 0.047 poisons the state in the step
    # from t = 0.04; the energy check cannot see NaN, the finiteness check must
    forcing_coeffs = solver._forcing_coeffs

    def poisoned(spec, t):
        f = forcing_coeffs(spec, t)
        return f * np.nan if t > 0.047 else f

    monkeypatch.setattr(solver, "_forcing_coeffs", poisoned)
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
    assert l2_norm(from_file.state(-1) - analytic.state(-1)) <= 1e-13


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
    assert forcing(0.3, Grid(32)) is forcing(0.0, Grid(32))
    assert builds == [16, 32]


def test_taylor_green_built_once_per_grid(monkeypatch):
    from maxdiss.certificate import certify
    from maxdiss.relenergy import WeightSpec

    builds = []
    monkeypatch.setattr(solver, "from_function", lambda grid, *fns, **kw:
                        builds.append(grid.n) or from_function(grid, *fns, **kw))
    solver._unit_taylor_green.cache_clear()
    nu = 0.1
    for n in (16, 24):
        spec = _spec(nu=nu, n=n, t_end=0.075, dt=2.5e-3)
        times = np.arange(31) * spec.dt
        u = Trajectory(spec=spec, times=times,
                       coeffs=stacked([taylor_green(t, nu, spec.grid) for t in times]))
        family = [TestTrajectory.taylor_green(nu, spec.grid, label="exact"),
                  TestTrajectory.taylor_green(nu, spec.grid, amplitude=1.05)]
        assert len(certify(u, family, WeightSpec()).entries) == 62
    assert builds == [16, 24]
    # the scaled unit field matches sampling the scaled closed form
    for t in (0.0, 0.0375, 0.075):
        a = 1.05 * np.exp(-2.0 * nu * t)
        sampled = from_function(spec.grid, lambda X, Y: a * np.sin(X) * np.cos(Y),
                                lambda X, Y: -a * np.cos(X) * np.sin(Y), solenoidal=True)
        value = family[1].value(t)
        assert np.abs(value.coeffs - sampled.coeffs).max() <= 1e-15
        assert np.array_equal(family[1].deriv(t).coeffs, (-2.0 * nu * value).coeffs)


def test_solenoidality_preserved():
    spec = _spec(nu=0.01, n=32, t_end=0.5, dt=1e-3,
                 forcing=Forcing("analytic", "kolmogorov",
                                 {"amplitude": 1.0, "wavenumber": 2}))
    rng = np.random.default_rng(2)
    traj = solve(spec, random_field(spec.grid, rng, kmax=8), sample_stride=100)
    for s in states(traj):
        assert divergence_linf(s) <= 1e-12


def test_galerkin_consistency_pad_vs_fine():
    # solving at n then padding agrees with solving at 2n from truncated data
    nu = 0.05
    rng = np.random.default_rng(3)
    v0 = random_field(Grid(32), rng, kmax=5, components=2, solenoidal=True)
    v0 = (1.0 / l2_norm(v0)) * v0
    t_end, dt = 0.1, 1e-3
    lo = solve(SystemSpec(nu=nu, grid=Grid(32), t_end=t_end, dt=dt), v0,
               sample_stride=100)
    hi = solve(SystemSpec(nu=nu, grid=Grid(64), t_end=t_end, dt=dt),
               resample(v0, 64), sample_stride=100)
    # the runs differ only by the coarse grid's dealias cutoff: the gap is
    # the spectral tail and is far smaller than the solution itself
    gap = l2_norm(resample(lo.state(-1), 64) - hi.state(-1))
    assert gap <= 1e-3 * l2_norm(hi.state(-1))
    # retained low modes agree much more closely than the full fields
    low_gap = l2_norm(resample(lo.state(-1), 16)
                      - resample(hi.state(-1), 16))
    assert low_gap <= gap


# -- oracles -----------------------------------------------------------------

def test_taylor_green_energy_and_divergence():
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid)
    assert 0.5 * inner(v, v) == pytest.approx(np.pi ** 2, rel=1e-13)
    assert divergence_linf(v) <= 1e-14


def test_taylor_green_momentum_residual():
    # d_t v + (v.grad)v - nu Lap v + grad p = 0 pointwise
    nu, t = 0.2, 0.3
    grid = Grid(64)
    n = grid.n
    v = taylor_green(t, nu, grid)
    p = taylor_green_pressure(t, nu, grid)
    dv = -2 * nu * taylor_green(t, nu, grid)  # d_t of the closed form
    vp = v.physical()
    from maxdiss.fields import gradients
    g = np.fft.irfft2(gradients(v.coeffs), s=(n, n), norm="forward")
    conv = np.stack([vp[0] * g[0, 0] + vp[1] * g[0, 1],
                     vp[0] * g[1, 0] + vp[1] * g[1, 1]])
    gp = np.fft.irfft2(np.stack(
        [1j * grid.wavenumbers()[0] * p.coeffs[0],
         1j * grid.wavenumbers()[1] * p.coeffs[0]]),
        s=(n, n), norm="forward")
    lap = -2 * v.physical()
    residual = dv.physical() + conv - nu * lap + gp
    assert np.abs(residual).max() <= 1e-12


def test_recover_pressure_taylor_green():
    nu, t = 0.1, 0.25
    grid = Grid(32)
    v = taylor_green(t, nu, grid)
    p = recover_pressure(v)
    expect = taylor_green_pressure(t, nu, grid)
    assert l2_norm(p - expect) <= 1e-10
    assert abs(p.coeffs[0, 0, 0]) <= 1e-14


def test_recover_pressure_gradient_forcing():
    grid = Grid(32)
    phi = from_function(grid, lambda x, y: np.sin(x) * np.sin(2 * y))
    f = from_function(grid,
                      lambda x, y: np.cos(x) * np.sin(2 * y),
                      lambda x, y: 2 * np.sin(x) * np.cos(2 * y))
    p = recover_pressure(zero_field(grid), f)
    assert l2_norm(p - phi) <= 1e-12  # phi is already mean-free


# -- trajectories and persistence --------------------------------------------

def test_trajectory_validation():
    spec = _spec(t_end=0.01, dt=0.01)
    z = zero_field(spec.grid)
    with pytest.raises(SolverError):
        Trajectory(spec=spec, times=np.array([0.1, 0.2]), coeffs=stacked([z, z]))
    with pytest.raises(SolverError):
        Trajectory(spec=spec, times=np.array([0.0, 0.0]), coeffs=stacked([z, z]))
    with pytest.raises(SolverError):
        Trajectory(spec=spec, times=np.array([]), coeffs=[])


def test_trajectory_invariants_match_per_sample_fields():
    # one invariant pass over the stack gives each sample's field invariants;
    # the divergence check is per sample, so a weakly divergent sample beside
    # a large solenoidal one still fails (a stack-wide scale would pass it)
    spec = _spec(n=16, t_end=0.02, dt=1e-2)
    times = np.array([0.0, 0.01, 0.02])
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((3, 2, 16, 9)) + 1j * rng.standard_normal((3, 2, 16, 9))
    sol = project(raw, spectral_tables(16))
    traj = Trajectory(spec=spec, times=times, coeffs=sol)
    assert not traj.coeffs.flags.writeable
    for k in range(times.size):
        field = SpectralField(spec.grid, sol[k], solenoidal=True)
        assert np.array_equal(traj.coeffs[k], field.coeffs)
        assert np.array_equal(traj.state(k).coeffs, field.coeffs)
    bad = sol.copy()
    bad[0] *= 1e7
    bad[2] += 1e-6 * raw[2]
    with pytest.raises(FieldError, match="tagged solenoidal"):
        Trajectory(spec=spec, times=times, coeffs=bad)
    with pytest.raises(SolverError, match="coefficient shape"):
        Trajectory(spec=spec, times=times, coeffs=sol[:2])


def test_trajectory_roundtrip(tmp_path):
    spec = _spec(nu=0.1, n=16, t_end=0.02, dt=1e-2)
    traj = solve(spec, taylor_green(0.0, 0.1, spec.grid))
    traj.save(tmp_path / "run")
    back = Trajectory.load(tmp_path / "run")
    assert np.allclose(back.times, traj.times)
    assert back.spec.nu == spec.nu and back.grid.n == 16
    assert np.array_equal(back.coeffs, traj.coeffs)
    # states.fld must match the manifest's sample count
    manifest = tmp_path / "run" / "manifest.json"
    meta = json.loads(manifest.read_text())
    manifest.write_text(json.dumps(dict(meta, times=meta["times"][:-1])))
    with pytest.raises(FieldError, match="states.fld"):
        Trajectory.load(tmp_path / "run")


def test_trajectory_stores_packed_half_spectra(tmp_path, rng):
    # states.fld holds the spectra less their zero Nyquist row and column and
    # loads them back bit for bit; a file of physical samples, the layout of
    # older run trees, is refused
    spec = _spec(nu=0.1, n=16, t_end=0.02, dt=1e-2)
    traj = solve(spec, random_field(spec.grid, rng, kmax=8, components=2, solenoidal=True))
    traj.save(tmp_path / "run")
    assert np.array_equal(Trajectory.load(tmp_path / "run").coeffs, traj.coeffs)
    path = tmp_path / "run" / "states.fld"
    packed, header = load_samples(path)
    assert packed.shape == (traj.times.size, 2, 15, 8) and header["dtype"] == "c128"
    assert path.stat().st_size - 16 * 16 * 15 * traj.times.size < 512  # the header
    save_samples(path, np.fft.irfft2(traj.coeffs, s=(16, 16), norm="forward"))
    with pytest.raises(FieldError, match="layout None, shape .* needs half_spectrum_packed"):
        Trajectory.load(tmp_path / "run")


def test_forcing_registry_and_serialization():
    grid = Grid(16)
    f = Forcing("analytic", "gradient_potential")
    field = f(0.0, grid)
    # gradient forcings are annihilated by the projection inside the rhs
    from maxdiss.fields import leray_project
    assert l2_norm(leray_project(field)) <= 1e-12
    assert Forcing.from_dict(f.to_dict()).to_dict() == f.to_dict()
    with pytest.raises(SolverError):
        Forcing("analytic", "no_such_forcing")(0.0, grid)


# -- test trajectories -------------------------------------------------------

def test_spline_test_trajectory_matches_analytic():
    nu = 0.1
    spec = _spec(nu=nu, t_end=0.5, dt=1e-3)
    traj = solve(spec, taylor_green(0.0, nu, spec.grid), sample_stride=25)
    vt = TestTrajectory.from_trajectory(traj)
    t = 0.25
    exact_v = taylor_green(t, nu, spec.grid)
    exact_dv = -2 * nu * exact_v
    assert l2_norm(vt.value(t) - exact_v) <= 1e-6
    assert l2_norm(vt.deriv(t) - exact_dv) <= 1e-4


def test_perturbed_test_trajectory():
    grid = Grid(16)
    base = TestTrajectory.taylor_green(0.1, grid)
    r = random_field(grid, np.random.default_rng(5), kmax=3)
    vt = TestTrajectory.perturbed(base, r, 0.25)
    assert l2_norm(vt.value(0.3) - base.value(0.3) - 0.25 * r) <= 1e-14
    assert l2_norm(vt.deriv(0.3) - base.deriv(0.3)) <= 1e-14
