"""Shared fixtures (expensive reference runs computed once per session) and helpers."""

import time

import numpy as np
import pytest
from support import gradients, velocity

from maxdiss import solver
from maxdiss.fields import Grid, pairing, project, spectral_tables
from maxdiss.solver import Forcing, SystemSpec, Trajectory, solve, taylor_green


def stacked(fields) -> np.ndarray:
    """Trajectory coefficients (T, 2, n, n//2 + 1) of a list of vector fields."""
    return np.stack([f.coeffs for f in fields])


def rebuilt(v: np.ndarray) -> np.ndarray:
    """The velocity that ``from_velocity`` rebuilds from coefficients v."""
    return solver._velocity(solver._curl(v))


def dist(a, b=0.0) -> float:
    """The L2 distance, by Parseval, of coefficients a and b (components, n, n//2 + 1)."""
    d = a - b
    return np.sqrt(pairing(d, d))


def divergence_linf(u) -> float:
    """max |k . uhat| over the modes of a vector field."""
    kx, ky = u.grid.wavenumbers()
    return np.abs(kx * u.coeffs[0] + ky * u.coeffs[1]).max()


def convection(c: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Convective-form reference (v.grad)v of velocity coefficients
    (..., 2, n, n//2 + 1), optionally 2/3-rule dealiased, that the solver's
    Basdevant-form kernel is checked against."""
    n = c.shape[-2]
    tab = spectral_tables(n)
    if dealias:
        c = c * tab.dealias
    grads = gradients(c).reshape(c.shape[:-3] + (4,) + c.shape[-2:])
    phys = np.fft.irfft2(np.concatenate([c, grads], axis=-3), s=(n, n), norm="forward")
    v, g = phys[..., :2, :, :], phys[..., 2:, :, :]
    # (v.grad)v_i = v_x d_x v_i + v_y d_y v_i; g holds d_j v_i at 2 i + j
    conv = v[..., :1, :, :] * g[..., 0::2, :, :] + v[..., 1:, :, :] * g[..., 1::2, :, :]
    return np.fft.rfft2(conv, norm="forward") * (tab.dealias if dealias else tab.nyquist)


def _reference_products(v: np.ndarray, n: int):
    """a_hat and b_hat of a = v_x^2 - v_y^2 and b = v_x v_y for velocity coefficients
    v (..., 2, n, n//2 + 1), by irfft2 and rfft2 of the whole half spectra."""
    p = np.fft.irfft2(v, s=(n, n), norm="forward")
    vx, vy = p[..., 0, :, :], p[..., 1, :, :]
    t = np.fft.rfft2(np.stack([vx * vx - vy * vy, vx * vy], axis=-3), norm="forward")
    return t[..., 0, :, :], t[..., 1, :, :]


def reference_curl(u: np.ndarray) -> np.ndarray:
    """Vorticity half spectra i kx u_y - i ky u_x of velocity coefficients
    (..., 2, n, n//2 + 1), the mean at k = 0 as u_x + i u_y: the stepper's state."""
    tab = spectral_tables(u.shape[-2])
    w = 1j * (tab.kx * u[..., 1, :, :] - tab.ky * u[..., 0, :, :])
    w[..., 0, 0] = u[..., 0, 0, 0].real + 1j * u[..., 1, 0, 0].real
    return w


def reference_velocity(w: np.ndarray) -> np.ndarray:
    """Velocity coefficients (i ky, -i kx) w / |k|^2 of vorticity half spectra w, the
    mean from k = 0, one new array per operation."""
    tab = spectral_tables(w.shape[-2])
    psi = w * tab.inv_k2
    u = np.stack([(1j * tab.ky) * psi, (-1j * tab.kx) * psi], axis=-3)
    u[..., 0, 0, 0] = w[..., 0, 0].real
    u[..., 1, 0, 0] = w[..., 0, 0].imag
    return u


def reference_rhs(w: np.ndarray, spec, cf) -> np.ndarray:
    """Expression form of the vorticity kernel |k|^2 (h b_hat - g a_hat) + cf on half
    spectra (..., n, n//2 + 1), a and b of the band-limited velocity
    i k' (-w / |k|^2) of w with its mean, one new array per operation; the in-place
    ``solver._curl_rhs`` must match it bit for bit."""
    n = spec.grid.n
    g, h, rot_x, rot_y, neg_inv_k2 = solver._basdevant_tables(n)
    m = g.shape[-1]
    q = neg_inv_k2 * w[..., :m]
    v = np.zeros(w.shape[:-2] + (2, n, n // 2 + 1), dtype=complex)
    v[..., 0, :, :m] = rot_x * q
    v[..., 1, :, :m] = rot_y * q
    v[..., 0, 0, 0] = w[..., 0, 0].real
    v[..., 1, 0, 0] = w[..., 0, 0].imag
    a, b = _reference_products(v, n)
    nl = np.zeros(w.shape, dtype=complex)
    nl[..., :m] = spectral_tables(n).k2[:, :m] * (h * b[..., :m] - g * a[..., :m])
    return nl if cf is None else nl + cf


def rotational_rhs(u: np.ndarray, spec, f) -> np.ndarray:
    """The rotational form P[omega (v_y, -v_x) + f] of the dealiased nonlinear term
    on coefficients (..., 2, n, n//2 + 1), with the raw forcing f: an oracle of the
    nonlinear kernel independent of it, which ``-relenergy.residual_A(u, 0, spec)``
    must match to roundoff at nu = 0 with the forcing f."""
    n = spec.grid.n
    tab = spectral_tables(n)
    u = u * tab.dealias
    omega = 1j * (tab.kx * u[..., 1, :, :] - tab.ky * u[..., 0, :, :])
    phys = np.fft.irfft2(np.concatenate([u, omega[..., None, :, :]], axis=-3),
                         s=(n, n), norm="forward")
    vx, vy, w = phys[..., 0, :, :], phys[..., 1, :, :], phys[..., 2, :, :]
    nl = np.fft.rfft2(np.stack([w * vy, -w * vx], axis=-3), norm="forward")
    nl *= tab.dealias
    if f is not None:
        nl += f
    return project(nl, tab)


def reference_advance(w: np.ndarray, spec, t: float) -> np.ndarray:
    """Expression form of one IF-RK4 step of ``solver.advance`` on vorticity half
    spectra, allocating every stage; the in-place step must match it bit for bit."""
    dt = spec.dt
    e_half, e_full = solver._integrating_factors(spec.grid.n, spec.nu, dt)[:2]
    f = spec.forcing.curl(spec.grid.n)
    a = reference_rhs(w, spec, f)
    b = reference_rhs(e_half * (w + 0.5 * dt * a), spec, f)
    c = reference_rhs(e_half * w + 0.5 * dt * b, spec, f)
    d = reference_rhs(e_full * w + dt * e_half * c, spec, f)
    new = e_full * w + (dt / 6.0) * (e_full * a + 2.0 * e_half * (b + c) + d)
    # column ky = 0 onto Hermitian symmetry; k = 0 holds the mean
    new[..., 1:, 0] = 0.5 * (new[..., 1:, 0] + np.conj(new[..., :0:-1, 0]))
    return new


@pytest.fixture(scope="session")
def tg_reference():
    """Benchmark-scale decaying-vortex run: n=32, nu=0.1, dt=1e-3, T=1.

    Returns (trajectory, elapsed seconds, max L2 error vs the closed form).
    Shared by the fidelity, certification and recovery tests.
    """
    nu = 0.1
    grid = Grid(32)
    spec = SystemSpec(nu=nu, grid=grid, t_end=1.0, dt=1e-3,
                      forcing=Forcing("zero"))
    v0 = taylor_green(0.0, nu, grid)
    start = time.perf_counter()
    traj = solve(spec, v0, sample_stride=25)
    elapsed = time.perf_counter() - start
    err = max(dist(s, taylor_green(t, nu, grid).coeffs)
              for t, s in zip(traj.times, velocity(traj)))
    return traj, elapsed, err


@pytest.fixture(scope="session")
def tg_ladder():
    """Resolution-ladder family members n in {16, 24, 32}, shared data."""
    nu = 0.05
    members = []
    for n in (16, 24, 32):
        grid = Grid(n)
        spec = SystemSpec(nu=nu, grid=grid, t_end=0.5, dt=2.5e-3,
                          forcing=Forcing("zero"))
        members.append(solve(spec, taylor_green(0.0, nu, grid),
                             sample_stride=10))
    return members


@pytest.fixture(scope="session")
def tg_impostors():
    """Taylor-Green at n = 32, nu = 0.1 (dt 2.5e-3 to T = 0.5, a sample every
    10 steps) and two manufactured trajectories with its data: "growing",
    (1 + t) TG, and "decaying", e^{-t/2} TG, which loses energy faster than
    the flow can."""
    nu, grid = 0.1, Grid(32)
    spec = SystemSpec(nu=nu, grid=grid, t_end=0.5, dt=2.5e-3, forcing=Forcing("zero"))
    tg = solve(spec, taylor_green(0.0, nu, grid), sample_stride=10)
    factors = {"growing": 1.0 + tg.times, "decaying": np.exp(-tg.times / 2)}
    return dict(tg=tg, **{name: Trajectory(spec, tg.times, tg.vorticity * f[:, None, None],
                                           provenance=f"manufactured {name}")
                          for name, f in factors.items()})


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
