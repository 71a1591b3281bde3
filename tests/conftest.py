"""Shared fixtures (expensive reference runs computed once per session) and helpers."""

import time

import numpy as np
import pytest

from maxdiss.fields import Grid, gradients, spectral_tables
from maxdiss.solver import Forcing, SystemSpec, solve, taylor_green


def stacked(fields) -> np.ndarray:
    """Trajectory coefficients (T, 2, n, n//2 + 1) of a list of vector fields."""
    return np.stack([f.coeffs for f in fields])


def states(traj) -> list:
    """The states of a trajectory as fields, one per sample time."""
    return [traj.state(k) for k in range(traj.times.size)]


def divergence_linf(u) -> float:
    """max |k . uhat| over the modes of a vector field."""
    kx, ky = u.grid.wavenumbers()
    return np.abs(kx * u.coeffs[0] + ky * u.coeffs[1]).max()


def convection(c: np.ndarray, dealias: bool = True) -> np.ndarray:
    """Convective-form reference (v.grad)v of velocity coefficients
    (..., 2, n, n//2 + 1), optionally 2/3-rule dealiased, that the solver's
    rotational kernel is checked against."""
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


@pytest.fixture(scope="session")
def tg_reference():
    """Benchmark-scale decaying-vortex run: n=32, nu=0.1, dt=1e-3, T=1.

    Returns (trajectory, elapsed seconds, max L2 error vs the closed form).
    Shared by the fidelity, certification and recovery tests.
    """
    from maxdiss.fields import l2_norm

    nu = 0.1
    grid = Grid(32)
    spec = SystemSpec(nu=nu, grid=grid, t_end=1.0, dt=1e-3,
                      forcing=Forcing("zero"))
    v0 = taylor_green(0.0, nu, grid)
    start = time.perf_counter()
    traj = solve(spec, v0, sample_stride=25)
    elapsed = time.perf_counter() - start
    err = max(l2_norm(s - taylor_green(t, nu, grid))
              for t, s in zip(traj.times, states(traj)))
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


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
