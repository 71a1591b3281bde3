"""Relative energy, relative dissipation, regularity weights and residuals.

The quantities here make up both sides of the Gronwall-weighted relative
energy inequality: R measures the squared L2 distance to a test
trajectory, W the viscous dissipation of the difference, K the strain
regularity weight entering the Gronwall factor, and A the PDE residual of
the test trajectory.  The kernels take coefficients stacked over leading
axes, (..., 2, n, n//2 + 1), and return one value or field per leading
index.  K and A depend only on the test (A affinely on nu), so the
certifier computes them once for all members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import h1_squared, pairing, samples, spectral_tables
from .solver import SystemSpec, _curl, _curl_rhs, _velocity, _Workspace


class WeightError(ValueError):
    pass


#: the least kappa for which K R(u|v) bounds |b(u - v, v, u - v)| (``weight_norms``)
MIN_KAPPA = 2.0


@dataclass(frozen=True)
class WeightSpec:
    """Configuration of the regularity weight K = kappa sup_x |S(v)|; "euler_negsym"
    is read as "strain", the one kind."""

    kind: str = "strain"
    kappa: float = MIN_KAPPA

    def __post_init__(self):
        if self.kind not in ("strain", "euler_negsym"):
            raise WeightError(f'kind: unknown weight kind {self.kind!r}, expected "strain"')
        if not (isinstance(self.kappa, (int, float)) and not isinstance(self.kappa, bool)
                and MIN_KAPPA <= self.kappa < math.inf):
            raise WeightError(f"kappa: expected a finite number >= {MIN_KAPPA:g}, "
                              f"got {self.kappa!r}")
        object.__setattr__(self, "kind", "strain")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "kappa": self.kappa}


# -- quadratic functionals --------------------------------------------------

def rel_terms(d: np.ndarray, nu: float):
    """R = 1/2 ||d||^2 and W = nu/2 ||grad d||^2 of stacked differences d = u - v."""
    R = 0.5 * pairing(d, d)
    return R, (0.5 * nu * h1_squared(d) if nu else np.zeros_like(R))


# -- regularity weight ------------------------------------------------------

def weight_norms(values: np.ndarray) -> np.ndarray:
    """The nu-free factor of K for stacked solenoidal test states: the max over
    the 2x grid of |S|, the spectral norm of the strain S = (grad v)_sym.

    The precondition is div v = 0: then S is trace-free, its eigenvalues are
    +-|S| with |S| = sqrt(s11^2 + s12^2), s11 = d_x v_x and
    s12 = (d_y v_x + d_x v_y) / 2, and |b(w, v, w)| = |int w.S w| <= sup |S| ||w||^2,
    so kappa >= 2 times R(u|v) bounds b(u - v, v, u - v) from both sides, for
    every nu >= 0.  Shears such as (sin y, 0) carry weight through s12.
    """
    tab = spectral_tables(values.shape[-2])
    vx, vy = values[..., 0, :, :], values[..., 1, :, :]
    s = samples(np.stack([1j * tab.kx * vx, 0.5j * (tab.ky * vx + tab.kx * vy)], axis=-3),
                2 * values.shape[-2])
    s *= s  # in place: fresh (B, 2n, 2n) temporaries cost more than the arithmetic
    return np.sqrt(np.max(np.add(s[..., 0, :, :], s[..., 1, :, :], out=s[..., 0, :, :]),
                          axis=(-2, -1)))


def weight_value(norms: np.ndarray, w: WeightSpec) -> np.ndarray:
    """K = kappa times ``weight_norms``, the same for every viscosity."""
    return w.kappa * norms


# -- residual -------------------------------------------------------------

def residual_A(values: np.ndarray, derivs: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """A = P[d/dt v + (v.grad)v - nu Lap v - f] of stacked solenoidal test states (as
    ``weight_norms`` needs; P leaves d/dt v and |k|^2 v as they are), through the
    stepper's one nonlinear kernel: d/dt v + nu |k|^2 v - N(v), N(v) the velocity
    (``solver._velocity``) of ``solver._curl_rhs`` on the curl of v with curl f;
    A_nu = A_0 + nu |k|^2 v, so ``margin_series`` calls it once at nu = 0."""
    n, w = spec.grid.n, _curl(values)  # _curl_rhs reads w before it writes its output there
    nl = _curl_rhs(w, spec, spec.forcing.curl(n), _Workspace(w.shape[:-2], n), w)
    return derivs + spec.nu * spectral_tables(n).k2 * values - _velocity(nl)


# -- Gronwall machinery -----------------------------------------------------

def _simpson_pieces(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over [t_k, t_k+1] of the parabola through t_k, t_k+1, t_k+2."""
    x21, x32 = h[:-1], h[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def cumulative_weight_integral(values, times) -> np.ndarray:
    """I(t_k) = int_0^{t_k} K ds along axis 0, I(0) = 0; bit for bit as scipy 1.17's
    cumulative_simpson(..., initial=0.0): Cartwright's (2017) rule per interval.
    The package's one time quadrature: the selector takes its Gram integral as I(T)."""
    y = np.asarray(values, dtype=float)
    h = np.diff(np.asarray(times, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    pieces = np.zeros(y.shape)
    if y.shape[0] == 2:
        pieces[1] = h[0] * (y[1] + y[0]) / 2.0
    elif y.shape[0] > 2:
        backward = _simpson_pieces(y[::-1], h[::-1])[::-1]
        pieces[1:-1:2] = _simpson_pieces(y, h)[::2]
        pieces[2::2] = backward[::2]
        pieces[-1] = backward[-1]
    return np.cumsum(pieces, axis=0)
