"""Relative energy, relative dissipation, regularity weights and residuals.

The quantities here make up both sides of the Gronwall-weighted relative
energy inequality: R measures the squared L2 distance to a test
trajectory, W the viscous dissipation of the difference, K the strain
regularity weight entering the Gronwall factor, and A the PDE residual of
the test trajectory.  The kernels take vorticity half spectra (``solver._curl``),
stacked over leading axes, (..., n, n//2 + 1), and return one value or field
per leading index.  K and A depend only on the test (A affinely on nu), so the
certifier computes them once for all members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import samples, spectral_tables
from .solver import SystemSpec, _curl_rhs, _velocity_pairing, _Workspace


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
    """R = 1/2 ||d||^2 and W = nu/2 ||grad d||^2 = nu/2 <d, |k|^2 d> of the velocity
    d = u - v of stacked vorticity differences, by ``_velocity_pairing``: W is nu/2
    times the sum of |w|^2 over k != 0."""
    R = 0.5 * _velocity_pairing(d, d)
    return R, (0.5 * nu * _velocity_pairing(d, spectral_tables(d.shape[-2]).k2 * d) if nu
               else np.zeros_like(R))


# -- regularity weight ------------------------------------------------------

def weight_norms(w: np.ndarray) -> np.ndarray:
    """The nu-free factor of K for stacked test vorticities w: the max over the 2x
    grid of |S|, the spectral norm of the strain S = (grad v)_sym of their velocity v.

    v is solenoidal, so S is trace-free, its eigenvalues are +-|S| with |S| =
    sqrt(s11^2 + s12^2), s11 = d_x v_x = -kx ky w / |k|^2, s12 = (d_y v_x + d_x v_y) / 2
    = (kx^2 - ky^2) w / (2 |k|^2), and |b(d, v, d)| = |int d.S d| <= sup |S| ||d||^2, so
    kappa >= 2 times R(u|v) bounds b(u - v, v, u - v) from both sides, for every
    nu >= 0.  Shears such as (sin y, 0) carry weight through s12.
    """
    n, tab = w.shape[-2], spectral_tables(w.shape[-2])
    s = samples(np.stack([-tab.kx * tab.ky * tab.inv_k2 * w,
                          0.5 * (tab.kx * tab.kx - tab.ky * tab.ky) * tab.inv_k2 * w], axis=-3),
                2 * n)
    s *= s  # in place: fresh (B, 2n, 2n) temporaries cost more than the arithmetic
    return np.sqrt(np.max(np.add(s[..., 0, :, :], s[..., 1, :, :], out=s[..., 0, :, :]),
                          axis=(-2, -1)))


def weight_value(norms: np.ndarray, w: WeightSpec) -> np.ndarray:
    """K = kappa times ``weight_norms``, the same for every viscosity."""
    return w.kappa * norms


# -- residual -------------------------------------------------------------

def residual_A(w: np.ndarray, dw: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """curl A, with A's mean at k = 0, of A = P[d/dt v + (v.grad)v - nu Lap v - f] for
    stacked test vorticities w and their time derivatives dw, through the stepper's
    one nonlinear kernel: dw + nu |k|^2 w - ``solver._curl_rhs``(w) with curl f;
    A_nu = A_0 + nu |k|^2 w, so ``margin_series`` calls it once at nu = 0."""
    n = spec.grid.n
    nl = _curl_rhs(w, spec, spec.forcing.curl(n), _Workspace(w.shape[:-2], n), np.empty_like(w))
    return dw + spec.nu * spectral_tables(n).k2 * w - nl


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
