"""Relative energy, relative dissipation, regularity weights and residuals.

The quantities here make up both sides of the Gronwall-weighted relative
energy inequality: R measures the squared L2 distance to a test
trajectory, W the viscous dissipation of the difference, K the Serrin-type
(or, for Euler, negative-strain) regularity weight entering the Gronwall
factor, and A the PDE residual of the test trajectory.  The kernels take
coefficients stacked over leading axes, (..., 2, n, n//2 + 1), and return
one value or field per leading index.  K and A depend only on the test
(A affinely on nu), so the certifier computes them once for all members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    _sym_eigenvalues,
    gradients,
    h1_squared,
    lp_norms,
    pairing,
    project,
    samples,
    spectral_tables,
)
from .solver import SystemSpec, _rhs

#: Gagliardo-Nirenberg (Ladyzhenskaya) constant C in
#: ||w||_L4 <= C ||w||_L2^{1/2} ||grad w||_L2^{1/2} on mean-free torus fields.
#: An empirical maximum, not a proven bound: 1.1 times the largest ratio
#: ||v||_L4 / (||v||_L2 ||grad v||_L2)^{1/2} over 20,000 random band-limited
#: fields: ``random_field`` on Grid(64) drawn from default_rng(0), trial i
#: with kmax = (1, 2, 3, 5, 8, 13, 21)[i % 7], a solenoidal vector field for
#: even i and a scalar field for odd i.
DEFAULT_GN_CONSTANT = 0.5444330952113287


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class WeightSpec:
    """Configuration of the regularity weight K."""

    kind: str = "serrin"  # "serrin" | "euler_negsym"
    p: float = 4.0
    constant_c: object = "auto"
    gn_constant: float = DEFAULT_GN_CONSTANT
    kappa: float = 2.0  # prefactor of the Euler negative-strain weight

    def __post_init__(self):
        if self.kind not in ("serrin", "euler_negsym"):
            raise WeightError(f"unknown weight kind {self.kind!r}")
        if self.kind == "serrin":
            if self.p <= 2:
                raise WeightError(f"Serrin weight needs p > 2, got p={self.p}")

    @property
    def alpha(self) -> float:
        return (self.p - 2) / self.p  # d (p - 2) / (2 p) at d = 2

    @property
    def lp_exponent(self) -> float:
        # r = 2p/(p-2); together with s = 2/(1-alpha) this attains 2/s + 2/r <= 1
        return 2 * self.p / (self.p - 2)

    @property
    def time_exponent(self) -> float:
        return 2.0 / (1.0 - self.alpha)

    def constant(self, nu: float) -> float:
        """The Young-closure constant c in K = c ||v||_r^{2/(1-a)}."""
        if self.constant_c != "auto":
            return float(self.constant_c)
        if nu <= 0:
            raise WeightError("Serrin weight with auto constant requires nu > 0")
        a = self.alpha
        return (0.5 * (1 - a)) * self.gn_constant ** (2 / (1 - a)) \
            * ((1 + a) / nu) ** ((1 + a) / (1 - a))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "c": self.constant_c,
                "gn_constant": self.gn_constant, "kappa": self.kappa}

    @classmethod
    def from_dict(cls, d: dict) -> "WeightSpec":
        return cls(**{"constant_c" if k == "c" else k: v for k, v in d.items()})


# -- quadratic functionals --------------------------------------------------

def rel_terms(d: np.ndarray, nu: float):
    """R = 1/2 ||d||^2 and W = nu/2 ||grad d||^2 of stacked differences d = u - v."""
    R = 0.5 * pairing(d, d)
    return R, (0.5 * nu * h1_squared(d) if nu else np.zeros_like(R))


# -- regularity weights -----------------------------------------------------

def weight_norms(values: np.ndarray, w: WeightSpec) -> np.ndarray:
    """The nu-free factor of K for stacked test states, on the 2x grid: ||v||_{L^r}
    (Serrin) or sup_x max(-lambda_min(S), 0) of the strain S = (grad v)_sym.

    -b(w, v, w) = -int w.S w <= sup_x max(-lambda_min(S), 0) ||w||^2, so with kappa >= 2
    the strain weight times R(u|v) bounds -b(u - v, v, u - v).  Shears such as
    (sin y, 0) carry weight through their off-diagonal strain.
    """
    if w.kind == "serrin":
        return lp_norms(values, w.lp_exponent)
    g = samples(gradients(values), 2 * values.shape[-2])
    strain = np.stack([g[..., 0, 0, :, :], 0.5 * (g[..., 0, 1, :, :] + g[..., 1, 0, :, :]),
                       g[..., 1, 1, :, :]], axis=-3)
    return np.maximum(np.max(-_sym_eigenvalues(strain)[1], axis=(-2, -1)), 0.0)


def weight_value(norms: np.ndarray, w: WeightSpec, nu: float) -> np.ndarray:
    """K from ``weight_norms``: c ||v||_r^{2/(1-alpha)} or kappa times the strain bound."""
    if w.kind == "serrin":
        return w.constant(nu) * norms ** w.time_exponent
    return w.kappa * norms


# -- residual -------------------------------------------------------------

def residual_A(values: np.ndarray, derivs: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """A = P[d/dt v + (v.grad)v - nu Lap v - f] of stacked test states, through
    the stepper's nonlinear kernel: P[d/dt v + nu |k|^2 v] - solver._rhs(v);
    A_nu = A_0 + nu P(|k|^2 v), so ``margin_series`` calls it once at nu = 0."""
    tab = spectral_tables(spec.grid.n)
    res = project(derivs + spec.nu * tab.k2 * values, tab)
    return res - _rhs(values, spec, spec.forcing.coeffs(spec.grid.n))


# -- Gronwall machinery -----------------------------------------------------

def simpson(y, times) -> np.ndarray:
    """int y dt along axis 0, bit for bit as scipy.integrate.simpson (1.17).

    Uneven-spacing composite Simpson; for an even sample count Cartwright's
    (2017) correction on the last interval; the trapezoid for two samples, 0 for one.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(times, dtype=float)).reshape((-1,) + (1,) * (y.ndim - 1))
    if y.shape[0] == 2:
        return 0.5 * h[0] * (y[1] + y[0])
    stop = y.shape[0] - 3 + y.shape[0] % 2
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, ratio = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / ratio)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - ratio)), axis=0)
    if y.shape[0] % 2 == 0:
        a, b = np.asarray(h[-2]), np.asarray(h[-1])  # 0-d: scalar ** rounds otherwise
        result += ((2 * b ** 2 + 3 * a * b) / (6 * (b + a)) * y[-1]
                   + (b ** 2 + 3.0 * a * b) / (6 * a) * y[-2]
                   - b ** 3 / (6 * a * (a + b)) * y[-3])
    return result


def _simpson_pieces(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over [t_k, t_k+1] of the parabola through t_k, t_k+1, t_k+2."""
    x21, x32 = h[:-1], h[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                      + -x21x21_x31x32 * y[2:])


def cumulative_weight_integral(values, times) -> np.ndarray:
    """I(t_k) = int_0^{t_k} K ds along axis 0, I(0) = 0; bit for bit as scipy 1.17's
    cumulative_simpson(..., initial=0.0): Cartwright's (2017) rule per interval."""
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
