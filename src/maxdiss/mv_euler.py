"""Measure-valued machinery for the incompressible Euler equations.

A defect field is a grid-sampled, symmetric, positive-semidefinite matrix
density absorbing the gap between the quadratic term of a resolved
reference and that of a coarse candidate.  The continuum measure is stood
in for by the trigonometric interpolant of the samples, produced through a
declared spectral low-pass whose scale is always recorded.  The low-pass
keeps the k = 0 mode, so before the PSD projection the trace integral
matches the kinetic-energy gap exactly; the projection's magnitude is
recorded too, and ``trace_energy_gap`` measures what is left.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import (Grid, _embed, _mode_sum, _sym_eigenvalues, save_samples, spectral_tables,
                     tensor_samples)
from .solver import Trajectory, _shares_samples, _velocity

DEFECT_COMPONENTS = ("m11", "m12", "m22")


class MVError(ValueError):
    pass


def psd_clip(density: np.ndarray):
    """Project 2x2-symmetric samples (..., 3, n, n) onto PSD matrices.

    The nearest PSD matrix in the Frobenius norm clips the eigenvalues (Higham 1988):
    with p = max(lam1, 0), q = min(lam2, 0) it is p/(p - q) (M - qI), as e1 e1^T =
    (M - lam2 I)/(lam1 - lam2), and 0 where p = q = 0; PSD samples come back bit for
    bit.  Returns (clipped, magnitude), magnitude the largest negative eigenvalue
    removed, as an absolute number in velocity^2 units.
    """
    lam1, lam2 = _sym_eigenvalues(density)
    magnitude = float(np.max(-lam2, initial=0.0))
    if magnitude == 0.0:
        return density.copy(), 0.0
    p, q = np.maximum(lam1, 0.0), np.minimum(lam2, 0.0)
    out = density.copy()
    out[..., 0::2, :, :] -= q[..., None, :, :]
    out *= np.divide(p, p - q, out=np.zeros_like(p), where=p > q)[..., None, :, :]
    return out, magnitude


def min_eigenvalue(density: np.ndarray) -> float:
    return float(np.min(_sym_eigenvalues(density)[1]))


@dataclass(frozen=True)
class DefectField:
    """Time-sampled symmetric PSD matrix density (m11, m12, m22) on a grid."""

    grid: Grid
    times: np.ndarray
    density: np.ndarray       # (T, 3, n, n) physical samples
    mollifier_kmax: int       # spectral low-pass scale used in construction
    clip_magnitude: float = 0.0  # largest eigenvalue removed by PSD projection
    provenance: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        d = np.asarray(self.density, dtype=float)
        n = self.grid.n
        if d.shape != (t.size, 3, n, n):
            raise MVError(f"density shape {d.shape} != ({t.size}, 3, {n}, {n})")
        t.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "density", d)

    def trace_integrals(self) -> np.ndarray:
        h = 2 * np.pi / self.grid.n
        return np.sum(self.density[:, 0] + self.density[:, 2],
                      axis=(-2, -1)) * h * h

    def min_eigenvalue(self) -> float:
        return min_eigenvalue(self.density)

    def save(self, out_dir) -> None:
        """Write manifest.json and density.fld, the (T, 3, n, n) samples."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_samples(out / "density.fld", self.density,
                     extra={"kind": "defect",
                            "components_order": list(DEFECT_COMPONENTS)})
        manifest = {"format": "maxdiss-defect", "n": self.grid.n,
                    "times": self.times.tolist(),
                    "mollifier_kmax": self.mollifier_kmax,
                    "clip_magnitude": self.clip_magnitude,
                    "provenance": self.provenance}
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


# -- construction from a resolution gap -------------------------------------

def _lowpass_restrict(raw: np.ndarray, m: int, n: int, kmax: int) -> np.ndarray:
    """Gaussian spectral low-pass at scale kmax, restricted to n samples.

    The Gaussian multiplier exp(-2 |k/kmax|^2) is a positive convolution
    kernel, so pointwise positive semidefiniteness of the smoothed tensor
    is preserved (a sharp cutoff is not and rings negative); the k = 0
    mode, hence the trace integral, passes through unchanged.
    """
    h = n // 2 + 1  # the columns _embed(hat, m, n) reads: rfft2 pruned to them
    hat = np.fft.fft(np.fft.rfft(raw, axis=-1, norm="forward")[..., :h], axis=-2,
                     norm="forward")
    hat *= np.exp(-2.0 * spectral_tables(m).k2[:, :h] / (kmax * kmax))
    return np.fft.irfft2(_embed(hat, m, n), s=(n, n), norm="forward")


def defect_from_pair(fine: Trajectory, coarse: Trajectory,
                     mollifier_kmax: int | None = None,
                     clip_fail_ratio: float = 0.5) -> DefectField:
    """Defect density m = low-pass(v_f (x) v_f - v_c (x) v_c), PSD-clipped.

    The low-pass stands in for the weak-* limit; its scale is recorded on
    the result.  The PSD projection magnitude is recorded too, and the
    construction fails if the clip exceeds ``clip_fail_ratio`` times the
    mean trace scale.
    """
    if not _shares_samples(fine, coarse):
        raise MVError("fine/coarse trajectories differ in sample times or forcing")
    n = fine.grid.n
    if coarse.grid.n > n:
        raise MVError("coarse resolution exceeds fine resolution")
    if mollifier_kmax is None:
        mollifier_kmax = max(coarse.grid.n // 3, 1)
    if mollifier_kmax < 1:  # an empty low band would check and keep nothing
        raise MVError(f"mollifier_kmax: expected an int >= 1, got {mollifier_kmax!r}")
    # shared data means agreement below the mollifier scale: the coarse
    # member is allowed to miss exactly the content the defect absorbs
    kx, ky = fine.grid.wavenumbers()
    low = (np.abs(kx) <= mollifier_kmax) & (np.abs(ky) <= mollifier_kmax)
    f0, c0 = _velocity(fine.vorticity[0]), _embed(_velocity(coarse.vorticity[0]), coarse.grid.n, n)
    gap0 = np.sqrt(_mode_sum(np.abs((f0 - c0) * low) ** 2))
    scale = max(np.sqrt(_mode_sum(np.abs(f0) ** 2)), 1.0)
    if gap0 > 1e-8 * scale:
        raise MVError(f"fine/coarse initial data differ ({gap0:g}) "
                      f"below the mollifier scale")
    m2 = 2 * n
    T = fine.times.size
    density = np.empty((T, 3, n, n))
    # sample by sample, from the velocities: the 2n-grid tensors of a whole series are large
    for k in range(T):
        raw = (tensor_samples(_velocity(fine.vorticity[k]), m2)
               - tensor_samples(_velocity(coarse.vorticity[k]), m2))
        density[k] = _lowpass_restrict(raw, m2, n, mollifier_kmax)
    clipped, magnitude = psd_clip(density)
    trace_scale = float(np.mean(np.abs(clipped[:, 0] + clipped[:, 2])))
    # roundoff floor: a vanishing defect produces eigenvalues at machine
    # precision relative to the velocity energy density, not the trace scale
    energy_density = 2.0 * fine.energies().max() / (2 * np.pi) ** 2
    floor = 1e-12 * max(energy_density, 1.0)
    if magnitude > max(clip_fail_ratio * trace_scale, floor):
        raise MVError(f"PSD projection too large: clip {magnitude:g} "
                      f"vs trace scale {trace_scale:g}")
    return DefectField(grid=fine.grid, times=fine.times, density=clipped,
                       mollifier_kmax=int(mollifier_kmax),
                       clip_magnitude=magnitude,
                       provenance=f"pair n_f={n} n_c={coarse.grid.n} "
                                  f"kmax={mollifier_kmax}")


def trace_energy_gap(m: DefectField, fine: Trajectory,
                     coarse: Trajectory) -> np.ndarray:
    """Per-time |(1/2)<m,I> - (E_fine - E_coarse)|, the low-pass leakage."""
    gap = fine.energies() - coarse.energies()
    return np.abs(0.5 * m.trace_integrals() - gap)
