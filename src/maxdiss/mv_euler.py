"""Measure-valued machinery for the incompressible Euler equations.

A defect field is a grid-sampled, symmetric, positive-semidefinite matrix
density absorbing the gap between the quadratic term of a resolved
reference and that of a coarse candidate.  The continuum measure is stood
in for by the trigonometric interpolant of the samples, produced through a
declared spectral low-pass whose scale is always recorded.  The low-pass
keeps the k = 0 mode, so before the PSD projection the trace integral
matches the kinetic-energy gap exactly; the projection's magnitude is
recorded too, and ``trace_energy_gap`` measures what is left.

A pair's defect is built one sample at a time, each from its products on
the exact 3/2-rule grid to its clipped density in the output series, so
that construction holds the (T, 3, n, n) output and one sample's work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import Grid, _embed, _mode_sum, _sym_eigenvalues, save_samples, spectral_tables
from .solver import Trajectory, _shares_samples, _velocity

DEFECT_COMPONENTS = ("m11", "m12", "m22")


class MVError(ValueError):
    pass


def psd_clip(density: np.ndarray):
    """Project 2x2-symmetric samples (..., 3, n, n) onto PSD matrices.

    The nearest PSD matrix in the Frobenius norm clips the eigenvalues (Higham 1988):
    with p = max(lam1, 0), q = min(lam2, 0) it is p/(p - q) (M - qI), as e1 e1^T =
    (M - lam2 I)/(lam1 - lam2), and 0 where p = q = 0; PSD samples come back bit for
    bit.  Returns (clipped, magnitude, least): magnitude the largest negative eigenvalue
    removed, as an absolute number in velocity^2 units, and least the least eigenvalue
    of the clipped samples, ``min_eigenvalue(clipped)``, which where nothing is clipped
    is the least lam2 of the input, taken here once.
    """
    lam1, lam2 = _sym_eigenvalues(density)
    magnitude = float(np.max(-lam2, initial=0.0))
    if magnitude == 0.0:
        return density.copy(), 0.0, float(np.min(lam2))
    p, q = np.maximum(lam1, 0.0), np.minimum(lam2, 0.0)
    out = density.copy()
    out[..., 0::2, :, :] -= q[..., None, :, :]
    out *= np.divide(p, p - q, out=np.zeros_like(p), where=p > q)[..., None, :, :]
    return out, magnitude, min_eigenvalue(out)


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
    #: min_eigenvalue(), recorded by defect_from_pair only: no caller passes it, and
    #: dataclasses.replace leaves it None, so it never outlives the density it was taken of
    least_eigenvalue: float | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).view()
        d = np.asarray(self.density, dtype=float).view()
        n = self.grid.n
        if d.shape != (t.size, 3, n, n):
            raise MVError(f"density shape {d.shape} != ({t.size}, 3, {n}, {n})")
        t.flags.writeable = d.flags.writeable = False  # views: the caller's arrays stay writable
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "density", d)

    def trace_integrals(self) -> np.ndarray:
        h = 2 * np.pi / self.grid.n
        return np.sum(self.density[:, 0] + self.density[:, 2],
                      axis=(-2, -1)) * h * h

    def min_eigenvalue(self) -> float:
        """The smallest eigenvalue over all samples: ``least_eigenvalue`` when
        defect_from_pair recorded it, else taken sample by sample, the float of
        ``min_eigenvalue`` on the whole series, with one sample's temporaries."""
        if self.least_eigenvalue is not None:
            return self.least_eigenvalue
        return float(np.min([min_eigenvalue(sample) for sample in self.density]))

    def save(self, out_dir) -> None:
        """Write manifest.json and density.npy, the (T, 3, n, n) float64 ``components``."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_samples(out / "density.npy", self.density)
        manifest = {"format": "maxdiss-defect", "n": self.grid.n,
                    "components": list(DEFECT_COMPONENTS),
                    "times": self.times.tolist(),
                    "mollifier_kmax": self.mollifier_kmax,
                    "clip_magnitude": self.clip_magnitude,
                    "provenance": self.provenance}
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


# -- construction from a resolution gap -------------------------------------

class _SampleWork:
    """One sample's arrays of a pair's defect, products on an m x m grid restricted
    to n, reused by every sample.  Fresh arrays of a few hundred kB per sample
    leave the heap top free after each one, which glibc trims and the next sample
    faults in again (about 4,200 against 790 minor faults in one stage_mv at n = 64)."""

    def __init__(self, n: int, m: int):
        h = n // 2 + 1
        self.w = np.empty((2, n, h), dtype=np.complex128)  # the vorticity of d and s
        self.vel = np.empty((2, 2, n, h), dtype=np.complex128)
        self.band = np.empty((2, 2, m, h), dtype=np.complex128)  # ``fields.samples``' band
        self.v = np.empty((2, 2, m, m))  # the velocity samples of d and s
        self.raw = np.empty((3, m, m))
        self.rhat = np.empty((3, m, m // 2 + 1), dtype=np.complex128)
        self.hat = np.empty((3, m, h), dtype=np.complex128)
        self.low = np.empty((3, n, h), dtype=np.complex128)
        self.sample = np.empty((3, n, n))  # the low-passed tensor on n


def _lowpass_restrict(raw: np.ndarray, m: int, n: int, kmax: int,
                      _ws: _SampleWork | None = None) -> np.ndarray:
    """Gaussian spectral low-pass at scale kmax, restricted to n samples, in the
    arrays of ``_ws`` (new ones without it).

    The Gaussian multiplier exp(-2 |k/kmax|^2) is a positive convolution
    kernel, so pointwise positive semidefiniteness of the smoothed tensor
    is preserved (a sharp cutoff is not and rings negative); the k = 0
    mode, hence the trace integral, passes through unchanged.
    """
    ws, h = _ws or _SampleWork(n, m), n // 2 + 1  # h: the columns _embed(hat, m, n) reads
    hat = np.fft.fft(np.fft.rfft(raw, axis=-1, norm="forward", out=ws.rhat)[..., :h], axis=-2,
                     norm="forward", out=ws.hat)
    hat *= np.exp(-2.0 * spectral_tables(m).k2[:, :h] / (kmax * kmax))
    low = np.fft.ifft(_embed(hat, m, n, out=ws.low), axis=-2, norm="forward", out=ws.low)
    return np.fft.irfft(low, n, axis=-1, norm="forward", out=ws.sample)  # irfft2's two passes


def _lowpassed_defect(wf: np.ndarray, wc: np.ndarray, m: int, kmax: int,
                      _ws: _SampleWork | None = None) -> np.ndarray:
    """low-pass(v_f (x) v_f - v_c (x) v_c) at scale kmax, (3, n, n), of vorticity half
    spectra wf, wc on one n grid, the products sampled on an m x m grid as
    (d_x s_x, (d_x s_y + d_y s_x)/2, d_y s_y), d = v_f - v_c, s = v_f + v_c: the
    members cancel in the spectra, not in the products, and a self pair gives 0.
    In the arrays of ``_ws`` (new ones without it)."""
    n = wf.shape[-2]
    ws = _ws or _SampleWork(n, m)
    np.subtract(wf, wc, out=ws.w[0])
    np.add(wf, wc, out=ws.w[1])
    band = _embed(_velocity(ws.w, out=ws.vel), n, m, band=True, out=ws.band)
    np.fft.ifft(band, axis=-2, norm="forward", out=band)  # ``samples``' two passes
    (dx, dy), (sx, sy) = np.fft.irfft(band, m, axis=-1, norm="forward", out=ws.v)
    raw = ws.raw
    np.multiply(dx, sy, out=raw[1])
    raw[1] += np.multiply(dy, sx, out=raw[2])  # raw[2] holds d_y s_x until d_y s_y
    raw[1] *= 0.5
    np.multiply(dx, sx, out=raw[0])
    np.multiply(dy, sy, out=raw[2])
    return _lowpass_restrict(raw, m, n, kmax, ws)


def defect_from_pair(fine: Trajectory, coarse: Trajectory,
                     mollifier_kmax: int | None = None,
                     clip_fail_ratio: float = 0.5) -> DefectField:
    """Defect density m = low-pass(v_f (x) v_f - v_c (x) v_c), PSD-clipped.

    The low-pass stands in for the weak-* limit; its scale is recorded on
    the result.  The PSD projection magnitude is recorded too, and the
    construction fails if the clip exceeds ``clip_fail_ratio`` times the
    mean trace scale.

    Each sample runs start to finish, from its products on the M x M grid,
    M = 2 ceil(3n/4) >= 3n/2, where by Orszag's 3/2 rule they alias onto no
    mode the restriction to n keeps, to its clipped density in the one
    (T, 3, n, n) output; the trace scale is a running sum, so the memory is
    the output series plus one sample's work.
    """
    if not _shares_samples(fine, coarse):
        raise MVError("fine/coarse trajectories differ in sample times or forcing")
    n, nc = fine.grid.n, coarse.grid.n
    if nc > n:
        raise MVError("coarse resolution exceeds fine resolution")
    if mollifier_kmax is None:
        mollifier_kmax = max(nc // 3, 1)
    if mollifier_kmax < 1:  # an empty low band would check and keep nothing
        raise MVError(f"mollifier_kmax: expected an int >= 1, got {mollifier_kmax!r}")
    # shared data means agreement below the mollifier scale: the coarse
    # member is allowed to miss exactly the content the defect absorbs
    kx, ky = fine.grid.wavenumbers()
    low = (np.abs(kx) <= mollifier_kmax) & (np.abs(ky) <= mollifier_kmax)
    f0, c0 = _velocity(fine.vorticity[0]), _embed(_velocity(coarse.vorticity[0]), nc, n)
    gap0 = np.sqrt(_mode_sum(np.abs((f0 - c0) * low) ** 2))
    scale = max(np.sqrt(_mode_sum(np.abs(f0) ** 2)), 1.0)
    if gap0 > 1e-8 * scale:
        raise MVError(f"fine/coarse initial data differ ({gap0:g}) "
                      f"below the mollifier scale")
    # roundoff floor: a vanishing defect produces eigenvalues at machine
    # precision relative to the velocity energy density, not the trace scale
    energy_density = 2.0 * fine.energies().max() / (2 * np.pi) ** 2
    floor = 1e-12 * max(energy_density, 1.0)
    m = 2 * -(-3 * n // 4)
    density = np.empty((fine.times.size, 3, n, n))
    clips, least = np.empty(fine.times.size), np.empty(fine.times.size)
    trace_sum, ws = 0.0, _SampleWork(n, m)
    for k, out in enumerate(density):
        wf, wc = fine.vorticity[k], _embed(coarse.vorticity[k], nc, n)
        out[...], clips[k], least[k] = psd_clip(_lowpassed_defect(wf, wc, m, mollifier_kmax, ws))
        trace_sum += float(np.sum(np.abs(out[0] + out[2])))
    magnitude, trace_scale = float(clips.max()), trace_sum / density[:, 0].size
    if magnitude > max(clip_fail_ratio * trace_scale, floor):
        raise MVError(f"PSD projection too large: clip {magnitude:g} "
                      f"vs trace scale {trace_scale:g}")
    defect = DefectField(grid=fine.grid, times=fine.times, density=density,
                         mollifier_kmax=int(mollifier_kmax),
                         clip_magnitude=magnitude,
                         provenance=f"pair n_f={n} n_c={nc} "
                                    f"kmax={mollifier_kmax}")
    object.__setattr__(defect, "least_eigenvalue", float(np.min(least)))
    return defect


def trace_energy_gap(m: DefectField, fine: Trajectory,
                     coarse: Trajectory) -> np.ndarray:
    """Per-time |(1/2)<m,I> - (E_fine - E_coarse)|, the low-pass leakage."""
    gap = fine.energies() - coarse.energies()
    return np.abs(0.5 * m.trace_integrals() - gap)
