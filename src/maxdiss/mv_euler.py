"""Measure-valued machinery for the incompressible Euler equations.

A defect field is a grid-sampled, symmetric, positive-semidefinite matrix
density absorbing the gap between the quadratic term of a resolved
reference and that of a coarse candidate.  The continuum measure is stood
in for by the trigonometric interpolant of the samples, produced through a
declared spectral low-pass whose scale is always recorded.  The key
algebraic facts are preserved exactly at the sample level: the trace
integral matches the kinetic-energy gap, and convex combinations of
velocity/defect pairs keep v (x) v + m affine, so equation residuals
combine linearly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import (Grid, _embed, _mode_sum, _sym_eigenvalues, grad_samples, inner,
                     l2_norm, load_samples, pairing, resample, samples, save_samples,
                     spectral_tables, tensor_samples)
from .relenergy import simpson
from .solver import TestTrajectory, Trajectory

DEFECT_COMPONENTS = ("m11", "m12", "m22")


class MVError(ValueError):
    pass


def psd_clip(density: np.ndarray):
    """Project 2x2-symmetric samples (..., 3, n, n) onto PSD matrices.

    Returns (clipped, magnitude) where magnitude is the largest negative
    eigenvalue removed, as an absolute number in velocity^2 units.
    """
    a = density[..., 0, :, :]
    b = density[..., 1, :, :]
    c = density[..., 2, :, :]
    lam1, lam2 = _sym_eigenvalues(density)
    magnitude = float(max(np.max(-lam2, initial=0.0), np.max(-lam1, initial=0.0), 0.0))
    if magnitude == 0.0:
        return density.copy(), 0.0
    l1 = np.maximum(lam1, 0.0)
    l2 = np.maximum(lam2, 0.0)
    # eigenvector for lam1: (b, lam1 - a), falling back to an axis when the
    # matrix is (numerically) already diagonal
    vx = b.copy()
    vy = lam1 - a
    nrm = np.hypot(vx, vy)
    tiny = nrm <= 1e-300
    vx = np.where(tiny, np.where(a >= c, 1.0, 0.0), vx)
    vy = np.where(tiny, np.where(a >= c, 0.0, 1.0), vy)
    nrm = np.hypot(vx, vy)
    vx /= nrm
    vy /= nrm
    out = np.empty_like(density)
    out[..., 0, :, :] = l1 * vx * vx + l2 * vy * vy
    out[..., 1, :, :] = (l1 - l2) * vx * vy
    out[..., 2, :, :] = l1 * vy * vy + l2 * vx * vx
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

    @classmethod
    def zero(cls, grid: Grid, times, provenance: str = "zero") -> "DefectField":
        times = np.asarray(times, dtype=float)
        return cls(grid=grid, times=times,
                   density=np.zeros((times.size, 3, grid.n, grid.n)),
                   mollifier_kmax=grid.n // 2, provenance=provenance)

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

    @classmethod
    def load(cls, in_dir) -> "DefectField":
        src = Path(in_dir)
        manifest = json.loads((src / "manifest.json").read_text())
        if manifest.get("format") != "maxdiss-defect":
            raise MVError(f"{in_dir} is not a defect directory")
        density, _ = load_samples(src / "density.fld")
        return cls(grid=Grid(manifest["n"]), times=manifest["times"],
                   density=density,
                   mollifier_kmax=manifest["mollifier_kmax"],
                   clip_magnitude=manifest.get("clip_magnitude", 0.0),
                   provenance=manifest.get("provenance", ""))


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
    """Defect density m = low-pass(v_f (x) v_f - v_c (x) v_c), PSD-projected.

    The low-pass stands in for the weak-* limit; its scale is recorded on
    the result.  The PSD projection magnitude is recorded too, and the
    construction fails if the clip exceeds ``clip_fail_ratio`` times the
    mean trace scale.
    """
    if fine.times.size != coarse.times.size or not np.allclose(
            fine.times, coarse.times, atol=1e-12):
        raise MVError("fine/coarse sample times differ")
    if fine.spec.forcing.to_dict() != coarse.spec.forcing.to_dict():
        raise MVError("fine/coarse trajectories do not share forcing")
    n = fine.grid.n
    if coarse.grid.n > n:
        raise MVError("coarse resolution exceeds fine resolution")
    if mollifier_kmax is None:
        mollifier_kmax = max(coarse.grid.n // 3, 1)
    # shared data means agreement below the mollifier scale: the coarse
    # member is allowed to miss exactly the content the defect absorbs
    kx, ky = fine.grid.wavenumbers()
    low = (np.abs(kx) <= mollifier_kmax) & (np.abs(ky) <= mollifier_kmax)
    cpad = _embed(coarse.coeffs[0], coarse.grid.n, n)
    gap0 = np.sqrt(_mode_sum(np.abs((fine.coeffs[0] - cpad) * low) ** 2))
    scale = max(np.sqrt(_mode_sum(np.abs(fine.coeffs[0]) ** 2)), 1.0)
    if gap0 > 1e-8 * scale:
        raise MVError(f"fine/coarse initial data differ ({gap0:g}) "
                      f"below the mollifier scale")
    m2 = 2 * n
    T = fine.times.size
    density = np.empty((T, 3, n, n))
    # sample by sample: the 2n-grid tensors of a whole series are large
    for k in range(T):
        raw = tensor_samples(fine.coeffs[k], m2) - tensor_samples(coarse.coeffs[k], m2)
        density[k] = _lowpass_restrict(raw, m2, n, mollifier_kmax)
    clipped, magnitude = psd_clip(density)
    trace_scale = float(np.mean(np.abs(clipped[:, 0] + clipped[:, 2])))
    # roundoff floor: a vanishing defect produces eigenvalues at machine
    # precision relative to the velocity energy density, not the trace scale
    energy_density = pairing(fine.coeffs, fine.coeffs).max() / (2 * np.pi) ** 2
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


def trace_leakage_bound(m: DefectField) -> float:
    """Bound on the trace/energy-gap mismatch.

    The mollifier passes the k = 0 mode unchanged, so before PSD
    projection the trace integral equals the energy gap exactly; the
    projection shifts each eigenvalue by at most the recorded clip
    magnitude, hence the trace integral by at most 2 (2 pi)^2 clip.
    """
    return 2.0 * (2 * np.pi) ** 2 * m.clip_magnitude


# -- measure-valued equation and energy inequality --------------------------

def _check_phi(phi: TestTrajectory, times: np.ndarray) -> None:
    if not phi.solenoidal:
        raise MVError(f"test function {phi.label!r} must be solenoidal")
    end = phi.value(float(times[-1]))
    scale = max(l2_norm(phi.value(0.0)), 1.0)
    if l2_norm(end) > 1e-10 * scale:
        raise MVError(f"test function {phi.label!r} must vanish at t=T")


def mv_equation_residual(v: Trajectory, m: DefectField | None, f,
                         phis) -> dict:
    """Per-test-function residual of the momentum balance with defect.

    res(phi) = -int <v, d_t phi> - int (v(x)v + m) : grad phi
               - (v0, phi(0)) - int (f, phi);
    zero for exact Euler solutions with m = 0, and small for
    defect-corrected coarse fields against fine references.
    """
    times = v.times
    if m is not None and (m.times.size != times.size or
                          not np.allclose(m.times, times, atol=1e-12)):
        raise MVError("defect sample times differ from trajectory times")
    n_q = 2 * max(v.grid.n, m.grid.n if m is not None else 0)
    h = 2 * np.pi / n_q
    results = {}
    for idx, phi in enumerate(phis if isinstance(phis, (list, tuple)) else [phis]):
        _check_phi(phi, times)
        label = phi.label or f"phi_{idx}"
        vals = np.empty(times.size)
        for k, t in enumerate(times):
            u = v.state(k)
            ph = phi.value(t)
            nc = max(u.grid.n, ph.grid.n)
            dval = inner(resample(u, nc), resample(phi.deriv(t), nc))
            gphi = grad_samples(ph, n_q)
            tens = tensor_samples(u.coeffs, n_q)
            if m is not None:
                tens = tens + samples(np.fft.rfft2(m.density[k], norm="forward"), n_q)
            stress = np.sum(tens[0] * gphi[0, 0] +
                            tens[1] * (gphi[0, 1] + gphi[1, 0]) +
                            tens[2] * gphi[1, 1]) * h * h
            fval = 0.0
            if f is not None and not f.is_zero():
                fval = inner(f(t, ph.grid), ph)
            vals[k] = -dval - stress - fval
        integral = simpson(vals, times)
        u0 = v.state(0)
        ph0 = phi.value(0.0)
        nc = max(u0.grid.n, ph0.grid.n)
        results[label] = float(integral - inner(resample(u0, nc), resample(ph0, nc)))
    return results


# -- convexity ---------------------------------------------------------------

def mv_convex_combine(v1: Trajectory, m1: DefectField,
                      v2: Trajectory, m2: DefectField, lam: float):
    """Combine (v1, m1) and (v2, m2) so that v (x) v + m stays affine.

    v = lam v1 + (1-lam) v2;
    m = lam m1 + (1-lam) m2 + lam (1-lam) (v1-v2) (x) (v1-v2),
    which keeps the equation residual exactly affine in lam and the
    density PSD (sum of PSD terms).
    """
    if not 0.0 <= lam <= 1.0:
        raise MVError(f"lambda must lie in [0, 1], got {lam}")
    if lam == 1.0:
        return v1, m1
    if lam == 0.0:
        return v2, m2
    if v1.grid.n != v2.grid.n or m1.grid.n != m2.grid.n:
        raise MVError("combination requires matching resolutions")
    if not (np.allclose(v1.times, v2.times, atol=1e-12)
            and np.allclose(m1.times, m2.times, atol=1e-12)):
        raise MVError("combination requires aligned sample times")
    density = lam * m1.density + (1 - lam) * m2.density \
        + lam * (1 - lam) * tensor_samples(v1.coeffs - v2.coeffs, m1.grid.n)
    v = Trajectory(spec=v1.spec, times=v1.times,
                   coeffs=lam * v1.coeffs + (1 - lam) * v2.coeffs,
                   provenance=f"mv mixture lam={lam}")
    m = DefectField(grid=m1.grid, times=m1.times, density=density,
                    mollifier_kmax=min(m1.mollifier_kmax, m2.mollifier_kmax),
                    clip_magnitude=max(m1.clip_magnitude, m2.clip_magnitude),
                    provenance=f"mv mixture lam={lam}")
    return v, m
