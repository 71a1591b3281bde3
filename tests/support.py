"""Helpers that only the tests use, built on the package: trajectories from
velocity stacks and the velocity of a trajectory, the H1 seminorm and the raw
forcing on a grid, the certificate of one trajectory, the velocity form of
the certificate's margins, test
trajectories from closed forms, splines and
perturbations, the phi-weighted form of the relative energy inequality, weak
residual recovery, velocity gradients and the trilinear form, the convex
sweep and the continuous-dependence study of a selection, v (x) v sampled
on a fine grid, the Taylor-Green pressure and pressure recovery, and the
measure-valued momentum residual and convex combination, the reader of a
stored defect field, the benchmark's workload configs and damaged .npy files."""

import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from maxdiss import certificate
from maxdiss.certificate import ToleranceModel, certify_members, margin_series
from maxdiss.fields import (TWO_PI, Grid, SpectralField, _embed, _mode_sum, from_function,
                            load_samples, normalized, pairing, resample, samples,
                            spectral_tables)
from maxdiss.mv_euler import DEFECT_COMPONENTS, DefectField, MVError
from maxdiss.relenergy import (cumulative_weight_integral, rel_terms, residual_A, weight_norms,
                               weight_value)
from maxdiss.selector import SimplexWeights, assemble_family, select
from maxdiss.solver import (ANALYTIC_FORCINGS, SolverError, TestTrajectory, Trajectory, _curl,
                            _velocity, _velocity_pairing)


def perfbench_configs() -> list:
    """The scenario configs of the benchmark's workloads, ``perfbench/workloads.py``."""
    path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return [w["config"] for w in namespace["WORKLOADS"].values()]


def certify(u: Trajectory, tests, w, tol_model=ToleranceModel()):
    """Certify one trajectory against a list of tests, as a family of its own."""
    return certify_members(assemble_family([u]), tests, w, tol_model)[0]


def worst_margin(report) -> float:
    """The least margin of a certificate after t = 0, where every margin is 0."""
    after = report.times > 0
    return float(np.min([s["margin"][after] for s in report.series.values()], initial=np.inf))


# -- test trajectories --------------------------------------------------------

def from_velocity(spec, times, v, provenance: str = "") -> Trajectory:
    """The trajectory of velocity coefficients v (T, 2, n, n//2 + 1) at ``times``,
    each sample checked divergence-free (FieldError) by ``normalized``."""
    shape = (np.size(times), 2, spec.grid.n, spec.grid.n // 2 + 1)
    if np.shape(v) != shape:
        raise SolverError(f"coefficient shape {np.shape(v)}, need {shape}")
    return Trajectory(spec, times, _curl(normalized(v, spec.grid.n, solenoidal=True)), provenance)


def velocity(traj) -> np.ndarray:
    """The velocity coefficients (T, 2, n, n//2 + 1) of a trajectory's vorticity."""
    return _velocity(traj.vorticity)


def h1_squared(c: np.ndarray):
    """||grad u||_L2^2 of coefficients (..., components, n, n//2 + 1)."""
    return TWO_PI ** 2 * _mode_sum(spectral_tables(c.shape[-2]).k2 * np.abs(c) ** 2)


def forcing_coeffs(forcing, n):
    """The coefficients (2, n, n//2 + 1) of f itself on the n x n grid, which
    ``Forcing.curl`` takes the curl of; None for zero forcing."""
    if forcing.kind == "zero":
        return None
    if forcing.kind == "analytic":
        return ANALYTIC_FORCINGS[forcing.name](Grid(n), forcing.params).coeffs
    return resample(forcing._file_coeffs, n)


def velocity_margins(u, vt, w) -> np.ndarray:
    """The damped margins of u against the test vt, in the velocity form of the
    relative energy inequality: R = 1/2 ||d||^2, W = nu/2 ||grad d||^2 and <A, d> of
    the velocities (``_velocity``) of d = u - v and of A, with ``pairing`` and
    ``h1_squared``; the oracle of ``margin_series``'s vorticity form."""
    times, nu = u.times, u.spec.nu
    values = vt.values(times)
    norms = weight_norms(values)
    d = _velocity(_embed(u.vorticity, u.grid.n, vt.grid.n) - values)
    A = _velocity(residual_A(values, vt.derivs(times), replace(u.spec, grid=vt.grid)))
    R = 0.5 * pairing(d, d)
    g = 0.5 * nu * h1_squared(d) + pairing(A, d)
    I = cumulative_weight_integral(weight_value(norms, w), times)
    lhs = np.exp(-I) * R + cumulative_weight_integral(g * np.exp(-I), times)
    return R[0] - lhs


def analytic_test(value_fn, deriv_fn, grid, label="analytic"):
    """A test trajectory from callables t -> solenoidal velocity coefficients
    (2, n, n//2 + 1), held as their curl."""
    return TestTrajectory(lambda times: _curl(np.stack([value_fn(t) for t in times])),
                          lambda times: _curl(np.stack([deriv_fn(t) for t in times])),
                          grid, label)


def spline_test(traj, label="spline"):
    """The not-a-knot cubic spline through the vorticity samples of a trajectory."""
    spline = CubicSpline(traj.times, traj.vorticity, axis=0, bc_type="not-a-knot")
    return TestTrajectory(spline, spline.derivative(), traj.grid, label)


def perturbed_test(base, r, alpha):
    """base + alpha r, with r solenoidal and constant in time."""
    return TestTrajectory(lambda times: base.values(times) + alpha * _curl(r.coeffs), base.derivs,
                          base.grid, f"{base.label}+{alpha:g}r")


# -- multiplier (phi) form and weak residual recovery --------------------------

def mollified_indicator(t_star, width):
    """phi and phi' of the C^1 cubic smoothstep approximation of the indicator of [0, t_star]."""
    def x(t):  # 0 up to t_star, 1 from t_star + width on
        return np.clip((t - t_star) / width, 0.0, 1.0)

    return (lambda t: 1.0 - x(t) ** 2 * (3 - 2 * x(t)),
            lambda t: 6 * x(t) * (x(t) - 1) / width)


def phi_form_value(u, vt, w, phi, dphi) -> float:
    """The phi-weighted inequality form, <= 0 for dissipative u when phi >= 0 falls
    from phi(0) = 1 to phi(T) = 0; phi and dphi map an array of times to phi and phi'."""
    s = margin_series(assemble_family([u]), vt, w)
    t, R = s.times, s.rel_energies[0]
    p, dp = (np.broadcast_to(f(t), t.shape) for f in (phi, dphi))
    return float(-simpson(dp * R * np.exp(-s.weight_integral), t) - p[0] * R[0]
                 + simpson(p * s.dissipation_integrand[0], t))


def recover_weak_residual(u, r, alphas, w):
    """(c1, direct) for a solenoidal r.  c1 is the linear coefficient of the
    least-squares fit margin(T) = c0 + c1 alpha + c2 alpha^2 against u's own
    spline perturbed by alpha r (c0 absorbs the spline noise); it estimates the
    Gronwall-weighted residual pairing int_0^T <A, r> e^{-I}, which ``direct``
    computes by quadrature along the spline."""
    alphas = np.asarray(alphas, dtype=float)
    base, family = spline_test(u, "self-spline"), assemble_family([u])
    margins = np.array([margin_series(family, perturbed_test(base, r, a), w).margins[0, -1]
                        for a in alphas])
    A = np.stack([np.ones_like(alphas), alphas, alphas ** 2], axis=1)
    c1 = float(np.linalg.lstsq(A, margins, rcond=None)[0][1])
    times = u.times
    K, pair = np.empty(times.size), np.empty(times.size)
    for sl in certificate._blocks(times.size, u.grid.n):
        values = base.values(times[sl])
        K[sl] = weight_value(weight_norms(values), w)
        pair[sl] = _velocity_pairing(residual_A(values, base.derivs(times[sl]), u.spec),
                                     _curl(r.coeffs))
    I = cumulative_weight_integral(K, times)
    return c1, float(simpson(pair * np.exp(-I), times))


# -- gradients and the trilinear form ---------------------------------------------

def gradients(c):
    """Coefficients of d_j u_i from those of u, (..., components, 2, n, n//2 + 1)."""
    tab = spectral_tables(c.shape[-2])
    return np.stack([1j * tab.kx * c, 1j * tab.ky * c], axis=-3)


def trilinears(a, b, c):
    """int (a.grad)b . c of stacked coefficients, exact by collocation on the 2x
    oversampled grid; skew-symmetric in (b, c) when a is solenoidal."""
    m = 2 * a.shape[-2]
    af, cf, gb = samples(a, m), samples(c, m), samples(gradients(b), m)
    # (a.grad)b_i = a_x d_x b_i + a_y d_y b_i
    integrand = np.sum((af[..., :1, :, :] * gb[..., 0, :, :]
                        + af[..., 1:, :, :] * gb[..., 1, :, :]) * cf, axis=-3)
    return np.sum(integrand, axis=(-2, -1)) * (TWO_PI / m) ** 2


# -- convexity and stability of the selection ----------------------------------

def verify_convex_midpoint(family, certify_fn, lambdas=(0.5,)) -> list:
    """certify_fn(lam u_0 + (1 - lam) u_1, 2.0) for each lam: the budgets of the
    two members sum, as the inequality is linear in the two certified ones."""
    pad = [0.0] * (family.size - 2)
    return [certify_fn(family.mix(SimplexWeights(np.array([lam, 1.0 - lam] + pad))), 2.0)
            for lam in lambdas]


def continuous_dependence_study(family_builder, deltas):
    """Two lists over deltas: max_t R(selected_delta | selected_0), and the L2(0, T)
    distance of the two selections low-passed to n = 8.  ``family_builder(delta)``
    assembles the family of the delta-perturbed data."""
    base = (fam := family_builder(0.0)).mix(select(fam).weights)
    rel, low = [], []
    for delta in deltas:
        sel = (fam := family_builder(delta)).mix(select(fam).weights)
        rel.append(float(rel_terms(sel.vorticity - base.vorticity, 0.0)[0].max()))
        d = resample(velocity(sel), 8) - resample(velocity(base), 8)
        low.append(float(np.sqrt(simpson(pairing(d, d), sel.times))))
    return rel, low


def tensor_samples(c: np.ndarray, m: int) -> np.ndarray:
    """v (x) v sampled on an m x m grid, m >= n, of vector coefficients
    (..., 2, n, n//2 + 1); components (11, 12, 22) on axis -3."""
    p = samples(c, m)
    vx, vy = p[..., 0, :, :], p[..., 1, :, :]
    return np.stack([vx * vx, vx * vy, vy * vy], axis=-3)


# -- pressure ------------------------------------------------------------------

def taylor_green_pressure(t, nu, grid):
    """p = (1/4) e^{-4 nu t} (cos 2x + cos 2y), the pressure of ``solver.taylor_green``
    at amplitude 1: (v.grad)v = -grad p there, so the momentum residual vanishes."""
    a = 0.25 * np.exp(-4.0 * nu * t)
    return from_function(grid, lambda X, Y: a * (np.cos(2 * X) + np.cos(2 * Y)))


def recover_pressure(v, f=None):
    """Pressure from -Lap p = div div (v x v) - div f, with zero mean."""
    n, m = v.grid.n, 2 * v.grid.n
    that = np.fft.rfft2(tensor_samples(v.coeffs, m), norm="forward")
    tab = spectral_tables(m)
    kx, ky = tab.kx, tab.ky
    rhs = -(kx * kx * that[0] + 2 * kx * ky * that[1] + ky * ky * that[2])
    if f is not None:
        ff = resample(resample(f.coeffs, n), m)
        rhs = rhs - 1j * (kx * ff[0] + ky * ff[1])
    return SpectralField(v.grid, resample((rhs * tab.inv_k2)[None], n))


# -- measure-valued Euler ------------------------------------------------------

def load_defect(in_dir):
    """The DefectField that ``DefectField.save`` wrote to in_dir."""
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    if manifest["format"] != "maxdiss-defect":
        raise MVError(f"{src}: format {manifest['format']!r}")
    if manifest["components"] != list(DEFECT_COMPONENTS):
        raise MVError(f"{src}: components {manifest['components']!r}")
    return DefectField(grid=Grid(manifest["n"]), times=manifest["times"],
                       density=load_samples(src / "density.npy"),
                       mollifier_kmax=manifest["mollifier_kmax"],
                       clip_magnitude=manifest["clip_magnitude"],
                       provenance=manifest["provenance"])


def zero_defect(grid, times):
    return DefectField(grid=grid, times=times, mollifier_kmax=grid.n // 2,
                       density=np.zeros((len(times), 3, grid.n, grid.n)))


def trace_leakage_bound(m) -> float:
    """Bound on |(1/2) <m, I> - energy gap|: the low-pass keeps the k = 0 mode,
    and the PSD projection moves each eigenvalue by at most the recorded clip
    magnitude, so the trace integral by at most 2 (2 pi)^2 clip."""
    return 2.0 * (2 * np.pi) ** 2 * m.clip_magnitude


def mv_equation_residual(v, m, f, phis) -> dict:
    """{phi.label: res(phi)} of the momentum balance with defect m (or None),
    res(phi) = -int <v, d_t phi> - int (v (x) v + m) : grad phi - (v0, phi(0))
    - int (f, phi), for solenoidal phi vanishing at t = T; zero for exact Euler
    solutions with m = 0.  The samples are stacked in the blocks of
    ``certificate.margin_series``."""
    times = v.times
    n_q = 2 * max(v.grid.n, m.grid.n if m is not None else 0)
    h = 2 * np.pi / n_q
    results, v_coeffs = {}, velocity(v)
    for phi in phis:
        nc = max(v.grid.n, phi.grid.n)

        def common(c):  # the spectrum on the shared nc grid
            return c if c.shape[-2] == nc else _embed(c, c.shape[-2], nc)

        force = f.curl(phi.grid.n)
        vals = np.empty(times.size)
        for sl in certificate._blocks(times.size, n_q // 2):
            ph = phi.values(times[sl])
            dval = _velocity_pairing(common(v.vorticity[sl]), common(phi.derivs(times[sl])))
            g = samples(gradients(_velocity(ph)), n_q)
            tens = tensor_samples(v_coeffs[sl], n_q)
            if m is not None:
                tens = tens + samples(np.fft.rfft2(m.density[sl], norm="forward"), n_q)
            stress = np.sum(tens[:, 0] * g[:, 0, 0] + tens[:, 1] * (g[:, 0, 1] + g[:, 1, 0])
                            + tens[:, 2] * g[:, 1, 1], axis=(-2, -1)) * h * h
            vals[sl] = -dval - stress - (0.0 if force is None else _velocity_pairing(force, ph))
        start = phi.values(times[:1])[0]
        results[phi.label] = float(simpson(vals, times)
                                   - _velocity_pairing(common(v.vorticity[0]), common(start)))
    return results


def mv_convex_combine(v1, m1, v2, m2, lam):
    """(v, m) = (lam v1 + (1 - lam) v2, lam m1 + (1 - lam) m2
    + lam (1 - lam) (v1 - v2) (x) (v1 - v2)): v (x) v + m stays affine in lam,
    so the equation residual does too, and m stays PSD (a sum of PSD terms)."""
    if v1.grid.n != v2.grid.n or m1.grid.n != m2.grid.n:
        raise MVError("combination requires matching resolutions")
    density = lam * m1.density + (1 - lam) * m2.density \
        + lam * (1 - lam) * tensor_samples(velocity(v1) - velocity(v2), m1.grid.n)
    v = Trajectory(v1.spec, v1.times, lam * v1.vorticity + (1 - lam) * v2.vorticity)
    m = DefectField(grid=m1.grid, times=m1.times, density=density,
                    mollifier_kmax=min(m1.mollifier_kmax, m2.mollifier_kmax),
                    clip_magnitude=max(m1.clip_magnitude, m2.clip_magnitude))
    return v, m


# -- damaged array files ---------------------------------------------------------

def _npy(a: np.ndarray, allow_pickle: bool = False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, a, allow_pickle=allow_pickle)
    return buf.getvalue()


def _npz(a: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, a)
    return buf.getvalue()


def _with_nan(a: np.ndarray) -> bytes:
    a = a.copy()
    a.flat[a.size // 2] = np.nan
    return _npy(a)


def _oversized(a: np.ndarray) -> bytes:
    """a's payload under a header that declares (200000, 200000) float64, 298 GiB."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (200000, 200000)})
    return buf.getvalue() + a.tobytes()


#: per damage, the bytes of a damaged .npy file of the array a that a reader expects
NPY_DAMAGE = {
    "magic": lambda a: b"MAXDISS-FLD".ljust(16, b"\0") + a.tobytes(),  # not a .npy file
    "header": lambda a: _npy(a).replace(b"'descr'", b"'dexcr'", 1),
    "payload": lambda a: _npy(a)[:-8],
    "trailing": lambda a: _npy(a) + bytes(8),  # more payload than the header declares
    "object": lambda a: _npy(a.astype(object), allow_pickle=True),
    "npz": _npz,
    "dtype": lambda a: _npy(np.zeros(a.shape, np.float32)),
    "shape": lambda a: _npy(a.reshape(a.shape[0], -1)),
    "non_finite": _with_nan,
    "oversized": _oversized,
}
