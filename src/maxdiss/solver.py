"""Galerkin time integration of incompressible Navier-Stokes / Euler flows.

The spatial discretization is Fourier-Galerkin on the periodic torus, so
the divergence-free truncation spaces are spanned by solenoidal Fourier
modes and the Galerkin projection is spectral truncation.  Time stepping
is an integrating-factor RK4: the Stokes part is integrated exactly via
exp(-nu |k|^2 dt), the convection explicitly.

``advance`` steps a SpectralField.  Its stages, rfft2 half spectra
(2, n, n//2 + 1), are written with ``out=`` into one ``_Workspace`` that
``solve`` reuses on every step: a step allocates only its checks and the
new state, copied out by ``SpectralField``.  Wavenumber tables and the
integrating factors are cached per grid and per (n, nu, dt).  The nonlinear
term is taken in rotational form, P[omega (v_y, -v_x)]: three inverse and
two forward real transforms per evaluation, their column passes only on
the columns of the 2/3 band; the forcing is added and projected on the
whole half spectrum.  It equals P[-(v.grad)v] because the two differ by
the gradient of |v|^2/2, which the Leray projection removes.  The
certificate's residual ``relenergy.residual_A`` evaluates the same kernel
on stacked states.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import (
    FieldError,
    Grid,
    SpectralField,
    from_function,
    inner,
    leray_project,
    load_field,
    load_samples,
    normalized,
    pairing,
    resample,
    save_samples,
    spectral_tables,
    tensor_samples,
    zero_field,
)


class BlowUpError(RuntimeError):
    """Raised when the time stepper produces NaN/Inf or runaway energy."""


class SolverError(ValueError):
    """Bad solver input; a SystemSpec or Forcing message starts with the offending key."""


# -- forcing ----------------------------------------------------------------

def _forcing_gradient_potential(grid, params):
    a = params.get("amplitude", 1.0)
    return from_function(grid,
                         lambda X, Y: a * np.cos(X) * np.sin(Y),
                         lambda X, Y: a * np.sin(X) * np.cos(Y))


def _forcing_kolmogorov(grid, params):
    a = params.get("amplitude", 1.0)
    k = params.get("wavenumber", 1)
    return from_function(grid,
                         lambda X, Y: a * np.sin(k * Y),
                         lambda X, Y: np.zeros_like(X))


ANALYTIC_FORCINGS = {
    "gradient_potential": _forcing_gradient_potential,  # grad(sin x sin y)
    "kolmogorov": _forcing_kolmogorov,
}
_ANALYTIC_PARAMS = {"gradient_potential": ("amplitude",), "kolmogorov": ("amplitude", "wavenumber")}


@dataclass(frozen=True)
class Forcing:
    """Time-independent right-hand side: zero, analytic registry entry, or file.

    The field is built once per grid size and reused by later calls; a
    file forcing is read and checked when the Forcing is made.
    """

    kind: str = "zero"
    name: str = ""
    params: dict = field(default_factory=dict)
    path: str = ""
    _on_grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _file_field: SpectralField | None = field(default=None, init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        if self.kind not in ("zero", "analytic", "file"):
            raise SolverError(f"forcing/kind: unknown forcing kind {self.kind!r}")
        if self.kind == "analytic" and self.name not in ANALYTIC_FORCINGS:
            raise SolverError(f"forcing/name: unknown analytic forcing {self.name!r}, "
                              f"expected one of {tuple(ANALYTIC_FORCINGS)}")
        if not isinstance(self.params, dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in self.params.values()):
            raise SolverError(f"forcing/params: forcing params must map names to numbers, "
                              f"got {self.params!r}")
        reads = _ANALYTIC_PARAMS.get(self.name, ()) if self.kind == "analytic" else ()
        if unread := [key for key in self.params if key not in reads]:
            raise SolverError(f"forcing/params/{unread[0]}: not read by forcing "
                              f"{self.name or self.kind!r}, which reads {reads}")
        k = self.params.get("wavenumber", 1)
        if not (isinstance(k, int) and k >= 1):  # sin(k y) is periodic for integer k only
            raise SolverError(f"forcing/params/wavenumber: expected an int >= 1, got {k!r}")
        if self.kind == "file":  # read and checked once, here
            try:
                f = load_field(Path(self.path))
            except (OSError, TypeError, FieldError) as exc:
                raise SolverError(f"forcing/path: {exc}") from None
            if not f.is_vector:
                raise SolverError(f"forcing/path: {self.path}: one component, need two")
            object.__setattr__(self, "_file_field", f)

    def __call__(self, t: float, grid: Grid) -> SpectralField:
        if self.kind == "zero":
            return zero_field(grid, 2, solenoidal=False)
        if grid.n not in self._on_grid:
            self._on_grid[grid.n] = (ANALYTIC_FORCINGS[self.name](grid, self.params)
                                     if self.kind == "analytic"
                                     else resample(self._file_field, grid.n))
        return self._on_grid[grid.n]

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "analytic":
            d["name"] = self.name
            d["params"] = dict(self.params)
        elif self.kind == "file":
            d["path"] = str(self.path)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Forcing":
        return cls(kind=d.get("kind", "zero"), name=d.get("name", ""),
                   params=d.get("params", {}), path=d.get("path", ""))


# -- system specification ---------------------------------------------------

@dataclass(frozen=True)
class SystemSpec:
    """Viscosity, forcing, horizon, step and resolution of one flow problem."""

    nu: float
    grid: Grid
    t_end: float
    dt: float
    forcing: Forcing = Forcing()

    def __post_init__(self):
        if self.nu < 0:
            raise SolverError(f"nu: viscosity must be >= 0, got {self.nu}")
        if not (0 < self.dt <= self.t_end):
            raise SolverError(f"dt: need 0 < dt <= t_end, got dt={self.dt}, t_end={self.t_end}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise SolverError(f"t_end: {self.t_end} must be an integer multiple of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def to_dict(self) -> dict:
        return {"nu": self.nu, "n": self.grid.n, "t_end": self.t_end,
                "dt": self.dt, "forcing": self.forcing.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "SystemSpec":
        return cls(nu=d["nu"], grid=Grid(d["n"]), t_end=d["t_end"], dt=d["dt"],
                   forcing=Forcing.from_dict(d.get("forcing", {"kind": "zero"})))


# -- right-hand side --------------------------------------------------------

def _forcing_coeffs(spec: SystemSpec, t: float):
    """Forcing coefficients at time t; None for zero forcing."""
    if spec.forcing.is_zero():
        return None
    return spec.forcing(t, spec.grid).coeffs


class _Workspace:
    """Scratch arrays of ``_rhs`` and ``advance`` for coefficients (..., 2, n, n//2 + 1)."""

    def __init__(self, shape):
        *lead, _, n, h = shape
        # u, omega on the 2/3 band's columns; _rhs keeps the columns above it 0
        self.spec = np.zeros((*lead, 3, n, h), dtype=np.complex128)
        self.phys = np.empty((*lead, 3, n, n))  # v_x, v_y, omega, then the products
        self.stages = np.empty((6, *lead, 2, n, h), dtype=np.complex128)  # a, b, c, d, 2 sums
        self.real = np.empty((n, h))  # dt e_half, 2 e_half


def _rhs(u: np.ndarray, spec: SystemSpec, f, ws: _Workspace | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """P[omega (v_y, -v_x) + f] on coefficients of shape (..., 2, n, n//2 + 1), into
    ``out`` with the arrays of ``ws`` (of a new workspace without them), in the
    operation order of 1j * (kx u_y - ky u_x), w * v_y, (-w) * v_x and ``fields.project``."""
    n = spec.grid.n
    tab = spectral_tables(n)
    b = np.count_nonzero(tab.dealias[0])  # the columns ky <= cut of the 2/3 band
    ky, band = tab.ky[:, :b], tab.dealias[:, :b]
    ws = ws or _Workspace(u.shape)
    out = ws.stages[0] if out is None else out
    s = ws.spec[..., :b]
    p, q = out[..., 0, :, :b], out[..., 1, :, :b]  # scratch until rfft fills out
    np.multiply(u[..., :b], band, out=s[..., :2, :, :])
    np.multiply(tab.kx, s[..., 1, :, :], out=p)
    np.multiply(ky, s[..., 0, :, :], out=q)
    np.multiply(1j, np.subtract(p, q, out=p), out=s[..., 2, :, :])
    # irfft2 and rfft2 as column and row passes, the column passes on the band only;
    # the row pass reads the zero-padded spectrum: numpy's irfft is slower on less
    np.fft.ifft(s, axis=-2, norm="forward", out=s)
    np.fft.irfft(ws.spec, n, axis=-1, norm="forward", out=ws.phys)
    vx, vy, w = np.moveaxis(ws.phys, -3, 0)
    np.multiply(w, vy, out=vy)
    np.multiply(np.negative(w, out=w), vx, out=w)
    np.fft.rfft(ws.phys[..., 1:, :, :], axis=-1, norm="forward", out=out)  # (w v_y, -w v_x)
    np.fft.fft(out[..., :b], axis=-2, norm="forward", out=out[..., :b])
    out[..., :b] *= band
    out[..., b:] = 0
    if f is not None:
        out += f
    cx, cy = out[..., 0, :, :], out[..., 1, :, :]
    p, q = ws.spec[..., 0, :, :], ws.spec[..., 1, :, :]  # scratch: irfft has read s
    np.multiply(tab.kx, cx, out=p)
    np.multiply(np.add(p, np.multiply(tab.ky, cy, out=q), out=p), tab.inv_k2, out=p)
    np.subtract(cx, np.multiply(tab.kx, p, out=q), out=cx)
    np.subtract(cy, np.multiply(tab.ky, p, out=q), out=cy)
    ws.spec[..., :2, :, b:] = 0
    return out


@functools.lru_cache(maxsize=32)
def _integrating_factors(n: int, nu: float, dt: float):
    """Read-only exp(-nu |k|^2 dt/2) and exp(-nu |k|^2 dt)."""
    k2 = spectral_tables(n).k2
    e_half = np.exp(-nu * k2 * (dt / 2))
    e_full = np.exp(-nu * k2 * dt)
    e_half.flags.writeable = e_full.flags.writeable = False
    return e_half, e_full


def advance(v: SpectralField, spec: SystemSpec, t: float,
            dt: float | None = None, _ws: _Workspace | None = None) -> SpectralField:
    """One integrating-factor RK4 step; diffusion exact, convection explicit.

    The stages run in the arrays of ``_ws`` (a new workspace without it), in
    the operation order of a = N(u), b = N(e_half (u + (dt/2) a)),
    c = N(e_half u + (dt/2) b), d = N(e_full u + (dt e_half) c) and
    e_full u + (dt/6) (e_full a + (2 e_half) (b + c) + d).  The result is
    checked finite, and solenoidal by its constructor."""
    dt = spec.dt if dt is None else dt
    ws = _ws or _Workspace(v.coeffs.shape)
    e_half, e_full = _integrating_factors(spec.grid.n, spec.nu, dt)
    f0, f_mid, f1 = (_forcing_coeffs(spec, s) for s in (t, t + 0.5 * dt, t + dt))
    u = v.coeffs
    (a, b, c, d, x, y), r = ws.stages, ws.real
    _rhs(u, spec, f0, ws, a)
    np.multiply(e_half, np.add(u, np.multiply(0.5 * dt, a, out=x), out=x), out=x)
    _rhs(x, spec, f_mid, ws, b)
    np.add(np.multiply(e_half, u, out=x), np.multiply(0.5 * dt, b, out=y), out=x)
    _rhs(x, spec, f_mid, ws, c)
    np.multiply(np.multiply(dt, e_half, out=r), c, out=y)
    np.add(np.multiply(e_full, u, out=x), y, out=x)
    _rhs(x, spec, f1, ws, d)
    np.multiply(np.multiply(2.0, e_half, out=r), np.add(b, c, out=y), out=y)
    np.add(np.add(np.multiply(e_full, a, out=x), y, out=x), d, out=x)
    new = np.add(np.multiply(e_full, u, out=y), np.multiply(dt / 6.0, x, out=x), out=y)

    if not np.all(np.isfinite(new)):
        raise BlowUpError(f"non-finite coefficients after step at t={t:g}")
    return SpectralField(spec.grid, new, solenoidal=True)


# -- trajectories -----------------------------------------------------------

#: header key ``layout`` of a trajectory's states.fld
_STATES_LAYOUT = "half_spectrum_packed"


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled solenoidal states of one Galerkin run, stacked: ``coeffs``
    has shape (T, 2, n, n//2 + 1) and coeffs[k] is the state at times[k]."""

    spec: SystemSpec
    times: np.ndarray
    coeffs: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.size == 0:
            raise SolverError("trajectory needs at least one sample time")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise SolverError("sample times must start at 0 and increase strictly")
        shape = (t.size, 2, self.grid.n, self.grid.n // 2 + 1)
        if np.shape(self.coeffs) != shape:
            raise SolverError(f"coefficient shape {np.shape(self.coeffs)}, need {shape}")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coeffs", normalized(self.coeffs, self.grid.n, solenoidal=True))

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    def state(self, k: int) -> SpectralField:
        return SpectralField(self.grid, self.coeffs[k], solenoidal=True)

    def energies(self) -> np.ndarray:
        return 0.5 * pairing(self.coeffs, self.coeffs)

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-10 * max(1.0, abs(t)):
            raise SolverError(f"time {t:g} is not a sample time")
        return i

    def save(self, out_dir) -> None:
        """Write manifest.json (spec, times, provenance) and states.fld.

        states.fld holds the half spectra of every state packed to
        (T, 2, n - 1, n/2): the Nyquist row and column are zero and left
        out, so that load gives back the same spectra bit for bit.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        manifest = {
            "spec": self.spec.to_dict(),
            "times": self.times.tolist(),
            "provenance": self.provenance,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
        h = self.grid.n // 2
        save_samples(out / "states.fld", np.delete(self.coeffs[..., :h], h, axis=-2),
                     extra={"layout": _STATES_LAYOUT})

    @classmethod
    def load(cls, in_dir) -> "Trajectory":
        src = Path(in_dir)
        manifest = json.loads((src / "manifest.json").read_text())
        spec = SystemSpec.from_dict(manifest["spec"])
        times = np.array(manifest["times"])
        path = src / "states.fld"
        packed, header = load_samples(path)
        n, h = spec.grid.n, spec.grid.n // 2
        if header.get("layout") != _STATES_LAYOUT or packed.shape != (times.size, 2, n - 1, h):
            raise FieldError(f"{path}: layout {header.get('layout')}, shape {list(packed.shape)}; "
                             f"the manifest needs {_STATES_LAYOUT}, {[times.size, 2, n - 1, h]}")
        coeffs = np.zeros((times.size, 2, n, h + 1), dtype=np.complex128)  # Nyquist: 0
        coeffs[..., :h, :h] = packed[..., :h, :]
        coeffs[..., h + 1:, :h] = packed[..., h:, :]
        return cls(spec=spec, times=times, coeffs=coeffs,
                   provenance=manifest.get("provenance", ""))


def solve(spec: SystemSpec, v0: SpectralField, sample_stride: int = 1,
          provenance: str = "") -> Trajectory:
    """Integrate from P_n v0 to t_end, sampling every `sample_stride` steps."""
    if sample_stride < 1:
        raise SolverError("sample_stride must be >= 1")
    v = leray_project(resample(v0, spec.grid.n))

    e0 = 0.5 * inner(v, v)
    times = [0.0]
    # t = 0, then every sample_stride steps and the last step
    coeffs = np.empty((1 + (spec.n_steps + sample_stride - 1) // sample_stride,) + v.coeffs.shape,
                      dtype=np.complex128)
    coeffs[0] = v.coeffs
    ws = _Workspace(v.coeffs.shape)
    for step in range(spec.n_steps):
        t = step * spec.dt
        v = advance(v, spec, t, _ws=ws)
        if 0.5 * inner(v, v) > 1e8 * max(e0, 1.0):
            raise BlowUpError(f"energy blow-up at t={t + spec.dt:g}")
        if (step + 1) % sample_stride == 0 or step == spec.n_steps - 1:
            coeffs[len(times)] = v.coeffs
            times.append((step + 1) * spec.dt)
    return Trajectory(spec=spec, times=np.array(times), coeffs=coeffs,
                      provenance=provenance or f"ifrk4 n={spec.grid.n} dt={spec.dt}")


# -- exact Taylor-Green oracle ----------------------------------------------

@functools.lru_cache(maxsize=32)
def _unit_taylor_green(n: int) -> SpectralField:
    """(sin x cos y, -cos x sin y) on the n x n grid, built once per n."""
    return from_function(Grid(n), lambda X, Y: np.sin(X) * np.cos(Y),
                         lambda X, Y: -np.cos(X) * np.sin(Y), solenoidal=True)


def taylor_green(t: float, nu: float, grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """v = A e^{-2 nu t} (sin x cos y, -cos x sin y); exact NSE solution for f=0."""
    return (amplitude * np.exp(-2.0 * nu * t)) * _unit_taylor_green(grid.n)


def taylor_green_pressure(t: float, nu: float, grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """p = (A^2/4) e^{-4 nu t} (cos 2x + cos 2y).

    The sign pairs with the (sin x cos y, -cos x sin y) orientation of
    taylor_green: (v.grad)v = -grad p there, so the momentum residual
    of (v, p) vanishes identically.
    """
    a = 0.25 * amplitude ** 2 * np.exp(-4.0 * nu * t)
    return from_function(grid, lambda X, Y: a * (np.cos(2 * X) + np.cos(2 * Y)))


def recover_pressure(v: SpectralField, f: SpectralField | None = None) -> SpectralField:
    """Pressure from -Lap p = div div (v x v) - div f, zero-mean normalization."""
    if not v.is_vector:
        raise SolverError("pressure recovery needs a velocity field")
    n = v.grid.n
    m = 2 * n
    that = np.fft.rfft2(tensor_samples(v.coeffs, m), norm="forward")
    tab = spectral_tables(m)
    kx, ky = tab.kx, tab.ky
    rhs = -(kx * kx * that[0] + 2 * kx * ky * that[1] + ky * ky * that[2])
    if f is not None:
        ff = resample(resample(f, n), m)
        rhs = rhs - 1j * (kx * ff.coeffs[0] + ky * ff.coeffs[1])
    return resample(SpectralField(Grid(m), (rhs * tab.inv_k2)[None]), n)


# -- test trajectories ------------------------------------------------------

class TestTrajectory:
    """C^1-in-time trajectory used as a test function for certification.

    Either analytic (closed-form value and time derivative) or a cubic
    spline through the samples of a Trajectory (not-a-knot ends).
    ``values`` and ``derivs`` map an array of times to stacked coefficients
    (len(times), 2, n, n//2 + 1).  ``weight_norms`` keeps the nu-free weight
    series of ``certificate.margin_series`` for reuse by members on one grid.
    """

    __test__ = False  # not a pytest test class

    def __init__(self, values, derivs, grid: Grid, solenoidal: bool, label: str):
        self.values = values
        self.derivs = derivs
        self.grid = grid
        self.solenoidal = solenoidal
        self.label = label
        self.weight_norms = {}

    def value(self, t: float) -> SpectralField:
        return SpectralField(self.grid, self.values([t])[0], solenoidal=self.solenoidal)

    def deriv(self, t: float) -> SpectralField:
        return SpectralField(self.grid, self.derivs([t])[0])

    @classmethod
    def analytic(cls, value_fn, deriv_fn, grid: Grid, solenoidal: bool = True,
                 label: str = "analytic") -> "TestTrajectory":
        """From callables t -> SpectralField."""
        return cls(lambda times: np.stack([value_fn(t).coeffs for t in times]),
                   lambda times: np.stack([deriv_fn(t).coeffs for t in times]),
                   grid, solenoidal, label)

    @classmethod
    def taylor_green(cls, nu: float, grid: Grid, amplitude: float = 1.0,
                     label: str = "") -> "TestTrajectory":
        unit = _unit_taylor_green(grid.n).coeffs

        def values(times):
            a = amplitude * np.exp(-2.0 * nu * np.asarray(times))
            return a[:, None, None, None] * unit

        return cls(values, lambda times: -2.0 * nu * values(times), grid, True,
                   label or f"taylor_green(nu={nu:g}, a={amplitude:g})")

    @classmethod
    def zero(cls, grid: Grid, label: str = "zero") -> "TestTrajectory":
        def zeros(times):
            return np.zeros((len(times), 2, grid.n, grid.n // 2 + 1), dtype=np.complex128)

        return cls(zeros, zeros, grid, True, label)

    @classmethod
    def from_trajectory(cls, traj: Trajectory, label: str = "") -> "TestTrajectory":
        if traj.times.size < 4:
            raise SolverError("spline test trajectory needs >= 4 samples")
        from scipy.interpolate import CubicSpline  # slow to import; only splines need it
        spline = CubicSpline(traj.times, traj.coeffs, axis=0, bc_type="not-a-knot")
        return cls(spline, spline.derivative(), traj.grid, True, label or "spline")

    @classmethod
    def perturbed(cls, base: "TestTrajectory", r: SpectralField, alpha: float,
                  label: str = "") -> "TestTrajectory":
        """base + alpha * r with r constant in time."""
        return cls(lambda times: base.values(times) + alpha * r.coeffs, base.derivs,
                   base.grid, base.solenoidal and r.solenoidal,
                   label or f"{base.label}+{alpha:g}r")
