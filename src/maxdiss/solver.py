"""Galerkin time integration of incompressible Navier-Stokes / Euler flows.

The spatial discretization is Fourier-Galerkin on the periodic torus, so
the divergence-free truncation spaces are spanned by solenoidal Fourier
modes and the Galerkin projection is spectral truncation.  Time stepping
is an integrating-factor RK4: the Stokes part is integrated exactly via
exp(-nu |k|^2 dt), the convection explicitly.

``solve`` and ``advance`` take and return the checked boundary type
SpectralField; under them everything works on coefficient arrays.  The
stages of a step, rfft2 half spectra (2, n, n//2 + 1), are written with
``out=`` into one ``_Workspace`` that ``solve`` reuses on every step: a
step allocates only its checks and the new state, copied out by
``SpectralField``.  Wavenumber tables and the integrating factors are
cached per grid and per (n, nu, dt).  The forcing is time-independent:
``Forcing.projected(n)`` builds its projected coefficients P_n f once per
grid size, and a step looks them up once for its four stages.  The
nonlinear term is taken in Basdevant's form: with a = v_x^2 - v_y^2 and
b = v_x v_y, it is P[-div T] for T = [[a/2, b], [b, -a/2]].  This equals
P[-(v.grad)v] = P[-div(v (x) v)] because T differs from v (x) v by
|v|^2/2 I, whose divergence is a gradient that the Leray projection
removes.  Two inverse and two forward real transforms per evaluation, their
column passes only on the columns of the 2/3 band; the divergence, the band
and the projection are folded into two tables per grid.  The certificate's
residual ``relenergy.residual_A`` evaluates the same kernel on stacked
states.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import (
    FieldError,
    Grid,
    SpectralField,
    from_function,
    load_field,
    load_samples,
    normalized,
    pairing,
    project,
    resample,
    save_samples,
    spectral_tables,
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

    Its coefficients and their projection are built once per grid size and
    reused by later calls; a file forcing is read and checked when the
    Forcing is made.
    """

    kind: str = "zero"
    name: str = ""
    params: dict = field(default_factory=dict)
    path: str = ""
    _on_grid: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _file_coeffs: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        if self.kind not in ("zero", "analytic", "file"):
            raise SolverError(f"forcing/kind: unknown forcing kind {self.kind!r}")
        if self.kind == "analytic" and self.name not in ANALYTIC_FORCINGS:
            raise SolverError(f"forcing/name: unknown analytic forcing {self.name!r}, "
                              f"expected one of {tuple(ANALYTIC_FORCINGS)}")
        if not isinstance(self.params, dict) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
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
            if f.coeffs.shape[0] != 2:
                raise SolverError(f"forcing/path: {self.path}: one component, need two")
            object.__setattr__(self, "_file_coeffs", f.coeffs)

    def coeffs(self, n: int) -> np.ndarray | None:
        """Coefficients (2, n, n//2 + 1) on the n x n grid; None for zero forcing."""
        return self._on(n)[0]

    def projected(self, n: int) -> np.ndarray | None:
        """Their Leray projection P_n f, which the stepper adds; None for zero forcing."""
        return self._on(n)[1]

    def _on(self, n: int) -> tuple:
        """(f, P_n f) on the n x n grid, built on the first lookup."""
        if self.kind == "zero":
            return None, None
        if n not in self._on_grid:
            f = (ANALYTIC_FORCINGS[self.name](Grid(n), self.params).coeffs
                 if self.kind == "analytic" else resample(self._file_coeffs, n))
            self._on_grid[n] = f, project(f, spectral_tables(n))
        return self._on_grid[n]

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
        """The inverse of ``to_dict``; the keys it writes for the kind are required."""
        if not isinstance(d, dict):
            raise SolverError(f"forcing: expected an object, got {d!r}")
        keys = {"analytic": ("name", "params"), "file": ("path",)}.get(d.get("kind"), ())
        if missing := [key for key in ("kind", *keys) if key not in d]:
            raise SolverError(f"forcing/{missing[0]}: missing required key")
        return cls(kind=d["kind"], name=d.get("name", ""), params=d.get("params", {}),
                   path=d.get("path", ""))


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
        for key in ("nu", "t_end", "dt"):
            if not math.isfinite(getattr(self, key)):
                raise SolverError(f"{key}: expected a finite number, got {getattr(self, key)!r}")
        if self.nu < 0:
            raise SolverError(f"nu: viscosity must be >= 0, got {self.nu}")
        if not (0 < self.dt <= self.t_end and self.t_end / self.dt < math.inf):
            raise SolverError(f"dt: need 0 < dt <= t_end and a finite t_end / dt, "
                              f"got dt={self.dt}, t_end={self.t_end}")
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
                   forcing=Forcing.from_dict(d["forcing"]))


# -- right-hand side --------------------------------------------------------

class _Workspace:
    """Scratch arrays of ``_rhs`` and ``advance`` for coefficients (..., 2, n, n//2 + 1)."""

    def __init__(self, shape):
        *lead, _, n, h = shape
        # v on the 2/3 band's columns; the columns above it stay 0
        self.spec = np.zeros((*lead, 2, n, h), dtype=np.complex128)
        m = (n - 1) // 3 + 1  # v, then a_hat and b_hat, on the band's columns contiguously
        self.band = np.empty((*lead, 2, n, m), dtype=np.complex128)
        self.phys = np.empty((*lead, 2, n, n))  # v_x, v_y, then the products a, b
        self.stages = np.empty((6, *lead, 2, n, h), dtype=np.complex128)  # a, b, c, d, 2 sums


@functools.lru_cache(maxsize=32)
def _basdevant_tables(n: int):
    """Read-only real tables g and h, (n, m) on the m columns of the 2/3 band, and
    i k' = i (-ky, kx), complex (1, m) and (n, 1), with which
    P[-div T] = i k' (g a_hat - h b_hat) on the band for T = [[a/2, b], [b, -a/2]].

    In 2D, P N = k' (k'.N) / |k|^2; for N = -i k.T,
    k'.N = i (kx ky a_hat - (kx^2 - ky^2) b_hat).  g and h carry the 2/3 mask."""
    tab = spectral_tables(n)
    m = (n - 1) // 3 + 1  # the columns ky <= cut
    kx, ky = tab.kx, tab.ky[:, :m]
    w = tab.inv_k2[:, :m] * tab.dealias[:, :m]
    tables = kx * ky * w, (kx * kx - ky * ky) * w, -1j * ky, 1j * kx
    for a in tables:
        a.flags.writeable = False
    return tables


def _rhs(u: np.ndarray, spec: SystemSpec, pf, ws: _Workspace | None = None,
         out: np.ndarray | None = None) -> np.ndarray:
    """P[-(v.grad)v] + pf for coefficients u of shape (..., 2, n, n//2 + 1), v = u
    on the 2/3 band and pf a projected forcing (``Forcing.projected``) or None, into
    ``out`` with the arrays of ``ws`` (of a new workspace without them), in the
    operation order of a = v_x * v_x - v_y * v_y, b = v_x * v_y,
    z = g * a_hat - h * b_hat and (-i ky * z, i kx * z) (+ pf) from ``_basdevant_tables``."""
    n = spec.grid.n
    g, h, rot_x, rot_y = _basdevant_tables(n)
    m = g.shape[-1]
    ws = ws or _Workspace(u.shape)
    out = ws.stages[0] if out is None else out
    c = ws.band
    c[..., :m, :] = u[..., :m, :m]  # the band: rows |kx| <= cut of the columns ky <= cut
    c[..., m:1 - m, :] = 0
    c[..., 1 - m:, :] = u[..., 1 - m:, :m]
    # irfft2 and rfft2 as column and row passes, the column passes on the band only;
    # the row pass reads the zero-padded spectrum: numpy's irfft is slower on less
    np.fft.ifft(c, axis=-2, norm="forward", out=ws.spec[..., :m])
    np.fft.irfft(ws.spec, n, axis=-1, norm="forward", out=ws.phys)
    vx, vy = ws.phys[..., 0, :, :], ws.phys[..., 1, :, :]
    t = out.view(np.float64)[..., 0, :, :n]  # scratch until rfft fills out
    np.multiply(vy, vy, out=t)
    np.multiply(vx, vy, out=vy)
    np.subtract(np.multiply(vx, vx, out=vx), t, out=vx)
    np.fft.rfft(ws.phys, axis=-1, norm="forward", out=out)
    np.fft.fft(out[..., :m], axis=-2, norm="forward", out=c)  # a_hat, b_hat
    a, b = c[..., 0, :, :], c[..., 1, :, :]
    z = np.subtract(np.multiply(g, a, out=a), np.multiply(h, b, out=b), out=a)
    np.multiply(rot_x, z, out=out[..., 0, :, :m])
    np.multiply(rot_y, z, out=out[..., 1, :, :m])
    out[..., m:] = 0
    if pf is not None:
        out += pf
    return out


@functools.lru_cache(maxsize=32)
def _integrating_factors(n: int, nu: float, dt: float):
    """Read-only exp(-nu |k|^2 dt/2), exp(-nu |k|^2 dt) and the step's products
    dt exp(-nu |k|^2 dt/2) and 2 exp(-nu |k|^2 dt/2)."""
    k2 = spectral_tables(n).k2
    e_half = np.exp(-nu * k2 * (dt / 2))
    factors = e_half, np.exp(-nu * k2 * dt), dt * e_half, 2.0 * e_half
    for e in factors:
        e.flags.writeable = False
    return factors


def advance(v: SpectralField, spec: SystemSpec, t: float,
            _ws: _Workspace | None = None) -> SpectralField:
    """One integrating-factor RK4 step; diffusion exact, convection explicit.

    The stages run in the arrays of ``_ws`` (a new workspace without it), in
    the operation order of a = N(u), b = N(e_half (u + (dt/2) a)),
    c = N(e_half u + (dt/2) b), d = N(e_full u + (dt e_half) c) and
    e_full u + (dt/6) (e_full a + (2 e_half) (b + c) + d).  The result is
    checked finite, and solenoidal by its constructor."""
    ws = _ws or _Workspace(v.coeffs.shape)
    e_half, e_full, dt_e_half, two_e_half = _integrating_factors(spec.grid.n, spec.nu, spec.dt)
    f = spec.forcing.projected(spec.grid.n)
    u = v.coeffs
    a, b, c, d, x, y = ws.stages
    _rhs(u, spec, f, ws, a)
    np.multiply(e_half, np.add(u, np.multiply(0.5 * spec.dt, a, out=x), out=x), out=x)
    _rhs(x, spec, f, ws, b)
    np.add(np.multiply(e_half, u, out=x), np.multiply(0.5 * spec.dt, b, out=y), out=x)
    _rhs(x, spec, f, ws, c)
    np.multiply(dt_e_half, c, out=y)
    np.add(np.multiply(e_full, u, out=x), y, out=x)
    _rhs(x, spec, f, ws, d)
    np.multiply(two_e_half, np.add(b, c, out=y), out=y)
    np.add(np.add(np.multiply(e_full, a, out=x), y, out=x), d, out=x)
    new = np.add(np.multiply(e_full, u, out=y), np.multiply(spec.dt / 6.0, x, out=x), out=y)

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
        if t[0] != 0.0 or not (np.all(np.diff(t) > 0) and np.isfinite(t[-1])):  # NaN: not > 0
            raise SolverError("times: must be finite, start at 0 and increase strictly")
        shape = (t.size, 2, self.grid.n, self.grid.n // 2 + 1)
        if np.shape(self.coeffs) != shape:
            raise SolverError(f"coefficient shape {np.shape(self.coeffs)}, need {shape}")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coeffs", normalized(self.coeffs, self.grid.n, solenoidal=True))

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    def energies(self) -> np.ndarray:
        return 0.5 * pairing(self.coeffs, self.coeffs)

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
        try:
            manifest = json.loads((src / "manifest.json").read_text())
            spec, times = SystemSpec.from_dict(manifest["spec"]), np.array(manifest["times"], float)
            # on the dt grid and ending at t_end, to SystemSpec's 1e-9 t_end; NaN and inf are off
            with np.errstate(invalid="ignore"):
                off = ~(np.abs(times - np.round(times / spec.dt) * spec.dt) <= 1e-9 * spec.t_end)
            off[-1:] |= ~(np.abs(times[-1:] - spec.t_end) <= 1e-9 * spec.t_end)
            if off.any():
                raise SolverError(f"times: expected multiples of dt={spec.dt:g} ending at "
                                  f"t_end={spec.t_end:g}, got {float(times[off][0])}")
        except SolverError as exc:  # its message starts with the offending key
            raise SolverError(f"{exc} (in {src / 'manifest.json'})") from None
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise FieldError(f"{src / 'manifest.json'}: unreadable manifest ({exc!r})") from None
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


def _shares_samples(a: Trajectory, b: Trajectory) -> bool:
    """Same sample times and forcing, as members certified or mixed together need."""
    return (a.times.shape == b.times.shape and a.spec.forcing == b.spec.forcing
            and bool(np.allclose(a.times, b.times, atol=1e-12)))


def solve(spec: SystemSpec, v0: SpectralField, sample_stride: int = 1,
          provenance: str = "") -> Trajectory:
    """Integrate from P_n v0 to t_end, sampling every `sample_stride` steps."""
    if sample_stride < 1:
        raise SolverError("sample_stride must be >= 1")
    n = spec.grid.n
    v = SpectralField(spec.grid, project(resample(v0.coeffs, n), spectral_tables(n)),
                      solenoidal=True)

    e0 = 0.5 * pairing(v.coeffs, v.coeffs)
    times = [0.0]
    # t = 0, then every sample_stride steps and the last step
    coeffs = np.empty((1 + (spec.n_steps + sample_stride - 1) // sample_stride,) + v.coeffs.shape,
                      dtype=np.complex128)
    coeffs[0] = v.coeffs
    ws = _Workspace(v.coeffs.shape)
    for step in range(spec.n_steps):
        t = step * spec.dt
        v = advance(v, spec, t, _ws=ws)
        if 0.5 * pairing(v.coeffs, v.coeffs) > 1e8 * max(e0, 1.0):
            raise BlowUpError(f"energy blow-up at t={t + spec.dt:g}")
        if (step + 1) % sample_stride == 0 or step == spec.n_steps - 1:
            coeffs[len(times)] = v.coeffs
            times.append((step + 1) * spec.dt)
    return Trajectory(spec=spec, times=np.array(times), coeffs=coeffs,
                      provenance=provenance or f"ifrk4 n={spec.grid.n} dt={spec.dt}")


# -- exact Taylor-Green oracle ----------------------------------------------

@functools.lru_cache(maxsize=32)
def _unit_taylor_green(n: int) -> np.ndarray:
    """Coefficients of (sin x cos y, -cos x sin y) on the n x n grid, built once per n."""
    return from_function(Grid(n), lambda X, Y: np.sin(X) * np.cos(Y),
                         lambda X, Y: -np.cos(X) * np.sin(Y), solenoidal=True).coeffs


def taylor_green(t: float, nu: float, grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """v = A e^{-2 nu t} (sin x cos y, -cos x sin y); exact NSE solution for f=0."""
    return SpectralField(grid, _unit_taylor_green(grid.n) * (amplitude * np.exp(-2.0 * nu * t)),
                         solenoidal=True)


# -- test trajectories ------------------------------------------------------

class TestTrajectory:
    """C^1-in-time trajectory used as a test function for certification.

    ``taylor_green`` (the closed-form decaying vortex, rescaled) and
    ``zero`` build the members that ``scenarios.build_tests`` names.
    ``values`` and ``derivs`` map an array of times to stacked solenoidal
    coefficients (len(times), 2, n, n//2 + 1).  ``certificate.margin_series``
    evaluates them once per sample block for every member certified.
    """

    __test__ = False  # not a pytest test class

    def __init__(self, values, derivs, grid: Grid, label: str):
        self.values = values
        self.derivs = derivs
        self.grid = grid
        self.label = label

    @classmethod
    def taylor_green(cls, nu: float, grid: Grid, amplitude: float = 1.0,
                     label: str = "") -> "TestTrajectory":
        unit = _unit_taylor_green(grid.n)

        def values(times):
            a = amplitude * np.exp(-2.0 * nu * np.asarray(times))
            return a[:, None, None, None] * unit

        return cls(values, lambda times: -2.0 * nu * values(times), grid,
                   label or f"taylor_green(nu={nu:g}, a={amplitude:g})")

    @classmethod
    def zero(cls, grid: Grid, label: str = "zero") -> "TestTrajectory":
        def zeros(times):
            return np.zeros((len(times), 2, grid.n, grid.n // 2 + 1), dtype=np.complex128)

        return cls(zeros, zeros, grid, label)
