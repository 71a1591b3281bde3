"""Galerkin time integration of incompressible Navier-Stokes / Euler flows.

The spatial discretization is Fourier-Galerkin on the periodic torus, so
the divergence-free truncation spaces are spanned by solenoidal Fourier
modes and the Galerkin projection is spectral truncation.  Time stepping
is an integrating-factor RK4: the Stokes part is integrated exactly via
exp(-nu |k|^2 dt), the convection explicitly.

The stepper's state is one scalar, the vorticity half spectrum
w = i kx v_y - i ky v_x of shape (n, n//2 + 1), so v = (i ky, -i kx) w / |k|^2
is solenoidal by construction; the k = 0 entry, which the curl lacks,
carries the velocity mean as v_x + i v_y.  ``solve`` takes the curl once and
runs the stages of every step in one reused ``_Workspace``; every step is
checked finite, its column ky = 0 averaged onto Hermitian symmetry and its
energy bounded.  Trajectories (on disk too) and test trajectories hold w; energies
and pairings of their velocities are weighted sums over w (``_velocity_pairing``),
and only a physical product rebuilds the velocity (``_velocity``).  Tables are
cached per grid and per (n, nu, dt); ``Forcing`` builds curl f once per grid
size.  The one nonlinear kernel, ``_curl_rhs``, takes the term in
Basdevant's form: with a = v_x^2 - v_y^2 and b = v_x v_y, it is P[-div T]
for T = [[a/2, b], [b, -a/2]], which differs from v (x) v by |v|^2/2 I, whose
divergence is a gradient that the Leray projection removes; its curl takes four
real transforms, the column passes on the 2/3 band's columns only (``_products``).
The stepper calls it, and so does the certificate's ``relenergy.residual_A``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import (
    TWO_PI,
    FieldError,
    Grid,
    SpectralField,
    _hermitian_column,
    _mode_sum,
    from_function,
    load_field,
    load_samples,
    normalized,
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

    Its curl is built once per grid size and reused by later calls; a file
    forcing is read and checked when the Forcing is made.
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
                object.__setattr__(self, "_file_coeffs", load_field(Path(self.path)).coeffs)
            except (TypeError, FieldError) as exc:
                raise SolverError(f"forcing/path: {exc}") from None

    def curl(self, n: int) -> np.ndarray | None:
        """curl f on the n x n grid with the mean of f (``_curl``), whose velocity is
        P_n f, built on the first lookup; None for zero forcing."""
        if self.kind == "zero":
            return None
        if n not in self._on_grid:
            f = (ANALYTIC_FORCINGS[self.name](Grid(n), self.params).coeffs
                 if self.kind == "analytic" else resample(self._file_coeffs, n))
            self._on_grid[n] = _curl(f)
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
    """Scratch arrays of ``_curl_rhs`` and ``advance`` for states stacked over ``lead``."""

    def __init__(self, lead: tuple, n: int):
        h, m = n // 2 + 1, (n - 1) // 3 + 1  # m: the columns of the 2/3 band
        # the band velocity's column pass; the columns above the band stay 0
        self.spec = np.zeros((*lead, 2, n, h), dtype=np.complex128)
        self.band = np.empty((*lead, 2, n, m), dtype=np.complex128)  # v, then a_hat, b_hat
        self.phys = np.empty((*lead, 2, n, n))  # v_x, v_y, then the products a, b
        self.prod = np.empty((*lead, 2, n, h), dtype=np.complex128)  # the row pass of a, b
        self.stages = np.empty((6, *lead, n, h), dtype=np.complex128)  # a, b, c, d, 2 sums


@functools.lru_cache(maxsize=32)
def _basdevant_tables(n: int):
    """Read-only real tables g and h, (n, m) on the m columns of the 2/3 band, and
    i k' = i (-ky, kx), complex (1, m) and (n, 1), with which
    P[-div T] = i k' (g a_hat - h b_hat) on the band for T = [[a/2, b], [b, -a/2]], its
    curl |k|^2 (h b_hat - g a_hat); and -1/|k|^2, (n, m): w has the band velocity
    i k' (-w / |k|^2).  In 2D, P N = k' (k'.N) / |k|^2; for N = -i k.T,
    k'.N = i (kx ky a_hat - (kx^2 - ky^2) b_hat).  The real tables carry the 2/3 mask."""
    tab = spectral_tables(n)
    m = (n - 1) // 3 + 1  # the columns ky <= cut
    kx, ky = tab.kx, tab.ky[:, :m]
    w = tab.inv_k2[:, :m] * tab.dealias[:, :m]
    tables = kx * ky * w, (kx * kx - ky * ky) * w, -1j * ky, 1j * kx, -w
    for a in tables:
        a.flags.writeable = False
    return tables


def _curl(u: np.ndarray) -> np.ndarray:
    """Vorticity half spectra (..., n, n//2 + 1) of velocity coefficients
    (..., 2, n, n//2 + 1), with the mean u_x + i u_y at k = 0."""
    tab = spectral_tables(u.shape[-2])
    w = 1j * (tab.kx * u[..., 1, :, :] - tab.ky * u[..., 0, :, :])
    w[..., 0, 0] = u[..., 0, 0, 0].real + 1j * u[..., 1, 0, 0].real
    return w


def _velocity(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Velocity coefficients (i ky, -i kx) w / |k|^2, (..., 2, n, n//2 + 1), with the
    mean from k = 0, of vorticity half spectra w (``_curl``); into ``out`` where given."""
    tab = spectral_tables(w.shape[-2])
    psi = w * tab.inv_k2
    if out is None:
        out = np.empty((*w.shape[:-2], 2, *w.shape[-2:]), dtype=np.complex128)
    np.multiply(1j * tab.ky, psi, out=out[..., 0, :, :])
    np.multiply(-1j * tab.kx, psi, out=out[..., 1, :, :])
    out[..., 0, 0, 0], out[..., 1, 0, 0] = w[..., 0, 0].real, w[..., 0, 0].imag
    return out


def _velocity_pairing(a: np.ndarray, b: np.ndarray):
    """L2 inner products <v_a, v_b> of the velocities of vorticity half spectra a and b
    (..., n, n//2 + 1) (``_curl``), one per leading index: by Parseval, |v|^2 = |w|^2 / |k|^2
    mode by mode and |v(0)|^2 = |w(0)|^2 for the mean, the weight ``Tables.energy``.
    Re(a conj b) is formed in place from real parts: fresh temporaries cost more."""
    p = a.real * b.real
    p += a.imag * b.imag
    p *= spectral_tables(a.shape[-2]).energy
    return TWO_PI ** 2 * _mode_sum(p[..., None, :, :])


def _products(ws: _Workspace):
    """a_hat and b_hat (views of ``ws.band``) of a = v_x^2 - v_y^2 and b = v_x v_y for
    the band velocity in ``ws.band``, by irfft2 and rfft2 as column and row passes, the
    column passes on the band only, the forward row pass into ``ws.prod``."""
    c, fwd = ws.band, ws.prod
    n, m = c.shape[-2:]
    # the row pass reads the zero-padded spectrum: numpy's irfft is slower on less
    np.fft.ifft(c, axis=-2, norm="forward", out=ws.spec[..., :m])
    np.fft.irfft(ws.spec, n, axis=-1, norm="forward", out=ws.phys)
    vx, vy = ws.phys[..., 0, :, :], ws.phys[..., 1, :, :]
    t = fwd.view(np.float64)[..., 0, :, :n]  # scratch until rfft fills fwd
    np.multiply(vy, vy, out=t)
    np.multiply(vx, vy, out=vy)
    np.subtract(np.multiply(vx, vx, out=vx), t, out=vx)
    np.fft.rfft(ws.phys, axis=-1, norm="forward", out=fwd)
    np.fft.fft(fwd[..., :m], axis=-2, norm="forward", out=c)
    return c[..., 0, :, :], c[..., 1, :, :]


def _curl_rhs(w: np.ndarray, spec: SystemSpec, cf, ws: _Workspace,
              out: np.ndarray) -> np.ndarray:
    """curl P[-(v.grad)v] + cf for vorticity half spectra w (..., n, n//2 + 1), v their
    velocity on the 2/3 band with the mean and cf ``Forcing.curl`` or None, into ``out``
    with the arrays of ``ws``, in the operation order of q = -w / |k|^2, v = i k' q,
    ``_products`` and |k|^2 (h * b_hat - g * a_hat) (+ cf, at k = 0 the forcing mean)."""
    g, h, rot_x, rot_y, neg_inv_k2 = _basdevant_tables(spec.grid.n)
    m, c = g.shape[-1], ws.band
    q = np.multiply(neg_inv_k2, w[..., :m], out=c[..., 1, :, :])
    np.multiply(rot_x, q, out=c[..., 0, :, :])
    np.multiply(rot_y, q, out=q)
    c[..., 0, 0, 0], c[..., 1, 0, 0] = w[..., 0, 0].real, w[..., 0, 0].imag
    a, b = _products(ws)
    z = np.subtract(np.multiply(h, b, out=b), np.multiply(g, a, out=a), out=b)
    np.multiply(spectral_tables(spec.grid.n).k2[:, :m], z, out=out[..., :m])
    out[..., m:] = 0
    if cf is not None:
        out += cf
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


def advance(w: np.ndarray | SpectralField, spec: SystemSpec, t: float,
            _ws: _Workspace | None = None) -> np.ndarray | SpectralField:
    """One integrating-factor RK4 step of vorticity half spectra w (``_curl``), a new
    array; a velocity SpectralField, which must be divergence-free (FieldError), is
    stepped through its curl and returned as one.  Diffusion exact, convection explicit.

    The stages run in the arrays of ``_ws`` (a new workspace without it), in
    the operation order of a = N(w), b = N(e_half (w + (dt/2) a)),
    c = N(e_half w + (dt/2) b), d = N(e_full w + (dt e_half) c) and
    e_full w + (dt/6) (e_full a + (2 e_half) (b + c) + d), N = ``_curl_rhs``, with
    e_full w formed once.  The result is checked finite and its column ky = 0,
    k = 0 aside, averaged onto Hermitian symmetry."""
    n = spec.grid.n
    as_field = isinstance(w, SpectralField)
    if as_field:
        w = _curl(normalized(w.coeffs, n, solenoidal=True))
    ws = _ws or _Workspace((), n)
    e_half, e_full, dt_e_half, two_e_half = _integrating_factors(n, spec.nu, spec.dt)
    f = spec.forcing.curl(n)
    a, b, c, d, x, y = ws.stages
    _curl_rhs(w, spec, f, ws, a)
    np.multiply(e_half, np.add(w, np.multiply(0.5 * spec.dt, a, out=x), out=x), out=x)
    _curl_rhs(x, spec, f, ws, b)
    np.add(np.multiply(e_half, w, out=x), np.multiply(0.5 * spec.dt, b, out=y), out=x)
    _curl_rhs(x, spec, f, ws, c)
    e_w = np.multiply(e_full, w, out=y)
    np.add(e_w, np.multiply(dt_e_half, c, out=x), out=x)
    _curl_rhs(x, spec, f, ws, d)
    np.multiply(two_e_half, np.add(b, c, out=b), out=b)
    np.add(np.add(np.multiply(e_full, a, out=x), b, out=x), d, out=x)
    new = np.add(e_w, np.multiply(spec.dt / 6.0, x, out=x))
    if not np.all(np.isfinite(new)):
        raise BlowUpError(f"non-finite coefficients after step at t={t:g}")
    _hermitian_column(new)
    if as_field:
        return SpectralField(spec.grid, _velocity(new), solenoidal=True)
    return new


# -- trajectories -----------------------------------------------------------

@dataclass(frozen=True)
class Trajectory:
    """Time-sampled states of one Galerkin run as their vorticity, (T, n, n//2 + 1) in
    ``_curl``'s layout with the mean at k = 0: vorticity[k] is the state at times[k].
    Its velocity, solenoidal by construction, is ``_velocity`` of a sample."""

    spec: SystemSpec
    times: np.ndarray
    vorticity: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64).view()
        if not (t.ndim == 1 and t.size and t[0] == 0.0 and np.all(np.diff(t) > 0)
                and np.isfinite(t[-1])):  # NaN: not > 0
            raise SolverError("times: must be finite, 1-D, start at 0 and increase strictly")
        shape = (t.size, self.grid.n, self.grid.n // 2 + 1)
        if np.shape(self.vorticity) != shape:
            raise SolverError(f"vorticity shape {np.shape(self.vorticity)}, need {shape}")
        w = np.asarray(self.vorticity, dtype=np.complex128).view()
        t.flags.writeable = w.flags.writeable = False  # views: the caller's arrays stay writable
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "vorticity", w)

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    def energies(self) -> np.ndarray:
        """1/2 ||v||^2 of every sample, the energy the stepper bounds."""
        return 0.5 * _velocity_pairing(self.vorticity, self.vorticity)

    def save(self, out_dir) -> None:
        """Write manifest.json (spec, times, provenance) and states.npy, the vorticity
        packed to complex128 (T, 1, n - 1, n/2): the Nyquist row and column are zero and
        left out, so that load gives back the same vorticity bit for bit."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        manifest = {
            "spec": self.spec.to_dict(),
            "times": self.times.tolist(),
            "provenance": self.provenance,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
        h = self.grid.n // 2
        save_samples(out / "states.npy", np.delete(self.vorticity[:, None, :, :h], h, axis=-2))

    @classmethod
    def load(cls, in_dir) -> "Trajectory":
        src = Path(in_dir)
        try:
            manifest = json.loads((src / "manifest.json").read_text())
            spec, times = SystemSpec.from_dict(manifest["spec"]), np.array(manifest["times"], float)
            if not times.size:
                raise SolverError("times: empty, need the sample times from 0 to t_end")
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
        path = src / "states.npy"
        packed = load_samples(path)
        n, h = spec.grid.n, spec.grid.n // 2
        if packed.dtype != np.complex128 or packed.shape != (times.size, 1, n - 1, h):
            raise FieldError(f"{path}: {packed.dtype} of shape {list(packed.shape)}; the "
                             f"manifest needs complex128 of shape {[times.size, 1, n - 1, h]}: "
                             f"re-run simulate")
        w = np.pad(np.insert(packed[:, 0], h, 0, axis=1), ((0, 0), (0, 0), (0, 1)))  # Nyquist: 0
        try:  # not ``normalized``, whose projection would drop the mean's imaginary part
            return cls(spec=spec, times=times, vorticity=_hermitian_column(w),
                       provenance=manifest.get("provenance", ""))
        except SolverError as exc:  # the vorticity's shape is checked: the times are at fault
            raise SolverError(f"{exc} (in {src / 'manifest.json'})") from None


def _shares_samples(a: Trajectory, b: Trajectory) -> bool:
    """Same sample times and forcing, as members certified or mixed together need."""
    return (a.times.shape == b.times.shape and a.spec.forcing == b.spec.forcing
            and bool(np.allclose(a.times, b.times, rtol=0.0, atol=1e-12)))


def solve(spec: SystemSpec, v0: SpectralField, sample_stride: int = 1,
          provenance: str = "") -> Trajectory:
    """Integrate from P_n v0 to t_end, sampling every `sample_stride` steps: one
    ``advance`` per step on the vorticity of v0 on the n-grid, whose curl leaves
    out what P_n removes; its energy is bounded after every step, and the samples
    are kept as that vorticity."""
    if sample_stride < 1:
        raise SolverError("sample_stride must be >= 1")
    n = spec.grid.n
    w = _curl(resample(v0.coeffs, n))
    bound = 1e8 * max(0.5 * _velocity_pairing(w, w), 1.0)
    times = [0.0]
    # t = 0, then every sample_stride steps and the last step
    states = np.empty((1 + (spec.n_steps + sample_stride - 1) // sample_stride, *w.shape),
                      dtype=np.complex128)
    states[0] = w
    ws = _Workspace((), n)
    for step in range(spec.n_steps):
        t = step * spec.dt
        w = advance(w, spec, t, _ws=ws)
        if 0.5 * _velocity_pairing(w, w) > bound:
            raise BlowUpError(f"energy blow-up at t={t + spec.dt:g}")
        if (step + 1) % sample_stride == 0 or step == spec.n_steps - 1:
            states[len(times)] = w
            times.append((step + 1) * spec.dt)
    return Trajectory(spec=spec, times=np.array(times), vorticity=states,
                      provenance=provenance or f"ifrk4 n={spec.grid.n} dt={spec.dt}")


# -- exact Taylor-Green oracle ----------------------------------------------

@functools.lru_cache(maxsize=32)
def _unit_taylor_green(n: int) -> np.ndarray:
    """Coefficients of (sin x cos y, -cos x sin y) on the n x n grid, built once per n."""
    return from_function(Grid(n), lambda X, Y: np.sin(X) * np.cos(Y),
                         lambda X, Y: -np.cos(X) * np.sin(Y), solenoidal=True).coeffs


@functools.lru_cache(maxsize=32)
def _taylor_green_shape(n: int) -> np.ndarray:
    """The read-only curl of ``_unit_taylor_green``(n), every Taylor-Green test's U."""
    U = _curl(_unit_taylor_green(n))
    U.flags.writeable = False
    return U


def taylor_green(t: float, nu: float, grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """v = A e^{-2 nu t} (sin x cos y, -cos x sin y); exact NSE solution for f=0."""
    return SpectralField(grid, _unit_taylor_green(grid.n) * (amplitude * np.exp(-2.0 * nu * t)),
                         solenoidal=True)


# -- test trajectories ------------------------------------------------------

class TestTrajectory:
    """C^1-in-time trajectory used as a test function for certification.

    ``values`` and ``derivs`` map an array of times to the stacked vorticity half
    spectra (len(times), n, n//2 + 1) of the test and of its time derivative, in
    ``_curl``'s layout, so the test is solenoidal by construction.  A ``separable``
    test v = a(t) U also has its fixed ``shape`` U (n, n//2 + 1), a vorticity too, and
    ``amplitude``, times -> (a, a'): its values are a U, its derivatives a' U, and
    the certifier runs its kernels once per distinct U (``certificate._Projections``).
    The tests ``scenarios.build_tests`` names are: ``taylor_green`` (the closed-form
    decaying vortex, rescaled) and ``zero`` (its amplitude 0); on one grid they all
    hold the one read-only U of ``_taylor_green_shape``.
    """

    __test__ = False  # not a pytest test class

    def __init__(self, values, derivs, grid: Grid, label: str, shape=None, amplitude=None):
        self.values, self.derivs, self.grid, self.label = values, derivs, grid, label
        self.shape, self.amplitude = shape, amplitude

    @classmethod
    def separable(cls, shape: np.ndarray, amplitude, grid: Grid, label: str) -> "TestTrajectory":
        if np.shape(shape) != (need := (grid.n, grid.n // 2 + 1)):
            raise SolverError(f"shape: {np.shape(shape)} on grid n={grid.n}, need {need}")
        return cls(lambda times: amplitude(times)[0][:, None, None] * shape,
                   lambda times: amplitude(times)[1][:, None, None] * shape,
                   grid, label, shape, amplitude)

    @classmethod
    def taylor_green(cls, nu: float, grid: Grid, amplitude: float = 1.0,
                     label: str = "") -> "TestTrajectory":
        def a(times):
            a = amplitude * np.exp(-2.0 * nu * np.asarray(times))
            return a, -2.0 * nu * a

        vt = cls.separable(_taylor_green_shape(grid.n), a, grid,
                           label or f"taylor_green(nu={nu:g}, a={amplitude:g})")
        vt.derivs = lambda times: -2.0 * nu * vt.values(times)  # a' U, as -2 nu v bit for bit
        return vt

    @classmethod
    def zero(cls, grid: Grid, label: str = "zero") -> "TestTrajectory":
        return cls.taylor_green(0.0, grid, amplitude=0.0, label=label)
