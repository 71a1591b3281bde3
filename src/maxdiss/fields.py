"""Spectral vector/scalar fields on the periodic square torus [0, 2*pi)^2.

Fields are stored as Fourier amplitudes u(x) = sum_k uhat(k) exp(i k.x)
with integer wavevectors in numpy fft ordering.  Hermitian symmetry is
enforced so physical samples are real; the Nyquist row/column (k = -n/2)
is always zeroed to keep the retained band symmetric under k -> -k.

Array kernels (the time stepper) work on the rfft2 half spectrum instead:
an array of shape (components, n, n//2 + 1) holding the modes ky >= 0,
where real-valuedness holds by construction.  ``half_spectrum`` and
``from_half_spectrum`` convert at the SpectralField edge.

Wavenumber tables (k, |k|^2, 1/|k|^2, Nyquist and 2/3-rule dealias masks)
are built once per grid size by ``spectral_tables`` and shared read-only
by every caller, in both the full and the half layout.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: relative divergence threshold for tagging a field solenoidal
SOLENOIDAL_RTOL = 1e-12

HEADER_MAGIC = b"MAXDISS-FLD\0".ljust(16, b"\0")


class FieldError(ValueError):
    """Raised on invalid field construction or incompatible operands."""


@dataclass(frozen=True)
class Grid:
    """Uniform n x n collocation grid on the 2*pi-periodic square torus."""

    n: int
    d: int = 2

    def __post_init__(self):
        if self.d != 2:
            raise FieldError(f"only d=2 is supported, got d={self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise FieldError(f"grid size must be even and >= 4, got n={self.n}")

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    def points(self):
        """Collocation points as (X, Y) arrays of shape (n, n)."""
        x = np.arange(self.n) * self.h
        return np.meshgrid(x, x, indexing="ij")

    def wavenumbers(self):
        """Integer wavevector components (KX, KY) in fft ordering (read-only)."""
        tab = spectral_tables(self.n)
        shape = (self.n, self.n)
        return np.broadcast_to(tab.kx, shape), np.broadcast_to(tab.ky, shape)


@dataclass(frozen=True)
class Tables:
    """Read-only wavenumber tables of one spectrum layout of an n x n grid.

    ``kx`` has shape (n, 1) and ``ky`` (1, m); both broadcast against the
    (n, m) arrays, m = n (fft2 layout) or n//2 + 1 (rfft2 layout).
    """

    kx: np.ndarray
    ky: np.ndarray
    k2: np.ndarray       # |k|^2
    inv_k2: np.ndarray   # 1/|k|^2, 0 at k = 0
    nyquist: np.ndarray  # False on the |kx| = n/2 or |ky| = n/2 modes
    dealias: np.ndarray  # 2/3 rule: |kx|, |ky| <= (n - 1) // 3


@functools.lru_cache(maxsize=32)
def spectral_tables(n: int, half: bool = False) -> Tables:
    """Tables of the fft2 layout, or with ``half`` of the rfft2 half spectrum."""
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = (np.fft.rfftfreq if half else np.fft.fftfreq)(n, d=1.0 / n)[None, :]
    k2 = kx * kx + ky * ky
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 != 0)
    # strict cut: at n divisible by 3 the modes |k| = n/3 would alias
    # onto the retained band in a quadratic product
    cut = (n - 1) // 3
    arrays = dict(kx=kx, ky=ky, k2=k2, inv_k2=inv_k2,
                  nyquist=(np.abs(kx) != n // 2) & (np.abs(ky) != n // 2),
                  dealias=(np.abs(kx) <= cut) & (np.abs(ky) <= cut))
    for a in arrays.values():
        a.flags.writeable = False
    return Tables(**arrays)


def _hermitianize(coeffs: np.ndarray) -> np.ndarray:
    # average with the reflected conjugate; exact projection onto real fields
    flipped = coeffs[..., ::-1, ::-1]
    flipped = np.roll(flipped, shift=(1, 1), axis=(-2, -1))
    return 0.5 * (coeffs + np.conj(flipped))


def _check_solenoidal(c: np.ndarray, tab: Tables) -> None:
    """Raise FieldError unless max |k.c| is roundoff next to max |c|."""
    div = np.abs(tab.kx * c[0] + tab.ky * c[1]).max()
    scale = np.abs(c).max()
    # absolute floor keeps cancellation roundoff in near-zero
    # differences of solenoidal fields from tripping the check
    if div > max(SOLENOIDAL_RTOL * scale * tab.kx.shape[0], 1e-13):
        raise FieldError(f"field tagged solenoidal but max |k.uhat| = {div:g}")


@dataclass(frozen=True)
class SpectralField:
    """Immutable scalar (1 component) or vector (2 components) spectral field."""

    grid: Grid
    coeffs: np.ndarray  # complex128, shape (components, n, n)
    solenoidal: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[1:] != (self.grid.n, self.grid.n):
            raise FieldError(f"bad coefficient shape {c.shape} for n={self.grid.n}")
        if c.shape[0] not in (1, 2):
            raise FieldError(f"expected 1 or 2 components, got {c.shape[0]}")
        full = spectral_tables(self.grid.n)
        c = _hermitianize(c * full.nyquist)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)
        if self.solenoidal and self.components == 2:
            _check_solenoidal(c, full)

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    @property
    def is_vector(self) -> bool:
        return self.components == 2

    def physical(self) -> np.ndarray:
        """Real collocation samples, shape (components, n, n)."""
        n = self.grid.n
        return np.fft.ifft2(self.coeffs * n * n, axes=(-2, -1)).real

    def mean(self) -> np.ndarray:
        return self.coeffs[:, 0, 0].real.copy()

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "SpectralField"):
        if self.grid.n != other.grid.n or self.components != other.components:
            raise FieldError(
                f"incompatible fields: n={self.grid.n}/{other.grid.n}, "
                f"components={self.components}/{other.components}"
            )

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs,
                             solenoidal=self.solenoidal and other.solenoidal)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_compatible(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs,
                             solenoidal=self.solenoidal and other.solenoidal)

    def __mul__(self, s: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * s, solenoidal=self.solenoidal)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return self * (-1.0)


# -- constructors -----------------------------------------------------------

def from_physical(grid: Grid, samples: np.ndarray, solenoidal: bool = False) -> SpectralField:
    """Build a field from real collocation samples of shape (c, n, n)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        samples = samples[None]
    n = grid.n
    coeffs = np.fft.fft2(samples, axes=(-2, -1)) / (n * n)
    return SpectralField(grid, coeffs, solenoidal=solenoidal)


def from_function(grid: Grid, *funcs, solenoidal: bool = False) -> SpectralField:
    """Sample callables f(X, Y) on the collocation grid, one per component."""
    X, Y = grid.points()
    samples = np.stack([np.broadcast_to(np.asarray(f(X, Y), dtype=np.float64), X.shape)
                        for f in funcs])
    return from_physical(grid, samples, solenoidal=solenoidal)


def zero_field(grid: Grid, components: int = 2, solenoidal: bool = True) -> SpectralField:
    coeffs = np.zeros((components, grid.n, grid.n), dtype=np.complex128)
    return SpectralField(grid, coeffs, solenoidal=solenoidal and components == 2)


def random_field(grid: Grid, rng: np.random.Generator, kmax: int,
                 components: int = 2, solenoidal: bool = True,
                 amplitude: float = 1.0) -> SpectralField:
    """Random mean-free band-limited field with |k|_inf <= kmax."""
    n = grid.n
    kx, ky = grid.wavenumbers()
    band = (np.abs(kx) <= kmax) & (np.abs(ky) <= kmax) & ((kx != 0) | (ky != 0))
    coeffs = (rng.standard_normal((components, n, n))
              + 1j * rng.standard_normal((components, n, n))) * band
    f = SpectralField(grid, coeffs * amplitude)
    if solenoidal and components == 2:
        f = leray_project(f)
    return f


# -- differential calculus --------------------------------------------------

def divergence(u: SpectralField) -> SpectralField:
    if not u.is_vector:
        raise FieldError("divergence requires a vector field")
    kx, ky = u.grid.wavenumbers()
    c = 1j * (kx * u.coeffs[0] + ky * u.coeffs[1])
    return SpectralField(u.grid, c[None])


def divergence_linf(u: SpectralField) -> float:
    kx, ky = u.grid.wavenumbers()
    return np.abs(kx * u.coeffs[0] + ky * u.coeffs[1]).max()


def gradient_tensor(u: SpectralField) -> np.ndarray:
    """Spectral coefficients of grad u, shape (components, 2, n, n)."""
    kx, ky = u.grid.wavenumbers()
    return np.stack([1j * kx * u.coeffs, 1j * ky * u.coeffs], axis=1)


def laplacian(u: SpectralField) -> SpectralField:
    return SpectralField(u.grid, -spectral_tables(u.grid.n).k2 * u.coeffs,
                         solenoidal=u.solenoidal)


def leray_project(u: SpectralField) -> SpectralField:
    """Leray projection uhat -> (I - k k^T/|k|^2) uhat, identity at k=0."""
    if not u.is_vector:
        raise FieldError("Leray projection requires a vector field")
    return SpectralField(u.grid, project(u.coeffs, spectral_tables(u.grid.n)),
                         solenoidal=True)


def project(c: np.ndarray, tab: Tables) -> np.ndarray:
    """Leray projection of vector coefficients in the layout of ``tab``."""
    kdotu = (tab.kx * c[0] + tab.ky * c[1]) * tab.inv_k2
    return np.stack([c[0] - tab.kx * kdotu, c[1] - tab.ky * kdotu])


# -- norms and pairings -----------------------------------------------------

def inner(u: SpectralField, w: SpectralField) -> float:
    """L2 inner product over the torus, computed by Parseval."""
    u._check_compatible(w)
    val = np.sum(u.coeffs * np.conj(w.coeffs)).real
    return TWO_PI ** 2 * val


def l2_norm(u: SpectralField) -> float:
    return np.sqrt(max(inner(u, u), 0.0))


def h1_seminorm(u: SpectralField) -> float:
    val = np.sum(spectral_tables(u.grid.n).k2 * np.abs(u.coeffs) ** 2)
    return TWO_PI * np.sqrt(val)


def h_minus1_norm(u: SpectralField) -> float:
    """Dual-norm sqrt(sum_{k!=0} |uhat|^2 / |k|^2), L2-consistent scaling.

    Requires every component to be mean-free.
    """
    mean = np.abs(u.coeffs[:, 0, 0]).max()
    scale = np.abs(u.coeffs).max()
    if mean > 1e-13 * max(scale, 1.0):
        raise FieldError(f"H^-1 norm needs mean-free input, mean amplitude {mean:g}")
    val = np.sum(np.abs(u.coeffs) ** 2 * spectral_tables(u.grid.n).inv_k2)
    return TWO_PI * np.sqrt(max(val, 0.0))


def _oversampled_magnitude(u: SpectralField) -> tuple[np.ndarray, float]:
    """Pointwise Euclidean magnitude on a 2x oversampled grid and its cell area."""
    m = 2 * u.grid.n
    phys = samples(u, m)
    mag = np.sqrt(np.sum(phys * phys, axis=0))
    h = TWO_PI / m
    return mag, h * h


def lp_norm(u: SpectralField, p) -> float:
    """L^p norm; p=2 spectrally, p=inf and general p >= 1 by oversampled quadrature."""
    if p == 2:
        return l2_norm(u)
    if p == np.inf or p == "inf":
        mag, _ = _oversampled_magnitude(u)
        return float(mag.max())
    p = float(p)
    if p < 1:
        raise FieldError(f"invalid exponent p={p}")
    mag, w = _oversampled_magnitude(u)
    return float((np.sum(mag ** p) * w) ** (1.0 / p))


# -- half spectrum ----------------------------------------------------------

def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """The ky >= 0 half (..., n, n//2 + 1) of fft2-layout coefficients (a view)."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1]


def from_half_spectrum(grid: Grid, half: np.ndarray, solenoidal: bool = False) -> SpectralField:
    """Field from rfft2-layout coefficients, extended by Hermitian symmetry."""
    n = grid.n
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    # uhat(kx, -ky) = conj(uhat(-kx, ky)) for the columns ky = n/2 - 1 ... 1
    full[..., n // 2 + 1:] = np.conj(half[..., -np.arange(n) % n, n // 2 - 1:0:-1])
    return SpectralField(grid, full, solenoidal=solenoidal)


# -- resampling and fine-grid samples ------------------------------------------------------

def _embed(coeffs: np.ndarray, n_from: int, n_to: int) -> np.ndarray:
    """Copy the fft-ordered modes shared by both sizes into an n_to-sized spectrum."""
    out = np.zeros(coeffs.shape[:-2] + (n_to, n_to), dtype=np.complex128)
    half = min(n_from, n_to) // 2
    idx_from = np.r_[0:half, n_from - half:n_from]
    idx_to = np.r_[0:half, n_to - half:n_to]
    out[..., idx_to[:, None], idx_to[None, :]] = coeffs[..., idx_from[:, None], idx_from[None, :]]
    return out


def resample(u: SpectralField, m: int) -> SpectralField:
    """The spectrum of u on an m x m grid: zero-padded for m > n, truncated for m < n."""
    if m == u.grid.n:
        return u
    return SpectralField(Grid(m), _embed(u.coeffs, u.grid.n, m), solenoidal=u.solenoidal)


def samples(u: SpectralField, m: int) -> np.ndarray:
    """Physical samples of u on an m x m grid, shape (components, m, m)."""
    return resample(u, m).physical()


def grad_samples(u: SpectralField, m: int) -> np.ndarray:
    """Gradient d_j u_i sampled on an m x m grid, shape (components, 2, m, m)."""
    return np.fft.ifft2(gradient_tensor(resample(u, m)) * m * m, axes=(-2, -1)).real


def tensor_samples(v: SpectralField, m: int) -> np.ndarray:
    """v (x) v sampled on an m x m grid, components (11, 12, 22)."""
    p = samples(v, m)
    return np.stack([p[0] * p[0], p[0] * p[1], p[1] * p[1]])


# -- persistence ------------------------------------------------------------

def save_samples(path, samples: np.ndarray, extra: dict | None = None) -> None:
    """Binary container: 16-byte magic, padded JSON header, f64 samples.

    ``samples`` has shape (components, n, n); the same container serves
    velocity fields (2 components) and symmetric defect densities (3).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
        raise FieldError(f"samples must be (c, n, n), got {samples.shape}")
    meta = {"n": samples.shape[1], "components": samples.shape[0],
            "endianness": "little", "dtype": "f64"}
    if extra:
        meta.update(extra)
    header = json.dumps(meta).encode()
    pad = (-(len(HEADER_MAGIC) + 4 + len(header))) % 64
    header += b" " * pad
    with open(path, "wb") as fh:
        fh.write(HEADER_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(samples.astype("<f8").tobytes())


def load_samples(path):
    """Read a sample container; returns (samples, header dict)."""
    with open(path, "rb") as fh:
        magic = fh.read(16)
        if magic != HEADER_MAGIC:
            raise FieldError(f"bad magic in {path}")
        (hlen,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(hlen).decode())
        n = header["n"]
        comps = header["components"]
        data = np.frombuffer(fh.read(comps * n * n * 8), dtype="<f8")
    return data.reshape(comps, n, n).copy(), header


def save_field(u: SpectralField, path) -> None:
    """Save a velocity/scalar field in the binary sample container."""
    save_samples(path, u.physical(), extra={"solenoidal": u.solenoidal})


def load_field(path) -> SpectralField:
    """Load a field container; spectra are recomputed from the stored samples."""
    samples, header = load_samples(path)
    return from_physical(Grid(header["n"]), samples,
                         solenoidal=header.get("solenoidal", False))
