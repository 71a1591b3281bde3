"""Spectral vector/scalar fields on the periodic square torus [0, 2*pi)^2.

Fields are stored as Fourier amplitudes u(x) = sum_k uhat(k) exp(i k.x)
on the rfft2 half spectrum: shape (components, n, n//2 + 1), rows kx in
numpy fft ordering, columns ky = 0 ... n/2.  The modes ky < 0 are the
conjugates of their mirrors, so physical samples are real by construction;
only the column ky = 0, whose mirror modes are stored too, is averaged
onto Hermitian symmetry.  The Nyquist row and column (|k| = n/2) are
always zeroed to keep the retained band symmetric under k -> -k.  Parseval
sums count the columns 0 < ky < n/2 twice, for themselves and their mirrors.

Wavenumber tables (k, |k|^2, 1/|k|^2, the energy weight, Nyquist and 2/3-rule
dealias masks) are built once per grid size by ``spectral_tables`` and shared
read-only by every caller.

A transform between a half spectrum and a grid runs its column pass only
on the columns that can be nonzero (inverse) or that are kept (forward).
numpy's irfft2 and rfft2 are a column pass of 1D ``ifft``/``fft`` and a
row pass of ``irfft``/``rfft``, so the pruned transforms give the same
bits.  The band follows from the shapes: the n//2 + 1 columns of an
n-spectrum sampled on a finer grid (``samples``), the columns ky <= cut of
the 2/3 band, both ways, in the nonlinear term (``solver._products``), the
n//2 + 1 columns that a restriction to n keeps
(``mv_euler._lowpass_restrict``).
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
#: payload types of the sample container, by its header key ``dtype``
_SAMPLE_DTYPES = {"f64": "<f8", "c128": "<c16"}


class FieldError(ValueError):
    """Raised on invalid field construction or an unreadable sample container."""


@dataclass(frozen=True)
class Grid:
    """Uniform n x n collocation grid on the 2*pi-periodic square torus."""

    n: int

    def __post_init__(self):
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
        """Integer wavevector components (KX, KY) of the half spectrum (read-only)."""
        tab = spectral_tables(self.n)
        shape = (self.n, self.n // 2 + 1)
        return np.broadcast_to(tab.kx, shape), np.broadcast_to(tab.ky, shape)


@dataclass(frozen=True)
class Tables:
    """Read-only wavenumber tables of the half spectrum of an n x n grid.

    ``kx`` has shape (n, 1) and ``ky`` (1, n//2 + 1); both broadcast
    against the (n, n//2 + 1) arrays.
    """

    kx: np.ndarray
    ky: np.ndarray
    k2: np.ndarray       # |k|^2
    inv_k2: np.ndarray   # 1/|k|^2, 0 at k = 0
    energy: np.ndarray   # 1/|k|^2, 1 at k = 0: a vorticity's velocity weight (solver._curl)
    nyquist: np.ndarray  # False on the |kx| = n/2 or |ky| = n/2 modes
    dealias: np.ndarray  # 2/3 rule: |kx|, |ky| <= (n - 1) // 3


@functools.lru_cache(maxsize=32)
def spectral_tables(n: int) -> Tables:
    """The half-spectrum tables of an n x n grid, built once per n."""
    kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    ky = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    k2 = kx * kx + ky * ky
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 != 0)
    # strict cut: at n divisible by 3 the modes |k| = n/3 would alias
    # onto the retained band in a quadratic product
    cut = (n - 1) // 3
    arrays = dict(kx=kx, ky=ky, k2=k2, inv_k2=inv_k2, energy=np.where(k2 == 0, 1.0, inv_k2),
                  nyquist=(np.abs(kx) != n // 2) & (np.abs(ky) != n // 2),
                  dealias=(np.abs(kx) <= cut) & (np.abs(ky) <= cut))
    for a in arrays.values():
        a.flags.writeable = False
    return Tables(**arrays)


def _mode_sum(a: np.ndarray):
    """Full-spectrum sum over the last three axes (components, kx, ky) of a mode
    density even in k, given on the half spectrum; one value per leading index.

    Columns 0 < ky < n/2 stand for themselves and their mirror modes.
    """
    return (2.0 * a.sum(axis=(-3, -2, -1)) - a[..., 0].sum(axis=(-2, -1))
            - a[..., -1].sum(axis=(-2, -1)))


def _sym_eigenvalues(m: np.ndarray):
    """Eigenvalues (larger, smaller) of symmetric 2x2 matrices sampled on a grid.

    ``m`` holds the components (11, 12, 22) on its third-last axis,
    shape (..., 3, n, n).
    """
    a = m[..., 0, :, :]
    b = m[..., 1, :, :]
    c = m[..., 2, :, :]
    mean = 0.5 * (a + c)
    rad = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return mean + rad, mean - rad


def normalized(c, n: int, solenoidal: bool) -> np.ndarray:
    """Read-only copy of coefficients (..., components, n, n//2 + 1) with Nyquist
    modes zeroed and column ky = 0 Hermitian; ``solenoidal`` vector coefficients
    must be divergence-free, checked for each leading index separately."""
    c = np.asarray(c, dtype=np.complex128)
    if c.shape[-2:] != (n, n // 2 + 1):
        raise FieldError(f"bad coefficient shape {c.shape} for n={n}")
    tab = spectral_tables(n)
    c = c * tab.nyquist
    # column ky = 0 holds both uhat(kx, 0) and its mirror uhat(-kx, 0)
    col = c[..., 0]
    c[..., 0] = 0.5 * (col + np.conj(np.roll(col[..., ::-1], 1, axis=-1)))
    c.flags.writeable = False
    if solenoidal and c.shape[-3] == 2:
        div = np.abs(tab.kx * c[..., 0, :, :] + tab.ky * c[..., 1, :, :]).max(axis=(-2, -1))
        # the absolute floor keeps cancellation roundoff in near-zero differences
        # of solenoidal fields passing; below it, the pass over |c| is skipped
        over = div > 1e-13
        if over.any() and np.any(
                over & (div > SOLENOIDAL_RTOL * np.abs(c).max(axis=(-3, -2, -1)) * n)):
            raise FieldError(f"field tagged solenoidal but max |k.uhat| = {div.max():g}")
    return c


@dataclass(frozen=True)
class SpectralField:
    """Immutable scalar (1 component) or vector (2 components) spectral field."""

    grid: Grid
    coeffs: np.ndarray  # complex128, shape (components, n, n//2 + 1)
    solenoidal: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 3 or c.shape[0] not in (1, 2):
            raise FieldError(f"expected (1 or 2 components, n, n//2 + 1), got shape {c.shape}")
        object.__setattr__(self, "coeffs", normalized(c, self.grid.n, self.solenoidal))

    def physical(self) -> np.ndarray:
        """Real collocation samples, shape (components, n, n)."""
        n = self.grid.n
        return np.fft.irfft2(self.coeffs, s=(n, n), norm="forward")


# -- constructors -----------------------------------------------------------

def from_physical(grid: Grid, samples: np.ndarray, solenoidal: bool = False) -> SpectralField:
    """Build a field from real collocation samples of shape (c, n, n)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 2:
        samples = samples[None]
    return SpectralField(grid, np.fft.rfft2(samples, norm="forward"), solenoidal=solenoidal)


def from_function(grid: Grid, *funcs, solenoidal: bool = False) -> SpectralField:
    """Sample callables f(X, Y) on the collocation grid, one per component."""
    X, Y = grid.points()
    samples = np.stack([np.broadcast_to(np.asarray(f(X, Y), dtype=np.float64), X.shape)
                        for f in funcs])
    return from_physical(grid, samples, solenoidal=solenoidal)


def random_field(grid: Grid, rng: np.random.Generator, kmax: int,
                 components: int = 2, solenoidal: bool = True,
                 amplitude: float = 1.0) -> SpectralField:
    """Random mean-free band-limited field with |k|_inf <= kmax.

    Complex normal amplitudes are drawn on the full (n, n) spectrum; the
    field is their Hermitian projection, the real part of the synthesis.
    """
    n = grid.n
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    band = (k[:, None] <= kmax) & (k[None, :] <= kmax)
    band[0, 0] = False
    coeffs = (rng.standard_normal((components, n, n))
              + 1j * rng.standard_normal((components, n, n))) * band
    f = from_physical(grid, np.fft.ifft2(coeffs * amplitude, norm="forward").real)
    if solenoidal and components == 2:
        return SpectralField(grid, project(f.coeffs, spectral_tables(n)), solenoidal=True)
    return f


# -- Leray projection -----------------------------------------------------

def project(c: np.ndarray, tab: Tables) -> np.ndarray:
    """Leray projection of vector coefficients (..., 2, n, n//2 + 1) in the layout of ``tab``."""
    cx, cy = c[..., 0, :, :], c[..., 1, :, :]
    kdotu = (tab.kx * cx + tab.ky * cy) * tab.inv_k2
    return np.stack([cx - tab.kx * kdotu, cy - tab.ky * kdotu], axis=-3)


# -- norms and pairings -----------------------------------------------------

def pairing(a: np.ndarray, b: np.ndarray):
    """L2 inner products by Parseval of coefficients (..., components, n, n//2 + 1)."""
    return TWO_PI ** 2 * _mode_sum((a * np.conj(b)).real)


# -- resampling and fine-grid samples ------------------------------------------------------

def _embed(coeffs: np.ndarray, n_from: int, n_to: int, band: bool = False,
           out: np.ndarray | None = None) -> np.ndarray:
    """Copy the half-spectrum modes shared by both sizes into an n_to-sized one,
    with ``band`` only into its h + 1 columns that can be nonzero; into ``out``,
    zeroed first, where given.

    Modes |kx|, |ky| < h = min(n_from, n_to)/2 are copied; those at |k| = h
    are split evenly between +h and -h, as in trigonometric interpolation.
    The stored column ky = h stands for +-h: irfft2 takes its Hermitian part.
    """
    h = min(n_from, n_to) // 2
    if out is None:
        out = np.zeros(coeffs.shape[:-2] + (n_to, h + 1 if band else n_to // 2 + 1),
                       dtype=np.complex128)
    else:
        out.fill(0.0)
    out[..., :h, :h + 1] = coeffs[..., :h, :h + 1]
    out[..., n_to - h + 1:, :h + 1] = coeffs[..., n_from - h + 1:, :h + 1]
    if n_to <= n_from:  # fold the source rows +h and -h onto the Nyquist row
        out[..., h, :h + 1] = 0.5 * (coeffs[..., h, :h + 1] + coeffs[..., n_from - h, :h + 1])
    else:  # split the source's Nyquist row and column
        out[..., h, :h + 1] = out[..., n_to - h, :h + 1] = 0.5 * coeffs[..., h, :h + 1]
        out[..., h] *= 0.5
    return out


def resample(c: np.ndarray, m: int) -> np.ndarray:
    """Coefficients (..., n, n//2 + 1) on an m x m grid: zero-padded for m > n,
    truncated for m < n; the Nyquist modes of the result are zero."""
    return normalized(_embed(c, c.shape[-2], m), m, False)


def samples(c: np.ndarray, m: int) -> np.ndarray:
    """Physical samples on an m x m grid, m >= n, of coefficients (..., n, n//2 + 1):
    the irfft2 of ``_embed(c, n, m)``, its column pass on the n//2 + 1 columns
    that can be nonzero."""
    band = _embed(c, c.shape[-2], m, band=True)
    return np.fft.irfft(np.fft.ifft(band, axis=-2, norm="forward", out=band), m,
                        axis=-1, norm="forward")


# -- persistence ------------------------------------------------------------

def save_samples(path, samples: np.ndarray, extra: dict | None = None) -> None:
    """Binary container: 16-byte magic, padded JSON header, samples.

    ``samples`` has shape (..., c, a, b): real physical samples, one field
    (c, n, n) or a time series (T, c, n, n), of velocities (c = 2) or of
    symmetric defect densities (c = 3), or complex half spectra.  The header
    key ``shape`` holds the full shape and ``dtype`` the payload type, ``f64``
    or ``c128``; the payload is little-endian in C order.
    """
    dtype = "c128" if np.iscomplexobj(samples) else "f64"
    samples = np.ascontiguousarray(samples, dtype=_SAMPLE_DTYPES[dtype])
    if samples.ndim < 3:
        raise FieldError(f"samples must be (..., c, a, b), got {samples.shape}")
    meta = {"shape": list(samples.shape), "endianness": "little", "dtype": dtype}
    if extra:
        meta.update(extra)
    header = json.dumps(meta).encode()
    pad = (-(len(HEADER_MAGIC) + 4 + len(header))) % 64
    header += b" " * pad
    with open(path, "wb") as fh:
        fh.write(HEADER_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(samples)


def load_samples(path):
    """Read a sample container; returns (samples of the header's shape, header dict).

    A bad magic, an unreadable header or a payload whose size differs from
    the header's shape raises FieldError naming ``path``.
    """
    with open(path, "rb") as fh:
        if fh.read(16) != HEADER_MAGIC:
            raise FieldError(f"{path}: bad magic")
        try:
            (hlen,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(hlen))
            shape = tuple(int(s) for s in header["shape"])
            dtype = _SAMPLE_DTYPES[header["dtype"]]
        except (struct.error, ValueError, TypeError, KeyError) as exc:
            raise FieldError(f"{path}: unreadable header ({exc!r})") from None
        data = np.fromfile(fh, dtype=dtype)
    if len(shape) < 3 or min(shape) < 0 or data.size != np.prod(shape):
        raise FieldError(f"{path}: {data.size} samples, header shape {list(shape)}")
    return data.reshape(shape), header


def save_field(u: SpectralField, path) -> None:
    """Save one velocity/scalar field, (c, n, n), in the sample container."""
    save_samples(path, u.physical(), extra={"solenoidal": u.solenoidal})


def load_field(path) -> SpectralField:
    """Load one field container of finite real samples (c, n, n); spectra are
    recomputed from them.  Any fault raises FieldError naming ``path``."""
    samples, header = load_samples(path)
    if header["dtype"] != "f64" or samples.ndim != 3 or samples.shape[1] != samples.shape[2]:
        raise FieldError(f"{path}: one field is real (c, n, n) samples, "
                         f"got {header['dtype']} of shape {list(samples.shape)}")
    if not np.isfinite(samples).all():
        raise FieldError(f"{path}: non-finite samples")
    try:
        return from_physical(Grid(samples.shape[-1]), samples,
                             solenoidal=header.get("solenoidal", False))
    except FieldError as exc:
        raise FieldError(f"{path}: {exc}") from None
