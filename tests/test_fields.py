"""Spectral field calculus: projections, norms, padding, persistence."""

import re
import tracemalloc

import numpy as np
import pytest
from conftest import dist, divergence_linf
from support import NPY_DAMAGE, gradients, h1_squared

from maxdiss.fields import (
    FieldError,
    Grid,
    SpectralField,
    _embed,
    from_function,
    from_physical,
    load_field,
    load_samples,
    pairing,
    project,
    random_field,
    resample,
    samples,
    save_field,
    save_samples,
    spectral_tables,
)
from maxdiss.solver import taylor_green


def test_grid_validation():
    with pytest.raises(FieldError):
        Grid(3)
    with pytest.raises(FieldError):
        Grid(2)
    assert Grid(4).h == pytest.approx(2 * np.pi / 4)


# -- wavenumber tables and half spectrum ------------------------------------

def test_spectral_tables_cached_and_read_only():
    assert spectral_tables(16) is spectral_tables(16)
    tab = spectral_tables(16)
    for name in ("kx", "ky", "k2", "inv_k2", "nyquist", "dealias"):
        with pytest.raises(ValueError):
            getattr(tab, name)[0, 0] = 0
    kx, _ = Grid(16).wavenumbers()
    with pytest.raises(ValueError):
        kx[1, 1] = 0.0


def test_spectral_tables_values():
    tab = spectral_tables(12)
    assert tab.k2.shape == (12, 7)
    assert np.array_equal(tab.ky[0], np.arange(7))
    assert tab.inv_k2[0, 0] == 0.0 and tab.inv_k2[1, 2] == pytest.approx(1 / 5)
    # strict 2/3 cut at n = 12: |k| <= 3, never the aliasing modes |k| = 4
    assert np.abs(Grid(12).wavenumbers()[0][tab.dealias]).max() == 3
    assert not tab.nyquist[6].any() and not tab.nyquist[:, 6].any()


def test_half_spectrum_roundtrip(rng):
    grid = Grid(16)
    u = random_field(grid, rng, kmax=7)
    assert u.coeffs.shape == (2, 16, 9)
    assert np.abs(u.coeffs - np.fft.rfft2(u.physical()) / 256).max() <= 1e-15
    back = from_physical(grid, u.physical(), solenoidal=True)
    assert np.abs(back.coeffs - u.coeffs).max() <= 1e-15


# -- Leray projection --------------------------------------------------------

def test_leray_annihilates_gradients():
    grid = Grid(32)
    u = from_function(grid,
                      lambda x, y: np.cos(x) * np.sin(y),
                      lambda x, y: np.sin(x) * np.cos(y))  # grad(sin x sin y)
    assert dist(project(u.coeffs, spectral_tables(32))) <= 1e-13


def test_leray_fixes_solenoidal_taylor_green():
    v = taylor_green(0.0, 0.1, Grid(32)).coeffs
    assert dist(project(v, spectral_tables(32)), v) <= 1e-14 * dist(v)


def test_leray_single_mode_formula():
    # u = (sin x, 0): excited wavevectors k = (+-1, 0); the projector
    # I - k k^T / |k|^2 kills the x-component entirely at those modes
    grid = Grid(16)
    u = from_function(grid, lambda x, y: np.sin(x), lambda x, y: 0.0 * x)
    assert dist(project(u.coeffs, spectral_tables(16))) <= 1e-13


def test_leray_idempotent_and_orthogonal(rng):
    tab = spectral_tables(32)
    u = random_field(Grid(32), rng, kmax=10, components=2, solenoidal=False).coeffs
    pu = project(u, tab)
    assert dist(project(pu, tab), pu) <= 1e-13 * dist(u)
    assert abs(pairing(pu, u - pu)) <= 1e-12 * dist(u) ** 2


# -- differentiation ---------------------------------------------------------

def test_gradient_of_sine():
    grid = Grid(32)
    u = from_function(grid, lambda x, y: np.sin(x))
    dx, dy = samples(gradients(u.coeffs), grid.n)[0]
    expect = from_function(grid, lambda x, y: np.cos(x))
    assert np.abs(dx - expect.physical()[0]).max() <= 1e-13
    assert np.abs(dy).max() <= 1e-13


def test_gradient_of_constant_is_zero():
    grid = Grid(16)
    u = from_function(grid, lambda x, y: 0 * x + 3.0)
    assert np.abs(gradients(u.coeffs)).max() <= 1e-14


def test_taylor_green_gradient_traceless():
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid)
    g = samples(gradients(v.coeffs), grid.n)
    trace = g[0, 0] + g[1, 1]
    assert np.abs(trace).max() <= 1e-13


def test_differentiation_commutes_with_padding(rng):
    grid = Grid(16)
    u = random_field(grid, rng, kmax=5, components=1, solenoidal=False)
    padded_grad = resample(gradients(u.coeffs)[0], 32)
    grad_padded = gradients(resample(u.coeffs, 32))[0]
    assert np.abs(grad_padded - padded_grad).max() <= 1e-14


# -- norms -------------------------------------------------------------------

def test_l2_of_sine():
    # ||sin x||_{L2([0,2pi)^2)} = sqrt(2 pi^2)
    grid = Grid(32)
    u = from_function(grid, lambda x, y: np.sin(x))
    assert dist(u.coeffs) == pytest.approx(np.sqrt(2 * np.pi ** 2), abs=1e-12)


@pytest.mark.parametrize("components", [1, 2])
@pytest.mark.parametrize("n", [8, 12, 16])
def test_half_spectrum_sums_match_grid_quadrature(n, components):
    # discrete Parseval is exact on the grid; the raw pair has a non-Hermitian
    # ky = 0 column and nonzero Nyquist modes for the constructor to project
    grid = Grid(n)
    rng = np.random.default_rng(10 * n + components)
    shape = (components, n, n // 2 + 1)
    raw = [SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
           for _ in range(2)]
    drawn = [random_field(grid, rng, kmax=n // 2, components=components, solenoidal=False)
             for _ in range(2)]
    h2 = (2 * np.pi / n) ** 2
    for u, w in (raw, drawn):
        quad = h2 * np.sum(u.physical() * w.physical())
        assert abs(pairing(u.coeffs, w.coeffs) - quad) <= 1e-13 * dist(u.coeffs) * dist(w.coeffs)
        grad_quad = h2 * np.sum(samples(gradients(u.coeffs), n) ** 2)
        assert h1_squared(u.coeffs) == pytest.approx(grad_quad, rel=1e-13)


def test_parseval_matches_physical_quadrature(rng):
    grid = Grid(32)
    u = random_field(grid, rng, kmax=10, components=2, solenoidal=True)
    phys = u.physical()
    h = 2 * np.pi / grid.n
    quad = np.sqrt(np.sum(phys ** 2) * h * h)
    assert abs(quad - dist(u.coeffs)) <= 1e-12 * dist(u.coeffs)


def test_poincare_consistency(rng):
    grid = Grid(32)
    u = random_field(grid, rng, kmax=8, components=2, solenoidal=True)
    assert dist(u.coeffs) <= np.sqrt(h1_squared(u.coeffs)) * (1 + 1e-12)


# -- inner product -----------------------------------------------------------

def test_inner_orthogonal_modes():
    grid = Grid(32)
    s = from_function(grid, lambda x, y: np.sin(x))
    c = from_function(grid, lambda x, y: np.cos(x))
    assert abs(pairing(s.coeffs, c.coeffs)) <= 1e-13


def test_solenoidal_orthogonal_to_gradients():
    grid = Grid(32)
    v = taylor_green(0.0, 0.1, grid)
    g = from_function(grid,
                      lambda x, y: np.cos(x) * np.sin(2 * y),
                      lambda x, y: 2 * np.sin(x) * np.cos(2 * y))
    assert abs(pairing(v.coeffs, g.coeffs)) <= 1e-12


# -- padding -----------------------------------------------------------------

def test_pad_truncate_roundtrip(rng):
    grid = Grid(16)
    u = random_field(grid, rng, kmax=5, components=2, solenoidal=True).coeffs
    back = resample(resample(u, 32), 16)
    assert np.abs(back - u).max() <= 1e-15
    assert dist(resample(u, 32)) == pytest.approx(dist(u), rel=1e-14)


def test_truncation_zeroes_the_nyquist_modes(rng):
    c = resample(random_field(Grid(32), rng, kmax=15).coeffs, 16)
    assert not c[:, 8].any() and not c[..., 8].any()


def test_pad_matches_finer_sampling():
    v16 = taylor_green(0.0, 0.1, Grid(16)).coeffs
    v32 = taylor_green(0.0, 0.1, Grid(32)).coeffs
    assert dist(resample(v16, 32), v32) <= 1e-13


def _samples_expression_form(c, m):
    """``samples`` as the full irfft2 of the zero-padded half spectrum."""
    return np.fft.irfft2(_embed(c, c.shape[-2], m), s=(m, m), norm="forward")


@pytest.mark.parametrize("lead", [(1,), (2,), (2, 2)])
@pytest.mark.parametrize("factor", [1, 2, 3])
@pytest.mark.parametrize("n", [16, 24, 32, 64])
def test_samples_match_expression_form_bit_for_bit(n, factor, lead):
    # unnormalized coefficients: the Nyquist row and column, which _embed
    # splits, are nonzero, and so are the imaginary parts of column ky = 0
    rng = np.random.default_rng(n + factor)
    shape = lead + (n, n // 2 + 1)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = factor * n
    assert np.array_equal(samples(c, m), _samples_expression_form(c, m))


def test_samples_peak_below_expression_form():
    # the pruned column pass allocates the (2, 2, 128, 33) band and the
    # samples: about 0.80 MB, against 1.59 MB for the padded (2, 2, 128, 65)
    # spectrum, its column pass and the samples of the expression form
    g = gradients(random_field(Grid(64), np.random.default_rng(2), kmax=21).coeffs)
    peaks = []
    for form in (samples, _samples_expression_form):
        form(g, 128)  # warm-up: FFT plans
        tracemalloc.start()
        try:
            form(g, 128)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 0.6 * peaks[1]


# -- invariants and persistence ----------------------------------------------

def test_solenoidal_tag_enforced():
    grid = Grid(16)
    u = from_function(grid, lambda x, y: np.sin(x), lambda x, y: 0.0 * x)
    with pytest.raises(FieldError):
        SpectralField(grid, u.coeffs, solenoidal=True)


def test_divergence_linf_of_taylor_green():
    assert divergence_linf(taylor_green(0.0, 0.1, Grid(32))) <= 1e-14


def test_field_file_roundtrip(tmp_path, rng):
    grid = Grid(16)
    u = random_field(grid, rng, kmax=5, components=2, solenoidal=True)
    path = tmp_path / "field.npy"
    save_field(u, path)
    v = load_field(path)
    assert v.grid.n == 16
    assert np.abs(v.coeffs - u.coeffs).max() <= 1e-14
    assert np.array_equal(np.load(path), u.physical())  # numpy's own format


def test_sample_container_three_components(tmp_path, rng):
    data = rng.standard_normal((3, 8, 8))
    path = tmp_path / "tensor.npy"
    save_samples(path, data)
    back = load_samples(path)
    assert back.shape == (3, 8, 8) and back.dtype == np.float64
    assert np.abs(back - data).max() == 0.0


@pytest.mark.parametrize("corruption", sorted(NPY_DAMAGE))
def test_bad_magic_rejected(tmp_path, corruption):
    # a damaged .npy file is refused naming it, by the reader and by the forcing-file
    # reader; the file of a (200000, 200000) header is refused before anything is read
    path = tmp_path / "junk.npy"
    path.write_bytes(NPY_DAMAGE[corruption](np.zeros((2, 8, 8))))
    with pytest.raises(FieldError, match=re.escape(str(path))):
        load_samples(path)
    with pytest.raises(FieldError, match=re.escape(str(path))):
        load_field(path)
