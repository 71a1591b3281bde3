"""Certification of trajectories via the weighted relative energy inequality."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import convection
from support import (analytic_test, certify, forcing_coeffs, from_velocity, gradients, h1_squared,
                     mollified_indicator, perfbench_configs, phi_form_value,
                     recover_weak_residual, spline_test, velocity, velocity_margins,
                     worst_margin)

from maxdiss.fields import (Grid, SpectralField, _embed, pairing, project, random_field,
                            resample, samples, spectral_tables)
from maxdiss.relenergy import WeightSpec, cumulative_weight_integral, rel_terms, residual_A
from maxdiss import certificate
from maxdiss.certificate import CertificateError, ToleranceModel, certify_members, margin_series
from maxdiss.selector import assemble_family
from maxdiss.solver import (Forcing, SolverError, SystemSpec, TestTrajectory, Trajectory, _curl,
                            _velocity, solve, taylor_green)

STRAIN = WeightSpec()


def test_tolerance_model_formula():
    tm = ToleranceModel(step_coeff=10.0, quadrature=1e-9)
    assert tm.tau(1.0, 1e-3) == pytest.approx(10 * 1e-12 + 1e-9)
    assert tm.tau(0.0, 1e-3) == pytest.approx(1e-9)


# -- margins against closed-form and trivial test functions ------------------

def test_certificate_exact_taylor_green(tg_reference):
    traj, _, _ = tg_reference
    vt = TestTrajectory.taylor_green(0.1, traj.grid)
    report = certify(traj, [vt], STRAIN)
    assert report.verdict
    assert worst_margin(report) >= -1e-8
    # the run tracks the exact solution, so margins are also small from above
    assert report.series[vt.label]["margin"].max() <= 1e-6


def test_certificate_zero_test_is_energy_inequality(tg_reference):
    # against v = 0 the inequality reduces to the plain energy inequality;
    # a viscous Galerkin run satisfies it with strictly positive slack
    traj, _, _ = tg_reference
    report = certify(traj, [TestTrajectory.zero(traj.grid)], STRAIN)
    assert report.verdict
    series = margin_series(assemble_family([traj]), TestTrajectory.zero(traj.grid), STRAIN)
    e = traj.energies()
    # K(0) = 0, A(0) = 0: margin(t) = E(0)/... = R0 - R(t) - int W >= 0
    assert np.all(series.weight_integral == 0.0)
    assert series.margins[0, -1] > 0
    assert series.rel_energies[0, 0] == pytest.approx(e[0], rel=1e-12)


def test_certificate_reflexive_spline(tg_reference):
    # certifying a run against its own spline: margins are pure spline and
    # quadrature noise on the coarse sample grid
    traj, _, _ = tg_reference
    vt = spline_test(traj, label="self")
    report = certify(traj, [vt], STRAIN,
                     tol_model=ToleranceModel(quadrature=1e-5))
    assert report.verdict
    assert abs(worst_margin(report)) <= 1e-5


def test_non_dissipative_trajectory_fails(tg_reference):
    # a manufactured trajectory with growing energy violates the inequality
    grid = Grid(32)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=0.5, dt=1e-3,
                      forcing=Forcing("zero"))
    w = taylor_green(0.0, 0.1, grid).coeffs
    times = np.linspace(0.0, 0.5, 21)
    bad = from_velocity(spec, times, np.stack([(1.0 + t) * w for t in times]),
                        provenance="manufactured")
    report = certify(bad, [TestTrajectory.zero(grid)], STRAIN)
    assert not report.verdict
    assert worst_margin(report) < -1e-2


def test_growing_taylor_green_fails_exact_test():
    # (1+t) TG gains energy; its damped margin against the exact test is
    # -5.8e-3 at t = 0.025, and the tolerance is damped like the margin
    nu, grid, dt = 0.1, Grid(32), 2.5e-3
    spec = SystemSpec(nu=nu, grid=grid, t_end=0.5, dt=dt)
    times = np.arange(0, 201, 10) * dt
    bad = from_velocity(spec, times,
                        np.stack([(1.0 + t) * taylor_green(t, nu, grid).coeffs
                                  for t in times]))
    exact = TestTrajectory.taylor_green(nu, grid, label="exact")
    report = certify(bad, [exact, TestTrajectory.zero(grid)], STRAIN)
    for tid in ("exact", "zero"):
        assert not np.all(report.series[tid]["margin"] >= -report.series[tid]["tol"])
    series = margin_series(assemble_family([bad]), exact, STRAIN)
    tol = report.series["exact"]["tol"]
    assert np.allclose(tol, [ToleranceModel().tau(t, dt) for t in times]
                       * np.exp(-series.weight_integral), rtol=1e-14, atol=0.0)


def test_strain_weight_fails_manufactured_impostors(tg_impostors):
    # the nu-free strain weight keeps I(T) near 1, so the damped margins still
    # test something: both impostors fail `exact` and `amplitude:1.05`, and
    # the true flow passes all three
    grid = Grid(32)
    tests = [TestTrajectory.zero(grid), TestTrajectory.taylor_green(0.1, grid, label="exact"),
             TestTrajectory.taylor_green(0.1, grid, amplitude=1.05, label="amplitude_1.05")]

    def worst(name):  # least margin + tol after t = 0, per test
        report = certify(tg_impostors[name], tests, STRAIN)
        after = report.times > 0
        return {tid: (report.series[tid]["margin"] + report.series[tid]["tol"])[after].min()
                for tid in ("zero", "exact", "amplitude_1.05")}

    assert min(worst("tg").values()) >= 0.0
    for name, measured in (("growing", (-0.82, -0.60)), ("decaying", (-0.16, -0.21))):
        got = worst(name)
        assert (got["exact"], got["amplitude_1.05"]) == pytest.approx(measured, abs=0.01)


def test_default_weight_fails_growing_impostor_through_stage_certify(tg_impostors, tmp_path):
    # a config without /weight certifies under the strain weight, whose damping
    # leaves (1+t) TG failing both `exact` and `amplitude:1.05`
    from maxdiss.scenarios import ScenarioConfig, stage_certify

    cfg = ScenarioConfig.from_dict({
        "scenario": "taylor_green",
        "system": {"nu": 0.1, "n": 32, "t_end": 0.5, "dt": 2.5e-3},
        "family": {"resolutions": [32], "sample_stride": 10},
        "tests": ["exact", "amplitude:1.05"]}, out_dir=str(tmp_path))
    family = assemble_family([tg_impostors[mid] for mid in ("tg", "growing")],
                             member_ids=("tg", "growing"))
    assert stage_certify(cfg, family) == {"tg": True, "growing": False}
    cert = json.loads((tmp_path / "certificates" / "growing.json").read_text())
    assert cert["config"]["weight"]["kind"] == "strain"
    failed = {tid for tid, s in cert["series"].items()
              if any(m < -tol for m, tol in zip(s["margin"], s["tol"], strict=True))}
    assert failed == {"exact", "amplitude_1.05"}


def test_certify_propagates_programming_errors(tg_reference):
    traj, _, _ = tg_reference
    grid = traj.grid

    def broken(t):
        raise TypeError("not a domain error")

    vt = analytic_test(broken, broken, grid, label="broken")
    with pytest.raises(TypeError):
        certify(traj, [vt, TestTrajectory.zero(grid)], STRAIN)


def test_certify_error_isolation(tg_reference):
    # a separable test on a coarser grid errors alone: the separable tests of the
    # member's grid, sharing its shape, and a sampled test are still evaluated
    traj, _, _ = tg_reference
    grid = traj.grid
    bad = TestTrajectory.zero(Grid(grid.n // 2), label="bad")  # grid mismatch
    tests = [bad, TestTrajectory.zero(grid), TestTrajectory.taylor_green(0.1, grid, label="exact"),
             spline_test(traj, label="self")]
    report = certify(traj, tests, STRAIN)
    assert list(report.errors) == ["bad"] and "grid mismatch" in report.errors["bad"]
    assert not report.verdict  # an errored member fails the verdict
    assert list(report.series) == ["zero", "exact", "self"]
    assert all(np.all(s["margin"] >= -s["tol"]) for s in report.series.values())


def test_certify_rejects_a_repeated_test_id(tg_reference):
    # two tests under one id would pool their margins and keep one I(T) record
    traj, _, _ = tg_reference
    grid = traj.grid
    tests = [TestTrajectory.taylor_green(0.1, grid, label="x"), TestTrajectory.zero(grid),
             TestTrajectory.taylor_green(0.1, grid, amplitude=40.0, label="x")]
    with pytest.raises(CertificateError, match=r"test id 'x' repeats: tests 0 and 2"):
        certify_members(assemble_family([traj]), tests, STRAIN)


def test_a_nan_sample_fails_its_members_certificate(tg_reference, tmp_path):
    # one NaN coefficient makes the margins NaN from its sample on; NaN >= -tol is
    # false, so that member fails and its JSON says so, while the other passes
    traj, _, _ = tg_reference
    vorticity = traj.vorticity.copy()
    vorticity[3, 1, 1] = np.nan
    family = assemble_family([traj, Trajectory(traj.spec, traj.times, vorticity)])
    good, bad = certify_members(family, [TestTrajectory.zero(traj.grid)], STRAIN)
    margin = bad.series["zero"]["margin"]
    assert np.all(np.isfinite(margin[:3])) and np.all(np.isnan(margin[3:]))
    assert good.verdict and not bad.verdict
    bad.save_json(tmp_path / "bad.json")
    assert json.loads((tmp_path / "bad.json").read_text())["verdict"] == "fail"


def test_certify_empty_family_rejected(tg_reference):
    traj, _, _ = tg_reference
    with pytest.raises(CertificateError):
        certify(traj, [], STRAIN)


def test_margin_grid_mismatch(tg_reference):
    traj, _, _ = tg_reference
    with pytest.raises(CertificateError):
        margin_series(assemble_family([traj]), TestTrajectory.zero(Grid(16)), STRAIN)


# -- report persistence ------------------------------------------------------

def test_worst_margin_skips_initial_time(tg_reference):
    # every margin at t = 0 is 0 by construction and tests nothing
    traj, _, _ = tg_reference
    vt = TestTrajectory.taylor_green(0.1, traj.grid, amplitude=1.05)
    report = certify(traj, [vt], STRAIN)
    assert report.times[0] == 0.0 and report.series[vt.label]["margin"][0] == 0.0
    assert worst_margin(report) > 0
    first = Trajectory(traj.spec, traj.times[:1], traj.vorticity[:1])
    assert worst_margin(certify(first, [vt], STRAIN)) == np.inf


def test_report_json_roundtrip(tg_reference, tmp_path):
    traj, _, _ = tg_reference
    report = certify(traj, [TestTrajectory.zero(traj.grid)], STRAIN)
    path = tmp_path / "cert.json"
    report.save_json(path)
    d = json.loads(path.read_text())
    assert d["verdict"] == "pass"
    assert d["config"]["weight"] == {"kind": "strain", "kappa": 2.0}
    assert d["config"]["tolerance"] == {"step_coeff": 10.0, "quadrature": 1e-9}
    assert "\n" not in path.read_text()  # compact: json's C encoder
    assert d["times"] == report.times.tolist()
    zero = d["series"]["zero"]
    assert len(zero["margin"]) == report.times.size == report.series["zero"]["margin"].size
    assert d["errors"] == {}


def test_readme_names_exactly_the_certificate_json_keys(tg_reference):
    # README's "Certificate JSON" paragraph names each top-level key of the stored
    # certificate and each key of one series entry, and no other key
    traj, _, _ = tg_reference
    d = certify(traj, [TestTrajectory.zero(traj.grid)], STRAIN).to_dict()
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Certificate JSON: ")[1].split("\n\n")[0]
    named = re.findall(r"`(\w+)`", paragraph)
    assert sorted(named) == sorted([*d, *d["series"]["zero"]])


# -- Lagrange-multiplier (phi) form ------------------------------------------

def test_phi_linear_ramp_nonpositive(tg_reference):
    traj, _, _ = tg_reference
    vt = TestTrajectory.taylor_green(0.1, traj.grid)
    val = phi_form_value(traj, vt, STRAIN, lambda t: 1 - t, lambda t: -1.0)
    assert val <= 1e-8


def test_phi_width_halving_halves_gap(tg_reference):
    # the mollified indicator converges to -margin(t*) linearly in its width
    traj, _, _ = tg_reference
    vt = TestTrajectory.zero(traj.grid)
    t_star = 0.5
    series = margin_series(assemble_family([traj]), vt, STRAIN)
    limit = -series.margins[0, np.argmin(np.abs(traj.times - t_star))]
    gaps = []
    for width in (0.2, 0.1):
        val = phi_form_value(traj, vt, STRAIN, *mollified_indicator(t_star, width))
        gaps.append(abs(val - limit))
    ratio = gaps[0] / gaps[1]
    assert 1.0 <= ratio <= 4.0  # halving the width halves the gap +- factor 2


# -- weak residual recovery --------------------------------------------------

def test_recover_weak_residual_matches_direct(tg_reference, rng):
    traj, _, _ = tg_reference
    r = random_field(traj.grid, rng, kmax=3, components=2, solenoidal=True)
    # the kink of K(v + alpha r) at alpha = 0 biases c1 by O(alpha): small alphas
    c1, direct = recover_weak_residual(traj, r, [1e-6, 2e-6, -1e-6, -2e-6], STRAIN)
    assert abs(c1 - direct) <= 1e-4 * max(abs(direct), 1e-6)


# -- blocked kernels against a per-sample oracle -----------------------------

def _series_oracle(u, vt, w):
    """R, I, the damped dissipation integrand and the margins, sample by sample,
    with u zero-padded onto the test's grid."""
    spec, nu, times, n = u.spec, u.spec.nu, u.times, vt.grid.n
    tab = spectral_tables(n)
    f, coeffs = forcing_coeffs(spec.forcing, n), velocity(u)
    R, K, g = (np.zeros(times.size) for _ in range(3))
    for i, t in enumerate(times):
        v, dv = (_velocity(fn([t])[0]) for fn in (vt.values, vt.derivs))
        d = resample(coeffs[i], n) - v
        R[i] = 0.5 * pairing(d, d)
        a = dv + convection(v) + nu * tab.k2 * v
        a = project(a if f is None else a - f, tab)
        g[i] = 0.5 * nu * h1_squared(d) + pairing(a, d)
        # the eigenvalue form: for solenoidal v, -lambda_min(S) = |S|
        gv = samples(gradients(v), 2 * n)
        s11, s12, s22 = gv[0, 0], 0.5 * (gv[0, 1] + gv[1, 0]), gv[1, 1]
        lam_min = 0.5 * (s11 + s22) - np.sqrt((0.5 * (s11 - s22)) ** 2 + s12 ** 2)
        K[i] = w.kappa * max(0.0, np.max(-lam_min))
    I = cumulative_weight_integral(K, times)
    damp = np.exp(-I)
    lhs = damp * R + cumulative_weight_integral(g * damp, times)
    return R, I, g * damp, R[0] - lhs


def _oracle_case(case):
    nu = {"n128": 0.02, "euler": 0.0, "kolmogorov": 0.05}.get(case, 0.1)
    n = {"n128": 128, "euler": 32, "spline": 24}.get(case, 16)
    dt = 2e-3 if case == "n128" else 2.5e-3
    t_end = {"n128": 0.008, "euler": 0.05, "kolmogorov": 0.05}.get(case, 0.075)
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0}) \
        if case in ("kolmogorov", "padded") else Forcing("zero")
    spec = SystemSpec(nu=nu, grid=Grid(n), t_end=t_end, dt=dt, forcing=forcing)
    pert = random_field(spec.grid, np.random.default_rng(n), kmax=3)
    u = solve(spec, SpectralField(spec.grid, taylor_green(0.0, nu, spec.grid).coeffs
                                  + 0.05 * pert.coeffs),
              sample_stride=2 if case == "n128" else 1)
    vt = TestTrajectory.taylor_green(nu, Grid(48) if case == "padded" else spec.grid,
                                     amplitude=1.05)
    if case == "spline":
        vt = spline_test(u)
    return u, vt, STRAIN


@pytest.mark.parametrize("case", ["n16", "n128", "euler", "kolmogorov", "spline", "padded"])
def test_margin_series_matches_per_sample_oracle(case):
    # n16: 31 samples in one block; n128: one sample per block; euler (nu = 0,
    # n = 32) and spline (n = 24): sample counts 21 and 31 are no multiple of
    # the block lengths 8 and 14; padded: a forced n = 16 member on a test grid of 48
    u, vt, w = _oracle_case(case)
    series = margin_series(assemble_family([u]), vt, w)
    got = (series.rel_energies[0], series.weight_integral,
           series.dissipation_integrand[0], series.margins[0])
    for name, a, b in zip(("R", "I", "g", "margin"), got, _series_oracle(u, vt, w)):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("test", ["taylor_green", "spline"])
def test_vorticity_margins_match_the_velocity_form(test):
    # the margins that margin_series sums over the vorticity spectrum equal those of
    # R, W and <A, d> taken on the velocities, for a forced member with a mean (the
    # k = 0 weight) against the padded vortex and against another run's spline
    nu, grid = 0.05, Grid(16)
    spec = SystemSpec(nu=nu, grid=grid, t_end=0.05, dt=2.5e-3,
                      forcing=Forcing("analytic", "kolmogorov", {"amplitude": 1.0}))
    v0 = taylor_green(0.0, nu, grid).coeffs \
        + 0.05 * random_field(grid, np.random.default_rng(16), kmax=3).coeffs
    v0[:, 0, 0] = (0.3, -0.2)
    u = solve(spec, SpectralField(grid, v0))
    vt = (TestTrajectory.taylor_green(nu, Grid(24), amplitude=1.05) if test == "taylor_green"
          else spline_test(solve(spec, taylor_green(0.0, nu, grid))))
    series = margin_series(assemble_family([u]), vt, STRAIN)
    assert series.rel_energies[0, 0] > 0.05
    np.testing.assert_allclose(series.margins[0], velocity_margins(u, vt, STRAIN),
                               rtol=0.0, atol=1e-13 * series.rel_energies[0, 0])


def test_relative_terms_of_a_vorticity_are_those_of_its_velocity(rng):
    # 1/2 ||d||^2 and nu/2 ||grad d||^2 = nu/2 sum_{k != 0} |w_d|^2 on a random field
    d = random_field(Grid(32), rng, kmax=10).coeffs.copy()
    d[:, 0, 0] = (0.3, -0.2)
    R, W = rel_terms(_curl(d), 0.3)
    assert R == pytest.approx(0.5 * pairing(d, d), rel=1e-14)
    assert W == pytest.approx(0.15 * h1_squared(d), rel=1e-14)


@pytest.mark.parametrize("count", [1, 3])
def test_test_side_terms_run_once_per_test_and_block(monkeypatch, count):
    # members of three viscosities and two grids share each test's weight norms
    # and residual: the separable tests a(t) U (the vortices, zero) take them once
    # per distinct U, whatever the number of blocks or of tests; a sampled test
    # once per block; each member's series is bit for bit its one-member series
    u, vt, w = _oracle_case("euler")  # 21 samples in blocks of 8 at n = 32
    coarse = SystemSpec(nu=0.01, grid=Grid(16), t_end=u.spec.t_end, dt=u.spec.dt)
    members = [u, Trajectory(replace(u.spec, nu=0.1), u.times, u.vorticity),
               from_velocity(coarse, u.times, resample(velocity(u), 16))][:count]
    sampled = TestTrajectory(vt.values, vt.derivs, vt.grid, "sampled")
    alone = [margin_series(assemble_family([m]), vt, w) for m in members]
    calls = {"weight_norms": 0, "residual_A": 0}
    for name in calls:
        def counted(*args, _fn=getattr(certificate, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(certificate, name, counted)
    vortices = [vt, TestTrajectory.zero(vt.grid),
                TestTrajectory.taylor_green(u.spec.nu, vt.grid, label="exact")]
    per_list = []
    for tests in ([vortices[0]], [vortices[1]], [sampled], vortices, [*vortices, sampled]):
        calls.update(weight_norms=0, residual_A=0)
        assert len(certify_members(assemble_family(members), tests, w)) == count
        per_list.append(dict(calls))
    blocks = len(certificate._blocks(u.times.size, vt.grid.n))
    assert blocks == 3
    # the three vortices share one shape: one call each for all of them
    assert per_list == [{"weight_norms": 1, "residual_A": 1}] * 2 \
        + [{"weight_norms": blocks, "residual_A": blocks}, {"weight_norms": 1, "residual_A": 1},
           {"weight_norms": 1 + blocks, "residual_A": 1 + blocks}]
    for margins, one in zip(margin_series(assemble_family(members), vt, w).margins, alone):
        np.testing.assert_array_equal(margins, one.margins[0])


@pytest.mark.parametrize("A", [1.5, -1.5])
def test_separable_test_matches_its_sampled_form(A):
    # a random band-limited U, where N(U) != 0 and sup|S(U)| is no round number,
    # under a(t) = A e^{-lam t} (A < 0: K takes |a|), with a forcing P_n f != 0,
    # for members on two grids: the separable path equals the per-block kernels
    grid, lam = Grid(24), 2.0
    forcing = Forcing("analytic", "kolmogorov", {"amplitude": 1.0})
    U = 0.5 * random_field(grid, np.random.default_rng(3), kmax=3).coeffs

    def amplitude(times):
        a = A * np.exp(-lam * np.asarray(times))
        return a, -lam * a

    separable = TestTrajectory.separable(_curl(U), amplitude, grid, "separable")
    sampled = analytic_test(lambda t: amplitude(t)[0] * U, lambda t: amplitude(t)[1] * U, grid)
    members = []
    for n in (16, 24):
        spec = SystemSpec(nu=0.05, grid=Grid(n), t_end=0.05, dt=2.5e-3, forcing=forcing)
        pert = random_field(spec.grid, np.random.default_rng(n), kmax=3)
        v0 = resample(A * U, n) + 0.1 * pert.coeffs
        members.append(solve(spec, SpectralField(spec.grid, v0)))
    assert np.abs(project(forcing_coeffs(forcing, 24), spectral_tables(24))).max() > 0.1
    N = -_velocity(residual_A(_curl(U)[None], 0.0,
                              SystemSpec(nu=0.0, grid=grid, t_end=0.05, dt=2.5e-3)))[0]
    assert np.sqrt(pairing(N, N)) > 0.1 * np.sqrt(pairing(U, U))

    def wrong_derivs(t):  # the sampled A_0 is then a' U - a N(U) - P_n f: a in place of a^2
        a, da = amplitude(t)
        return da * U + (a - 1) * a * N

    wrong = analytic_test(lambda t: amplitude(t)[0] * U, wrong_derivs, grid)
    got, expect, off = (margin_series(assemble_family(members), vt, STRAIN)
                        for vt in (separable, sampled, wrong))
    assert got.weight_integral[-1] > 0
    for name in ("rel_energies", "weight_integral", "dissipation_integrand", "margins"):
        np.testing.assert_allclose(getattr(got, name), getattr(expect, name),
                                   rtol=1e-12, atol=1e-14, err_msg=name)
    for got_margins, off_margins in zip(got.margins, off.margins, strict=True):
        assert not np.allclose(got_margins, off_margins, rtol=1e-12, atol=1e-14)


def test_benchmark_configs_build_separable_tests_only():
    # the pipeline never falls back to per-block kernels on the workloads, and the
    # tests of one list hold one read-only shape, so its kernels run once
    from maxdiss.scenarios import ScenarioConfig, build_tests

    for cfg in perfbench_configs():
        config = ScenarioConfig.from_dict(cfg)
        tests = build_tests(config, config.system.grid)
        assert tests and all(vt.shape is tests[0].shape for vt in tests)
        with pytest.raises(ValueError, match="read-only"):
            tests[0].shape[1, 1] = 1.0


def test_separable_test_rejects_a_shape_of_another_grid():
    # the certifier stacks the shapes of one grid, so each must be that grid's
    with pytest.raises(SolverError, match=r"shape: \(16, 9\) on grid n=24, need \(24, 13\)"):
        TestTrajectory.separable(np.zeros((16, 9), complex), lambda t: (t, t), Grid(24), "x")


def _mixed_case():
    """A kolmogorov-forced family on n = 16 and 24 and, on n = 24, three vortices
    sharing one shape, a separable test of a random shape, a sampled test, and a
    separable test on n = 16, coarser than the family."""
    nu, grid, forcing = 0.05, Grid(24), Forcing("analytic", "kolmogorov", {"amplitude": 1.0})
    members = []
    for n in (16, 24):
        spec = SystemSpec(nu=nu, grid=Grid(n), t_end=0.05, dt=2.5e-3, forcing=forcing)
        pert = random_field(spec.grid, np.random.default_rng(n), kmax=3)
        members.append(solve(spec, SpectralField(spec.grid, taylor_green(0.0, nu, spec.grid).coeffs
                                                 + 0.05 * pert.coeffs)))
    U = _curl(0.05 * random_field(grid, np.random.default_rng(3), kmax=3).coeffs)

    def amplitude(times):
        a = -1.5 * np.exp(-2.0 * np.asarray(times))
        return a, -2.0 * a

    tests = [TestTrajectory.taylor_green(nu, grid, label="exact"), TestTrajectory.zero(grid),
             TestTrajectory.taylor_green(nu, grid, amplitude=1.05, label="amplitude_1.05"),
             TestTrajectory.separable(U, amplitude, grid, "random"),
             spline_test(members[1], label="sampled"),
             TestTrajectory.zero(Grid(16), label="coarse")]
    return assemble_family(members), tests


def test_mixed_tests_match_their_sampled_forms():
    # one certify_members call over separable tests of two shapes, a sampled test and
    # a coarse one: each series equals its test's sampled per-block form to roundoff,
    # its I(t) and horizon those of the test certified alone bit for bit
    family, tests = _mixed_case()
    assert len({id(vt.shape) for vt in tests[:3]}) == 1
    reports = certify_members(family, tests, STRAIN)
    for report in reports:
        assert list(report.errors) == ["coarse"]
        assert list(report.series) == [vt.label for vt in tests[:-1]]
    for vt in tests[:-1]:
        alone = margin_series(family, vt, STRAIN)
        sampled = margin_series(family, TestTrajectory(vt.values, vt.derivs, vt.grid, "s"),
                                STRAIN)
        np.testing.assert_allclose(alone.weight_integral, sampled.weight_integral,
                                   rtol=1e-14, atol=0.0)
        alone_record = certify_members(family, [vt], STRAIN)[0].tests[vt.label]
        assert reports[0].tests[vt.label] == alone_record
        for i, report in enumerate(reports):
            got = report.series[vt.label]
            assert np.array_equal(got["tol"], ToleranceModel().tau(family.times, 2.5e-3)
                                  * np.exp(-alone.weight_integral))
            for key, expect in (("lhs", sampled.lhs[i]), ("margin", sampled.margins[i])):
                np.testing.assert_allclose(got[key], expect, rtol=0.0, atol=1e-13,
                                           err_msg=f"{vt.label} {key}")
    assert reports[0].tests["random"]["weight_integral"] > 0


def test_certify_fft_calls_do_not_grow_with_samples_or_tests(monkeypatch):
    # the Taylor-Green tests' FFTs are their one shape's kernels: as many with three
    # tests and twice the samples as with one test
    grid = Grid(32)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=0.1, dt=2.5e-3,
                      forcing=Forcing("analytic", "kolmogorov", {"amplitude": 1.0}))
    spec.forcing.curl(32)  # built once, before counting
    w = _curl(taylor_green(0.0, 0.1, grid).coeffs)
    calls = {}
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn",
                 "ifftn", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    counts = []
    for size, amplitudes in ((11, (1.0,)), (22, (1.0, 0.0, 1.05))):
        times = np.arange(size) * spec.dt
        family = assemble_family([Trajectory(spec, times, np.exp(-times)[:, None, None] * w)])
        tests = [TestTrajectory.taylor_green(0.1, grid, amplitude=a, label=f"a{a:g}")
                 for a in amplitudes]
        calls.clear()
        assert list(certify_members(family, tests, STRAIN)[0].series) == [vt.label for vt in tests]
        counts.append(dict(calls))
    assert counts[0] == counts[1] and sum(counts[0].values()) > 0


def test_stage_certify_tests_coarse_members_on_the_finest_grid(tmp_path):
    # the n = 16 member's certificate is that of the member zero-padded onto
    # n = 32 against the n = 32 family, not against a family of its own grid
    from maxdiss.scenarios import ScenarioConfig, build_tests, stage_certify, stage_simulate

    cfg = ScenarioConfig.from_dict({
        "scenario": "perturbed_tg",
        "system": {"nu": 0.05, "n": 32, "t_end": 0.1, "dt": 2.5e-3},
        "family": {"resolutions": [16, 32], "sample_stride": 4, "amplitude": 0.1, "kmax": 6},
        "tests": ["exact", "zero", "amplitude:1.05"], "seed": 0}, out_dir=str(tmp_path))
    family = stage_simulate(cfg)
    stage_certify(cfg, family)
    u = family.trajs[0]
    # the padded vorticity has the padded velocity, bit for bit
    padded = Trajectory(spec=replace(u.spec, grid=Grid(32)), times=u.times,
                        vorticity=_embed(u.vorticity, 16, 32))
    expect = certify(padded, build_tests(cfg, Grid(32)), cfg.weight, cfg.tolerance)
    got = json.loads((tmp_path / "certificates" / "n_16.json").read_text())
    assert got == json.loads(json.dumps(expect.to_dict()))
