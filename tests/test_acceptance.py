"""Acceptance gate: the twelve end-to-end properties of the toolkit.

Every test prints one PASS/FAIL line; all tolerances are stated inline.
"""

from dataclasses import replace

import numpy as np
from scipy.integrate import simpson
from conftest import dist
from support import (analytic_test, certify, continuous_dependence_study, from_velocity,
                     mollified_indicator, mv_convex_combine, mv_equation_residual,
                     phi_form_value, recover_pressure, recover_weak_residual,
                     taylor_green_pressure, trace_leakage_bound, trilinears,
                     velocity, verify_convex_midpoint, worst_margin, zero_defect)

from maxdiss.certificate import ToleranceModel, margin_series
from maxdiss.fields import Grid, SpectralField, from_function, pairing, random_field
from maxdiss.mv_euler import defect_from_pair, trace_energy_gap
from maxdiss.relenergy import WeightSpec, rel_terms, weight_norms, weight_value
from maxdiss.selector import assemble_family, objective, select
from maxdiss.solver import (Forcing, SystemSpec, TestTrajectory, Trajectory, _curl, solve,
                            taylor_green)

STRAIN = WeightSpec()


def _emit(capsys, num, desc, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}")
    return ok


def test_acceptance_01_decaying_vortex_fidelity(tg_reference, capsys):
    traj, elapsed, err = tg_reference
    energies = traj.energies()
    exact = np.pi ** 2 * np.exp(-4 * 0.1 * traj.times)
    e_rel = float(np.abs(energies - exact).max() / exact.min())
    ok = err <= 1e-6 and e_rel <= 1e-6 and elapsed <= 60.0
    _emit(capsys, 1, "decaying-vortex run: max L2 error "
          f"{err:.2e} <= 1e-6, energy {e_rel:.2e} <= 1e-6 rel, "
          f"{elapsed:.1f}s <= 60s", ok)
    assert ok


def test_acceptance_02_weak_strong_certificate(tg_reference, capsys):
    traj, _, _ = tg_reference
    grid = traj.grid
    family = [TestTrajectory.taylor_green(0.1, grid, label="exact"),
              TestTrajectory.zero(grid),
              TestTrajectory.taylor_green(0.1, grid, amplitude=1.05,
                                          label="amplitude_1.05")]
    report = certify(traj, family, STRAIN)
    worst = worst_margin(report)
    ok = report.verdict and worst >= -1e-8
    _emit(capsys, 2, "certificate vs {exact, zero, amplitude-perturbed}: "
          f"worst margin {worst:.2e} >= -1e-8", ok)
    assert ok


def _convection_bound_draws(pairs, unit_norm):
    """Violations and worst ratio of |b(u-v, u-v, v)| <= W + K R, strain weight."""
    grid = Grid(32)
    nu = 0.1
    rng = np.random.default_rng(2024)
    violations = 0
    worst_ratio = 0.0
    for _ in range(pairs):
        u = random_field(grid, rng, kmax=8).coeffs
        v = random_field(grid, rng, kmax=8).coeffs
        if unit_norm:
            u = u * (1.0 / dist(u))
            v = v * (1.0 / dist(v))
        d = u - v
        R, W = rel_terms(_curl(d), nu)
        lhs = abs(trilinears(d, d, v))
        rhs = W + weight_value(weight_norms(_curl(v)), STRAIN) * R
        worst_ratio = max(worst_ratio, lhs / rhs)
        if lhs > rhs * (1 + 1e-12):
            violations += 1
    return violations, worst_ratio


def test_acceptance_03_weight_estimate_soundness(capsys):
    # |b(u-v, u-v, v)| <= W(u,v) + K(v) R(u,v), K = 2 sup |S(v)|
    violations, worst_ratio = _convection_bound_draws(1000, unit_norm=False)
    ok = violations == 0
    _emit(capsys, 3, "convection bound over 1000 random pairs: "
          f"0 required, {violations} violations (worst ratio "
          f"{worst_ratio:.2e})", ok)
    assert ok


def test_acceptance_03_weight_estimate_soundness_unit_norm(capsys):
    # the same bound on unit-L2 fields
    violations, worst_ratio = _convection_bound_draws(300, unit_norm=True)
    ok = violations == 0
    _emit(capsys, 3, "convection bound over 300 unit-norm random pairs: "
          f"0 required, {violations} violations (worst ratio "
          f"{worst_ratio:.2e})", ok)
    assert ok


def test_acceptance_04_convex_combinations_certify(tg_ladder, capsys):
    fam = assemble_family([tg_ladder[0], tg_ladder[2]])

    def certify_fn(traj, budget_scale):
        vt = TestTrajectory.taylor_green(0.05, traj.grid)
        tol = ToleranceModel(step_coeff=10.0 * budget_scale,
                             quadrature=budget_scale * 1e-9)
        return certify(traj, [vt], STRAIN, tol_model=tol)

    reports = verify_convex_midpoint(fam, certify_fn,
                                     lambdas=list(np.linspace(0.0, 1.0, 11)))
    failures = sum(not r.verdict for r in reports)
    ok = failures == 0
    _emit(capsys, 4, "11-point convex sweep of two certified members: "
          f"{failures} failures (worst margin {min(map(worst_margin, reports)):.2e})",
          ok)
    assert ok


def test_acceptance_05_selection_well_posed(tg_ladder, capsys):
    fam = assemble_family(list(tg_ladder))
    res = select(fam)
    vertex_ok = all(
        res.objective <= objective(fam, np.eye(3)[i]) + 1e-12
        for i in range(3))
    # the exact solve has no start point: restart it on permuted member orders
    perms = [assemble_family([tg_ladder[i] for i in order]) for order in ((1, 2, 0), (2, 0, 1))]
    sols = [perm.mix(select(perm).weights) for perm in perms]
    dist2 = [dist(a, b) ** 2 for a, b in zip(velocity(sols[0]), velocity(sols[1]))]
    gap = float(np.sqrt(simpson(np.array(dist2), x=fam.times)))
    ok = res.kkt_residual <= 1e-6 and vertex_ok and gap <= 1e-8
    _emit(capsys, 5, "3-member ladder selection: KKT "
          f"{res.kkt_residual:.2e} <= 1e-6, objective below vertices, "
          f"restart distance {gap:.2e} <= 1e-8", ok)
    assert ok


def test_acceptance_06_continuous_dependence(capsys):
    nu = 0.1
    n_max = 24
    rng = np.random.default_rng(3)
    pert = random_field(Grid(n_max), rng, kmax=4, components=2,
                        solenoidal=True).coeffs
    pert = (1.0 / dist(pert)) * pert

    def builder(delta):
        v0 = SpectralField(Grid(n_max), taylor_green(0.0, nu, Grid(n_max)).coeffs + delta * pert)
        members = []
        for n in (16, n_max):
            spec = SystemSpec(nu=nu, grid=Grid(n), t_end=0.25, dt=2.5e-3,
                              forcing=Forcing("zero"))
            members.append(solve(spec, v0, sample_stride=10))
        return assemble_family(members)

    rel, _ = continuous_dependence_study(builder, [1e-1, 1e-2, 1e-3])
    # quadratic scaling: each delta-decade drops R by 100, within factor 2
    ratios = [b / a for a, b in zip(rel, rel[1:])]
    ok = all(0.005 <= r <= 0.02 for r in ratios)  # and so R falls monotonically
    _emit(capsys, 6, "perturbation decades 1e-1..1e-3: relative-energy "
          f"ratios {[f'{r:.4f}' for r in ratios]} in [1/200, 1/50]", ok)
    assert ok


def test_acceptance_07_euler_invariants(capsys):
    grid = Grid(32)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=2.5e-3,
                      forcing=Forcing("zero"))
    traj = solve(spec, taylor_green(0.0, 0.0, grid), sample_stride=40)
    energies = traj.energies()
    drift = float(np.abs(energies - energies[0]).max())

    const = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    const[:, 0, 0] = (1.5, -0.5)
    w_const = weight_value(weight_norms(_curl(const)), STRAIN)
    # the weight must bound -b(w, v, w)/||w||^2 over sampled solenoidal w for
    # a shear and a cellular flow, whose strain is all off-diagonal
    rng = np.random.default_rng(7)
    draws = [random_field(grid, rng, kmax=6).coeffs for _ in range(300)]
    slack = []
    for v in (from_function(grid, lambda x, y: np.sin(y),
                            lambda x, y: 0.0 * x, solenoidal=True),
              from_function(grid, lambda x, y: -np.sin(y),
                            lambda x, y: np.sin(x), solenoidal=True)):
        worst = max(-trilinears(w, v.coeffs, w) / pairing(w, w) for w in draws)
        slack.append(weight_value(weight_norms(_curl(v.coeffs)), STRAIN) - worst)

    report = certify(traj, [TestTrajectory.taylor_green(0.0, grid,
                                                        label="steady")],
                     STRAIN)
    worst = worst_margin(report)
    ok = drift <= 1e-8 and w_const == 0.0 and min(slack) >= 0.0 \
        and report.verdict and worst >= -1e-8
    _emit(capsys, 7, f"inviscid invariants: energy drift {drift:.2e} <= 1e-8,"
          f" constant-field weight {w_const:.2e} == 0, shear/cellular weight "
          f"minus worst sampled -b(w,v,w)/|w|^2 {slack[0]:.3f}/{slack[1]:.3f}"
          f" >= 0, steady certificate margin {worst:.2e} >= -1e-8", ok)
    assert ok


def test_acceptance_08_residual_recovery(tg_reference, capsys):
    traj, _, _ = tg_reference
    # inject a forcing mismatch: the stored states solve the unforced system
    kol = Forcing("analytic", "kolmogorov",
                  {"amplitude": 0.3, "wavenumber": 2})
    mismatched = Trajectory(replace(traj.spec, forcing=kol), traj.times, traj.vorticity,
                            provenance="forcing mismatch")
    rng = np.random.default_rng(0)
    r = random_field(traj.grid, rng, kmax=3, components=2, solenoidal=True)
    # |S| of TG peaks at four tied grid points, so K(v + alpha r) has a kink at
    # alpha = 0 and the fit's linear coefficient an O(alpha) bias: small alphas
    c1, direct = recover_weak_residual(mismatched, r, [1e-6, 2e-6, -1e-6, -2e-6], STRAIN)
    rel = abs(c1 - direct) / abs(direct)
    ok = rel <= 1e-4
    _emit(capsys, 8, "weighted residual pairing from finite-amplitude "
          f"margins: relative error {rel:.2e} <= 1e-4", ok)
    assert ok


def test_acceptance_09_measure_valued_identities(capsys):
    # (a) the convex-combination formula keeps the equation residual affine
    grid = Grid(16)
    times = np.linspace(0.0, 1.0, 5)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.1,
                      forcing=Forcing("zero"))
    rng = np.random.default_rng(9)
    w = random_field(grid, rng, kmax=3, components=2, solenoidal=True).coeffs
    psi = taylor_green(0.0, 0.0, grid).coeffs
    v1 = from_velocity(spec, times, np.stack([psi] * 5))
    v2 = from_velocity(spec, times, np.stack([w] * 5))
    z = zero_defect(grid, times)
    phi = analytic_test(lambda t: (1 - t) * psi, lambda t: -1.0 * psi, grid, label="phi")
    lam = 0.35
    vc, mc = mv_convex_combine(v1, z, v2, z, lam)
    r1 = mv_equation_residual(v1, z, Forcing("zero"), [phi])["phi"]
    r2 = mv_equation_residual(v2, z, Forcing("zero"), [phi])["phi"]
    rc = mv_equation_residual(vc, mc, Forcing("zero"), [phi])["phi"]
    affine_err = abs(rc - (lam * r1 + (1 - lam) * r2))
    min_eig = mc.min_eigenvalue()

    # (b) viscosity-ladder pair: defect trace tracks the energy gap within
    # the reported low-pass leakage
    g32 = Grid(32)
    r0 = random_field(g32, rng, kmax=8, components=2, solenoidal=True).coeffs
    v0 = SpectralField(g32, taylor_green(0.0, 1e-2, g32).coeffs + (0.5 / dist(r0)) * r0)
    runs = [solve(SystemSpec(nu=nu, grid=g32, t_end=0.5, dt=2.5e-3,
                             forcing=Forcing("zero")), v0, sample_stride=20)
            for nu in (1e-2, 5e-3)]
    m = defect_from_pair(runs[1], runs[0], clip_fail_ratio=2.0)
    gap = float(trace_energy_gap(m, runs[1], runs[0]).max())
    bound = trace_leakage_bound(m)

    ok = affine_err <= 1e-10 and min_eig >= -1e-12 and gap <= bound
    _emit(capsys, 9, f"defect identities: residual affinity {affine_err:.1e}"
          f" <= 1e-10, combined min eigenvalue {min_eig:.1e} >= -1e-12, "
          f"ladder trace gap {gap:.2e} <= reported leakage {bound:.2e}", ok)
    assert ok


def test_acceptance_10_pressure_recovery(capsys):
    nu, t = 0.1, 0.25
    grid = Grid(32)
    v = taylor_green(t, nu, grid)
    p = recover_pressure(v)
    err = dist(p.coeffs, taylor_green_pressure(t, nu, grid).coeffs)
    mean = abs(p.coeffs[0, 0, 0])
    ok = err <= 1e-10 and mean <= 1e-14
    _emit(capsys, 10, f"pressure recovery: L2 error {err:.2e} <= 1e-10, "
          f"mean {mean:.2e} <= 1e-14", ok)
    assert ok


def test_acceptance_11_multiplier_form_convergence(tg_reference, capsys):
    traj, _, _ = tg_reference
    vt = TestTrajectory.zero(traj.grid)
    t_star = 0.5
    series = margin_series(assemble_family([traj]), vt, STRAIN)
    limit = -series.margins[0, np.argmin(np.abs(traj.times - t_star))]
    gaps = [abs(phi_form_value(traj, vt, STRAIN, *mollified_indicator(t_star, width)) - limit)
            for width in (0.2, 0.1)]
    ratio = gaps[0] / gaps[1]
    ok = 1.0 <= ratio <= 4.0
    _emit(capsys, 11, "mollified-indicator form: width halving shrinks the "
          f"gap by {ratio:.2f}x (required 2x +- factor 2)", ok)
    assert ok


def test_acceptance_12_selection_mixes_only_certified_members(tg_impostors, tmp_path,
                                                              capsys):
    # e^{-t/2} TG fails `exact` under the strain weight; it has less energy
    # than TG, so a selection over both members would return it
    from maxdiss.scenarios import ScenarioConfig, load_selected, stage_certify, stage_select

    cfg = ScenarioConfig.from_dict({
        "scenario": "taylor_green",
        "system": {"nu": 0.1, "n": 32, "t_end": 0.5, "dt": 2.5e-3},
        "family": {"resolutions": [32], "sample_stride": 10},
        "tests": ["exact", "zero"]},
        out_dir=str(tmp_path))
    family = assemble_family([tg_impostors[mid] for mid in ("tg", "decaying")],
                             member_ids=("tg", "decaying"))
    for mid, traj in zip(family.member_ids, family.trajs):  # load_selected reads sim/
        traj.save(tmp_path / "sim" / mid)
    verdicts = stage_certify(cfg, family)
    summary = stage_select(cfg, family, verdicts)
    gap = np.abs(velocity(load_selected(cfg)) - velocity(tg_impostors["tg"])).max()
    ok = (verdicts == {"tg": True, "decaying": False} and summary["member_ids"] == ["tg"]
          and summary["excluded"] == ["decaying"] and summary["lambda"] == [1.0]
          and gap <= 1e-12)
    _emit(capsys, 12, f"selection over {{TG, e^(-t/2) TG}}: verdicts {verdicts}, "
          f"selected {summary['member_ids']}, excluded {summary['excluded']}, "
          f"distance to TG {gap:.1e} <= 1e-12", ok)
    assert ok
