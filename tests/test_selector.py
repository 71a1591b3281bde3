"""Selection of the minimal time-integrated-energy convex combination."""

import numpy as np
import pytest
from scipy.integrate import simpson
from conftest import dist
from support import (continuous_dependence_study, from_velocity, verify_convex_midpoint,
                     worst_margin)

from maxdiss.certificate import ToleranceModel, certify
from maxdiss.fields import Grid, SpectralField, _embed, from_function, pairing
from maxdiss.mv_euler import MVError, defect_from_pair
from maxdiss.relenergy import WeightSpec
from maxdiss.selector import (
    MAX_MEMBERS,
    SelectorError,
    SimplexWeights,
    assemble_family,
    kkt_residual,
    objective,
    select,
)
from maxdiss.solver import (
    Forcing,
    SystemSpec,
    TestTrajectory,
    Trajectory,
    solve,
    taylor_green,
)

STRAIN = WeightSpec()


# -- simplex geometry --------------------------------------------------------

def test_simplex_weights_validation():
    SimplexWeights(np.array([0.5, 0.5]))
    with pytest.raises(SelectorError):
        SimplexWeights(np.array([0.6, 0.6]))
    with pytest.raises(SelectorError):
        SimplexWeights(np.array([1.1, -0.1]))
    with pytest.raises(SelectorError):
        SimplexWeights(np.array([]))


# -- family assembly ---------------------------------------------------------

def test_single_member_family_gram_is_twice_energy(tg_ladder):
    fam = assemble_family([tg_ladder[0]])
    e = tg_ladder[0].energies()
    assert fam.size == 1
    assert np.abs(pairing(fam.on_grid(0), fam.on_grid(0)) - 2 * e).max() <= 1e-12 * e[0]
    assert fam.H[0, 0] == pytest.approx(simpson(2 * e, x=fam.times), rel=1e-12)


def test_padded_members_near_identical_gram(tg_ladder):
    # decaying-vortex runs at n=16 and n=32 padded to a common grid: all four
    # Gram entries approximate twice the shared energy profile
    fam = assemble_family([tg_ladder[0], tg_ladder[2]])
    assert fam.n == 32
    e2 = 2 * tg_ladder[2].energies()
    for i in range(2):
        for j in range(2):
            assert np.abs(pairing(fam.on_grid(i), fam.on_grid(j)) - e2).max() <= 1e-8 * e2[0]
            assert fam.H[i, j] == pytest.approx(simpson(e2, x=fam.times), rel=1e-8)


def test_family_rejects_mismatched_viscosity(tg_ladder):
    grid = Grid(16)
    other = solve(SystemSpec(nu=0.1, grid=grid, t_end=0.5, dt=2.5e-3,
                             forcing=Forcing("zero")),
                  taylor_green(0.0, 0.1, grid), sample_stride=10)
    with pytest.raises(SelectorError, match="member_1: viscosity mismatch"):
        select(assemble_family([tg_ladder[0], other]))


def test_family_rejects_mismatched_forcing(tg_ladder):
    grid = Grid(16)
    forced = solve(SystemSpec(nu=0.05, grid=grid, t_end=0.5, dt=2.5e-3,
                              forcing=Forcing("analytic", "kolmogorov",
                                              {"amplitude": 0.1,
                                               "wavenumber": 2})),
                   taylor_green(0.0, 0.05, grid), sample_stride=10)
    with pytest.raises(SelectorError):
        assemble_family([tg_ladder[0], forced])


def test_family_rejects_mismatched_initial_data(tg_ladder):
    grid = Grid(16)
    scaled = solve(SystemSpec(nu=0.05, grid=grid, t_end=0.5, dt=2.5e-3,
                              forcing=Forcing("zero")),
                   taylor_green(0.0, 0.05, grid, amplitude=1.2),
                   sample_stride=10)
    fam = assemble_family([tg_ladder[0], scaled])
    with pytest.raises(SelectorError, match="member_1: initial data mismatch"):
        select(fam)
    # an explicit loose tolerance admits the pair
    assert select(fam, data_rtol=0.5).weights.lam.size == 2


def test_family_rejects_mismatched_sample_times(tg_ladder):
    # members are compared sample by sample: there is no resampling in time
    base = tg_ladder[0]
    fewer = Trajectory(base.spec, base.times[::2], base.vorticity[::2])
    shifted = Trajectory(base.spec, 0.9 * base.times, base.vorticity)
    for other in (fewer, shifted):
        with pytest.raises(SelectorError, match="sample times"):
            assemble_family([base, other])


def test_family_and_defect_pair_reject_times_off_by_a_relative_1e_6(tg_ladder):
    # sample times are shared to 1e-12 absolute, with no relative slack: times
    # scaled by 1 + 1e-6 (off by up to 5e-7) are not simultaneous samples
    base, fine = tg_ladder[0], tg_ladder[2]
    scaled = Trajectory(base.spec, base.times * (1.0 + 1e-6), base.vorticity)
    assert 0 < np.abs(scaled.times - base.times).max() <= 1e-6
    with pytest.raises(SelectorError, match="member_1: sample times or forcing differ"):
        assemble_family([fine, scaled])
    with pytest.raises(MVError, match="sample times or forcing"):
        defect_from_pair(fine, scaled)


def test_family_must_not_be_empty():
    with pytest.raises(SelectorError):
        assemble_family([])


def test_mix_returns_a_members_embedded_vorticity_exactly(tg_ladder):
    # mix sums lambda_i w_i of the members' vorticity on the common grid, with no
    # velocity round trip: a member of weight 1, or one member twice at equal
    # weights, comes back as its vorticity, zero-padded when it is the coarser
    coarse, fine = tg_ladder[0], tg_ladder[2]
    for lam in ([1.0, 0.0], [0.5, 0.5]):
        mixed = assemble_family([fine, fine]).mix(SimplexWeights(np.array(lam)))
        assert np.array_equal(mixed.vorticity, fine.vorticity)
    mixed = assemble_family([coarse, fine]).mix(SimplexWeights(np.array([1.0, 0.0])))
    assert mixed.grid.n == 32
    assert np.array_equal(mixed.vorticity, _embed(coarse.vorticity, 16, 32))


def test_mix_weight_count_mismatch(tg_ladder):
    fam = assemble_family([tg_ladder[0]])
    with pytest.raises(SelectorError):
        fam.mix(SimplexWeights(np.array([0.5, 0.5])))


# -- selection ---------------------------------------------------------------

def test_select_duplicate_members(tg_ladder):
    fam = assemble_family([tg_ladder[2], tg_ladder[2]])
    single = assemble_family([tg_ladder[2]])
    res = select(fam)
    # the whole edge is optimal; the least-norm point is its midpoint
    assert np.abs(res.weights.lam - 0.5).max() <= 1e-12
    assert (res.rank, res.unique, res.iterations) == (1, False, 3)
    assert res.objective == pytest.approx(
        objective(single, np.array([1.0])), rel=1e-12)
    gap = max(dist(a, b) for a, b in zip(res.trajectory.coeffs, tg_ladder[2].coeffs))
    assert gap <= 1e-10


def test_select_concentrates_on_lower_energy_member(tg_ladder):
    grid = Grid(16)
    inflated = solve(SystemSpec(nu=0.05, grid=grid, t_end=0.5, dt=2.5e-3,
                                forcing=Forcing("zero")),
                     taylor_green(0.0, 0.05, grid, amplitude=1.2),
                     sample_stride=10)
    fam = assemble_family([tg_ladder[0], inflated])
    res = select(fam, data_rtol=0.5)
    assert np.abs(res.weights.lam - [1.0, 0.0]).max() <= 1e-12
    assert res.unique
    verts = [objective(fam, np.array([1.0, 0.0])),
             objective(fam, np.array([0.0, 1.0]))]
    assert res.objective <= min(verts) + 1e-12


def _orthogonal_fluctuation_family():
    """Two manufactured members b + w_i with <w_1, w_2> = <b, w_i> = 0."""
    grid = Grid(16)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=1.0, dt=1e-2,
                      forcing=Forcing("zero"))
    b = taylor_green(0.0, 0.1, grid).coeffs
    w1 = from_function(grid, lambda x, y: 0.0 * x,
                       lambda x, y: 3 * np.sin(3 * x), solenoidal=True).coeffs
    w2 = from_function(grid, lambda x, y: -3 * np.sin(3 * y),
                       lambda x, y: 0.0 * x, solenoidal=True).coeffs
    times = np.linspace(0.0, 1.0, 5)
    t1 = from_velocity(spec, times, np.stack([b + 0.5 * w1] * 5))
    t2 = from_velocity(spec, times, np.stack([b + 1.0 * w2] * 5))
    return assemble_family([t1, t2])


def test_interior_optimum_matches_closed_form():
    fam = _orthogonal_fluctuation_family()
    H = fam.H
    g11, g12, g22 = H[0, 0], H[0, 1], H[1, 1]
    lam_star = (g22 - g12) / (g11 - 2 * g12 + g22)
    assert 0.0 < lam_star < 1.0
    res = select(fam, data_rtol=10.0)
    assert res.weights.lam[0] == pytest.approx(lam_star, abs=1e-12)
    assert lam_star == pytest.approx(0.8, abs=1e-12)
    assert (res.rank, res.unique) == (2, True)
    assert res.kkt_residual <= 1e-12
    # the closed-form optimum is a KKT point to high accuracy
    assert kkt_residual(
        fam, SimplexWeights(np.array([lam_star, 1 - lam_star]))) <= 1e-10


def test_kkt_vertex_not_optimal():
    fam = _orthogonal_fluctuation_family()
    assert kkt_residual(fam, SimplexWeights(np.array([0.0, 1.0]))) > 1e-3


def test_kkt_single_member_always_zero(tg_ladder):
    fam = assemble_family([tg_ladder[0]])
    assert kkt_residual(fam, SimplexWeights(np.array([1.0]))) == 0.0


def test_objective_convex_in_lambda(tg_ladder, rng):
    fam = assemble_family(list(tg_ladder))
    for _ in range(20):
        lam = rng.dirichlet(np.ones(3))
        mu = rng.dirichlet(np.ones(3))
        s = rng.uniform()
        mixed = objective(fam, s * lam + (1 - s) * mu)
        assert mixed <= s * objective(fam, lam) \
            + (1 - s) * objective(fam, mu) + 1e-12


def test_selected_objective_below_vertices(tg_ladder):
    fam = assemble_family(list(tg_ladder))
    res = select(fam)
    assert res.kkt_residual <= 1e-6
    for i in range(3):
        vert = np.zeros(3)
        vert[i] = 1.0
        assert res.objective <= objective(fam, vert) + 1e-12


def test_selected_trajectory_unique_across_restarts(tg_ladder):
    # the exact solve has no start point: restart it on permuted member orders
    sols = [select(assemble_family([tg_ladder[i] for i in order])).trajectory
            for order in ((0, 1, 2), (2, 0, 1))]
    fam = assemble_family(list(tg_ladder))
    dist2 = [dist(a, b) ** 2 for a, b in zip(sols[0].coeffs, sols[1].coeffs)]
    assert np.sqrt(simpson(np.array(dist2), x=fam.times)) <= 1e-8


def test_select_reports_rank_and_ties_on_the_ladder(tg_ladder):
    # one decaying vortex at three resolutions: H is numerically rank 1, the
    # whole simplex is optimal, and its least-norm point is the barycentre
    res = select(assemble_family(list(tg_ladder)))
    assert (res.rank, res.unique, res.iterations) == (1, False, 7)
    assert np.abs(res.weights.lam - 1.0 / 3.0).max() <= 1e-10


def test_select_all_zero_family_returns_uniform_weights():
    grid = Grid(8)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=1.0, dt=0.5, forcing=Forcing("zero"))
    zero = from_velocity(spec, np.array([0.0, 0.5, 1.0]),
                         np.zeros((3, 2, 8, 5), dtype=complex))
    res = select(assemble_family([zero] * 3))
    assert np.abs(res.weights.lam - 1.0 / 3.0).max() <= 1e-15
    assert (res.rank, res.unique, res.objective, res.kkt_residual) == (0, False, 0.0, 0.0)


def test_select_ties_on_a_zero_energy_face():
    # members b, -b, b: J = 0 on the whole segment lambda_1 + lambda_3 =
    # lambda_2 = 1/2, where the computed J values are rounding of either sign
    grid = Grid(16)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=1.0, dt=0.25, forcing=Forcing("zero"))
    b = taylor_green(0.0, 0.1, grid).coeffs
    times = np.linspace(0.0, 1.0, 5)
    trajs = [from_velocity(spec, times, np.stack([s * b] * 5))
             for s in (1.0, -1.0, 1.0)]
    res = select(assemble_family(trajs), data_rtol=10.0)
    assert np.abs(res.weights.lam - [0.25, 0.5, 0.25]).max() <= 1e-12
    assert (res.rank, res.unique) == (1, False)
    assert res.objective <= 1e-14


def test_select_rejects_more_members_than_supports_listed(tg_ladder):
    fam = assemble_family([tg_ladder[0]] * (MAX_MEMBERS + 1))
    with pytest.raises(SelectorError, match="at most 8"):
        select(fam)


# -- convexity of the certified set ------------------------------------------

def _tg_certify_fn(nu):
    def fn(traj, budget_scale):
        vt = TestTrajectory.taylor_green(nu, traj.grid)
        tol = ToleranceModel(step_coeff=10.0 * budget_scale,
                             quadrature=budget_scale * 1e-9)
        return certify(traj, [vt], STRAIN, tol_model=tol)
    return fn


def test_midpoint_of_identical_members(tg_ladder):
    fam = assemble_family([tg_ladder[2], tg_ladder[2]])
    fn = _tg_certify_fn(0.05)
    (mid,) = verify_convex_midpoint(fam, fn)
    assert mid.verdict
    assert worst_margin(mid) == pytest.approx(worst_margin(fn(tg_ladder[2], 2.0)), rel=1e-10)


def test_midpoint_certifies_with_summed_budget(tg_ladder):
    fam = assemble_family([tg_ladder[0], tg_ladder[2]])
    reports = verify_convex_midpoint(fam, _tg_certify_fn(0.05),
                                     lambdas=[0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(reports) == 5 and all(r.verdict for r in reports)


def test_midpoint_needs_two_members(tg_ladder):
    fam = assemble_family([tg_ladder[0]])
    with pytest.raises(SelectorError):
        verify_convex_midpoint(fam, _tg_certify_fn(0.05))


# -- continuous dependence ---------------------------------------------------

def test_continuous_dependence_quadratic_decay():
    nu = 0.1
    grid = Grid(16)
    w = from_function(grid, lambda x, y: np.sin(2 * x) * np.cos(2 * y),
                      lambda x, y: -np.cos(2 * x) * np.sin(2 * y),
                      solenoidal=True).coeffs

    def builder(delta):
        spec = SystemSpec(nu=nu, grid=grid, t_end=0.25, dt=2.5e-3,
                          forcing=Forcing("zero"))
        v0 = SpectralField(grid, taylor_green(0.0, nu, grid).coeffs + delta * w)
        return assemble_family([solve(spec, v0, sample_stride=10)])

    rel, low = continuous_dependence_study(builder, [1e-1, 5e-2])
    # R scales like delta^2: halving delta divides it by 4, within factor 2
    assert rel[1] / rel[0] == pytest.approx(0.25, abs=0.125)
    assert all(d > 0 for d in low)
    assert continuous_dependence_study(builder, [0.0])[0][0] <= 1e-14
