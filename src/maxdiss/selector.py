"""Selection of the maximal dissipative trajectory from a candidate family.

The time-integrated kinetic energy J(lambda) = 1/2 int_0^T E(u_lambda) dt
is minimized over convex combinations u_lambda = sum lambda_i u_i of
certified candidates.  J is a convex quadratic in lambda (via the Gram
matrices of the members), so projected gradient descent with a sort-based
simplex projection finds the global minimum; a KKT residual certifies
optimality.  The mixed trajectory is unique even when the weights are not
(singular Gram), so the trajectory is the deliverable and the weights a
witness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Grid, SpectralField, inner, l2_norm, resample
from .relenergy import rel_energy, simpson
from .solver import SystemSpec, Trajectory, state_spline


class SelectorError(ValueError):
    pass


@dataclass(frozen=True)
class SimplexWeights:
    """Convex-combination coefficients over the family members."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise SelectorError("weights must be a nonempty vector")
        if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-12:
            raise SelectorError(f"weights not on the simplex: {lam}")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)


def simplex_project(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    y = np.asarray(y, dtype=float)
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, y.size + 1)
    cond = u - css / ind > 0
    rho = ind[cond][-1]
    theta = css[cond][-1] / rho
    x = np.maximum(y - theta, 0.0)
    return x / x.sum()


# -- candidate family -------------------------------------------------------

@dataclass(frozen=True)
class CandidateFamily:
    """Candidate trajectories sharing data, on a common grid and time axis."""

    members: tuple
    member_ids: tuple
    times: np.ndarray
    states: tuple        # states[i][k]: member i at time t_k, common grid
    gram: np.ndarray     # (T, m, m) with G_ij(t_k) = <u_i(t_k), u_j(t_k)>
    spec: SystemSpec

    @property
    def size(self) -> int:
        return len(self.members)

    def gram_time_integral(self) -> np.ndarray:
        if self.times.size == 1:
            return self.gram[0]
        return simpson(self.gram, self.times)

    def mix(self, weights: SimplexWeights, provenance: str = "") -> Trajectory:
        """The convex combination sum_i lambda_i u_i as a Trajectory."""
        lam = weights.lam
        if lam.size != self.size:
            raise SelectorError("weight/member count mismatch")
        mixed = []
        for k in range(self.times.size):
            coeffs = sum(lam[i] * self.states[i][k].coeffs for i in range(self.size))
            mixed.append(SpectralField(self.spec.grid, coeffs, solenoidal=True))
        return Trajectory(spec=self.spec, times=self.times, states=mixed,
                          provenance=provenance or f"mixture lambda={lam.tolist()}")


def _resample_states(traj: Trajectory, common_n: int, times: np.ndarray):
    states = [resample(s, common_n) for s in traj.states]
    if times.size == traj.times.size and np.allclose(times, traj.times, atol=1e-12):
        return states
    if times[-1] > traj.times[-1] + 1e-12:
        raise SelectorError("common times exceed a member's range")
    spline = state_spline(traj.times, states)
    grid = Grid(common_n)
    return [SpectralField(grid, spline(t), solenoidal=True) for t in times]


def assemble_family(trajs, common_n: int | None = None,
                    common_times: np.ndarray | None = None,
                    member_ids=None, data_rtol: float = 1e-8) -> CandidateFamily:
    """Resample compatible trajectories to a common grid and precompute Grams.

    Members must share viscosity and forcing, and their initial data must
    agree after truncation to the smallest resolution: the dissipative
    solution set is specific to one (nu, f, u0) datum.
    """
    trajs = list(trajs)
    if not trajs:
        raise SelectorError("family must not be empty")
    nu = trajs[0].spec.nu
    f_desc = trajs[0].spec.forcing.to_dict()
    for tr in trajs[1:]:
        if tr.spec.nu != nu:
            raise SelectorError(f"viscosity mismatch: {tr.spec.nu} vs {nu}")
        if tr.spec.forcing.to_dict() != f_desc:
            raise SelectorError("forcing mismatch between members")
    n_min = min(tr.grid.n for tr in trajs)
    u0_ref = resample(trajs[0].states[0], n_min)
    scale = max(l2_norm(u0_ref), 1.0)
    for tr in trajs[1:]:
        gap = l2_norm(resample(tr.states[0], n_min) - u0_ref)
        if gap > data_rtol * scale:
            raise SelectorError(f"initial data mismatch ({gap:g}) after truncation")

    if common_n is None:
        common_n = max(tr.grid.n for tr in trajs)
    if common_times is None:
        common_times = min((tr.times for tr in trajs), key=len)
    common_times = np.asarray(common_times, dtype=float)

    states = tuple(_resample_states(tr, common_n, common_times) for tr in trajs)
    m = len(trajs)
    gram = np.empty((common_times.size, m, m))
    for k in range(common_times.size):
        for i in range(m):
            for j in range(i, m):
                gram[k, i, j] = gram[k, j, i] = inner(states[i][k], states[j][k])

    if member_ids is None:
        member_ids = tuple(f"member_{i}" for i in range(m))
    spec = replace(trajs[0].spec, grid=Grid(common_n),
                   dt=min(tr.spec.dt for tr in trajs))
    return CandidateFamily(members=tuple(trajs), member_ids=tuple(member_ids),
                           times=common_times, states=states, gram=gram, spec=spec)


# -- optimization -----------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    weights: SimplexWeights
    objective: float
    kkt_residual: float
    trajectory: Trajectory
    iterations: int
    converged: bool

    def to_dict(self, family: CandidateFamily | None = None) -> dict:
        d = {"lambda": self.weights.lam.tolist(), "objective": self.objective,
             "kkt_residual": self.kkt_residual, "iterations": self.iterations,
             "converged": self.converged}
        if family is not None:
            d["member_ids"] = list(family.member_ids)
        return d


def objective(family: CandidateFamily, lam: np.ndarray) -> float:
    """J(lambda) = 1/2 int_0^T E(u_lambda) dt = 1/4 lambda^T H lambda."""
    H = family.gram_time_integral()
    return 0.25 * float(lam @ H @ lam)


def kkt_residual(family: CandidateFamily, weights: SimplexWeights) -> float:
    """Norm of the projected-gradient fixed-point residual at the weights."""
    H = family.gram_time_integral()
    lam = weights.lam
    grad = 0.5 * (H @ lam)
    return float(np.linalg.norm(lam - simplex_project(lam - grad)))


def select(family: CandidateFamily, start: np.ndarray | None = None,
           max_iter: int = 10000, kkt_tol: float = 1e-8) -> SelectionResult:
    """Minimize the time-integrated energy over the simplex.

    Deterministic projected gradient with Armijo backtracking; raises no
    error on hitting max_iter but reports converged=False with the best
    iterate and its KKT residual.
    """
    m = family.size
    H = family.gram_time_integral()
    lam = np.full(m, 1.0 / m) if start is None else simplex_project(np.asarray(start, float))

    def J(x):
        return 0.25 * float(x @ H @ x)

    eig_scale = np.linalg.norm(H, 2)
    step = 2.0 / eig_scale if eig_scale > 0 else 1.0
    f = J(lam)
    it = 0
    for it in range(1, max_iter + 1):
        grad = 0.5 * (H @ lam)
        cand = simplex_project(lam - step * grad)
        d = cand - lam
        if np.linalg.norm(d) == 0:
            break
        # Armijo backtracking on the projected-gradient direction
        f_new = J(cand)
        backtracks = 0
        while f_new > f + 1e-4 * float(grad @ d) and backtracks < 60:
            step *= 0.5
            cand = simplex_project(lam - step * grad)
            d = cand - lam
            f_new = J(cand)
            backtracks += 1
        if f_new > f:
            break
        lam, f = cand, f_new
        if backtracks == 0:
            step *= 1.5
        res = np.linalg.norm(lam - simplex_project(lam - 0.5 * (H @ lam)))
        if res <= kkt_tol:
            break

    weights = SimplexWeights(simplex_project(lam))
    res = kkt_residual(family, weights)
    return SelectionResult(weights=weights, objective=J(weights.lam),
                           kkt_residual=res,
                           trajectory=family.mix(weights),
                           iterations=it, converged=res <= max(kkt_tol, 1e-6))


# -- convexity and stability studies ----------------------------------------

@dataclass(frozen=True)
class MidpointReport:
    lambdas: tuple
    worst_margins: tuple
    budgets: tuple
    verdicts: tuple

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts)


def verify_convex_midpoint(family: CandidateFamily, certify_fn,
                           lambdas=None) -> MidpointReport:
    """Certify midpoints / a lambda sweep of two-member combinations.

    ``certify_fn(trajectory, budget_scale)`` must return a
    CertificateReport evaluated with the summed budget; member budgets sum
    because the inequality is linear in the two certified inequalities.
    """
    if family.size < 2:
        raise SelectorError("midpoint verification needs >= 2 members")
    if lambdas is None:
        lambdas = [0.5]
    worst, budgets, verdicts = [], [], []
    for lam in lambdas:
        weights = SimplexWeights(np.array([lam, 1.0 - lam] +
                                          [0.0] * (family.size - 2)))
        mixed = family.mix(weights)
        report = certify_fn(mixed, 2.0)
        worst.append(report.worst_margin())
        budgets.append(max((e.tol for e in report.entries), default=0.0))
        verdicts.append(report.verdict)
    return MidpointReport(lambdas=tuple(lambdas), worst_margins=tuple(worst),
                          budgets=tuple(budgets), verdicts=tuple(verdicts))


@dataclass(frozen=True)
class ScalingReport:
    deltas: tuple
    rel_energies: tuple      # max_t R(selected_delta | selected_base)
    lowpass_distances: tuple  # L2(0,T) distance of low-pass selected states
    ratios: tuple            # rel-energy decay factors between deltas

    @property
    def monotone(self) -> bool:
        return all(a >= b for a, b in zip(self.rel_energies, self.rel_energies[1:]))


def _lowpass_distance(a: Trajectory, b: Trajectory, n_low: int = 8) -> float:
    vals = [l2_norm(resample(sa, n_low) - resample(sb, n_low)) ** 2
            for sa, sb in zip(a.states, b.states)]
    return float(np.sqrt(simpson(np.array(vals), a.times)))


def continuous_dependence_study(family_builder, deltas) -> ScalingReport:
    """Perturbation study of the selected trajectory.

    ``family_builder(delta)`` returns an assembled CandidateFamily for the
    delta-perturbed data; delta = 0 is the base.  Records the relative
    energy and weak (low-pass) distance between each perturbed selection
    and the base selection.
    """
    deltas = list(deltas)
    base = select(family_builder(0.0)).trajectory
    rel, low = [], []
    for d in deltas:
        sel = select(family_builder(d)).trajectory
        rel.append(max(rel_energy(sa, sb)
                       for sa, sb in zip(sel.states, base.states)))
        low.append(_lowpass_distance(sel, base))
    ratios = tuple(b / a if a > 0 else 0.0 for a, b in zip(rel, rel[1:]))
    return ScalingReport(deltas=tuple(deltas), rel_energies=tuple(rel),
                         lowpass_distances=tuple(low), ratios=ratios)
