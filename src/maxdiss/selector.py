"""Selection of the maximal dissipative trajectory from a candidate family.

A run's members form one ``CandidateFamily``: trajectories sharing sample times
and forcing, certified and mixed on the grid of the finest.  The time-integrated
kinetic energy J(lambda) = 1/2 int_0^T E(u_lambda) dt is minimized over convex
combinations u_lambda = sum lambda_i u_i of certified members of one datum.
J = 1/4 lambda^T H lambda is a convex quadratic, H the members' Gram matrix
integrated over time once by the certifier's Simpson rule; with at most
MAX_MEMBERS members it is minimized exactly, support by support.  The mixed
trajectory is unique even when the weights are not (singular Gram), so the
deliverable is the mixture of the stored members by the recorded weights, its
witness: ``select`` returns the weights, and ``CandidateFamily.mix`` forms the
mixture on demand.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import combinations, combinations_with_replacement

import numpy as np

from .fields import Grid, _embed, spectral_tables
from .relenergy import cumulative_weight_integral
from .solver import Trajectory, _shares_samples, _velocity_pairing


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


# -- candidate family -------------------------------------------------------

@dataclass(frozen=True)
class CandidateFamily:
    """The members of one run, sharing sample times and forcing, on the finest one's grid."""

    member_ids: tuple
    trajs: tuple

    @property
    def size(self) -> int:
        return len(self.member_ids)

    @property
    def times(self) -> np.ndarray:
        return self.trajs[0].times

    @property
    def n(self) -> int:
        return max(tr.grid.n for tr in self.trajs)

    def on_grid(self, i: int, sl=slice(None), n: int | None = None):
        """Member i's vorticity samples ``sl`` on the common grid or on grid n, by
        ``_embed``: exact zero-padding, or truncation."""
        tr, n = self.trajs[i], self.n if n is None else n
        return tr.vorticity[sl] if tr.grid.n == n else _embed(tr.vorticity[sl], tr.grid.n, n)

    def subfamily(self, member_ids) -> "CandidateFamily":
        """The members named in ``member_ids``, in this family's order."""
        keep = [i for i, mid in enumerate(self.member_ids) if mid in member_ids]
        return CandidateFamily(*(tuple(a[i] for i in keep) for a in (self.member_ids, self.trajs)))

    @functools.cached_property
    def H(self) -> np.ndarray:
        """(m, m), H_ij = int_0^T <u_i, u_j> dt by the certifier's Simpson rule, integrated
        on first use from the members' vorticities on the common grid."""
        m, w = self.size, [self.on_grid(i) for i in range(self.size)]
        gram = np.empty((self.times.size, m, m))
        for i, j in combinations_with_replacement(range(m), 2):
            gram[:, i, j] = gram[:, j, i] = _velocity_pairing(w[i], w[j])
        return gram[0] if self.times.size == 1 else cumulative_weight_integral(gram, self.times)[-1]

    def mix(self, weights: SimplexWeights) -> Trajectory:
        """The convex combination sum_i lambda_i u_i, summed in the members' vorticity
        on the common grid, with the first member's system at the least member dt."""
        lam = weights.lam
        if lam.size != self.size:
            raise SelectorError("weight/member count mismatch")
        spec = replace(self.trajs[0].spec, grid=Grid(self.n),
                       dt=min(tr.spec.dt for tr in self.trajs))
        return Trajectory(spec, self.times,
                          sum(w * self.on_grid(i) for i, w in enumerate(lam)),
                          provenance=f"mixture lambda={lam.tolist()}")


def assemble_family(trajs, member_ids=None) -> CandidateFamily:
    """The family of trajectories that share sample times and forcing, as members
    certified or mixed together must; ids default to member_<i>."""
    if not (trajs := tuple(trajs)):
        raise SelectorError("family must not be empty")
    ids = tuple(member_ids or (f"member_{i}" for i in range(len(trajs))))
    for mid, tr in zip(ids[1:], trajs[1:]):
        if not _shares_samples(trajs[0], tr):
            raise SelectorError(f"{mid}: sample times or forcing differ from {ids[0]}'s")
    return CandidateFamily(ids, trajs)


# -- optimization -----------------------------------------------------------

#: the exact solve lists every support of the weights, 2^m - 1 of them
MAX_MEMBERS = 8

#: relative resolution of H: eigenvalues at or below RTOL * lambda_max are
#: zeroed, and J values within RTOL * lambda_max of the least J are tied.  The benchmark
#: families are one solution at several resolutions, so H is numerically
#: rank 1 (eigenvalues 4.3e-16, 1.6e-11, 4.38 on perfbench's cert_dense_32
#: at seed 0).  A cut at 1e-12 keeps the 1.6e-11 eigenvalue, which holds the
#: members' truncation differences, and selects lambda = (0.501, 0.250,
#: 0.250): it lowers J by only 4.6e-13 relative and misses the lambda
#: tolerance of 1e-6 in perfbench/check.py.
RTOL = 1e-10


@dataclass(frozen=True)
class SelectionResult:
    weights: SimplexWeights
    objective: float
    kkt_residual: float
    iterations: int      # support systems solved
    rank: int            # numerical rank of H
    unique: bool         # no other weights reach the least J

    def to_dict(self, family: CandidateFamily) -> dict:
        return {"lambda": self.weights.lam.tolist(), "objective": self.objective,
                "kkt_residual": self.kkt_residual, "rank": self.rank,
                "unique": self.unique, "member_ids": list(family.member_ids)}


def objective(family: CandidateFamily, lam: np.ndarray) -> float:
    """J(lambda) = 1/2 int_0^T E(u_lambda) dt = 1/4 lambda^T H lambda."""
    return 0.25 * float(lam @ family.H @ lam)


def kkt_residual(family: CandidateFamily, weights: SimplexWeights) -> float:
    """max over the support of g_i - min_j g_j, g = 1/2 H lambda the gradient
    of J; zero exactly at a minimizer over the simplex."""
    lam = weights.lam
    g = 0.5 * (family.H @ lam)
    return float(g[lam > 0].max() - g.min())


def select(family: CandidateFamily, data_rtol: float = 1e-8) -> SelectionResult:
    """Minimize the time-integrated energy over the simplex, exactly.

    The members must be of one datum (nu, u0), their initial data equal to
    ``data_rtol`` relative after truncation to the coarsest grid.  With H cut
    to its numerical rank, each support S gives the stationary point of J on
    its face from the bordered KKT system [[H_SS, 1], [1^T, 0]] (Boyd &
    Vandenberghe, Convex Optimization 5.5), the least-norm one when H_SS is
    singular.  Of the feasible points tied at the least J, the one with the
    least norm is selected.  The result holds these weights, a witness of the
    deliverable ``family.mix(result.weights)``, which is not formed here.
    """
    m = family.size
    if m > MAX_MEMBERS:
        raise SelectorError(f"{m} members, the exact solve takes at most {MAX_MEMBERS}")
    first, n_min = family.trajs[0], min(tr.grid.n for tr in family.trajs)
    # the initial data truncated to the coarsest grid, its Nyquist modes zeroed
    u0 = [family.on_grid(i, 0, n_min) * spectral_tables(n_min).nyquist for i in range(m)]
    scale = max(np.sqrt(_velocity_pairing(u0[0], u0[0])), 1.0)
    for mid, tr, u in zip(family.member_ids[1:], family.trajs[1:], u0[1:]):
        if tr.spec.nu != first.spec.nu:
            raise SelectorError(f"{mid}: viscosity mismatch: {tr.spec.nu} vs {first.spec.nu}")
        if (gap := np.sqrt(_velocity_pairing(u - u0[0], u - u0[0]))) > data_rtol * scale:
            raise SelectorError(f"{mid}: initial data mismatch ({gap:g}) with "
                                f"{family.member_ids[0]}'s after truncation")
    eig, vec = np.linalg.eigh(family.H)
    keep = eig > RTOL * eig.max()
    # scaled to lambda_max = 1, so that lstsq's cut and the ties are relative to H
    Hr = (vec[:, keep] * (eig[keep] / eig.max())) @ vec[:, keep].T
    supports = [S for k in range(1, m + 1) for S in combinations(range(m), k)]
    candidates = []
    for S in supports:
        K = np.ones((len(S) + 1, len(S) + 1))
        K[:-1, :-1], K[-1, -1] = Hr[np.ix_(S, S)], 0.0
        x = np.linalg.lstsq(K, np.eye(len(S) + 1)[-1], rcond=RTOL)[0][:-1]
        if x.min() >= 0.0:
            candidates.append(np.bincount(S, x, minlength=m))  # x scattered onto S
    J = np.array([lam @ Hr @ lam for lam in candidates])
    tied = [lam for lam, j in zip(candidates, J) if j <= J.min() + RTOL]
    weights = SimplexWeights(min(tied, key=np.linalg.norm))
    # a J within RTOL fixes lambda to about sqrt(RTOL)
    unique = all(np.abs(lam - weights.lam).max() <= np.sqrt(RTOL) for lam in tied)
    return SelectionResult(weights=weights, objective=objective(family, weights.lam),
                           kkt_residual=kkt_residual(family, weights), iterations=len(supports),
                           rank=int(keep.sum()), unique=unique)
