"""Evaluation of the Gronwall-weighted relative energy inequality.

A trajectory is certified against a finite list of C^1 test trajectories:
for each test and sample time the two sides of the inequality are computed
by composite Simpson quadrature on the sample grid, and the verdict compares
the margin (rhs - lhs) against an explicit tolerance budget.  Verdicts are
always relative to the supplied tests.

``certify_members`` tests all members of a run's candidate family against the same v
on the test's grid, coarser members zero-padded, so the inequality, convex in u, carries
over to their mixtures.  Members and tests are vorticities (``solver._curl``), and R, W
and <A, u - v> sums over them.  For a separable test v = a(t) U, as every test that
``scenarios.build_tests`` makes is, these are polynomials in a and a' of pairings taken
once (``_Projections``): per member and sample, once per call, <u, u>, <u, |k|^2 u> and
<u, X> for X = U, |k|^2 U and C = -curl N(U) of each distinct shape and X = curl P_n f;
per distinct shape, sup|S(U)|, C and <U, X>; per test, a(t) and a'(t) alone.  They
differ from the per-block sums over u - v of a sampled test by roundoff only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .fields import TWO_PI, Grid, spectral_tables
from .relenergy import (
    WeightSpec,
    cumulative_weight_integral,
    rel_terms,
    residual_A,
    weight_norms,
    weight_value,
)
from .selector import CandidateFamily
from .solver import Forcing, TestTrajectory, _velocity_pairing


class CertificateError(ValueError):
    pass


#: e^{-I(t)} below which a sample tests nothing: its damped terms fall
#: under the float64 rounding of the undamped R(0) on the right-hand side
VACUOUS_DAMPING = 1e-16


@dataclass(frozen=True)
class ToleranceModel:
    """tau(t) = step_coeff * dt^4 * t + quadrature.

    The two components absorb, in order, the O(dt^4) defect of the time
    stepper's discrete energy identity and the Simpson quadrature error of
    the time integrals.  Calibrated on the Taylor-Green scenario.
    ``certify_members`` scales tau(t) by exp(-I(t)), the damping of the margins.
    """

    step_coeff: float = 10.0
    quadrature: float = 1e-9

    def tau(self, t, dt: float):
        return self.step_coeff * dt ** 4 * t + self.quadrature

    def to_dict(self) -> dict:
        return {"step_coeff": self.step_coeff, "quadrature": self.quadrature}


@dataclass(frozen=True)
class CertificateReport:
    """One member's certificate.  ``series`` maps each test id, in test order, to
    the damped "lhs", "margin" and "tol" = tau(t) exp(-I(t)) at ``times`` and the
    scalar "rhs" = R(0); an errored test has an entry in ``errors`` instead."""

    times: np.ndarray
    series: dict
    errors: dict
    tests: dict  # test id -> {"weight_integral": I(T), "horizon": first t with e^{-I} < 1e-16}
    weight: WeightSpec
    tolerance: ToleranceModel
    stride: float

    @property
    def verdict(self) -> bool:
        return not self.errors and all(np.all(s["margin"] >= -s["tol"])
                                       for s in self.series.values())

    def to_dict(self) -> dict:
        """The JSON of ``save_json``: ``times`` once, then ``series`` as held, per test id
        the "lhs", "margin" and "tol" lists over ``times`` and the scalar "rhs"."""
        return {
            "verdict": "pass" if self.verdict else "fail",
            "times": self.times.tolist(),
            "series": {tid: {k: v if k == "rhs" else v.tolist() for k, v in s.items()}
                       for tid, s in self.series.items()},
            "errors": dict(self.errors),
            "tests": dict(self.tests),
            "config": {"weight": self.weight.to_dict(),
                       "tolerance": self.tolerance.to_dict(),
                       "quadrature_stride": self.stride},
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:  # one write; indent would take json's Python encoder
            fh.write(json.dumps(self.to_dict()))


# -- margin computation -----------------------------------------------------

@dataclass(frozen=True)
class _MarginSeries:
    """Damped form of the relative energy inequality at every sample time, one
    row per member.

    The raw inequality carries growth factors exp(int_s^t K), which grow
    without bound in I(t), so both sides are scaled by exp(-int_0^t K) > 0.
    The scaling preserves sign, so verdicts are unchanged; all Gronwall
    weights then lie in (0, 1].
    """

    times: np.ndarray            # (T,)
    rel_energies: np.ndarray     # (members, T): R(u(t)|v(t)), unscaled
    weight_integral: np.ndarray  # (T,): I(t) = int_0^t K, shared by the members
    dissipation_integrand: np.ndarray  # (members, T): (W + <A, u-v>) e^{-I(t)}
    margins: np.ndarray          # (members, T): R(0) - lhs
    lhs: np.ndarray              # (members, T)


def _blocks(size: int, n: int) -> list:
    """Sample slices of at most 1 MiB at 128 n^2 bytes per sample, four float64
    fields on the 2n x 2n grid (the strain samples of ``weight_norms`` are two),
    for a sampled test; ``_Projections`` pairs each member in the same slices."""
    step = max(1, (1 << 20) // (128 * n * n))
    return [slice(s, s + step) for s in range(0, size, step)]


class _Projections:
    """The terms of every separable test on one grid from the pairings that the module
    docstring lists.  X = U, |k|^2 U and C of each distinct shape, and P = curl P_n f,
    are stacked with the energy weight, the mirror count and (2 pi)^2 of
    ``_velocity_pairing`` folded in, so that u's pairings are one real matrix product
    per sample block of u's float64 view, and U's own row gives <U, X>.  ``terms``
    takes a test's R, W and <A_nu, u - v> from them, A_nu = a' U + nu a |k|^2 U + a^2 C - P.
    """

    def __init__(self, family: CandidateFamily, tests: list, grid: Grid):
        n, tab, spec = grid.n, spectral_tables(grid.n), family.trajs[0].spec
        shapes = {id(vt.shape): vt.shape for vt in tests}  # distinct, in test order
        self.times, self.index = family.times, {key: j for j, key in enumerate(shapes)}
        self.nu = np.array([[tr.spec.nu] for tr in family.trajs])
        U = np.stack(list(shapes.values()))
        self.norms = weight_norms(U)
        C = residual_A(U, 0.0, replace(spec, nu=0.0, grid=grid, forcing=Forcing()))
        P = spec.forcing.curl(n)
        X = np.concatenate([np.stack([U, tab.k2 * U, C], axis=1).reshape(-1, *U.shape[1:]),
                            np.zeros_like(U[:1]) if P is None else P[None]])
        weight = TWO_PI ** 2 * tab.energy * np.where(tab.ky % (n // 2) == 0, 1.0, 2.0)
        self._right = (X * weight).view(np.float64).reshape(len(X), -1).T
        self.shape_terms = self._pairings(U)
        self.member_terms = np.empty((family.size, self.times.size, 2 + len(X)))
        for i in range(family.size):
            for sl in _blocks(self.times.size, n):
                self.member_terms[i, sl] = self._pairings(family.on_grid(i, sl, n))

    def _pairings(self, w: np.ndarray) -> np.ndarray:
        """(B, 2 + len(X)) for B vorticities: 1/2 <w, w> and 1/2 <w, |k|^2 w> by
        ``rel_terms``, then <w, X> per X."""
        f = np.ascontiguousarray(w).view(np.float64).reshape(len(w), -1)
        return np.column_stack([*rel_terms(w, 1.0), f @ self._right])

    def terms(self, vt: TestTrajectory):
        """sup|S(v)|, (T,), and R and W + <A_nu, u - v>, (members, T), of the members
        against the separable test vt, from a, a' and the pairings."""
        j, nu, s = self.index[id(vt.shape)], self.nu, self.member_terms
        a, da = vt.amplitude(self.times)
        cols = [2 + 3 * j, 3 + 3 * j, 4 + 3 * j, -1]
        uU, uKU, uC, uP = np.moveaxis(s[..., cols], -1, 0)
        UU, UKU, UC, UP = self.shape_terms[j, cols]
        R = s[..., 0] - a * uU + 0.5 * a * a * UU
        W = nu * (s[..., 1] - a * uKU + 0.5 * a * a * UKU)
        pair = (da * uU + a * a * uC - uP + nu * a * uKU) \
            - (a * da * UU + a ** 3 * UC - a * UP + nu * a * a * UKU)
        return np.abs(a) * self.norms[j], R, W + pair


def margin_series(family: CandidateFamily, vt: TestTrajectory, w: WeightSpec,
                  projections: _Projections | None = None) -> _MarginSeries:
    """Both sides of the relative energy inequality at every sample time, for
    each member of a family against one test, on the test's grid.

    The members are no finer than the test; coarser ones are zero-padded by
    ``family.on_grid``.  A separable test v = a(t) U takes its terms from
    ``projections`` (of its grid and holding U, else built for vt alone): as S
    is linear and the convection quadratic in v, they are polynomials in a and a'.
    Any other test has its weight norms and residual curl A_0 (nu = 0) computed per
    sample block, and per block each member adds A_nu = A_0 + nu |k|^2 w, its R,
    its W and one pairing.  The weight is nu-free, so all members share I(t).
    """
    if family.n > (n := vt.grid.n):
        raise CertificateError(f"grid mismatch: trajectory n={family.n}, test n={n}")
    times = family.times
    if vt.shape is not None:
        norms, R, g = (projections or _Projections(family, [vt], vt.grid)).terms(vt)
    else:
        tab, spec0 = spectral_tables(n), replace(family.trajs[0].spec, nu=0.0, grid=vt.grid)
        norms, R, g = np.empty(times.size), *np.empty((2, family.size, times.size))
        for sl in _blocks(times.size, n):
            values = vt.values(times[sl])
            norms[sl] = weight_norms(values)
            a0 = residual_A(values, vt.derivs(times[sl]), spec0)
            viscous = tab.k2 * values
            for i, u in enumerate(family.trajs):
                nu = u.spec.nu
                diff = family.on_grid(i, sl, n) - values
                R[i, sl], W = rel_terms(diff, nu)
                g[i, sl] = W + _velocity_pairing(a0 + nu * viscous if nu else a0, diff)
    I = cumulative_weight_integral(weight_value(norms, w), times)
    damp = np.exp(-I)
    g *= damp
    lhs = damp * R + cumulative_weight_integral(g.T, times).T
    return _MarginSeries(times, R, I, g, R[:, :1] - lhs, lhs)


def certify_members(family: CandidateFamily, tests, w: WeightSpec,
                    tol_model: ToleranceModel = ToleranceModel()) -> list:
    """Certify the members of a family against one list of test trajectories,
    one ``margin_series`` pass per test; returns one CertificateReport per
    member, in order.  Test ids (label, or test_<position>) must be distinct.
    The separable tests share one ``_Projections`` per test grid, so each member is
    paired once per call and each distinct shape's kernels run once.

    Domain errors (ValueError) of single tests are isolated: their error
    string is recorded for every member and the remaining tests are still
    evaluated (an errored test fails the overall verdict).  Margins and
    tolerances are both in the damped units of ``margin_series``.
    """
    if not (tests := list(tests)):
        raise CertificateError("need at least one test")
    ids = [vt.label or f"test_{idx}" for idx, vt in enumerate(tests)]
    for idx, test_id in enumerate(ids):
        if (first := ids.index(test_id)) < idx:
            raise CertificateError(f"test id {test_id!r} repeats: tests {first} and {idx}")
    # margin_series refuses a test grid coarser than the family's: that test errors alone
    separable = [vt for vt in tests if vt.shape is not None and vt.grid.n >= family.n]
    projections = {grid: _Projections(family, [vt for vt in separable if vt.grid == grid], grid)
                   for grid in {vt.grid for vt in separable}}
    times, errors, records = family.times, {}, {}
    series = [{} for _ in family.trajs]
    for test_id, vt in zip(ids, tests):
        try:
            s = margin_series(family, vt, w, projections.get(vt.grid))
        except ValueError as exc:  # domain errors only; bugs propagate
            errors[test_id] = f"{type(exc).__name__}: {exc}"
            continue
        damp = np.exp(-s.weight_integral)
        vacuous = times[damp < VACUOUS_DAMPING]
        records[test_id] = {"weight_integral": float(s.weight_integral[-1]),
                            "horizon": float(vacuous[0]) if vacuous.size else None}
        for u, own, R, lhs, m in zip(family.trajs, series, s.rel_energies, s.lhs, s.margins):
            own[test_id] = {"lhs": lhs, "rhs": float(R[0]), "margin": m,
                            "tol": tol_model.tau(times, u.spec.dt) * damp}
    stride = float(times[1] - times[0]) if times.size > 1 else 0.0
    return [CertificateReport(times, own, errors, records, w, tol_model, stride)
            for own in series]
