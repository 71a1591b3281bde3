"""Evaluation of the Gronwall-weighted relative energy inequality.

A trajectory is certified against a finite list of C^1 test trajectories:
for each test and sample time the two sides of the inequality are computed
by composite Simpson quadrature on the sample grid, and the verdict compares
the margin (rhs - lhs) against an explicit tolerance budget.  Verdicts are
always relative to the supplied tests.

``certify_members`` tests all members of a run's candidate family against the same v
on the test's grid, coarser members zero-padded, so the inequality, convex in u, carries
over to their mixtures; the test terms are computed once, on U if v = a(t) U.  Members
and tests are vorticities (``solver._curl``), and R, W and <A, u - v> sums over them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .fields import spectral_tables
from .relenergy import (
    WeightSpec,
    cumulative_weight_integral,
    rel_terms,
    residual_A,
    weight_norms,
    weight_value,
)
from .selector import CandidateFamily, assemble_family
from .solver import Forcing, TestTrajectory, Trajectory, _velocity_pairing


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
    ``certify`` scales tau(t) by exp(-I(t)), the damping of the margins.
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
    _COLUMNS = ("test_id", "t", "lhs", "rhs", "margin", "tol")  # of the JSON rows and the CSV

    @property
    def verdict(self) -> bool:
        return not self.errors and all(np.all(s["margin"] >= -s["tol"])
                                       for s in self.series.values())

    def _rows(self):
        """One tuple of ``_COLUMNS`` per test and sample time, in floats."""
        times = self.times.tolist()
        for tid, s in self.series.items():
            for t, lhs, m, tol in zip(times, *(s[k].tolist() for k in ("lhs", "margin", "tol"))):
                yield tid, t, lhs, s["rhs"], m, tol

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "entries": [dict(zip(self._COLUMNS, row)) for row in self._rows()],
            "errors": dict(self.errors),
            "tests": dict(self.tests),
            "config": {"weight": self.weight.to_dict(),
                       "tolerance": self.tolerance.to_dict(),
                       "quadrature_stride": self.stride},
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:  # one write; indent would take json's Python encoder
            fh.write(json.dumps(self.to_dict()))

    def save_csv(self, path) -> None:
        """The rows as ``csv.writer`` writes them, in one write."""
        ids = {tid: _csv_field(tid) for tid in self.series}
        rows = [f"{ids[tid]},{t:.12g},{lhs:.17g},{rhs:.17g},{m:.17g},{tol:.12g}"
                for tid, t, lhs, rhs, m, tol in self._rows()]
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join([",".join(self._COLUMNS), *rows, ""]))


def _csv_field(s: str) -> str:
    """s as the excel dialect of ``csv.writer`` writes it: quoted, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


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
    for a sampled test; for a separable one they bound the member-side arrays."""
    step = max(1, (1 << 20) // (128 * n * n))
    return [slice(s, s + step) for s in range(0, size, step)]


def margin_series(family: CandidateFamily, vt: TestTrajectory, w: WeightSpec) -> _MarginSeries:
    """Both sides of the relative energy inequality at every sample time, for
    each member of a family against one test, on the test's grid.

    The members are no finer than the test; coarser ones are zero-padded by
    ``family.on_grid``.  The residual is taken as curl A_0 (nu = 0) and |k|^2 w.
    For a separable test v = a(t) U, as S is linear and the convection
    quadratic in v, the weight norms are |a| sup|S(U)| and
    curl A_0 = a' U - a^2 curl N(U) - curl P_n f, with curl N(U) from ``residual_A``
    unforced and curl P_n f the forcing's curl: each kernel runs once, on U.  Any other
    test has its weight norms and residual computed per sample block.  Per block
    each member adds A_nu = A_0 + nu |k|^2 w, its R, its W and one pairing.  The
    weight is nu-free, so all members share I(t).
    """
    if family.n > (n := vt.grid.n):
        raise CertificateError(f"grid mismatch: trajectory n={family.n}, test n={n}")
    times, tab, U = family.times, spectral_tables(n), vt.shape
    spec0 = replace(family.trajs[0].spec, nu=0.0, grid=vt.grid)
    norms, R, g = np.empty(times.size), *np.empty((2, family.size, times.size))
    if U is not None:
        a, da = (x.reshape(-1, 1, 1) for x in vt.amplitude(times))
        norms = np.abs(a.ravel()) * weight_norms(U[None])
        conv = residual_A(U[None], 0.0, replace(spec0, forcing=Forcing()))  # -curl N(U)
        pf = 0.0 if (cf := spec0.forcing.curl(n)) is None else cf  # curl P_n f
    for sl in _blocks(times.size, n):
        values = vt.values(times[sl])
        if U is None:
            norms[sl] = weight_norms(values)
            a0 = residual_A(values, vt.derivs(times[sl]), spec0)
        else:
            a0 = da[sl] * U + a[sl] ** 2 * conv - pf
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
    times, errors, records = family.times, {}, {}
    series = [{} for _ in family.trajs]
    for test_id, vt in zip(ids, tests):
        try:
            s = margin_series(family, vt, w)
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


def certify(u: Trajectory, tests, w: WeightSpec,
            tol_model: ToleranceModel = ToleranceModel()) -> CertificateReport:
    """Certify one trajectory against a list of tests, as a family of its own."""
    return certify_members(assemble_family([u]), tests, w, tol_model)[0]
