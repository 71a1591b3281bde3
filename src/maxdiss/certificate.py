"""Evaluation of the Gronwall-weighted relative energy inequality.

A trajectory is certified against a finite family of C^1 test
trajectories: for each test function and sample time the two sides of the
inequality are computed by composite Simpson quadrature on the sample
grid, and the verdict compares the margin (rhs - lhs) against an explicit
tolerance budget.  Verdicts are always relative to the supplied family.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .fields import pairing, project, spectral_tables
from .relenergy import (
    WeightSpec,
    cumulative_weight_integral,
    nonsolenoidal_correction,
    rel_terms,
    residual_A,
    weight_norms,
    weight_value,
)
from .solver import TestTrajectory, Trajectory


class CertificateError(ValueError):
    pass


#: e^{-I(t)} below which a sample tests nothing: its damped terms fall
#: under the float64 rounding of the undamped R(0) on the right-hand side
VACUOUS_DAMPING = 1e-16


@dataclass(frozen=True)
class ToleranceModel:
    """tau(t) = step_coeff * dt^4 * t + quadrature + gn_slack.

    The three components absorb, in order, the O(dt^4) defect of the time
    stepper's discrete energy identity, the Simpson quadrature error of the
    time integrals, and the conservatism of the calibrated
    Gagliardo-Nirenberg constant.  Calibrated on the Taylor-Green scenario.
    ``certify`` scales tau(t) by exp(-I(t)), the damping of the margins.
    """

    step_coeff: float = 10.0
    quadrature: float = 1e-9
    gn_slack: float = 1e-9

    def tau(self, t: float, dt: float) -> float:
        return self.step_coeff * dt ** 4 * t + self.quadrature + self.gn_slack

    def to_dict(self) -> dict:
        return {"step_coeff": self.step_coeff, "quadrature": self.quadrature,
                "gn_slack": self.gn_slack}

    @classmethod
    def from_dict(cls, d: dict) -> "ToleranceModel":
        return cls(**d)


@dataclass(frozen=True)
class CertificateEntry:
    """One sample time of one test; margin and tol = tau(t) exp(-I(t)) are damped."""

    test_id: str
    t: float
    lhs: float
    rhs: float
    margin: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol


@dataclass(frozen=True)
class CertificateReport:
    entries: tuple
    errors: dict
    tests: dict  # test id -> {"weight_integral": I(T), "horizon": first t with e^{-I} < 1e-16}
    weight: WeightSpec
    tolerance: ToleranceModel
    stride: float

    @property
    def verdict(self) -> bool:
        return not self.errors and all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "entries": [{"test_id": e.test_id, "t": e.t, "lhs": e.lhs,
                         "rhs": e.rhs, "margin": e.margin, "tol": e.tol}
                        for e in self.entries],
            "errors": dict(self.errors),
            "tests": dict(self.tests),
            "config": {"weight": self.weight.to_dict(),
                       "tolerance": self.tolerance.to_dict(),
                       "quadrature_stride": self.stride},
        }

    def save_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["test_id", "t", "lhs", "rhs", "margin", "tol"])
            for e in self.entries:
                wr.writerow([e.test_id, f"{e.t:.12g}", f"{e.lhs:.17g}",
                             f"{e.rhs:.17g}", f"{e.margin:.17g}", f"{e.tol:.12g}"])


# -- margin computation -----------------------------------------------------

@dataclass(frozen=True)
class _MarginSeries:
    """Damped form of the relative energy inequality at every sample time.

    The raw inequality carries growth factors exp(int_s^t K) that overflow
    float64 for conservative auto constants, so both sides are scaled by
    exp(-int_0^t K) > 0.  The scaling preserves sign, so verdicts are
    unchanged; all Gronwall weights then lie in (0, 1].
    """

    times: np.ndarray
    rel_energies: np.ndarray     # R(u(t)|v(t)), unscaled
    weight_integral: np.ndarray  # I(t) = int_0^t K
    dissipation_integrand: np.ndarray  # (W + <A, u-v>) e^{-I(t)}
    correction_integrand: np.ndarray   # divergence correction times e^{-I(t)}
    margins: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray


def _blocks(size: int, n: int) -> list:
    """Sample slices holding at most 1 MiB of the largest per-sample array, the
    2x-oversampled velocity gradient (2 x 2 float64 on 2n x 2n, 128 n^2 bytes)."""
    step = max(1, (1 << 20) // (128 * n * n))
    return [slice(s, s + step) for s in range(0, size, step)]


def margin_series(u: Trajectory, vt: TestTrajectory, w: WeightSpec) -> _MarginSeries:
    """Both sides of the relative energy inequality at every sample time, one
    stacked computation per block; the nu-free weight goes to ``vt.weight_norms``.
    A non-solenoidal test is Leray-projected and pays the divergence correction."""
    if vt.grid.n != u.grid.n:
        raise CertificateError(
            f"grid mismatch: trajectory n={u.grid.n}, test n={vt.grid.n}")
    nu = u.spec.nu
    times = u.times
    key = (w.kind, w.p, times.tobytes())
    cached = vt.weight_norms.get(key)
    norms = np.empty(times.size) if cached is None else cached
    R, g, corr = np.empty(times.size), np.empty(times.size), np.zeros(times.size)
    for sl in _blocks(times.size, u.grid.n):
        values, derivs = vt.values(times[sl]), vt.derivs(times[sl])
        states = u.coeffs[sl]
        if not vt.solenoidal:
            corr[sl] = nonsolenoidal_correction(values, states)
            values, derivs = (project(x, spectral_tables(u.grid.n)) for x in (values, derivs))
        if cached is None:
            norms[sl] = weight_norms(values, w)
        diff = states - values
        R[sl], W = rel_terms(diff, nu)
        g[sl] = W + pairing(residual_A(values, derivs, u.spec), diff)
    vt.weight_norms[key] = norms
    I = cumulative_weight_integral(weight_value(norms, w, nu), times)

    damp = np.exp(-I)
    g *= damp
    corr *= damp
    lhs = damp * R + cumulative_weight_integral(g, times)
    rhs = R[0] + cumulative_weight_integral(corr, times)
    return _MarginSeries(times=times, rel_energies=R, weight_integral=I,
                         dissipation_integrand=g, correction_integrand=corr,
                         margins=rhs - lhs, lhs=lhs, rhs=rhs)


def certify(u: Trajectory, family, w: WeightSpec,
            tol_model: ToleranceModel = ToleranceModel()) -> CertificateReport:
    """Certify a trajectory against a family of test trajectories.

    Domain errors (ValueError) of single family members are isolated: their
    error string is recorded and the remaining members are still evaluated
    (an errored member fails the overall verdict).  Margins and tolerances
    are both in the damped units of ``margin_series``.
    """
    family = list(family)
    if not family:
        raise CertificateError("test family must not be empty")
    dt = u.spec.dt
    entries = []
    errors = {}
    tests = {}
    for idx, vt in enumerate(family):
        test_id = vt.label or f"test_{idx}"
        try:
            series = margin_series(u, vt, w)
        except ValueError as exc:  # domain errors only; bugs propagate
            errors[test_id] = f"{type(exc).__name__}: {exc}"
            continue
        damp = np.exp(-series.weight_integral)
        vacuous = series.times[damp < VACUOUS_DAMPING]
        tests[test_id] = {"weight_integral": float(series.weight_integral[-1]),
                          "horizon": float(vacuous[0]) if vacuous.size else None}
        for t, lhs, rhs, m, d in zip(series.times, series.lhs, series.rhs,
                                     series.margins, damp):
            tol = tol_model.tau(float(t), dt) * float(d)
            entries.append(CertificateEntry(test_id=test_id, t=float(t),
                                            lhs=float(lhs), rhs=float(rhs),
                                            margin=float(m), tol=tol))
    stride = float(u.times[1] - u.times[0]) if u.times.size > 1 else 0.0
    return CertificateReport(tuple(entries), errors, tests, w, tol_model, stride)
