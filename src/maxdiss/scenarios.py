"""Scenario configuration, execution and report emission.

A scenario ties the flow solver, certifier, selector and the measure-valued machinery
into one reproducible experiment.  ``ScenarioConfig`` checks a JSON config once against
one table, ``SCHEMA`` (``ITEMS`` for list items), and holds its sections with their
defaults filled in; from it ``run_scenario`` produces a deterministic artifact tree
(simulations, certificates, selection, optional defect fields) closed by a manifest of
content hashes.  ``report`` checks the tree against those hashes, reads the stored
artifacts only -- it never recomputes -- and emits flat CSV/JSON summaries.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import pickle
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .certificate import ToleranceModel, certify_members
from .fields import Grid, SpectralField, from_function, pairing, random_field
from .mv_euler import defect_from_pair, trace_energy_gap
from .relenergy import WeightError, WeightSpec
from .selector import MAX_MEMBERS, CandidateFamily, SelectorError, assemble_family, select
from .solver import (BlowUpError, SolverError, SystemSpec, TestTrajectory, Trajectory, solve,
                     taylor_green)

SCENARIO_IDS = ("taylor_green", "perturbed_tg", "two_vortex", "mv_ladder")


class ConfigError(ValueError):
    """Schema violation; the message carries a JSON-pointer location."""


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _count(v, least: int = 1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least  # bool is an int


#: a missing key is an error; OPTIONAL leaves it out, for the class that reads the section
REQUIRED, OPTIONAL = object(), object()
_NUMBER, _COUNT = (_number, "a finite number"), (_count, "an int >= 1")
_NON_NEGATIVE = (lambda v: _number(v) and v >= 0, "a non-negative finite number")
_GRID_SIZE = (lambda v: _count(v, 4) and v % 2 == 0, "an even int >= 4")

#: section -> key -> (check, what it expects, a default or REQUIRED or OPTIONAL).  A key
#: that is a section here or a list in ITEMS is walked in turn; a check of None leaves
#: the value to SystemSpec, Forcing or WeightSpec; the callable default is computed
#: from the top-level sections parsed before it.
SCHEMA = {
    "": {"scenario": (SCENARIO_IDS.__contains__, f"one of {SCENARIO_IDS}", REQUIRED),
         "system": (None, "", REQUIRED), "weight": (None, "", {}),
         "tolerance": (None, "", {}), "family": (None, "", {}),
         "tests": (lambda v: isinstance(v, list) and v != [], "a non-empty list",
                   ["exact", "zero"]),
         "mv": (None, "", {}), "out_dir": (lambda v: isinstance(v, str), "a string", "out"),
         "seed": (lambda v: _count(v, 0), "an int >= 0", 0)},
    "/system": {**dict.fromkeys(("nu", "t_end", "dt"), (*_NUMBER, REQUIRED)),
                "n": (*_GRID_SIZE, REQUIRED), "forcing": (None, "", {"kind": "zero"})},
    "/system/forcing": {"kind": (None, "", REQUIRED), "name": (None, "", OPTIONAL),
                        "params": (None, "", {}), "path": (None, "", OPTIONAL)},
    "/weight": dict.fromkeys(("kind", "kappa"), (None, "", OPTIONAL)),
    "/tolerance": dict.fromkeys(("step_coeff", "quadrature"), (*_NON_NEGATIVE, OPTIONAL)),
    "/family": {"resolutions": (lambda v: isinstance(v, list) and 1 <= len(v) <= MAX_MEMBERS,
                                f"a list of 1 to {MAX_MEMBERS} resolutions",
                                lambda parsed: [parsed["system"]["n"]]),
                "sample_stride": (*_COUNT, 1), "amplitude": (*_NUMBER, 1.0),
                "kmax": (*_COUNT, 4), "delta": (*_NUMBER, 1e-2)},
    "/mv": {"nus": (lambda v: isinstance(v, list) and v != []
                    and all(_number(x) and x > 0 for x in v),
                    "a non-empty list of finite numbers > 0", [1e-2, 5e-3, 2.5e-3]),
            # None: the coarse n // 3 of defect_from_pair, whose default ratio is 0.5 too
            "mollifier_kmax": (lambda v: v is None or _count(v), "an int >= 1 or null", None),
            "clip_fail_ratio": (*_NON_NEGATIVE, 0.5)},
}

#: list -> (check, what it expects) of each of its items
ITEMS = {"/family/resolutions": _GRID_SIZE,
         "/tests": (lambda t: t in ("zero", "exact") or _amplitude(t) is not None,
                    '"zero", "exact" or "amplitude:<finite number>"')}


def _parse(value, pointer: str = "", parsed: dict | None = None):
    """``value`` checked against SCHEMA and ITEMS at ``pointer``, with the defaults
    of every section filled in; ``parsed``: the top-level sections so far."""
    if pointer in ITEMS:
        ok, what = ITEMS[pointer]
        if bad := [i for i, item in enumerate(value) if not ok(item)]:
            raise ConfigError(f"{pointer}/{bad[0]}: expected {what}, got {value[bad[0]]!r}")
        return value
    if pointer not in SCHEMA:
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{pointer}: expected an object, got {value!r}")
    if unknown := [key for key in value if key not in SCHEMA[pointer]]:
        raise ConfigError(f"{pointer}/{unknown[0]}: unknown key")
    out = {}
    parsed = out if parsed is None else parsed
    for key, (ok, what, default) in SCHEMA[pointer].items():
        if key not in value and default is REQUIRED:
            raise ConfigError(f"{pointer}/{key}: missing required key")
        if key in value or default is not OPTIONAL:
            v = value[key] if key in value else (
                default(parsed) if callable(default) else copy.deepcopy(default))
            if ok and not ok(v):
                raise ConfigError(f"{pointer}/{key}: expected {what}, got {v!r}")
            out[key] = _parse(v, f"{pointer}/{key}", parsed)
    return out


def _no_repeats(values: list, what: str, pointer: str):
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{pointer}/{i}: {what} {v!r} repeats {pointer}/{values.index(v)}'s")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description: SCHEMA's sections, with their defaults."""

    scenario: str
    system: SystemSpec
    weight: WeightSpec
    tolerance: ToleranceModel
    family: dict
    tests: tuple
    mv: dict
    out_dir: str
    seed: int

    @classmethod
    def from_dict(cls, cfg: dict, out_dir: str | None = None,
                  seed: int | None = None) -> "ScenarioConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("/: config must be a JSON object")
        cfg = _parse({**cfg, **({"out_dir": out_dir} if out_dir else {}),
                      **({"seed": seed} if seed is not None else {})})
        try:
            system = SystemSpec.from_dict(cfg["system"])
        except SolverError as exc:  # its message starts with the key under /system
            raise ConfigError(f"/system/{exc}") from exc
        try:
            weight = WeightSpec(**cfg["weight"])
        except WeightError as exc:  # its message starts with the key under /weight
            raise ConfigError(f"/weight/{exc}") from exc
        config = cls(**dict(cfg, system=system, weight=weight, tests=tuple(cfg["tests"]),
                            tolerance=ToleranceModel(**cfg["tolerance"])))
        # a repeated member id would overwrite a directory, a repeated test label a test_id
        _no_repeats([mid for mid, _ in _member_specs(config)], "member id",
                    "/mv/nus" if config.scenario == "mv_ladder" else "/family/resolutions")
        _no_repeats([_test_label(tid) for tid in config.tests], "test", "/tests")
        _no_repeats([_test_amplitude(tid, config) for tid in config.tests],
                    "test function of amplitude", "/tests")
        return config

    @classmethod
    def from_file(cls, path, out_dir: str | None = None,
                  seed: int | None = None) -> "ScenarioConfig":
        try:
            cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"/: malformed JSON at line {exc.lineno} "
                              f"column {exc.colno}: {exc.msg}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: unreadable config ({exc})") from None
        return cls.from_dict(cfg, out_dir=out_dir, seed=seed)


# -- initial data -----------------------------------------------------------

def initial_condition(config: ScenarioConfig, grid: Grid) -> SpectralField:
    """Scenario initial state at the requested resolution (seeded noise)."""
    nu = config.system.nu
    sc = config.scenario
    if sc in ("taylor_green", "mv_ladder"):
        return taylor_green(0.0, nu, grid, amplitude=config.family["amplitude"])
    if sc == "perturbed_tg":
        rng = np.random.default_rng(config.seed)
        pert = random_field(grid, rng, kmax=config.family["kmax"], components=2,
                            solenoidal=True).coeffs
        pert = pert * (1.0 / np.sqrt(pairing(pert, pert))) * config.family["delta"]
        return SpectralField(grid, taylor_green(0.0, nu, grid).coeffs + pert,
                             solenoidal=True)
    # two_vortex: superposed vortex pairs from psi = sin x sin y + 1/2 sin 2x sin 2y
    return from_function(
        grid,
        lambda x, y: np.sin(x) * np.cos(y) + np.sin(2 * x) * np.cos(2 * y),
        lambda x, y: -np.cos(x) * np.sin(y) - np.cos(2 * x) * np.sin(2 * y),
        solenoidal=True)


def _amplitude(tid):
    """The finite a of a test id "amplitude:<a>"; None for any other id."""
    if not (isinstance(tid, str) and tid.startswith("amplitude:")):
        return None
    try:
        a = float(tid.removeprefix("amplitude:"))
    except ValueError:
        return None
    return a if math.isfinite(a) else None


def _test_amplitude(tid: str, config: ScenarioConfig) -> float:
    """The amplitude of the vortex a test id names: 0 for "zero", a for "amplitude:<a>",
    and for "exact" that of the scenario's vortex: /family/amplitude in taylor_green
    and mv_ladder, whose initial data it scales, and 1 in the other scenarios."""
    if tid == "exact":
        vortex = config.scenario in ("taylor_green", "mv_ladder")
        return config.family["amplitude"] if vortex else 1.0
    return 0.0 if tid == "zero" else _amplitude(tid)


def _test_label(tid: str) -> str:
    """The label of a test id: "zero", "exact" or "amplitude_<a>" with a in %g."""
    return tid if tid in ("zero", "exact") else f"amplitude_{_amplitude(tid):g}"


def build_tests(config: ScenarioConfig, grid: Grid) -> list:
    """Certificate test family from the config's test id strings.

    The ids, checked by ``ITEMS["/tests"]``: "exact" (the closed-form
    decaying vortex of the scenario's amplitude), "zero", "amplitude:<a>"
    (rescaled vortex); no two name the same function (``from_dict``).
    """
    return [TestTrajectory.zero(grid) if tid == "zero" else
            TestTrajectory.taylor_green(config.system.nu, grid,
                                        amplitude=_test_amplitude(tid, config),
                                        label=_test_label(tid))
            for tid in config.tests]


# -- stages ------------------------------------------------------------------

def _member_specs(config: ScenarioConfig):
    """(member id, SystemSpec) of each member, in config order."""
    base = config.system
    if config.scenario == "mv_ladder":
        return [(f"nu_{nu:g}", replace(base, nu=nu)) for nu in config.mv["nus"]]
    return [(f"n_{n}", replace(base, grid=Grid(n)))
            for n in config.family["resolutions"]]


def _lanes(specs, count: int) -> list:
    """The member indices of each of ``count`` lanes, in config order: the costliest
    member first (n_steps n^2 log n) onto the least-loaded lane, ties to the lower lane."""
    cost = [spec.n_steps * spec.grid.n ** 2 * math.log(spec.grid.n) for _, spec in specs]
    lanes, loads = [[] for _ in range(count)], [0.0] * count
    for i in sorted(range(len(specs)), key=lambda i: -cost[i]):
        k = loads.index(min(loads))
        lanes[k].append(i)
        loads[k] += cost[i]
    return [sorted(lane) for lane in lanes]


def stage_simulate(config: ScenarioConfig) -> CandidateFamily:
    """Solve and save every member in a new sim/, which holds exactly the
    config's members; returns their family.

    The members run side by side on one lane per usable CPU, at most one per member
    (``_lanes``).  This process runs lane 0; each other lane runs in a child made by
    ``os.fork``, which saves its members and sends back through a pipe only their
    times and vorticity, or the error that stopped it.  A lane solves its members in
    config order and stops at the first that fails; the error raised is that of the
    first failing member in config order, as in a serial run.  With one usable CPU
    nothing is forked."""
    out = Path(config.out_dir) / "sim"
    shutil.rmtree(out, ignore_errors=True)
    specs = _member_specs(config)
    v0_fine = initial_condition(config, Grid(max(spec.grid.n for _, spec in specs)))
    provenance = [f"{config.scenario}/{mid} seed={config.seed}" for mid, _ in specs]

    def solve_lane(lane) -> dict:  # member index -> (times, vorticity) or its error
        done = {}
        for i in lane:
            mid, spec = specs[i]
            try:
                traj = solve(spec, v0_fine, sample_stride=config.family["sample_stride"],
                             provenance=provenance[i])
                traj.save(out / mid)
                rows = [f"{float(t)!r} {float(e)!r}" for t, e in zip(traj.times, traj.energies())]
                (out / mid / "energies.csv").write_text("\n".join(["# t  energy", *rows]) + "\n")
                done[i] = traj.times, traj.vorticity
            except Exception as exc:
                done[i] = exc
                break
        return done

    can_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    lanes = _lanes(specs, min(len(specs), len(os.sched_getaffinity(0)) if can_fork else 1))
    children = []  # (pid, read end of its pipe)
    try:
        for lane in lanes[1:]:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    os.close(r)
                    for _, fh in children:  # a sibling's read end: only the parent reads
                        fh.close()
                    with os.fdopen(w, "wb") as fh:
                        pickle.dump(solve_lane(lane), fh)
                finally:
                    os._exit(0)
            os.close(w)  # so that the read end sees EOF when the child exits
            children.append((pid, os.fdopen(r, "rb")))
        done = solve_lane(lanes[0])
        for _, fh in children:
            done.update(pickle.load(fh))
    finally:  # a child blocked on a full pipe gets EPIPE once the read ends close
        for _, fh in children:
            fh.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
    if errors := [done[i] for i in sorted(done) if isinstance(done[i], Exception)]:
        raise errors[0]
    trajs = [Trajectory(spec, *done[i], provenance=provenance[i])
             for i, (_, spec) in enumerate(specs)]
    return assemble_family(trajs, member_ids=[mid for mid, _ in specs])


def load_members(config: ScenarioConfig) -> CandidateFamily:
    """The family of the simulated members under the run tree, the config's first and in
    its order; one whose sample times or forcing differ is a ConfigError naming its manifest."""
    sim = Path(config.out_dir) / "sim"
    dirs = [p for p in sim.iterdir() if p.is_dir()] if sim.is_dir() else []
    if not dirs:
        raise ConfigError(f"{sim}: no simulated members (run simulate first)")
    order = {mid: i for i, (mid, _) in enumerate(_member_specs(config))}
    dirs.sort(key=lambda p: (order.get(p.name, len(order)), p.name))
    try:
        return assemble_family([Trajectory.load(p) for p in dirs], [p.name for p in dirs])
    except SelectorError as exc:  # its message starts with the member id
        mid, _, why = str(exc).partition(": ")
        raise ConfigError(f"{sim / mid / 'manifest.json'}: {why}") from exc


def stage_certify(config: ScenarioConfig, family: CandidateFamily) -> dict:
    """Certify the members against the config's tests on the family's grid, one pass
    per test, and save the reports in a new certificates/; returns {member id: passed}."""
    out = Path(config.out_dir) / "certificates"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reports = certify_members(family, build_tests(config, Grid(family.n)), config.weight,
                              config.tolerance)
    for mid, report in zip(family.member_ids, reports):
        report.save_json(out / f"{mid}.json")
    return {mid: report.verdict for mid, report in zip(family.member_ids, reports)}


def stage_select(config: ScenarioConfig, family: CandidateFamily, verdicts: dict) -> dict | None:
    """Select among the members that passed; when none did, removes any
    earlier selection.json and selected/ and writes nothing."""
    out = Path(config.out_dir)
    passed = [mid for mid in family.member_ids if verdicts[mid]]
    if not passed:
        (out / "selection.json").unlink(missing_ok=True)
        shutil.rmtree(out / "selected", ignore_errors=True)
        return None
    fam = family.subfamily(passed)
    try:
        result = select(fam)
    except SelectorError as exc:  # its message starts with the member id
        raise ConfigError(f"{out / 'sim'}/{exc}") from exc
    summary = dict(result.to_dict(fam),
                   excluded=[mid for mid in family.member_ids if not verdicts[mid]])
    result.trajectory.save(out / "selected")
    (out / "selection.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def stage_mv(config: ScenarioConfig, family: CandidateFamily) -> dict:
    """The defect of the least viscous member (fine) against the most viscous (coarse)."""
    # a stable sort: of members with equal nu, the first is coarse and the last fine
    by_nu = sorted(zip(family.member_ids, family.trajs), key=lambda m: -m[1].spec.nu)
    (coarse_id, coarse), (fine_id, fine) = by_nu[0], by_nu[-1]
    m = defect_from_pair(fine, coarse, mollifier_kmax=config.mv["mollifier_kmax"],
                         clip_fail_ratio=config.mv["clip_fail_ratio"])
    out = Path(config.out_dir) / "defect"
    m.save(out)
    info = {"fine": fine_id, "coarse": coarse_id,
            "mollifier_kmax": m.mollifier_kmax,
            "clip_magnitude": m.clip_magnitude,
            "min_eigenvalue": m.min_eigenvalue(),
            "max_trace_gap": float(trace_energy_gap(m, fine, coarse).max())}
    (out / "summary.json").write_text(json.dumps(info, indent=2) + "\n")
    return info


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): _sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


#: what runs and reports leave besides sim/ and certificates/, which their stages replace
EARLIER_OUTPUTS = ("defect", "selected", "selection.json", "energy.csv", "margins.csv",
                   "report.json", "manifest.json")


def run_scenario(config: ScenarioConfig) -> int:
    """simulate -> certify -> select -> (mv); 0 pass, 2 certificate fail,
    3 blow-up.  Any stage failure halts with a stage-tagged diagnostic."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in EARLIER_OUTPUTS:  # so _hash_tree sees this run's files and no run manifest
        shutil.rmtree(out / name, ignore_errors=True)
        (out / name).unlink(missing_ok=True)
    try:
        family = stage_simulate(config)
    except BlowUpError as exc:
        raise BlowUpError(f"[simulate] {exc}") from exc
    verdicts = stage_certify(config, family)
    certified = all(verdicts.values())
    if config.scenario == "mv_ladder":
        # the viscosity-ladder members do not share nu, so the convex
        # selection does not apply; the deliverable is the defect pair
        if family.size >= 2:
            stage_mv(config, family)
    else:
        stage_select(config, family, verdicts)
    manifest = {"scenario": config.scenario, "seed": config.seed,
                "system": config.system.to_dict(),
                "weight": config.weight.to_dict(),
                "tolerance": config.tolerance.to_dict(),
                "members": sorted(family.member_ids),
                "certified": certified,
                "hashes": _hash_tree(out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0 if certified else 2


# -- reporting ---------------------------------------------------------------

def _read_json(path, what: str, parse=lambda d: d):
    """``parse`` of the JSON in a run-tree file; one that is missing or malformed, or that
    ``parse`` cannot take (a missing key, a wrong type or length), is a ConfigError naming it."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path}: unreadable {what} ({exc!r})") from None


def _margin_rows(cert: dict) -> list:
    """(margins.csv line without the member, t > 0, margin) per test and sample, test-major."""
    return [(f"{tid} {t:.12g} {lhs:.17g} {s['rhs']:.17g} {m:.17g} {tol:.12g}", t > 0, m)
            for tid, s in cert["series"].items()
            for t, lhs, m, tol in zip(cert["times"], s["lhs"], s["margin"], s["tol"], strict=True)]


def report(run_dir) -> dict:
    """Emit flat summaries from a completed artifact tree, reading all of it before writing.

    Checks every file the manifest hashes, then reads each member's energies.csv (rows of
    two floats at the first member's sample times), certificate JSON (each ``series`` as
    long as ``times``) and selection.json: a missing, altered or unreadable one raises
    ConfigError naming it, and nothing is written.  Then writes energy.csv (time, one
    column per member), margins.csv (member, test id, time, lhs, rhs, margin, tol per
    certificate sample) and report.json, whose worst_margin is the least margin after
    t = 0 (null without such a row); repeated invocations produce identical bytes.
    """
    root = Path(run_dir)
    hashes, summary = _read_json(root / "manifest.json", "run manifest", lambda d: (
        d["hashes"].items(), {k: d[k] for k in ("scenario", "seed", "members", "certified")}))
    for rel, digest in hashes:
        path = root / rel
        if not path.is_file():
            raise ConfigError(f"{path}: listed in the manifest but missing")
        if _sha256(path) != digest:
            raise ConfigError(f"{path}: sha256 differs from the manifest")

    members, columns = summary["members"], []  # per member its (t, energy) tokens
    for mid in members:
        path = root / "sim" / mid / "energies.csv"
        try:
            rows = [line.split() for line in path.read_text().splitlines()[1:]]
            shape = np.array(rows, dtype=float).shape  # a ragged or non-float row: ValueError
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: unreadable energies ({exc!r})") from None
        columns.append(rows)
        if shape != (len(rows), 2) or [r[:1] for r in rows] != [r[:1] for r in columns[0]]:
            raise ConfigError(f"{path}: not one row of two floats (t, energy) per sample time "
                              f"of member {members[0]}")
    certs = [_read_json(root / "certificates" / f"{mid}.json", "certificate", _margin_rows)
             for mid in members]
    selection = _read_json(sel, "selection") if (sel := root / "selection.json").exists() else None

    lines = ["# t " + " ".join(members)]
    lines += [row[0][0] + " " + " ".join(e for _, e in row) for row in zip(*columns)]
    (root / "energy.csv").write_text("\n".join(lines) + "\n")
    lines = ["# member test_id t lhs rhs margin tol"]
    lines += [f"{mid} {line}" for mid, rows in zip(members, certs) for line, _, _ in rows]
    (root / "margins.csv").write_text("\n".join(lines) + "\n")
    margins = [m for rows in certs for _, late, m in rows if late]  # every margin at t = 0 is 0
    summary.update(worst_margin=min(margins, default=None), selection=selection)
    (root / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
