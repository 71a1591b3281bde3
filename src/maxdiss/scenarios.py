"""Scenario configuration, execution and report emission.

A scenario ties the flow solver, certifier, selector and the
measure-valued machinery into one reproducible experiment: given a JSON
config and a seed, ``run_scenario`` produces a deterministic artifact tree
(simulations, certificates, selection, optional defect fields) closed by a
manifest of content hashes.  ``report`` checks the tree against those
hashes, reads the stored artifacts only -- it never recomputes -- and
emits flat CSV/JSON summaries.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .certificate import ToleranceModel, certify_members
from .fields import Grid, SpectralField, from_function, pairing, random_field
from .mv_euler import defect_from_pair, trace_energy_gap
from .relenergy import MIN_KAPPA, WeightSpec
from .selector import MAX_MEMBERS, assemble_family, select
from .solver import (BlowUpError, SolverError, SystemSpec, TestTrajectory, Trajectory,
                     _shares_samples, solve, taylor_green)

SCENARIO_IDS = ("taylor_green", "perturbed_tg", "two_vortex", "euler_tg",
                "mv_ladder")


class ConfigError(ValueError):
    """Schema violation; the message carries a JSON-pointer location."""


#: the keys each config section may hold, by JSON pointer
CONFIG_KEYS = {
    "": "scenario system weight tolerance family tests mv out_dir seed",
    "/system": "nu n t_end dt forcing",
    "/system/forcing": "kind name params path",
    "/weight": "kind kappa",
    "/tolerance": "step_coeff quadrature",
    "/family": "resolutions sample_stride amplitude kmax delta",
    "/mv": "nus mollifier_kmax clip_fail_ratio",
}


def _reject_unknown_keys(cfg: dict) -> None:
    for pointer, allowed in CONFIG_KEYS.items():
        section = cfg
        for part in pointer.split("/")[1:]:
            section = section.get(part) if isinstance(section, dict) else None
        for key in section if isinstance(section, dict) else ():
            if key not in allowed.split():
                raise ConfigError(f"{pointer}/{key}: unknown key")


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _count(v) -> bool:
    return _number(v) and isinstance(v, int) and v >= 1


#: checks on config values by JSON pointer ("*": every key of the section)
CONFIG_VALUES = {
    "/tolerance/*": (lambda v: _number(v) and v >= 0, "a non-negative finite number"),
    "/family/resolutions": (lambda v: isinstance(v, list) and 1 <= len(v) <= MAX_MEMBERS,
                            f"a list of 1 to {MAX_MEMBERS} resolutions"),
    "/family/sample_stride": (_count, "an int >= 1"),
    "/family/kmax": (_count, "an int >= 1"),
    **{f"/family/{k}": (_number, "a finite number") for k in ("amplitude", "delta")},
    "/weight/kappa": (lambda v: _number(v) and v >= MIN_KAPPA,
                      f"a finite number >= {MIN_KAPPA:g}"),
    "/mv/nus": (lambda v: isinstance(v, list) and v != []
                and all(_number(x) and x > 0 for x in v),
                "a non-empty list of finite numbers > 0"),
    "/mv/mollifier_kmax": (lambda v: v is None or _count(v), "an int >= 1 or null"),
    "/mv/clip_fail_ratio": (lambda v: _number(v) and v >= 0, "a non-negative finite number"),
}


def _reject_bad_values(cfg: dict) -> None:
    for pointer, (ok, expected) in CONFIG_VALUES.items():
        _, name, key = pointer.split("/")
        section = cfg.get(name) if isinstance(cfg.get(name), dict) else {}
        for k in section if key == "*" else [key] if key in section else []:
            if not ok(section[k]):
                raise ConfigError(f"/{name}/{k}: expected {expected}, got {section[k]!r}")


#: how ``_require`` names the types it asks for
TYPE_NAMES = {str: "a string", dict: "an object", list: "a list", int: "an int",
              (int, float): "a number"}


def _require(cfg: dict, pointer: str, key: str, types, default=None,
             required: bool = False):
    if key not in cfg:
        if required:
            raise ConfigError(f"{pointer}/{key}: missing required key")
        return default
    val = cfg[key]
    if not isinstance(val, types) or isinstance(val, bool):  # bool is an int
        raise ConfigError(f"{pointer}/{key}: expected {TYPE_NAMES[types]}, got {val!r}")
    return val


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description; see from_dict for the schema."""

    scenario: str
    system: SystemSpec
    weight: WeightSpec
    tolerance: ToleranceModel
    family: dict = field(default_factory=dict)
    tests: tuple = ("exact", "zero")
    mv: dict = field(default_factory=dict)
    out_dir: str = "out"
    seed: int = 0

    @classmethod
    def from_dict(cls, cfg: dict, out_dir: str | None = None,
                  seed: int | None = None) -> "ScenarioConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("/: config must be a JSON object")
        _reject_unknown_keys(cfg)
        _reject_bad_values(cfg)
        scenario = _require(cfg, "", "scenario", str, required=True)
        if scenario not in SCENARIO_IDS:
            raise ConfigError(f"/scenario: unknown id {scenario!r}, "
                              f"expected one of {SCENARIO_IDS}")
        system_d = _require(cfg, "", "system", dict, required=True)
        for key in ("nu", "t_end", "dt"):
            _require(system_d, "/system", key, (int, float), required=True)
        _require(system_d, "/system", "n", int, required=True)
        # a config may leave out the forcing (zero) and an analytic forcing's params
        forcing = system_d.get("forcing", {"kind": "zero"})
        if isinstance(forcing, dict) and forcing.get("kind") == "analytic":
            forcing = {"params": {}, **forcing}
        try:
            system = SystemSpec.from_dict({**system_d, "forcing": forcing})
        except SolverError as exc:  # its message starts with the key under /system
            raise ConfigError(f"/system/{exc}") from exc
        except Exception as exc:
            raise ConfigError(f"/system: {exc}") from exc
        try:
            weight = WeightSpec.from_dict(_require(cfg, "", "weight", dict,
                                                   default={}))
        except Exception as exc:
            raise ConfigError(f"/weight: {exc}") from exc
        tolerance = ToleranceModel.from_dict(
            _require(cfg, "", "tolerance", dict, default={}))
        family = _require(cfg, "", "family", dict, default={})
        resolutions = family.get("resolutions", [system.grid.n])
        for i, r in enumerate(resolutions):
            if not isinstance(r, int) or r < 4 or r % 2:
                raise ConfigError(f"/family/resolutions/{i}: need even int "
                                  f">= 4, got {r!r}")
        tests = _require(cfg, "", "tests", list, default=["exact", "zero"])
        for i, t in enumerate(tests):
            if t not in ("zero", "exact") and _amplitude(t) is None:
                raise ConfigError(f'/tests/{i}: expected "zero", "exact" or '
                                  f'"amplitude:<finite number>", got {t!r}')
        return cls(scenario=scenario, system=system, weight=weight,
                   tolerance=tolerance,
                   family=dict(family, resolutions=list(resolutions)),
                   tests=tuple(tests),
                   mv=_require(cfg, "", "mv", dict, default={}),
                   out_dir=out_dir or _require(cfg, "", "out_dir", str,
                                               default="out"),
                   seed=seed if seed is not None
                   else _require(cfg, "", "seed", int, default=0))

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
    if sc in ("taylor_green", "euler_tg", "mv_ladder"):
        return taylor_green(0.0, nu, grid,
                            amplitude=config.family.get("amplitude", 1.0))
    if sc == "perturbed_tg":
        rng = np.random.default_rng(config.seed)
        kmax = config.family.get("kmax", 4)
        delta = config.family.get("delta", 1e-2)
        pert = random_field(grid, rng, kmax=kmax, components=2,
                            solenoidal=True).coeffs
        pert = pert * (1.0 / np.sqrt(pairing(pert, pert))) * delta
        return SpectralField(grid, taylor_green(0.0, nu, grid).coeffs + pert,
                             solenoidal=True)
    if sc == "two_vortex":
        # superposed vortex pairs from psi = sin x sin y + 1/2 sin 2x sin 2y
        return from_function(
            grid,
            lambda x, y: np.sin(x) * np.cos(y) + np.sin(2 * x) * np.cos(2 * y),
            lambda x, y: -np.cos(x) * np.sin(y) - np.cos(2 * x) * np.sin(2 * y),
            solenoidal=True)
    raise ConfigError(f"/scenario: unknown id {sc!r}")


def _amplitude(tid):
    """The finite a of a test id "amplitude:<a>"; None for any other id."""
    if not (isinstance(tid, str) and tid.startswith("amplitude:")):
        return None
    try:
        a = float(tid.removeprefix("amplitude:"))
    except ValueError:
        return None
    return a if math.isfinite(a) else None


def build_tests(config: ScenarioConfig, grid: Grid) -> list:
    """Certificate test family from the config's test id strings.

    The ids, checked by ``ScenarioConfig.from_dict``: "exact" (closed-form
    decaying vortex matching the scenario data where available), "zero",
    "amplitude:<a>" (rescaled vortex).
    """
    nu = config.system.nu
    tests = []
    for tid in config.tests:
        if tid == "zero":
            tests.append(TestTrajectory.zero(grid))
        elif tid == "exact":
            tests.append(TestTrajectory.taylor_green(nu, grid, label="exact"))
        else:
            a = _amplitude(tid)
            tests.append(TestTrajectory.taylor_green(
                nu, grid, amplitude=a, label=f"amplitude_{a:g}"))
    return tests


# -- stages ------------------------------------------------------------------

def _member_specs(config: ScenarioConfig):
    base = config.system
    if config.scenario == "mv_ladder":
        nus = config.mv.get("nus", [1e-2, 5e-3, 2.5e-3])
        return [(f"nu_{nu:g}", replace(base, nu=nu)) for nu in nus]
    return [(f"n_{n}", replace(base, grid=Grid(n)))
            for n in config.family["resolutions"]]


def stage_simulate(config: ScenarioConfig) -> dict:
    """Solve and save every member; returns {member id: Trajectory}."""
    out = Path(config.out_dir) / "sim"
    stride = config.family.get("sample_stride", 1)
    n_max = max(config.family["resolutions"]) if config.scenario != "mv_ladder" \
        else config.system.grid.n
    v0_fine = initial_condition(config, Grid(n_max))
    members = {}
    for mid, spec in _member_specs(config):
        traj = solve(spec, v0_fine, sample_stride=stride,
                     provenance=f"{config.scenario}/{mid} seed={config.seed}")
        mdir = out / mid
        traj.save(mdir)
        energies = traj.energies()
        lines = ["# t  energy"]
        lines += [f"{float(t)!r} {float(e)!r}"
                  for t, e in zip(traj.times, energies)]
        (mdir / "energies.csv").write_text("\n".join(lines) + "\n")
        members[mid] = traj
    return members


def load_members(config: ScenarioConfig) -> dict:
    """{member id: Trajectory} of every simulated member under the run tree,
    the config's members first and in its order, as stage_simulate returns them."""
    sim = Path(config.out_dir) / "sim"
    dirs = [p for p in sim.iterdir() if p.is_dir()] if sim.is_dir() else []
    if not dirs:
        raise ConfigError(f"{sim}: no simulated members (run simulate first)")
    order = {mid: i for i, (mid, _) in enumerate(_member_specs(config))}
    dirs.sort(key=lambda p: (order.get(p.name, len(order)), p.name))
    return {p.name: Trajectory.load(p) for p in dirs}


def stage_certify(config: ScenarioConfig, members: dict) -> dict:
    """Certify every member against one test family on the finest member grid,
    in one pass per test, and save the reports; returns {member id: passed}."""
    first = next(iter(members))
    if bad := [mid for mid, u in members.items() if not _shares_samples(members[first], u)]:
        raise ConfigError(f"{Path(config.out_dir) / 'sim' / bad[0] / 'manifest.json'}: sample "
                          f"times or forcing differ from {first}'s; members are certified together")
    out = Path(config.out_dir) / "certificates"
    out.mkdir(parents=True, exist_ok=True)
    tests = build_tests(config, Grid(max(traj.grid.n for traj in members.values())))
    reports = certify_members(members.values(), tests, config.weight, config.tolerance)
    for mid, report in zip(members, reports):
        report.save_json(out / f"{mid}.json")
        report.save_csv(out / f"{mid}.csv")
    return {mid: report.verdict for mid, report in zip(members, reports)}


def stage_select(config: ScenarioConfig, members: dict, verdicts: dict) -> dict | None:
    """Select among the members that passed; when none did, removes any
    earlier selection.json and selected/ and writes nothing."""
    out = Path(config.out_dir)
    passed = [mid for mid in members if verdicts[mid]]
    if not passed:
        (out / "selection.json").unlink(missing_ok=True)
        shutil.rmtree(out / "selected", ignore_errors=True)
        return None
    fam = assemble_family([members[mid] for mid in passed], member_ids=tuple(passed))
    result = select(fam)
    summary = dict(result.to_dict(fam),
                   excluded=[mid for mid in members if not verdicts[mid]])
    result.trajectory.save(out / "selected")
    (out / "selection.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def stage_mv(config: ScenarioConfig, members: dict) -> dict:
    ids = list(members.keys())
    fine, coarse = members[ids[-1]], members[ids[0]]
    keys = ("mollifier_kmax", "clip_fail_ratio")  # else defect_from_pair's defaults
    m = defect_from_pair(fine, coarse, **{k: config.mv[k] for k in keys if k in config.mv})
    out = Path(config.out_dir) / "defect"
    m.save(out)
    info = {"fine": ids[-1], "coarse": ids[0],
            "mollifier_kmax": m.mollifier_kmax,
            "clip_magnitude": m.clip_magnitude,
            "min_eigenvalue": m.min_eigenvalue(),
            "max_trace_gap": float(trace_energy_gap(m, fine, coarse).max())}
    (out / "summary.json").write_text(json.dumps(info, indent=2) + "\n")
    return info


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hash_tree(root: Path) -> dict:
    return {str(p.relative_to(root)): _sha256(p) for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def run_scenario(config: ScenarioConfig) -> int:
    """simulate -> certify -> select -> (mv); 0 pass, 2 certificate fail,
    3 blow-up.  Any stage failure halts with a stage-tagged diagnostic."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        members = stage_simulate(config)
    except BlowUpError as exc:
        raise BlowUpError(f"[simulate] {exc}") from exc
    verdicts = stage_certify(config, members)
    certified = all(verdicts.values())
    if config.scenario == "mv_ladder":
        # the viscosity-ladder members do not share nu, so the convex
        # selection does not apply; the deliverable is the defect pair
        if len(members) >= 2:
            stage_mv(config, members)
    else:
        stage_select(config, members, verdicts)
    manifest = {"scenario": config.scenario, "seed": config.seed,
                "system": config.system.to_dict(),
                "weight": config.weight.to_dict(),
                "tolerance": config.tolerance.to_dict(),
                "members": sorted(members.keys()),
                "certified": certified,
                "hashes": _hash_tree(out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0 if certified else 2


# -- reporting ---------------------------------------------------------------

def report(run_dir) -> dict:
    """Emit flat summaries from a completed artifact tree.

    First checks every file the manifest hashes: a missing or altered one
    raises ConfigError naming it.  Writes margins.csv (test id, time, lhs,
    rhs, margin, tol per member), energy.csv (time, one column per member)
    and report.json, whose worst_margin is the least margin after t = 0
    (null without such a row); reads stored values only, and repeated
    invocations produce identical bytes.
    """
    root = Path(run_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"{run_dir}: no manifest.json (incomplete tree)")
    try:
        manifest = json.loads(manifest_path.read_text())
        hashes, members = manifest["hashes"].items(), manifest["members"]
        summary = {"scenario": manifest["scenario"], "seed": manifest["seed"],
                   "members": members, "certified": manifest["certified"]}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{manifest_path}: unreadable run manifest ({exc!r})") from None
    for rel, digest in hashes:
        path = root / rel
        if not path.is_file():
            raise ConfigError(f"{path}: listed in the manifest but missing")
        if _sha256(path) != digest:
            raise ConfigError(f"{path}: sha256 differs from the manifest")

    energy_rows = {}
    for mid in members:
        path = root / "sim" / mid / "energies.csv"
        if not path.exists():
            raise ConfigError(f"{run_dir}: missing {path.relative_to(root)}")
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                continue
            t, e = line.split()
            energy_rows.setdefault(t, {})[mid] = e
    lines = ["# t " + " ".join(members)]
    for t in sorted(energy_rows, key=float):
        row = energy_rows[t]
        lines.append(t + " " + " ".join(row.get(m, "nan") for m in members))
    (root / "energy.csv").write_text("\n".join(lines) + "\n")

    margin_lines = ["# member test_id t lhs rhs margin tol"]
    worst = None
    for mid in members:
        path = root / "certificates" / f"{mid}.csv"
        if not path.exists():
            raise ConfigError(f"{run_dir}: missing {path.relative_to(root)}")
        for line in path.read_text().splitlines()[1:]:
            parts = line.split(",")
            margin_lines.append(mid + " " + " ".join(parts))
            if float(parts[1]) > 0:  # every margin at t = 0 is 0
                m = float(parts[4])
                worst = m if worst is None else min(worst, m)
    (root / "margins.csv").write_text("\n".join(margin_lines) + "\n")

    selection = None
    sel_path = root / "selection.json"
    if sel_path.exists():
        selection = json.loads(sel_path.read_text())
    summary.update(worst_margin=worst, selection=selection)
    (root / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
