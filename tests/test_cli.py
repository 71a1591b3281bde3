"""Scenario orchestration, artifact tree, reports and CLI exit codes."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import dist, divergence_linf, stacked
from support import forcing_coeffs, from_velocity, perfbench_configs, velocity

import maxdiss
from maxdiss.cli import (
    EXIT_BLOWUP,
    EXIT_CERT_FAIL,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)
from maxdiss.fields import (Grid, SpectralField, from_function, load_samples, resample,
                            save_field, save_samples)
from maxdiss.scenarios import (
    SCHEMA,
    ConfigError,
    ScenarioConfig,
    build_tests,
    initial_condition,
    report,
    run_scenario,
    stage_simulate,
)
from maxdiss.solver import BlowUpError, Forcing, SystemSpec, Trajectory, _curl, taylor_green


def _base_cfg(**overrides):
    cfg = {
        "scenario": "taylor_green",
        "system": {"nu": 0.1, "n": 16, "t_end": 0.25, "dt": 2.5e-3},
        "family": {"resolutions": [16], "sample_stride": 10},
        "tests": ["exact", "zero"],
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(_base_cfg(**overrides)))
    return str(path)


# -- configuration validation ------------------------------------------------

def test_config_missing_scenario():
    with pytest.raises(ConfigError, match="/scenario"):
        ScenarioConfig.from_dict({"system": {"nu": 0.1, "n": 16,
                                             "t_end": 1.0, "dt": 1e-3}})


def test_config_unknown_scenario():
    with pytest.raises(ConfigError, match="/scenario"):
        ScenarioConfig.from_dict(_base_cfg(scenario="warp_drive"))


def test_config_missing_system_key():
    cfg = _base_cfg()
    del cfg["system"]["nu"]
    with pytest.raises(ConfigError, match="/system/nu"):
        ScenarioConfig.from_dict(cfg)


def test_config_bad_resolution():
    with pytest.raises(ConfigError, match="/family/resolutions/0"):
        ScenarioConfig.from_dict(_base_cfg(family={"resolutions": [15]}))
    with pytest.raises(ConfigError, match="/family/resolutions/0"):
        ScenarioConfig.from_dict(_base_cfg(family={"resolutions": [2]}))


def test_config_bad_test_id():
    with pytest.raises(ConfigError, match="/tests/1"):
        ScenarioConfig.from_dict(_base_cfg(tests=["zero", 7]))


def test_config_not_an_object():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        ScenarioConfig.from_dict([1, 2, 3])


@pytest.mark.parametrize("pointer, typo", [
    ("", "sede"),
    ("/system", "nuu"),
    ("/system/forcing", "kinds"),
    ("/weight", "kapa"),
    ("/tolerance", "gn_slack"),
    ("/tolerance", "step_coef"),
    ("/family", "sample_strid"),
    ("", "selector"),
    ("/mv", "nu"),
    ("", "residual"),
    ("/system", "dealias"),
    ("/family", "dt_by_resolution"),
])
def test_cli_rejects_unknown_config_key(tmp_path, capsys, pointer, typo):
    cfg = _base_cfg(scenario="mv_ladder", mv={"nus": [0.1, 0.05]},
                    weight={}, tolerance={})
    cfg["system"]["forcing"] = {"kind": "zero"}
    section = cfg
    for part in pointer.split("/")[1:]:
        section = section[part]
    section[typo] = 1
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"{pointer}/{typo}: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pointer, value", [
    ("/tolerance/quadrature", "x"),
    ("/tolerance/step_coeff", -1),
    ("/tests/1", "amplitude:abc"),
    ("/tests/1", "amplitud:1.1"),
    ("/tests/1", "amplitude:nan"),
    ("/family/sample_stride", 0),
    ("/family/sample_stride", "2"),
    ("/family/sample_stride", 2.0),
    ("/weight/kappa", "2"),
    ("/weight/kappa", True),
    ("/tolerance/quadrature", -1e-9),
    ("/weight/kappa", None),
    ("/system/nu", True),
    ("/family/amplitude", "1.0"),
    ("/family/delta", None),
    ("/family/kmax", 0),
    ("/family/kmax", 2.5),
    ("/mv/nus", []),
    ("/mv/nus", [0.1, 0.0]),
    ("/mv/nus", 0.1),
    ("/mv/mollifier_kmax", 0),
    ("/mv/clip_fail_ratio", "2"),
    ("/mv/clip_fail_ratio", -1),
    ("/family/resolutions", list(range(4, 22, 2))),  # 9 members
    ("/system/nu", float("nan")),  # JSON NaN and Infinity: finite numbers only
    ("/system/t_end", float("inf")),
    ("/system/dt", float("-inf")),
    ("/family/amplitude", float("nan")),
    ("/weight/kappa", float("nan")),
    ("/weight/kappa", float("inf")),
    ("/tolerance/quadrature", float("inf")),
    ("/mv/nus", [0.1, float("inf")]),
    ("/weight/kappa", 1.99),  # finite but below the kappa >= 2 of a sound weight
    ("/weight/kappa", 0),
    ("/weight/kappa", -3),
    ("/seed", -1),  # default_rng takes no negative seed
    ("/tests", []),  # nothing to certify against
    ("/system/n", 15),
    ("/scenario", "euler_tg"),  # retired: it set no viscosity, taylor_green with nu = 0 does
])
def test_cli_rejects_mistyped_config_value(tmp_path, capsys, pointer, value):
    # caught when the config is parsed: exit 4 naming the value, no output tree
    *sections, key = pointer.split("/")[1:]
    cfg = section = _base_cfg()
    for name in sections:
        section = section.setdefault(name, {})
    section[int(key) if isinstance(section, list) else key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {pointer}: expected " in err
    assert f", got {value!r}" in err  # e.g. "expected a number, got True"
    assert not out.exists()


@pytest.mark.parametrize("pointer, value", [
    ("/weight/p", "4"),  # the retired Serrin weight's keys, with values it once rejected
    ("/weight/c", "x"),
    ("/weight/c", float("inf")),
    ("/weight/gn_constant", True),
])
def test_cli_rejects_retired_weight_key(tmp_path, capsys, pointer, value):
    # the keys are gone, not retyped: whatever the value, exit 4 as an unknown key
    key = pointer.rsplit("/", 1)[1]
    path = _write_cfg(tmp_path, weight={key: value})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {pointer}: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_step_count_that_overflows(tmp_path, capsys):
    # t_end / dt is infinite: exit 4 naming /system/dt, not an OverflowError
    path = _write_cfg(tmp_path, system={"nu": 0.1, "n": 16, "t_end": 1.0, "dt": 5e-324})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: /system/dt: need 0 < dt <= t_end and a finite t_end / dt" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_cli_rejects_negative_seed_override(tmp_path, capsys):
    # --seed takes the place of /seed, and is checked like it
    path = _write_cfg(tmp_path, scenario="perturbed_tg")
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), "--seed", "-2"]) == EXIT_CONFIG
    assert "config error: /seed: expected an int >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, section, values, message", [
    ("mv_ladder", "mv", {"nus": [0.01, 0.0100000001]},
     "/mv/nus/1: member id 'nu_0.01' repeats /mv/nus/0's"),
    ("taylor_green", "family", {"resolutions": [12, 16, 16]},
     "/family/resolutions/2: member id 'n_16' repeats /family/resolutions/1's"),
    ("taylor_green", "tests", ["exact", "exact"], "/tests/1: test 'exact' repeats /tests/0's"),
    ("taylor_green", "tests", ["zero", "amplitude:1.05", "amplitude:1.050"],
     "/tests/2: test 'amplitude_1.05' repeats /tests/1's"),
    # the same function under two labels: "exact" is the vortex of amplitude 1 here
    ("taylor_green", "tests", ["exact", "zero", "amplitude:1"],
     "/tests/2: test function of amplitude 1.0 repeats /tests/0's"),
    ("perturbed_tg", "tests", ["amplitude:0", "exact", "zero"],
     "/tests/2: test function of amplitude 0.0 repeats /tests/0's"),
], ids=["mv", "family", "tests", "amplitude", "exact", "zero"])
def test_cli_rejects_members_that_share_an_id(tmp_path, capsys, scenario, section, values,
                                              message):
    # one member's directory would overwrite the other's
    path = _write_cfg(tmp_path, scenario=scenario, **{section: values})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_retired_weight_kind(tmp_path, capsys):
    # the strain bound is the one weight: the Serrin kind is a config error
    path = _write_cfg(tmp_path, weight={"kind": "serrin"})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == EXIT_CONFIG
    assert "config error: /weight/kind: unknown weight kind 'serrin'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system, message", [
    ({"forcing": {"kind": "analytic", "name": "kolmogorv"}},
     "unknown analytic forcing 'kolmogorv'"),
    ({"forcing": {"kind": "analytic", "name": "kolmogorov", "params": {"amplitude": "x"}}},
     "forcing params must map names to numbers"),
    ({"forcing": {"kind": "static"}}, "unknown forcing kind 'static'"),
    ({"t_end": 0.1, "dt": 0.03}, "must be an integer multiple of dt"),
    ({"forcing": {"kind": "analytic", "name": "kolmogorov", "params": {"amplitud": 0.5}}},
     "/system/forcing/params/amplitud: not read by forcing 'kolmogorov'"),
    ({"forcing": {"kind": "analytic", "name": "kolmogorov", "params": {"wavenumber": 1.5}}},
     "/system/forcing/params/wavenumber: expected an int >= 1, got 1.5"),
    ({"forcing": {"kind": "analytic", "name": "kolmogorov", "params": {"wavenumber": 0}}},
     "/system/forcing/params/wavenumber: expected an int >= 1, got 0"),
    ({"forcing": {"kind": "analytic", "name": "gradient_potential",
                  "params": {"wavenumber": 2}}},
     "/system/forcing/params/wavenumber: not read by forcing 'gradient_potential'"),
    ({"forcing": {}}, "/system/forcing/kind: missing required key"),
    ({"forcing": {"kind": "file"}}, "/system/forcing/path: missing required key"),
    ({"forcing": "zero"}, "/system/forcing: expected an object, got 'zero'"),
    ({"forcing": {"kind": "analytic", "name": "kolmogorov", "params": {"amplitude": float("nan")}}},
     "forcing params must map names to numbers"),
])
def test_cli_rejects_system_fault_at_parse(tmp_path, capsys, system, message):
    # a forcing or horizon that cannot be run is a config error before any output
    cfg = _base_cfg()
    cfg["system"].update(system)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", ["missing", "garbage", "scalar", "non_finite", "complex",
                                     "non_square", "odd"])
def test_cli_rejects_unreadable_forcing_file_at_parse(tmp_path, capsys, content):
    # the forcing file is read and checked with the config, before any output: a
    # non-finite sample would blow up the first step, and complex samples would
    # lose their imaginary part
    path = tmp_path / "forcing.fld"
    samples = from_function(Grid(16), lambda X, Y: np.sin(Y), lambda X, Y: 0 * X).physical()
    if content == "garbage":
        path.write_bytes(b"not a sample container")
    elif content == "scalar":
        save_field(from_function(Grid(16), lambda X, Y: np.sin(Y)), path)
    elif content != "missing":
        save_samples(path, {"non_finite": np.full_like(samples, np.inf),
                            "complex": samples + 0.5j, "non_square": samples[:, :8],
                            "odd": samples[:, :15, :15]}[content])
    cfg = _base_cfg()
    cfg["system"]["forcing"] = {"kind": "file", "path": str(path)}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: /system/forcing/path: ")
    assert str(path) in err
    assert not out.exists()


def test_config_parses_readable_forcing_file(tmp_path):
    path = tmp_path / "forcing.fld"
    field = from_function(Grid(16), lambda X, Y: np.sin(2 * Y), lambda X, Y: np.zeros_like(X))
    save_field(field, path)
    cfg = _base_cfg()
    cfg["system"]["forcing"] = {"kind": "file", "path": str(path)}
    forcing = ScenarioConfig.from_dict(cfg).system.forcing
    path.unlink()  # read at parse time, not when a step needs it
    assert np.abs(forcing_coeffs(forcing, 16) - field.coeffs).max() <= 1e-15
    assert forcing.curl(24).shape == (24, 13)


def _readme_config_sketch():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    return json.loads(readme.split("### Config sketch")[1].split("```")[1][len("json"):])


def test_documented_and_benchmark_configs_parse():
    configs = [_readme_config_sketch()] + perfbench_configs()
    assert len(configs) == 4
    for cfg in configs:
        ScenarioConfig.from_dict(cfg)


def test_readme_names_exactly_the_schema_keys():
    # the README names each key as often as SCHEMA declares it (kind: twice)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = readme.split("Config sections and keys: ")[1].split("\n\n")[0]
    named = re.findall(r"`(\w+)`", paragraph)
    assert sorted(named) == sorted(key for section in SCHEMA.values() for key in section)


def _readme_run_tree():
    """The file patterns of README's "Run tree" sentence, <member> as a regex."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.split(r"(?<=`)\.\s", readme.split("Run tree: ")[1])[0]
    patterns = []
    for item in re.findall(r"`([^`]+)`", sentence):
        head, _, names = item.partition("{")
        patterns += [re.escape(head + name).replace("<member>", "[^/]+")
                     for name in (names.rstrip("}").split(", ") if names else [""])]
    return [p for p in patterns if "." in p or "/" in p]  # not the scenario `mv_ladder`


def test_readme_run_tree_lists_exactly_the_files_run_writes(tmp_path):
    # each file that `maxdiss run` writes for a selecting scenario and for the
    # viscosity ladder matches one pattern of the README's run tree, and each
    # pattern matches a file of one of the two trees
    patterns, seen = _readme_run_tree(), set()
    for scenario in ("perturbed_tg", "mv_ladder"):
        out = tmp_path / scenario
        cfg = _write_cfg(tmp_path, scenario=scenario,
                         family={"resolutions": [12, 16], "sample_stride": 10})
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for path in (p for p in out.rglob("*") if p.is_file()):
            rel = path.relative_to(out).as_posix()
            assert len(hits := [p for p in patterns if re.fullmatch(p, rel)]) == 1, rel
            seen.update(hits)
    assert seen == set(patterns)


def test_config_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"scenario": "taylor_green",,}')
    with pytest.raises(ConfigError, match="malformed JSON at line 1"):
        ScenarioConfig.from_file(path)


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_cli_rejects_unreadable_config(tmp_path, capsys, kind):
    path = tmp_path / "cfg.json"
    if kind == "directory":
        path.mkdir()
    else:  # a UTF-16 byte-order mark, ff fe
        path.write_bytes(b"\xff\xfe" + json.dumps(_base_cfg()).encode("utf-16-le"))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"config error: {path}: unreadable config" in capsys.readouterr().err


def test_config_overrides(tmp_path):
    path = _write_cfg(tmp_path)
    cfg = ScenarioConfig.from_file(path, out_dir=str(tmp_path / "o"), seed=42)
    assert cfg.out_dir == str(tmp_path / "o")
    assert cfg.seed == 42
    assert cfg.system.grid.n == 16
    assert cfg.tests == ("exact", "zero")


# -- scenario data -----------------------------------------------------------

def test_initial_condition_taylor_green():
    cfg = ScenarioConfig.from_dict(_base_cfg())
    grid = Grid(16)
    v0 = initial_condition(cfg, grid)
    assert dist(v0.coeffs, taylor_green(0.0, 0.1, grid).coeffs) <= 1e-13


def test_initial_condition_perturbed_is_seeded():
    grid = Grid(16)
    mk = lambda seed: initial_condition(
        ScenarioConfig.from_dict(_base_cfg(scenario="perturbed_tg",
                                           seed=seed)), grid)
    a, b, c = mk(0), mk(0), mk(1)
    assert dist(a.coeffs, b.coeffs) == 0.0
    assert dist(a.coeffs, c.coeffs) > 1e-4
    delta = 1e-2  # default perturbation size
    assert dist(a.coeffs, taylor_green(0.0, 0.1, grid).coeffs) == pytest.approx(
        delta, rel=1e-10)
    assert divergence_linf(a) <= 1e-12


def test_initial_condition_two_vortex():
    cfg = ScenarioConfig.from_dict(_base_cfg(scenario="two_vortex"))
    v0 = initial_condition(cfg, Grid(32))
    assert divergence_linf(v0) <= 1e-12
    assert dist(v0.coeffs) > 1.0


@pytest.mark.parametrize("scenario, exact", [("taylor_green", 2.0), ("mv_ladder", 2.0),
                                             ("perturbed_tg", 1.0)])
def test_exact_test_has_the_amplitude_of_the_scenario_vortex(tmp_path, scenario, exact):
    # /family/amplitude 2 scales the vortex of taylor_green and mv_ladder; the
    # vortex of perturbed_tg has amplitude 1.  Two tests may name the same
    # amplitude only under one id
    cfg = _base_cfg(scenario=scenario, family={"resolutions": [16], "sample_stride": 10,
                                               "amplitude": 2.0},
                    tests=["exact", "zero", f"amplitude:{3.0 - exact}"],
                    mv={"nus": [0.1, 0.05]}, out_dir=str(tmp_path / "run"))
    config = ScenarioConfig.from_dict(cfg)
    grid = Grid(16)
    values = build_tests(config, grid)[0].values([0.0])[0]
    assert np.array_equal(values, _curl(taylor_green(0.0, 0.1, grid, amplitude=exact).coeffs))
    if scenario != "perturbed_tg":
        assert np.array_equal(values, _curl(initial_condition(config, grid).coeffs))
        # the run's data is the exact test's: R(0) = 0
        run_scenario(config)
        member = sorted((tmp_path / "run" / "certificates").glob("*.json"))[0]
        series = json.loads(member.read_text())["series"]
        assert series["exact"]["lhs"][0] <= 1e-28
    with pytest.raises(ConfigError, match="^/tests/1: test function of amplitude"):
        ScenarioConfig.from_dict(dict(cfg, tests=["exact", f"amplitude:{exact}"]))


def test_build_tests_ids():
    cfg = ScenarioConfig.from_dict(
        _base_cfg(tests=["exact", "zero", "amplitude:1.1"]))
    tests = build_tests(cfg, Grid(16))
    assert [t.label for t in tests] == ["exact", "zero", "amplitude_1.1"]
    with pytest.raises(ConfigError, match="/tests/0"):
        ScenarioConfig.from_dict(_base_cfg(tests=["nope"]))


# -- full pipeline -----------------------------------------------------------

@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ScenarioConfig.from_dict(_base_cfg(), out_dir=str(out))
    code = run_scenario(cfg)
    return out, code


@pytest.fixture(scope="module")
def two_member_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    family = {"resolutions": [12, 16], "sample_stride": 10}
    assert run_scenario(ScenarioConfig.from_dict(_base_cfg(family=family), out_dir=str(out))) == 0
    return out


def test_run_scenario_artifacts(completed_run):
    out, code = completed_run
    assert code == 0
    assert {p.name for p in (out / "sim" / "n_16").iterdir()} == {
        "manifest.json", "energies.csv", "states.fld"}
    cert = json.loads((out / "certificates" / "n_16.json").read_text())
    assert cert["verdict"] == "pass"
    sel = json.loads((out / "selection.json").read_text())
    assert sel["lambda"] == [1.0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["certified"] is True
    assert manifest["members"] == ["n_16"]
    assert manifest["hashes"]  # content-hash closure over the tree


def test_certificate_records_weight_integral_and_horizon(tmp_path):
    # K = 2 sup |S| = 2 a e^{-2 nu t} for TG of amplitude a: I(0.1) is about 0.2
    # for `exact`, and a = 400 damps every margin below 1e-16 by t = 0.05; the
    # zero test has K = 0; only amplitude_400 has a horizon
    cfg = _base_cfg(system={"nu": 0.1, "n": 32, "t_end": 0.1, "dt": 2.5e-3},
                    family={"resolutions": [32], "sample_stride": 1},
                    tests=["exact", "zero", "amplitude:400"], out_dir=str(tmp_path / "run"))
    assert run_scenario(ScenarioConfig.from_dict(cfg)) == 0
    cert = json.loads((tmp_path / "run" / "certificates" / "n_32.json").read_text())
    assert cert["tests"]["zero"] == {"weight_integral": 0.0, "horizon": None}
    exact, big = cert["tests"]["exact"], cert["tests"]["amplitude_400"]
    assert exact["horizon"] is None
    assert exact["weight_integral"] == pytest.approx(10 * (1 - np.exp(-0.02)), rel=1e-6)
    assert big["horizon"] <= 0.05
    assert big["weight_integral"] > 16 * np.log(10)
    assert len(cert["series"]["amplitude_400"]["margin"]) == len(cert["times"])
    assert big["horizon"] in cert["times"]


def test_report_reads_stored_artifacts(completed_run):
    out, _ = completed_run
    summary = report(out)
    assert summary["certified"] is True
    assert summary["worst_margin"] >= -1e-8
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0] == "# t n_16"
    # stored energies match the closed-form decay of the vortex
    for line in energy[1:]:
        t, e = map(float, line.split())
        assert abs(e - np.pi ** 2 * np.exp(-4 * 0.1 * t)) <= 1e-6
    margins = (out / "margins.csv").read_text().splitlines()
    assert margins[0] == "# member test_id t lhs rhs margin tol"
    # every margin at t = 0 is 0 by construction; the worst one is after it
    worst = min(float(ln.split()[5]) for ln in margins[1:] if float(ln.split()[2]) > 0)
    assert worst == pytest.approx(summary["worst_margin"])


def test_report_idempotent(completed_run):
    out, _ = completed_run
    report(out)
    first = {p.name: p.read_bytes()
             for p in (out / "energy.csv", out / "margins.csv",
                       out / "report.json")}
    report(out)
    for p in (out / "energy.csv", out / "margins.csv", out / "report.json"):
        assert p.read_bytes() == first[p.name]


def test_cli_report_rejects_tampered_tree(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", _write_cfg(tmp_path),
                 "--out", str(out)]) == EXIT_OK
    cert = out / "certificates" / "n_16.json"
    text = cert.read_text()
    i = next(i for i, ch in enumerate(text) if ch.isdigit())
    cert.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert str(cert) in capsys.readouterr().err
    assert not (out / "report.json").exists()
    cert.unlink()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert str(cert) in capsys.readouterr().err


REPORT_OUTPUTS = ("energy.csv", "margins.csv", "report.json")


def _damage_and_rehash(out, rel, edit):
    """Rewrite run-tree file ``rel`` with ``edit`` of its text, or remove it when ``edit``
    is None, and make the run manifest's hashes match; clears what a report left."""
    for name in REPORT_OUTPUTS:
        (out / name).unlink(missing_ok=True)
    path, manifest_path = out / rel, out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if edit is None:
        path.unlink()
        del manifest["hashes"][rel]
    else:
        path.write_text(edit(path.read_text()))
        manifest["hashes"][rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _edit_json(change):
    def edit(text):
        d = json.loads(text)
        change(d)
        return json.dumps(d)
    return edit


@pytest.mark.parametrize("damage", ["truncated", "no_series", "no_times", "short_series",
                                    "missing"])
def test_cli_report_rejects_unreadable_certificate(completed_run, tmp_path, capsys, damage):
    # report builds margins.csv from the certificate JSON: one that is truncated, has no
    # series or times, has a series shorter than its times or is gone exits 4 naming it,
    # with the run manifest's hashes made to match, and writes none of its outputs
    out = tmp_path / "run"
    shutil.copytree(completed_run[0], out)
    edit = {"truncated": lambda text: text[:len(text) // 2],
            "no_series": _edit_json(lambda d: d.pop("series")),
            "no_times": _edit_json(lambda d: d.pop("times")),
            "short_series": _edit_json(lambda d: d["series"]["zero"]["lhs"].pop()),
            "missing": None}[damage]
    path = _damage_and_rehash(out, "certificates/n_16.json", edit)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {path}: unreadable certificate" in capsys.readouterr().err
    assert not any((out / name).exists() for name in REPORT_OUTPUTS)


@pytest.mark.parametrize("rel, damage", [
    ("selection.json", "truncated"),
    ("sim/n_12/energies.csv", "one_column"),
    ("sim/n_16/energies.csv", "not_a_float"),
    ("sim/n_12/energies.csv", "ragged"),
    ("sim/n_16/energies.csv", "header_only"),
    ("sim/n_16/energies.csv", "short"),
    ("sim/n_16/energies.csv", "other_times"),
])
def test_cli_report_rejects_damaged_input_and_writes_nothing(two_member_run, tmp_path, capsys,
                                                             rel, damage):
    # report reads every input before it writes: a truncated selection.json, or an
    # energies.csv whose rows are not two floats or whose times are not the first
    # member's (n_12), exits 4 naming the file, with the manifest's hashes made to match
    out = tmp_path / "run"
    shutil.copytree(two_member_run, out)
    assert main(["report", "--out", str(out)]) == EXIT_OK  # the undamaged tree reports

    def rows(change):
        return lambda text: "\n".join(change(text.splitlines())) + "\n"

    edit = {"truncated": lambda text: text[:len(text) // 2],
            "one_column": rows(lambda ls: ls[:1] + [ln.split()[0] for ln in ls[1:]]),
            "not_a_float": rows(lambda ls: ls[:2] + ["0.5 energy"] + ls[3:]),
            "ragged": rows(lambda ls: ls[:2] + [ls[2] + " 1.0"] + ls[3:]),
            "header_only": rows(lambda ls: ls[:1]),
            "short": rows(lambda ls: ls[:-1]),
            "other_times": rows(lambda ls: ls[:2] + ["9.5 " + ls[2].split()[1]] + ls[3:]),
            }[damage]
    path = _damage_and_rehash(out, rel, edit)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {path}: " in capsys.readouterr().err
    assert not any((out / name).exists() for name in REPORT_OUTPUTS)


def test_report_margins_keep_the_csv_number_formats(completed_run):
    # margins.csv writes t and tol in %.12g and lhs, rhs and margin in %.17g, the
    # formats of the per-member certificate CSV it was built from before
    out, _ = completed_run
    report(out)
    lines = (out / "margins.csv").read_text().splitlines()
    zero = next(ln for ln in lines if ln.startswith("n_16 zero "))
    energy = zero.split()[3]  # R(0) of the zero test: the energy pi^2 of the vortex
    assert zero == f"n_16 zero 0 {energy} {energy} 0 1e-09"
    assert float(energy) == pytest.approx(np.pi ** 2, rel=1e-14)
    cert = json.loads((out / "certificates" / "n_16.json").read_text())
    test_id, s = list(cert["series"].items())[-1]  # margins.csv is test-major
    assert lines[-1] == "n_16 %s %.12g %.17g %.17g %.17g %.12g" % (
        test_id, cert["times"][-1], s["lhs"][-1], s["rhs"], s["margin"][-1], s["tol"][-1])
    assert lines[-1].split()[2] == "0.25" and float(lines[-1].split()[5]) == s["margin"][-1]


@pytest.mark.parametrize("damage", ["truncated", "missing_key"])
@pytest.mark.parametrize("command", ["certify", "select", "mv", "report"])
def test_cli_rejects_unreadable_json_in_run_tree(completed_run, tmp_path, capsys,
                                                 command, damage):
    # a member manifest for the stages that load members, the run manifest for report
    out = tmp_path / "run"
    shutil.copytree(completed_run[0], out)
    path = out / "manifest.json" if command == "report" else out / "sim" / "n_16" / "manifest.json"
    text = path.read_text()
    if damage == "truncated":
        path.write_text(text[:len(text) // 2])
    else:
        d = json.loads(text)
        del d["hashes" if command == "report" else "spec"]
        path.write_text(json.dumps(d))
    args = (["--fine", str(path.parent), "--coarse", str(path.parent)] if command == "mv"
            else ["--config", _write_cfg(tmp_path)])
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == EXIT_CONFIG
    assert str(path) in capsys.readouterr().err


def test_cli_report_rejects_edited_member_manifest(completed_run, tmp_path, capsys):
    # the member manifests (spec, times, provenance) are hashed like every other file
    out = tmp_path / "run"
    shutil.copytree(completed_run[0], out)
    path = out / "sim" / "n_16" / "manifest.json"
    d = json.loads(path.read_text())
    d["provenance"] += " (edited)"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == EXIT_CONFIG
    assert f"{path}: sha256 differs from the manifest" in capsys.readouterr().err


def test_run_leaves_no_output_of_an_earlier_run(tmp_path, capsys):
    # run replaces what an earlier run or report left: report's outputs, the other
    # kind of scenario's final stage and the run manifest, so none of them is hashed
    out = str(tmp_path / "run")
    system = {"nu": 0.1, "n": 16, "t_end": 0.05, "dt": 0.005}
    family = {"resolutions": [16], "sample_stride": 5}
    for nu in (0.1, 0.2):
        cfg = _write_cfg(tmp_path, system=dict(system, nu=nu), family=family)
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        assert main(["report", "--out", out]) == EXIT_OK
    assert main(["report", "--out", out]) == EXIT_OK
    ladder = _write_cfg(tmp_path, "ladder.json", scenario="mv_ladder", system=system,
                        family=family, mv={"nus": [0.1, 0.05]})
    for cfg, gone in ((ladder, ("selection.json", "selected")), (cfg, ("defect",))):
        assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
        hashes = json.loads((tmp_path / "run" / "manifest.json").read_text())["hashes"]
        assert not [rel for rel in hashes if rel.split("/")[0] in gone + (
            "energy.csv", "margins.csv", "report.json")]
        assert not any((tmp_path / "run" / name).exists() for name in gone)
        assert main(["report", "--out", out]) == EXIT_OK


def test_run_scenario_deterministic(tmp_path):
    codes, manifests = [], []
    for sub in ("a", "b"):
        cfg = ScenarioConfig.from_dict(
            _base_cfg(scenario="perturbed_tg"), out_dir=str(tmp_path / sub))
        codes.append(run_scenario(cfg))
        manifests.append(json.loads(
            (tmp_path / sub / "manifest.json").read_text()))
    assert codes == [0, 0]
    assert manifests[0]["hashes"] == manifests[1]["hashes"]
    assert report(tmp_path / "a")["worst_margin"] > 0


def test_stage_subcommands_match_run(tmp_path, capsys):
    # simulate, certify and select, each reading the run tree the one before
    # wrote, give the selection and certificates of one `maxdiss run` bit for
    # bit: `maxdiss run` hands the spectra on in memory, the subcommands load
    # the same spectra from states.fld.  The exact selection needs that: H has
    # eigenvalues 3.1e-7 and 9.4 here, so a rounding change of H moves lambda
    # by about 1e-8.  The subcommands take the members in the config's order,
    # which is not the order of their names.
    cfg = _write_cfg(tmp_path, scenario="perturbed_tg",
                     family={"resolutions": [16, 12], "sample_stride": 5})
    run, staged = tmp_path / "run", tmp_path / "staged"
    assert main(["run", "--config", cfg, "--out", str(run)]) == EXIT_OK
    for command in ("simulate", "certify", "select"):
        assert main([command, "--config", cfg, "--out", str(staged)]) == EXIT_OK
    capsys.readouterr()
    assert sorted(p.name for p in (staged / "certificates").iterdir()) == \
        sorted(p.name for p in (run / "certificates").iterdir())
    for mid in ("n_12", "n_16"):
        a, b = (json.loads((root / "certificates" / f"{mid}.json").read_text())
                for root in (run, staged))
        assert b == a
    a, b = (json.loads((root / "selection.json").read_text()) for root in (run, staged))
    assert b == a and (a["member_ids"], a["rank"], a["unique"]) == (["n_16", "n_12"], 2, True)
    assert all((staged / "selected" / name).read_bytes() == (run / "selected" / name).read_bytes()
               for name in ("manifest.json", "states.fld"))


def test_mv_subcommand_matches_run(tmp_path, capsys):
    # simulate, then mv on the finest and coarsest viscosity, writes the defect of
    # one `maxdiss run` bit for bit: mv loads the velocities rebuilt from the
    # stored vorticity, which are the ones `maxdiss run` holds in memory
    cfg = _write_cfg(tmp_path, scenario="mv_ladder")
    run, staged = tmp_path / "run", tmp_path / "staged"
    assert main(["run", "--config", cfg, "--out", str(run)]) == EXIT_OK
    assert main(["simulate", "--config", cfg, "--out", str(staged)]) == EXIT_OK
    assert main(["mv", "--fine", str(staged / "sim" / "nu_0.0025"),
                 "--coarse", str(staged / "sim" / "nu_0.01"),
                 "--out", str(staged / "defect")]) == EXIT_OK
    capsys.readouterr()
    for name in ("density.fld", "manifest.json"):
        assert (staged / "defect" / name).read_bytes() == (run / "defect" / name).read_bytes()


def test_stages_keep_no_member_of_an_earlier_config(tmp_path):
    # simulate replaces sim/ and certify certificates/, so a member that the
    # config no longer names is neither certified, selected nor hashed
    out = tmp_path / "run"
    for resolutions in ([8, 16], [12, 16]):
        cfg = _write_cfg(tmp_path, family={"resolutions": resolutions, "sample_stride": 10})
        for command in ("simulate", "certify"):
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["select", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in (out / "sim").iterdir()) == ["n_12", "n_16"]
    assert sorted(p.name for p in (out / "certificates").iterdir()) == ["n_12.json", "n_16.json"]
    sel = json.loads((out / "selection.json").read_text())
    assert sorted(sel["member_ids"] + sel["excluded"]) == ["n_12", "n_16"]


def test_stage_mv_uses_the_pair_default_clip_ratio(tmp_path):
    # coarse (sin 6y, 0) against fine (0, sin 6x): the raw defect is about
    # diag(-1/2, 1/2), so the PSD clip equals the trace scale, which
    # defect_from_pair's default clip_fail_ratio of 0.5 rejects
    from maxdiss.fields import from_function
    from maxdiss.mv_euler import MVError, defect_from_pair
    from maxdiss.scenarios import stage_mv
    from maxdiss.selector import assemble_family

    grid = Grid(16)
    spec = SystemSpec(nu=0.0, grid=grid, t_end=1.0, dt=0.5)
    times = np.array([0.0, 0.5, 1.0])

    def zero(x, y):
        return 0.0 * x

    fields = {"coarse": from_function(grid, lambda x, y: np.sin(6 * y), zero, solenoidal=True),
              "fine": from_function(grid, zero, lambda x, y: np.sin(6 * x), solenoidal=True)}
    members = {mid: from_velocity(spec, times, stacked([f] * 3))
               for mid, f in fields.items()}
    family = assemble_family(members.values(), member_ids=tuple(members))
    with pytest.raises(MVError, match="PSD projection too large"):
        defect_from_pair(members["fine"], members["coarse"])
    cfg = _base_cfg(scenario="mv_ladder")
    with pytest.raises(MVError, match="PSD projection too large"):
        stage_mv(ScenarioConfig.from_dict(cfg, out_dir=str(tmp_path / "a")), family)
    cfg["mv"] = {"clip_fail_ratio": 2.0}  # the config still overrides it
    info = stage_mv(ScenarioConfig.from_dict(cfg, out_dir=str(tmp_path / "b")), family)
    assert info["clip_magnitude"] == pytest.approx(0.5, rel=1e-3)


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _cpus(monkeypatch, count: int) -> list:
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs; returns the list that
    counts the forks, which fail the test with one CPU."""
    forks, fork = [], os.fork

    def counted():
        assert count > 1, "forked with one usable CPU"
        forks.append(count)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("scenario, extra", [
    ("perturbed_tg", {"family": {"resolutions": [12, 16, 8], "sample_stride": 10}}),
    ("mv_ladder", {"mv": {"nus": [0.1, 0.05, 0.02]}})])
def test_members_on_lanes_write_the_serial_tree(tmp_path, monkeypatch, scenario, extra):
    # one lane per usable CPU: two lanes fork a child, whose members reach the family
    # read-only like the parent's, and the run tree is the one-lane tree byte for byte
    trees = []
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        cfg = ScenarioConfig.from_dict(_base_cfg(scenario=scenario, **extra),
                                       out_dir=str(tmp_path / str(cpus)))
        family = stage_simulate(cfg)
        assert family.size == 3 and len(forks) == cpus - 1
        assert not any(a.flags.writeable for tr in family.trajs for a in (tr.times, tr.vorticity))
        assert run_scenario(cfg) == 0
        trees.append(_tree(tmp_path / str(cpus)))
        monkeypatch.undo()
    assert trees[0] == trees[1]


def test_blowup_in_a_child_lane_raises_the_serial_error(tmp_path, monkeypatch):
    # n_32, first in config order, blows up at t = 2.5 in the child's lane; n_64, the
    # costliest member and alone in this process's lane, at t = 2: the serial error wins
    messages = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        cfg = ScenarioConfig.from_dict(_base_cfg(
            scenario="two_vortex", system={"nu": 0.0, "n": 32, "t_end": 5.0, "dt": 0.5},
            family={"resolutions": [32, 16, 64], "sample_stride": 1}, tests=["zero"]),
            out_dir=str(tmp_path / str(cpus)))
        with pytest.raises(BlowUpError) as info:
            run_scenario(cfg)
        messages.append(str(info.value))
        monkeypatch.undo()
    assert messages == ["[simulate] energy blow-up at t=2.5"] * 2


def test_run_scenario_loads_no_trajectory(tmp_path, monkeypatch):
    # the stages hand their trajectories on in memory
    def refuse(*args, **kwargs):
        raise AssertionError("Trajectory.load called")

    monkeypatch.setattr(Trajectory, "load", refuse)
    for scenario, extra in (("perturbed_tg", {}),
                            ("mv_ladder", {"mv": {"nus": [0.1, 0.05]}})):
        cfg = ScenarioConfig.from_dict(_base_cfg(scenario=scenario, **extra),
                                       out_dir=str(tmp_path / scenario))
        assert run_scenario(cfg) == 0


def test_run_builds_one_family_and_checks_samples_only_there(tmp_path, monkeypatch):
    # the stages share the family that stage_simulate assembles: one
    # assemble_family per run, and the sample check runs only there, and in
    # defect_from_pair, the entry point of `maxdiss mv`, on mv_ladder
    import maxdiss.selector
    import maxdiss.solver

    calls = []
    for original in (maxdiss.selector.assemble_family, maxdiss.solver._shares_samples):
        def counted(*args, _fn=original, **kwargs):
            calls.append((_fn.__name__, sys._getframe(1).f_code.co_name))
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("maxdiss") and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    for scenario, extra, checkers in (
            ("perturbed_tg", {"family": {"resolutions": [12, 16], "sample_stride": 10}},
             {"assemble_family"}),
            ("mv_ladder", {"mv": {"nus": [0.1, 0.05]}}, {"assemble_family", "defect_from_pair"})):
        calls.clear()
        cfg = ScenarioConfig.from_dict(_base_cfg(scenario=scenario, **extra),
                                       out_dir=str(tmp_path / scenario))
        assert run_scenario(cfg) == 0
        assert [c for c in calls if c[0] == "assemble_family"] == [
            ("assemble_family", "stage_simulate")]
        assert {caller for fn, caller in calls if fn == "_shares_samples"} == checkers


def test_select_stage_takes_no_velocity_round_trip(tmp_path, monkeypatch):
    # the mixture is summed in the members' vorticity: the select stage neither
    # takes a curl nor normalizes a velocity
    from maxdiss.scenarios import stage_certify, stage_select, stage_simulate

    cfg = ScenarioConfig.from_dict(_base_cfg(scenario="perturbed_tg", family={
        "resolutions": [12, 16], "sample_stride": 10}), out_dir=str(tmp_path))
    family = stage_simulate(cfg)
    verdicts = stage_certify(cfg, family)

    def refuse(*args, **kwargs):
        raise AssertionError("velocity round trip in the select stage")

    for name, module in list(sys.modules.items()):
        for fn in ("_curl", "normalized"):
            if name.startswith("maxdiss") and hasattr(module, fn):
                monkeypatch.setattr(module, fn, refuse)
    assert stage_select(cfg, family, verdicts)["member_ids"] == ["n_12", "n_16"]


@pytest.mark.parametrize("nus", [[0.01, 0.0025], [0.0025, 0.01]])
def test_cli_run_pairs_least_with_most_viscous_member(tmp_path, capsys, nus):
    # the defect pairs the least viscous member (fine) with the most viscous
    # (coarse) in whatever order /mv/nus lists them
    out = tmp_path / "run"
    cfg = _write_cfg(tmp_path, scenario="mv_ladder", mv={"nus": nus})
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "defect" / "summary.json").read_text())
    assert (summary["fine"], summary["coarse"]) == ("nu_0.0025", "nu_0.01")


# -- CLI entry point ----------------------------------------------------------

def test_cli_run_imports_no_scipy(tmp_path):
    # scipy costs most of a run's start-up; the package does not import it
    cfg = _write_cfg(tmp_path, scenario="perturbed_tg",
                     system={"nu": 0.1, "n": 16, "t_end": 0.05, "dt": 5e-3},
                     family={"resolutions": [12, 16], "sample_stride": 2})
    out = str(tmp_path / "out")
    script = (
        "import json, sys\n"
        "from maxdiss.cli import main\n"
        f"code = main(['run', '--config', {cfg!r}, '--out', {out!r}])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                            if m == 'scipy' or m.startswith('scipy.'))]))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(maxdiss.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "selection.json").exists()
    assert loaded == []


def test_cli_run_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert main(["run", "--config", cfg, "--out", out]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    assert main(["report", "--out", out]) == EXIT_OK


def test_cli_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "malformed JSON" in capsys.readouterr().err
    unk = tmp_path / "unk.json"
    unk.write_text(json.dumps(_base_cfg(scenario="warp_drive")))
    assert main(["run", "--config", str(unk),
                 "--out", str(tmp_path / "y")]) == EXIT_CONFIG
    assert main(["run", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "z")]) == EXIT_CONFIG
    assert main(["certify", "--out", str(tmp_path / "q")]) == EXIT_CONFIG
    assert main(["report", "--out", str(tmp_path / "empty")]) == EXIT_CONFIG


def test_cli_certify_before_simulate(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["certify", "--config", cfg,
                 "--out", str(tmp_path / "nosim")]) == EXIT_CONFIG
    assert "no simulated members" in capsys.readouterr().err


def test_cli_truncated_states_file(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    states = out / "sim" / "n_16" / "states.fld"
    states.write_bytes(states.read_bytes()[:-8])
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert str(states) in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["nan", "inf", "velocity_layout", "real"])
@pytest.mark.parametrize("command", ["certify", "select", "mv"])
def test_cli_rejects_bad_states(tmp_path, capsys, command, damage):
    # a stored state with a non-finite coefficient exits 4 naming the file and the
    # first bad sample time, so it is neither certified, selected nor turned into a
    # defect; so does the states.fld of older run trees, which holds the velocity,
    # (T, 2, n - 1, n/2) under the layout half_spectrum_packed, and one of real samples
    cfg = _write_cfg(tmp_path, family={"resolutions": [8, 16], "sample_stride": 10})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    member, states = out / "sim" / "n_16", out / "sim" / "n_16" / "states.fld"
    if damage == "velocity_layout":
        save_samples(states, np.delete(velocity(Trajectory.load(member))[..., :8], 8, axis=-2),
                     extra={"layout": "half_spectrum_packed"})
        message = ("layout half_spectrum_packed, shape [11, 2, 15, 8]; the manifest needs "
                   "vorticity_half_spectrum_packed, [11, 1, 15, 8]: re-run simulate")
    elif damage == "real":
        packed, header = load_samples(states)
        save_samples(states, packed.real, extra={"layout": header["layout"]})
        message = "dtype f64, the vorticity needs c128"
    else:
        packed, header = load_samples(states)
        packed[5, 0, 3, 2] = packed[3, 0, 1, 1] = float(damage)
        save_samples(states, packed, extra=header)
        t = json.loads((member / "manifest.json").read_text())["times"][3]
        message = f"non-finite coefficients in the sample at t={t!r}"
    capsys.readouterr()
    argv = ([command, "--config", cfg, "--out", str(out)] if command != "mv" else
            ["mv", "--fine", str(member), "--coarse", str(out / "sim" / "n_8"),
             "--out", str(out / "defect")])
    assert main(argv) == EXIT_CONFIG
    assert f"{states}: {message}" in capsys.readouterr().err
    assert not any((out / name).exists() for name in ("certificates", "selection.json", "defect"))


def test_cli_certify_rejects_manifest_without_forcing(tmp_path, capsys):
    # a forced member whose manifest lost its forcing is not read as unforced
    cfg = _write_cfg(tmp_path, system={"nu": 0.1, "n": 16, "t_end": 0.05, "dt": 5e-3,
                                       "forcing": {"kind": "analytic", "name": "kolmogorov"}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = out / "sim" / "n_16" / "manifest.json"
    d = json.loads(manifest.read_text())
    del d["spec"]["forcing"]
    manifest.write_text(json.dumps(d))
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert str(manifest) in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"forcing": {}}, "forcing/kind: missing required key"),
    ({"forcing": {"kind": "analytic", "name": "kolmogorov"}}, "forcing/params: missing"),
    ({"nu": float("nan")}, "nu: expected a finite number, got nan"),
])
def test_cli_certify_rejects_incomplete_or_nonfinite_member_spec(tmp_path, capsys, spec, message):
    # a manifest's spec is not completed with defaults: a forcing without the
    # keys its kind writes, or a non-finite number, fails naming the manifest
    cfg = _write_cfg(tmp_path, system={"nu": 0.1, "n": 16, "t_end": 0.05, "dt": 5e-3,
                                       "forcing": {"kind": "analytic", "name": "kolmogorov"}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    manifest = out / "sim" / "n_16" / "manifest.json"
    d = json.loads(manifest.read_text())
    d["spec"].update(spec)
    manifest.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and str(manifest) in err


@pytest.mark.parametrize("case", ["last_infinite", "off_grid", "repeated", "not_1d", "empty",
                                  "members_differ"])
def test_cli_certify_rejects_bad_sample_times(tmp_path, capsys, case):
    # sample times are finite, on the manifest's dt grid, end at t_end and increase
    # strictly along one axis, and all members share them, as their one certify pass does
    message = {"last_infinite": "ending at t_end=0.25, got inf",
               "off_grid": "times: expected multiples of dt=0.0025 ending at t_end=0.25, got 0.076",
               "repeated": "times: must be finite, 1-D, start at 0 and increase strictly",
               "not_1d": "times: must be finite, 1-D, start at 0 and increase strictly",
               "empty": "times: empty, need the sample times from 0 to t_end",
               "members_differ": "sample times or forcing differ from n_16's"}[case]
    cfg = _write_cfg(tmp_path, family={"resolutions": [16, 24], "sample_stride": 10})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    member = out / "sim" / "n_24"
    manifest = member / "manifest.json"
    if case == "members_differ":
        traj = Trajectory.load(member)
        Trajectory(traj.spec, traj.times[::2], traj.vorticity[::2]).save(member)
    else:
        d = json.loads(manifest.read_text())
        if case == "last_infinite":
            d["times"][-1] = float("inf")
        elif case == "off_grid":
            d["times"][3] = 0.076
        elif case == "repeated":  # on the dt grid, but not increasing
            d["times"][3] = d["times"][2]
        elif case == "not_1d":
            d["times"] = [[t] for t in d["times"]]
        else:  # the manifest is at fault, not the states.fld it no longer matches
            d["times"] = []
        manifest.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and str(manifest) in err


def test_cli_mv_with_missing_forcing_file(tmp_path, capsys):
    # a member manifest naming a forcing file that is gone is a config error
    grid = Grid(16)
    path = tmp_path / "forcing.fld"
    save_field(from_function(grid, lambda X, Y: np.sin(Y), lambda X, Y: np.zeros_like(X)), path)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=0.25, dt=2.5e-3,
                      forcing=Forcing("file", path=str(path)))
    times = np.linspace(0.0, 0.25, 11)
    w = taylor_green(0.0, 0.1, grid)
    from_velocity(spec, times, stacked([w] * 11)).save(tmp_path / "member")
    path.unlink()
    member = str(tmp_path / "member")
    assert main(["mv", "--fine", member, "--coarse", member,
                 "--out", str(tmp_path / "defect")]) == EXIT_CONFIG
    assert "config error: forcing/path: " in capsys.readouterr().err


def test_cli_certificate_failure_exit_code(tmp_path, capsys):
    # plant a manufactured energy-growing trajectory and certify it
    cfg = _write_cfg(tmp_path, tests=["zero"])
    out = tmp_path / "run"
    grid = Grid(16)
    spec = SystemSpec(nu=0.1, grid=grid, t_end=0.25, dt=2.5e-3,
                      forcing=Forcing("zero"))
    w = taylor_green(0.0, 0.1, grid).coeffs
    times = np.linspace(0.0, 0.25, 11)
    bad = from_velocity(spec, times,
                        np.stack([(1.0 + t) * w for t in times]),
                        provenance="manufactured growth")
    bad.save(out / "sim" / "n_16")
    assert main(["certify", "--config", cfg,
                 "--out", str(out)]) == EXIT_CERT_FAIL
    assert "FAIL" in capsys.readouterr().out
    cert = json.loads((out / "certificates" / "n_16.json").read_text())
    assert cert["verdict"] == "fail"


def test_cli_select_mixes_only_certified_members(tmp_path, capsys, tg_impostors):
    # select reads each member's verdict from its certificate: the impostor
    # is excluded, and the exit code still says that a member failed
    cfg = _write_cfg(tmp_path, system={"nu": 0.1, "n": 32, "t_end": 0.5, "dt": 2.5e-3},
                     family={"resolutions": [32], "sample_stride": 10},
                     weight={"kind": "euler_negsym"}, tests=["exact"])
    out = tmp_path / "run"
    for mid in ("tg", "decaying"):
        tg_impostors[mid].save(out / "sim" / mid)
    assert main(["select", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert str(out / "certificates" / "decaying.json") in capsys.readouterr().err
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_CERT_FAIL
    assert main(["select", "--config", cfg, "--out", str(out)]) == EXIT_CERT_FAIL
    sel = json.loads((out / "selection.json").read_text())
    assert (sel["member_ids"], sel["excluded"], sel["lambda"]) == (["tg"], ["decaying"], [1.0])
    assert (sel["rank"], sel["unique"]) == (1, True)
    # with no member certified there is nothing to select from, and the
    # earlier selection of the same tree is removed
    tg_impostors["decaying"].save(out / "sim" / "tg")
    for command in ("certify", "select"):
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CERT_FAIL
    assert "no selection" in capsys.readouterr().out
    assert not (out / "selection.json").exists() and not (out / "selected").exists()


@pytest.mark.parametrize("verdict", ["PASS", None, ["pass"], "missing"])
def test_cli_select_rejects_a_stored_verdict_other_than_pass_or_fail(completed_run, tmp_path,
                                                                    capsys, verdict):
    # a stored verdict that is neither "pass" nor "fail", or none at all, is not
    # read as a fail that excludes the member: select exits 4 naming the certificate
    out = tmp_path / "run"
    shutil.copytree(completed_run[0], out)
    path = out / "certificates" / "n_16.json"
    cert = json.loads(path.read_text())
    if verdict == "missing":
        del cert["verdict"]
    else:
        cert["verdict"] = verdict
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["select", "--config", _write_cfg(tmp_path), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {path}: unreadable certificate verdict" in capsys.readouterr().err


def test_cli_select_rejects_members_with_other_initial_data(tmp_path, capsys):
    # n_24 of another seed: its perturbation differs from n_16's
    trees = [tmp_path / "seed0", tmp_path / "seed1"]
    cfg = _write_cfg(tmp_path, scenario="perturbed_tg",
                     system={"nu": 0.1, "n": 24, "t_end": 0.05, "dt": 5e-3},
                     family={"resolutions": [16, 24], "sample_stride": 5})
    for seed, out in enumerate(trees):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", str(seed)]) == EXIT_OK
    shutil.rmtree(trees[0] / "sim" / "n_24")
    shutil.copytree(trees[1] / "sim" / "n_24", trees[0] / "sim" / "n_24")
    main(["certify", "--config", cfg, "--out", str(trees[0])])
    capsys.readouterr()
    assert main(["select", "--config", cfg, "--out", str(trees[0])]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{trees[0] / 'sim' / 'n_24'}: initial data mismatch" in err


def test_cli_blowup_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, scenario="two_vortex",
                     system={"nu": 0.0, "n": 32, "t_end": 5.0, "dt": 0.5},
                     family={"resolutions": [32], "sample_stride": 1},
                     tests=["zero"])
    assert main(["run", "--config", cfg,
                 "--out", str(tmp_path / "boom")]) == EXIT_BLOWUP
    err = capsys.readouterr().err
    assert "blow-up" in err and "[simulate]" in err


def test_cli_mv_subcommand(tmp_path, capsys):
    from dataclasses import replace

    grid = Grid(32)
    nu = 0.02
    spec = SystemSpec(nu=nu, grid=grid, t_end=0.1, dt=2.5e-3,
                      forcing=Forcing("zero"))
    from maxdiss.solver import solve
    rng = np.random.default_rng(7)
    from maxdiss.fields import random_field
    r = random_field(grid, rng, kmax=10, components=2, solenoidal=True).coeffs
    fine = solve(spec, SpectralField(grid, taylor_green(0.0, nu, grid).coeffs + (1 / dist(r)) * r),
                 sample_stride=10)
    coarse = from_velocity(replace(spec, grid=Grid(16)), fine.times,
                           resample(velocity(fine), 16))
    fine.save(tmp_path / "fine")
    coarse.save(tmp_path / "coarse")
    out = tmp_path / "defect"
    assert main(["mv", "--fine", str(tmp_path / "fine"),
                 "--coarse", str(tmp_path / "coarse"),
                 "--out", str(out)]) == EXIT_OK
    assert "defect field" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["format"] == "maxdiss-defect"
    # incompatible pair: swapped roles
    assert main(["mv", "--fine", str(tmp_path / "coarse"),
                 "--coarse", str(tmp_path / "fine"),
                 "--out", str(tmp_path / "d2")]) == EXIT_CONFIG


@pytest.mark.parametrize("kmax", ["0", "-2"])
def test_cli_mv_rejects_kmax_below_one(tmp_path, capsys, kmax):
    # a low band without modes checks no initial data and leaves a NaN density
    from dataclasses import replace

    from maxdiss.solver import solve
    spec = SystemSpec(nu=0.1, grid=Grid(16), t_end=0.05, dt=2.5e-3)
    fine = solve(spec, taylor_green(0.0, 0.1, spec.grid), sample_stride=10)
    coarse = from_velocity(replace(spec, grid=Grid(8)), fine.times,
                           resample(velocity(fine), 8))
    fine.save(tmp_path / "fine")
    coarse.save(tmp_path / "coarse")
    out = tmp_path / "defect"
    assert main(["mv", "--fine", str(tmp_path / "fine"), "--coarse", str(tmp_path / "coarse"),
                 "--out", str(out), "--kmax", kmax]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: /mv: mollifier_kmax: expected an int >= 1, got {kmax}" in err
    assert not out.exists()


def test_cli_seed_override(tmp_path):
    cfg = _write_cfg(tmp_path, scenario="perturbed_tg")
    outs = {}
    for name, seed in (("s0", "0"), ("s0b", "0"), ("s1", "1")):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", seed]) == EXIT_OK
        outs[name] = (out / "sim" / "n_16" / "energies.csv").read_text()
    assert outs["s0"] == outs["s0b"]
    assert outs["s0"] != outs["s1"]


def test_seed_irrelevant_for_noise_free_scenario(tmp_path):
    cfg = _write_cfg(tmp_path)  # analytic initial data, no randomness
    outs = {}
    for name, seed in (("s0", "0"), ("s7", "7")):
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", seed]) == EXIT_OK
        outs[name] = (out / "sim" / "n_16" / "energies.csv").read_bytes()
    assert outs["s0"] == outs["s7"]

