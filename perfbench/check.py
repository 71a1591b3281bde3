"""Output check of one ``maxdiss run`` tree against recorded references.

A run passes when it exits with the expected code, its tree is complete
(manifest, one certificate per member, ``selection.json`` or
``defect/summary.json``) and its values match ``reference.json``, which was
recorded at the commit that introduced the benchmark.  The tolerances are
loose enough for a change of FFT layout or summation order and tight enough
to catch a changed result.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

EXPECTED_EXIT = 0

#: value -> (relative tolerance, absolute tolerance)
TOLERANCES = {
    "energy_end": (1e-9, 0.0),
    "lambda": (0.0, 1e-6),
    "objective": (1e-9, 0.0),
    "clip_magnitude": (1e-6, 1e-9),
    "min_eigenvalue": (1e-6, 1e-9),
    "max_trace_gap": (1e-6, 1e-9),
}


def _final_energy(path: Path) -> float:
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return float(rows[-1].split()[1])


def extract(tree: Path, final_stage: str) -> dict:
    """The checked values of a complete run tree."""
    members = json.loads((tree / "manifest.json").read_text())["members"]
    values = {"energy_end": {m: _final_energy(tree / "sim" / m / "energies.csv")
                             for m in members}}
    if final_stage == "select":
        sel = json.loads((tree / "selection.json").read_text())
        values["lambda"] = dict(zip(sel["member_ids"], sel["lambda"]))
        values["objective"] = sel["objective"]
    else:
        summary = json.loads((tree / "defect" / "summary.json").read_text())
        for key in ("clip_magnitude", "min_eigenvalue", "max_trace_gap"):
            values[key] = summary[key]
    return values


def missing_files(tree: Path, final_stage: str) -> list[str]:
    manifest = tree / "manifest.json"
    if not manifest.is_file():
        return ["manifest.json"]
    members = json.loads(manifest.read_text()).get("members", [])
    if not members:
        return ["members in manifest.json"]
    need = [f"certificates/{m}.json" for m in members]
    need += [f"sim/{m}/energies.csv" for m in members]
    need.append("selection.json" if final_stage == "select"
                else "defect/summary.json")
    return [p for p in need if not (tree / p).is_file()]


def _close(got: float, want: float, key: str) -> bool:
    rtol, atol = TOLERANCES[key]
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def compare(values: dict, reference: dict) -> list[str]:
    """Mismatches between extracted values and their reference."""
    problems = []
    for key, want in reference.items():
        got = values.get(key)
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                problems.append(f"{key}: members {got} != {sorted(want)}")
                continue
            problems += [f"{key}[{m}] = {got[m]!r}, reference {w!r}"
                         for m, w in want.items() if not _close(got[m], w, key)]
        elif got is None or not _close(got, want, key):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def check_run(tree: Path, final_stage: str, exit_code: int,
              reference: dict) -> list[str]:
    """Every reason the run fails its output check; empty when it passes."""
    if exit_code != EXPECTED_EXIT:
        return [f"exit code {exit_code}, expected {EXPECTED_EXIT}"]
    try:
        missing = missing_files(tree, final_stage)
        if missing:
            return [f"missing {p}" for p in missing]
        return compare(extract(tree, final_stage), reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
