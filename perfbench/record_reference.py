"""Record the reference outputs that check.py compares every run against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once per config seed 0 .. REFERENCE_SEEDS-1 and writes
the checked values to perfbench/reference.json.  Run it only when a
workload's config changes, and only at a commit whose outputs are trusted:
later commits are checked against what it records.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import EXPECTED_EXIT, extract, missing_files
from run import HERE, ROOT, child_env, run_child
from workloads import REFERENCE_SEEDS, WORKLOADS


def record(name: str, env: dict) -> dict:
    wl = WORKLOADS[name]
    work = ROOT / ".perfbench" / f"reference-{name}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(wl["config"], indent=2))
    values = {}
    try:
        for seed in range(REFERENCE_SEEDS):
            out = work / f"out-{seed}"
            _, proc = run_child(["-m", "maxdiss.cli", "run", "--config", config,
                                 "--out", out, "--seed", seed], env)
            missing = missing_files(out, wl["final_stage"])
            if proc.returncode != EXPECTED_EXIT or missing:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}, "
                         f"missing {missing}\n{proc.stderr}")
            values[str(seed)] = extract(out, wl["final_stage"])
            print(f"{name} seed {seed}: {values[str(seed)]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return values


def main(names) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    env = child_env()
    for name in names or sorted(WORKLOADS):
        reference[name] = record(name, env)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
