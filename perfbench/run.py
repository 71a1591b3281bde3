"""Benchmark of ``maxdiss run``: staged end-to-end timings and a traced run.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout; maxdiss is imported from its ``src``.
Every repetition is a fresh interpreter, because each ``maxdiss run`` pays
its imports and table building again.

--trace 0  for T seconds, alternates a set-up process (import + config
           parse) and a ``maxdiss run``, and reports the end-to-end
           metrics: medians over the repetitions.
--trace 1  runs the kernel sweep, then for the rest of T seconds pairs of
           untraced and traced runs, and reports the per-layer metrics from
           the spans, plus the tracing overhead (median over pairs).

Times are reported at a reference speed: each wall time is scaled by the
rate of child.SpeedProbe, sampled during the same interval, relative to
PROBE_REF_S.  This cancels the host's speed drift between runs; the raw
wall medians are printed and recorded next to them.  Per-layer times are
raw.

Every run's tree is checked against reference.json (see check.py).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit,
median, tail percentile and sample count.  A detailed record, with the
package versions, core count and source identity, is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import check_run
from tracer import LAYERS, aggregate
from workloads import REFERENCE_SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REPS = 5
MIN_PAIRS = 2
KERNEL_SECONDS_PER_SIZE = 0.25
#: child.SpeedProbe sample time that defines a reference-speed second
PROBE_REF_S = 50e-6
CHILD_TIMEOUT_S = 120
#: never start another repetition after this many seconds (contract: 180)
LAST_START_S = 130

E2E_UNITS = {
    "run_s": "s", "setup_s": "s", "simulate_s": "s", "certify_s": "s",
    "select_or_mv_s": "s", "peak_rss_mb": "MB", "artifact_mb": "MB",
}

LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       if layer not in ("selector", "mv_euler")
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "solver.advance_ms.p50": "ms", "solver.advance_ms.p90": "ms",
    "solver.steps": "count", "solver.convection_calls": "count",
    "fields.field_constructs": "count", "fields.fft_calls": "count",
    "fields.fft_gflop": "GFLOP", "fields.fft_mb": "MB",
    "certificate.margin_series_s": "s", "certificate.entries": "count",
    "relenergy.weight_value_s": "s", "relenergy.residual_A_s": "s",
    "solver.traj_save_s": "s", "solver.traj_load_s": "s",
    "fields.bytes_written_mb": "MB", "fields.bytes_read_mb": "MB",
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.unaccounted_s": "s",
    **{f"{metric}.n{n}": unit for n in (32, 64, 128, 256)
       for metric, unit in (("solver.step_ms", "ms"),
                            ("fields.fft_pair_ms", "ms"),
                            ("solver.step_fft_gflop", "GFLOP"),
                            ("solver.step_fft_mb", "MB"))},
}

#: reported only by the workloads whose final stage runs these layers
STAGE_LAYER_UNITS = {
    "select": {"selector.self_s": "s", "selector.calls": "count",
               "selector.assemble_family_s": "s", "selector.select_s": "s",
               "selector.iterations": "count", "selector.mix_s": "s"},
    "mv": {"mv_euler.self_s": "s", "mv_euler.calls": "count",
           "mv_euler.defect_from_pair_s": "s", "mv_euler.save_s": "s"},
}

#: per-layer metric -> (span name, "calls" | "total_s")
SPAN_METRICS = {
    "solver.steps": ("solver.advance", "calls"),
    "solver.convection_calls": ("solver.convection", "calls"),
    "fields.field_constructs": ("fields.SpectralField.__post_init__", "calls"),
    "certificate.margin_series_s": ("certificate.margin_series", "total_s"),
    "relenergy.weight_value_s": ("relenergy.weight_value", "total_s"),
    "relenergy.residual_A_s": ("relenergy.residual_A", "total_s"),
    "solver.traj_save_s": ("solver.Trajectory.save", "total_s"),
    "solver.traj_load_s": ("solver.Trajectory.load", "total_s"),
    "selector.assemble_family_s": ("selector.assemble_family", "total_s"),
    "selector.select_s": ("selector.select", "total_s"),
    "selector.mix_s": ("selector.CandidateFamily.mix", "total_s"),
    "mv_euler.defect_from_pair_s": ("mv_euler.defect_from_pair", "total_s"),
    "mv_euler.save_s": ("mv_euler.DefectField.save", "total_s"),
}

#: per-layer metric -> (tracer counter, scale)
COUNTER_METRICS = {
    "fields.fft_gflop": ("fft_flops", 1e-9),
    "fields.fft_mb": ("fft_bytes", 1e-6),
    "fields.bytes_written_mb": ("bytes_written", 1e-6),
    "fields.bytes_read_mb": ("bytes_read", 1e-6),
    "certificate.entries": ("certificate_entries", 1.0),
    "selector.iterations": ("select_iterations", 1.0),
}


class BenchError(RuntimeError):
    """The benchmark cannot measure: the program is missing or broken."""


# -- statistics ----------------------------------------------------------------

def tail_percentile(values) -> tuple[int, float] | None:
    """The highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def summarize(values, raw=None) -> dict:
    """Median, tail percentile and count; ``raw`` are the same samples
    before conversion to reference speed."""
    tail = tail_percentile(values)
    out = {"median": float(statistics.median(values)), "n": len(values),
           "tail": None if tail is None else {"p": tail[0], "value": tail[1]}}
    if raw is not None:
        out["raw_median"] = float(statistics.median(raw))
    return out


def at_reference_speed(wall_s: float, probe_rate: float) -> float:
    """Seconds the work would take at the speed where the probe takes
    PROBE_REF_S: the measured time, corrected for the host's speed during
    that same interval (``probe_rate`` is the mean of 1 / probe time)."""
    return wall_s * PROBE_REF_S * probe_rate


# -- child processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(args: list, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *map(str, args)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def time_setup(config: Path, env: dict) -> tuple[float, float]:
    """Wall seconds and probe rate of a fresh interpreter that imports
    maxdiss and parses the config."""
    wall, proc = run_child([HERE / "child.py", "setup", config], env)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])["probe_rate"]


def repeat(step, seconds: float, min_iterations: int) -> None:
    """Call ``step`` until another call would end after ``seconds``."""
    t0 = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if len(durations) >= min_iterations and (
                elapsed + statistics.median(durations) > seconds
                or elapsed > LAST_START_S):
            return


def kernel_sweep(env: dict) -> dict:
    _, proc = run_child([HERE / "kernels.py", KERNEL_SECONDS_PER_SIZE], env)
    if proc.returncode != 0:
        raise BenchError(f"kernel sweep failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def layer_values(spans: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced run (advance durations kept raw)."""
    agg = aggregate(list(spans["names"]), spans["name_id"], spans["start"],
                    spans["end"], spans["parent"])
    out = {}
    for layer in LAYERS:
        rows = [v for k, v in agg.items() if k.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        out[f"{layer}.calls"] = sum(r["calls"] for r in rows)
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = agg.get(span, {}).get(field, 0)
    out["fields.fft_calls"] = sum(v["calls"] for k, v in agg.items()
                                  if k.startswith("fields.fft."))
    for metric, (key, scale) in COUNTER_METRICS.items():
        out[metric] = counters.get(key, 0.0) * scale
    names = list(spans["names"])
    if "solver.advance" in names:
        mask = spans["name_id"] == names.index("solver.advance")
        out["advance_ms"] = (1e3 * (spans["end"] - spans["start"])[mask]).tolist()
    else:
        out["advance_ms"] = []
    out["self_total_s"] = sum(v["self_s"] for v in agg.values())
    return out


def one_run(work: Path, config: Path, config_seed: int, trace: bool,
            env: dict, wl: dict, reference: dict) -> dict:
    """One ``maxdiss run`` in a fresh interpreter, checked and measured."""
    out, stats_path = work / "out", work / "stats.json"
    spans_path = Path(str(stats_path) + ".spans.npz")
    for p in (stats_path, spans_path):
        p.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    wall, proc = run_child(
        [HERE / "child.py", "run", stats_path, int(trace), "--", "run",
         "--config", config, "--out", out, "--seed", config_seed], env)
    rec = {"run_s": wall, "exit_code": proc.returncode, "traced": trace}
    problems = check_run(out, wl["final_stage"], proc.returncode, reference)
    if stats_path.is_file():
        stats = json.loads(stats_path.read_text())
        stages = stats["stages"]
        rec.update(simulate_s=stages.get("simulate"),
                   certify_s=stages.get("certify"),
                   select_or_mv_s=stages.get(wl["final_stage"]),
                   peak_rss_mb=stats["peak_rss_mb"])
        # a stage is corrected with the probe samples taken during it
        stage_rate = stats["stage_probe_rate"]
        rec["probe_rate"] = {
            "run_s": stats["probe_rate"],
            **{f"{m}_s": stage_rate.get(stage) or stats["probe_rate"]
               for m, stage in (("simulate", "simulate"),
                                ("certify", "certify"),
                                ("select_or_mv", wl["final_stage"]))}}
        if trace:
            if stats["leftover_wrappers"] or not stats["stage_wrappers_restored"]:
                problems.append(f"wrappers left patched: "
                                f"{stats['leftover_wrappers']}")
            with np.load(spans_path) as z:
                spans = {k: z[k] for k in z.files}
            counters = dict(zip(spans["counter_keys"].tolist(),
                                spans["counter_values"].tolist()))
            rec["layers"] = layer_values(spans, counters)
    else:
        problems.append("no stats written")
    if out.is_dir():
        rec["artifact_mb"] = tree_bytes(out) / 1e6
    if problems and proc.stderr:
        problems.append("stderr: " + proc.stderr.strip()[-2000:])
    rec["problems"] = problems
    shutil.rmtree(out, ignore_errors=True)
    return rec


# -- the two kinds of run ------------------------------------------------------

def measure_e2e(work, config, config_seed, env, wl, reference, seconds):
    """Set-up and ``maxdiss run`` in turn, each in a fresh interpreter."""
    time_setup(config, env)  # compiles bytecode once, as an install does
    setup, runs = [], []

    def step():
        setup.append(time_setup(config, env))
        runs.append(one_run(work, config, config_seed, False, env, wl,
                            reference))

    repeat(step, seconds, MIN_REPS)
    # a run that fails its output check is still timed; it makes the
    # result incorrect, not unmeasurable
    ok = [r for r in runs if "probe_rate" in r and "artifact_mb" in r]
    if not ok:
        raise BenchError(f"no run could be measured: {runs[0]['problems']}")
    summaries = {"setup_s": summarize(
        [at_reference_speed(w, p) for w, p in setup], [w for w, _ in setup])}
    for metric, unit in E2E_UNITS.items():
        if metric == "setup_s":
            continue
        raw = [r[metric] for r in ok]
        if unit == "s":
            summaries[metric] = summarize(
                [at_reference_speed(r[metric], r["probe_rate"][metric])
                 for r in ok], raw)
        else:
            summaries[metric] = summarize(raw)
    return summaries, runs, E2E_UNITS


def measure_layers(work, config, config_seed, env, wl, reference, seconds):
    """Kernel sweep, then pairs of untraced and traced runs."""
    t0 = time.perf_counter()
    time_setup(config, env)
    kernels = kernel_sweep(env)
    setup, pairs = [], []

    def step():
        setup.append(time_setup(config, env))
        first = len(pairs) % 2 == 1  # alternate which side runs first
        pair = {traced: one_run(work, config, config_seed, traced, env, wl,
                                reference)
                for traced in (first, not first)}
        pairs.append((pair[False], pair[True]))

    repeat(step, seconds - (time.perf_counter() - t0), MIN_PAIRS)
    runs = [r for pair in pairs for r in pair]
    ok_pairs = [(p, t) for p, t in pairs if "probe_rate" in p and "layers" in t]
    if not ok_pairs:
        raise BenchError(f"no run could be measured: {runs[0]['problems']}")
    traced = [t for _, t in ok_pairs]
    units = dict(LAYER_UNITS, **STAGE_LAYER_UNITS.get(wl["final_stage"], {}))
    summaries = {k: summarize([v]) for k, v in kernels.items()}
    for metric in units:
        if metric in kernels or metric.startswith(("trace.",
                                                    "solver.advance_ms")):
            continue
        summaries[metric] = summarize([r["layers"][metric] for r in traced])
    steps = [ms for r in traced for ms in r["layers"]["advance_ms"]]
    for p in (50, 90):
        summaries[f"solver.advance_ms.p{p}"] = {
            "median": float(np.percentile(steps, p)), "n": len(steps),
            "tail": None}
    setup_med = statistics.median(w for w, _ in setup)
    summaries["setup_s"] = summarize([w for w, _ in setup])
    summaries["trace.run_s"] = summarize([r["run_s"] for r in traced])
    summaries["trace.overhead_s"] = summarize(
        [t["run_s"] - p["run_s"] for p, t in ok_pairs])
    summaries["trace.unaccounted_s"] = summarize(
        [r["run_s"] - setup_med - r["layers"]["self_total_s"] for r in traced])
    return summaries, runs, units


# -- reporting -----------------------------------------------------------------

def environment() -> dict:
    files = sorted((SRC / "maxdiss").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": sha, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def print_table(summaries: dict, units: dict) -> None:
    print(f"{'metric':34s} {'median':>12s} {'unit':6s} {'tail':>18s} {'n':>5s}"
          f" {'raw median':>12s}")
    for name, unit in units.items():
        s = summaries[name]
        tail = "-" if s["tail"] is None else \
            f"p{s['tail']['p']} {s['tail']['value']:.6g}"
        raw = f"{s['raw_median']:12.6g}" if "raw_median" in s else ""
        print(f"{name:34s} {s['median']:12.6g} {unit:6s} {tail:>18s} "
              f"{s['n']:5d} {raw}")


def _stop(signum, frame):
    # SystemExit makes subprocess.run kill and reap the running child
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maxdiss" / "__init__.py").is_file():
        print(f"error: no maxdiss sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    config_seed = args.seed % REFERENCE_SEEDS
    reference = json.loads((HERE / "reference.json").read_text())[
        args.workload][str(config_seed)]
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.json"
    config.write_text(json.dumps(wl["config"], indent=2))
    measure = measure_layers if args.trace else measure_e2e
    try:
        summaries, runs, units = measure(work, config, config_seed,
                                         child_env(), wl, reference,
                                         args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    failed = sum(1 for r in runs if r["problems"])
    print(f"workload {args.workload}  seed {args.seed} (config seed "
          f"{config_seed})  trace {args.trace}  seconds {args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print_table(summaries, units)
    if args.trace:
        s = {k: summaries[k]["median"] for k in
             ("trace.run_s", "setup_s", "trace.unaccounted_s",
              "trace.overhead_s")}
        print(f"traced run_s {s['trace.run_s']:.4f} = setup_s "
              f"{s['setup_s']:.4f} + layer self times "
              f"{s['trace.run_s'] - s['setup_s'] - s['trace.unaccounted_s']:.4f}"
              f" + unaccounted {s['trace.unaccounted_s']:.4f}; "
              f"tracing overhead {s['trace.overhead_s']:.4f} s")
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED run: {problem}")
    print(f"failed_frac {failed / len(runs):.4g} ({failed} of {len(runs)} runs)")

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "config_seed": config_seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "why": wl["why"],
              "metrics": {k: dict(summaries[k], unit=u) for k, u in units.items()},
              "runs": [{k: v for k, v in r.items() if k != "layers"}
                       for r in runs]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1))

    declared = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": summaries[k]["median"], "unit": u}
                    for k, u in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
