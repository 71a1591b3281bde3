"""The benchmark's own tests: python3 -m pytest perfbench

The last test runs every workload briefly, traced and untraced, and takes
a few minutes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from check import compare  # noqa: E402
from child import SpeedProbe  # noqa: E402
from run import (E2E_UNITS, LAYER_UNITS, PROBE_REF_S,  # noqa: E402
                 STAGE_LAYER_UNITS, at_reference_speed, tail_percentile)
from tracer import Tracer, aggregate, fft_cost, self_times  # noqa: E402
from workloads import PREDICTIONS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_of_synthetic_spans():
    # root [0, 10] > a [1, 4] > g [2, 3];  root > b [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    np.testing.assert_allclose(own, [6.0, 2.0, 1.0, 1.0])
    assert own.sum() == pytest.approx(10.0)  # self times tile the root


def test_aggregate_sums_calls_and_times_per_name():
    names = ["solver.advance", "fields.fft.fft2"]
    agg = aggregate(names, [0, 1, 1, 0], [0.0, 1.0, 2.0, 10.0],
                    [5.0, 2.0, 4.0, 11.0], [-1, 0, 0, -1])
    assert agg["solver.advance"] == {"calls": 2, "total_s": 6.0, "self_s": 3.0}
    assert agg["fields.fft.fft2"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_fft_cost_from_shapes():
    a = np.zeros((2, 8, 8), dtype=complex)
    flops, nbytes = fft_cost("ifft2", a, np.fft.ifft2(a))
    assert flops == 2 * 5 * 64 * 6
    assert nbytes == 2 * a.nbytes
    r = np.zeros((8, 8))
    flops, nbytes = fft_cost("rfft2", r, np.fft.rfft2(r))
    assert flops == 0.5 * 5 * 64 * 6
    assert nbytes == r.nbytes + 8 * 5 * 16


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(40)))[0] == 75
    assert tail_percentile(list(range(1000)))[0] == 99


def test_speed_probe_rate_and_reference_seconds():
    probe = SpeedProbe()
    probe.samples = [1e-4, 2e-4, 1e-4, 4e-4, 2e-4]
    assert probe.rate() == pytest.approx((1e4 + 5e3 + 1e4 + 2.5e3 + 5e3) / 5)
    assert probe.rate([(0, 2), (3, 5)]) == pytest.approx(
        (1e4 + 5e3 + 2.5e3 + 5e3) / 4)
    assert probe.rate([(0, 2)]) is None  # too few samples for a stage
    # a host twice as slow doubles the wall time and halves the rate
    assert at_reference_speed(2.0, 0.5 / PROBE_REF_S) == pytest.approx(1.0)
    with SpeedProbe() as live:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:
            pass
    assert len(live.samples) >= 5


def test_metric_names_and_units_match_the_declaration():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == E2E_UNITS
    assert layers == LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    extra = {k for units in STAGE_LAYER_UNITS.values() for k in units}
    for name in [*e2e, *layers, *extra, *WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for metric, targets in PREDICTIONS.items():
        assert metric in layers or metric in extra, metric
        for e2e_metric, workload in targets:
            assert e2e_metric in e2e and workload in WORKLOADS


def test_check_rejects_a_changed_value():
    ref = {"energy_end": {"n_16": 9.5}, "objective": 0.36}
    assert compare({"energy_end": {"n_16": 9.5}, "objective": 0.36}, ref) == []
    assert compare({"energy_end": {"n_16": 9.5 * (1 + 1e-12)},
                    "objective": 0.36}, ref) == []
    assert len(compare({"energy_end": {"n_16": 9.5001}, "objective": 0.36},
                       ref)) == 1
    assert len(compare({"energy_end": {}, "objective": 0.36}, ref)) == 1


def test_tracer_records_spans_and_restores_every_attribute():
    import maxdiss.certificate
    from maxdiss import fields, solver

    originals = (solver.advance, fields.SpectralField.__post_init__,
                 vars(solver.Trajectory)["load"], np.fft.fft2,
                 maxdiss.certificate.weight_value)
    tracer = Tracer()
    tracer.install()
    try:
        assert solver.advance is not originals[0]
        assert maxdiss.certificate.weight_value is not originals[4]
        spec = solver.SystemSpec(nu=0.1, grid=fields.Grid(8), t_end=0.01,
                                 dt=0.01)
        solver.advance(solver.taylor_green(0.0, 0.1, spec.grid), spec, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    assert (solver.advance, fields.SpectralField.__post_init__,
            vars(solver.Trajectory)["load"], np.fft.fft2,
            maxdiss.certificate.weight_value) == originals
    agg = aggregate(tracer.names, tracer.name_id, tracer.start, tracer.end,
                    tracer.parent)
    assert agg["solver.advance"]["calls"] == 1
    assert agg["solver.convection"]["calls"] == 4
    assert tracer.counters["fft_flops"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in STAGE_LAYER_UNITS[WORKLOADS[workload]["final_stage"]]:
        if trace:
            assert re.search(rf"^{re.escape(name)}\s+\S*[1-9]", proc.stdout,
                             re.M), name
