"""Kernel sweep, run in a fresh interpreter by run.py.

    python3 perfbench/kernels.py SECONDS_PER_SIZE

For n in SIZES it times the public ``solver.advance`` on a Taylor-Green
state and the ``SpectralField.physical`` + ``fields.from_physical`` pair,
each as the median over repetitions, and counts the computed FFT flops
and bytes of one step.  Prints one JSON object.  Every array involved is
at most 2 MB at n = 256, so it stays in cache: no bandwidth is claimed.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

SIZES = (32, 64, 128, 256)
MIN_REPS = 5


def _median_ms(fn, budget_s: float) -> float:
    fn()  # warm caches and lazy set-up; users run many steps per run
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < MIN_REPS or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def sweep(budget_s: float) -> dict:
    from maxdiss.fields import Grid, from_physical
    from maxdiss.solver import SystemSpec, advance, taylor_green
    from tracer import Tracer

    out = {}
    for n in SIZES:
        grid = Grid(n)
        spec = SystemSpec(nu=0.02, grid=grid, t_end=1.0, dt=1e-3)
        v = taylor_green(0.0, spec.nu, grid)
        out[f"solver.step_ms.n{n}"] = _median_ms(
            lambda: advance(v, spec, 0.0), budget_s)
        out[f"fields.fft_pair_ms.n{n}"] = _median_ms(
            lambda: from_physical(grid, v.physical()), budget_s / 2)
        tracer = Tracer()
        tracer.install()
        try:
            advance(v, spec, 0.0)
        finally:
            tracer.uninstall()
        if tracer.leftover_wrappers():
            raise RuntimeError(f"unrestored: {tracer.leftover_wrappers()}")
        out[f"solver.step_fft_gflop.n{n}"] = tracer.counters["fft_flops"] / 1e9
        out[f"solver.step_fft_mb.n{n}"] = tracer.counters["fft_bytes"] / 1e6
    return out


if __name__ == "__main__":
    print(json.dumps(sweep(float(sys.argv[1]))))
