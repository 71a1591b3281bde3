"""One fresh-interpreter measurement, started by run.py.

    python3 perfbench/child.py setup CONFIG
        import maxdiss.cli and parse CONFIG with ScenarioConfig.from_file:
        the set-up every ``maxdiss run`` pays.  The caller times the process;
        stdout receives the speed probe's rate as JSON.

    python3 perfbench/child.py run STATS TRACE -- <maxdiss cli arguments>
        run ``maxdiss.cli.main`` with the pipeline stages wrapped by timers;
        with TRACE = 1 every layer is wrapped by the span tracer as well.
        STATS (JSON) receives the exit code, stage seconds, peak RSS, the
        speed probe's rates and, when traced, whether every patched
        attribute was restored; the spans go to STATS with the suffix
        ``.spans.npz``.

Both modes run ``SpeedProbe`` while they work.

The maxdiss package must be imported from ``src`` of the checkout that
holds this file; a maxdiss found anywhere else is an error.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("stage_simulate", "stage_certify", "stage_select", "stage_mv")
PROBE_INTERVAL_S = 0.01
PROBE_LOOP = 1000
#: a stage with fewer probe samples is corrected with the whole run's rate
MIN_STAGE_SAMPLES = 3


class SpeedProbe:
    """Samples how fast this CPU runs while the child does its work.

    The host's speed drifts by up to 2x over minutes (other tenants share
    its cores), which a window of seconds cannot average out.  Every
    PROBE_INTERVAL_S a SIGALRM handler times a fixed interpreter loop that
    touches no memory of the program's, so its time follows the core's
    speed and not the program's cache footprint; the caller uses it to
    express wall times at a fixed reference speed.  The loop takes about
    60 us, 0.6 % of the run.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rate(self, spans=None) -> float | None:
        """Mean of 1/sample over all samples or the (first, stop) index spans.

        Samples are evenly spaced in wall time, so wall seconds times this
        rate integrate the probe's speed over the interval.
        """
        picked = self.samples if spans is None else \
            [x for i, j in spans for x in self.samples[i:j]]
        if len(picked) < MIN_STAGE_SAMPLES:
            return None
        return statistics.fmean(1.0 / x for x in picked)


def _import_checked():
    import maxdiss
    import maxdiss.cli
    src = (ROOT / "src").resolve()
    if src not in Path(maxdiss.__file__).resolve().parents:
        sys.exit(f"maxdiss imported from {maxdiss.__file__}, not from {src}")
    return maxdiss.cli


def _time_stages(scenarios, seconds: dict, probe_spans: dict, probe):
    """Wrap the stage functions that run_scenario looks up at call time.

    Each stage's seconds, and the range of probe samples taken during it.
    """
    originals = {}
    for name in STAGES:
        fn = getattr(scenarios, name)
        originals[name] = fn

        def timed(*args, _fn=fn, _name=name, **kwargs):
            first = len(probe.samples)
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                seconds[_name] = seconds.get(_name, 0.0) + time.perf_counter() - t0
                probe_spans.setdefault(_name, []).append(
                    (first, len(probe.samples)))

        setattr(scenarios, name, timed)
    return originals


def setup(config: str) -> int:
    with SpeedProbe() as probe:
        _import_checked()
        from maxdiss.scenarios import ScenarioConfig
        ScenarioConfig.from_file(config)
    print(json.dumps({"probe_rate": probe.rate()}))
    return 0


def run(stats_path: str, trace: bool, argv: list) -> int:
    probe_spans: dict = {}
    with SpeedProbe() as probe:
        code, stats = _run(stats_path, trace, argv, probe, probe_spans)
    stats["probe_rate"] = probe.rate()
    stats["stage_probe_rate"] = {k.removeprefix("stage_"): probe.rate(v)
                                 for k, v in probe_spans.items()}
    Path(stats_path).write_text(json.dumps(stats))
    return code


def _run(stats_path: str, trace: bool, argv: list, probe, probe_spans):
    cli = _import_checked()
    import maxdiss.scenarios as scenarios
    stages: dict = {}
    originals = _time_stages(scenarios, stages, probe_spans, probe)
    tracer = None
    if trace:
        from tracer import Tracer  # the script's directory is on sys.path
        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
        for name, fn in originals.items():
            setattr(scenarios, name, fn)
    stats = {"exit_code": code,
             "stages": {k.removeprefix("stage_"): v for k, v in stages.items()},
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             / 1024.0}
    if tracer is not None:
        stats["leftover_wrappers"] = tracer.leftover_wrappers()
        stats["stage_wrappers_restored"] = all(
            getattr(scenarios, k) is v for k, v in originals.items())
        tracer.save(stats_path + ".spans.npz")
    return code, stats


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) >= 4 and argv[0] == "run" and argv[3] == "--":
        return run(argv[1], argv[2] == "1", argv[4:])
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
