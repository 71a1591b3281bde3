"""Workload definitions: scenario configs, rationale and predictions.

Each workload is one ``maxdiss run`` config.  ``t_end`` is scaled down from
the sizes first measured (0.2 / 0.3 / 0.3) so that one run takes a few
seconds and a timed window holds several repetitions; the sample strides
keep the stage split of the full-size runs.

``PREDICTIONS`` records, before any optimisation is measured, which
per-layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

#: --seed s runs config seed s % REFERENCE_SEEDS; reference.json holds the
#: expected outputs of exactly these config seeds.
REFERENCE_SEEDS = 16

WORKLOADS = {
    "ns_ladder_128": {
        "why": "FFT-bound simulation at n = 64/96/128 with few samples; "
               "a change to certify or storage should leave it unchanged",
        "final_stage": "select",
        "config": {
            "scenario": "perturbed_tg",
            "system": {"nu": 0.02, "n": 128, "t_end": 0.08, "dt": 2e-3},
            "family": {"resolutions": [64, 96, 128], "sample_stride": 20},
            "tests": ["exact", "zero", "amplitude:1.05"],
        },
    },
    "cert_dense_32": {
        "why": "certify-bound: every step sampled at n = 16/24/32, so "
               "per-call overhead, small-file I/O and the Gram loop dominate",
        "final_stage": "select",
        "config": {
            "scenario": "perturbed_tg",
            "system": {"nu": 0.1, "n": 32, "t_end": 0.075, "dt": 2.5e-3},
            "family": {"resolutions": [16, 24, 32], "sample_stride": 1},
            "tests": ["exact", "zero", "amplitude:0.95", "amplitude:1.05",
                      "amplitude:1.1"],
        },
    },
    "mv_ladder_64": {
        "why": "viscosity ladder on one n = 64 grid: Euler weight in certify, "
               "defect pair and 3-component containers, largest run tree",
        "final_stage": "mv",
        "config": {
            "scenario": "mv_ladder",
            "system": {"nu": 0.01, "n": 64, "t_end": 0.075, "dt": 2.5e-3},
            "family": {"sample_stride": 2},
            "mv": {"nus": [1e-2, 5e-3, 2.5e-3]},
            "tests": ["zero", "exact"],
            "weight": {"kind": "euler_negsym"},
        },
    },
}

#: layer metric -> [(end-to-end metric it should move, workload), ...]
PREDICTIONS = {
    "solver.advance_ms.p50": [("simulate_s", "ns_ladder_128")],
    "solver.advance_ms.p90": [("simulate_s", "ns_ladder_128")],
    "solver.steps": [("simulate_s", "ns_ladder_128")],
    "solver.convection_calls": [("simulate_s", "ns_ladder_128")],
    "fields.field_constructs": [("simulate_s", "ns_ladder_128"),
                                ("certify_s", "cert_dense_32")],
    "fields.fft_calls": [("simulate_s", "ns_ladder_128")],
    "fields.fft_gflop": [("simulate_s", "ns_ladder_128")],
    "fields.fft_mb": [("simulate_s", "ns_ladder_128")],
    "certificate.margin_series_s": [("certify_s", "cert_dense_32")],
    "certificate.entries": [("certify_s", "cert_dense_32")],
    "relenergy.weight_value_s": [("certify_s", "cert_dense_32"),
                                 ("certify_s", "mv_ladder_64")],
    "relenergy.residual_A_s": [("certify_s", "cert_dense_32")],
    "solver.traj_save_s": [("simulate_s", "cert_dense_32"),
                           ("simulate_s", "mv_ladder_64"),
                           ("artifact_mb", "cert_dense_32"),
                           ("artifact_mb", "mv_ladder_64")],
    "solver.traj_load_s": [("certify_s", "cert_dense_32"),
                           ("select_or_mv_s", "cert_dense_32"),
                           ("certify_s", "mv_ladder_64")],
    "fields.bytes_written_mb": [("artifact_mb", "cert_dense_32"),
                                ("artifact_mb", "mv_ladder_64")],
    "fields.bytes_read_mb": [("certify_s", "cert_dense_32"),
                             ("select_or_mv_s", "cert_dense_32")],
    "selector.assemble_family_s": [("select_or_mv_s", "cert_dense_32")],
    "selector.select_s": [("select_or_mv_s", "cert_dense_32")],
    "selector.iterations": [("select_or_mv_s", "cert_dense_32")],
    "selector.mix_s": [("select_or_mv_s", "cert_dense_32")],
    "mv_euler.defect_from_pair_s": [("select_or_mv_s", "mv_ladder_64")],
    "mv_euler.save_s": [("select_or_mv_s", "mv_ladder_64"),
                        ("artifact_mb", "mv_ladder_64")],
    "scenarios.self_s": [("run_s", "cert_dense_32"),
                         ("run_s", "mv_ladder_64")],
}
