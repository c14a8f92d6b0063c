"""What the benchmark measures and why: workloads, metrics, expected effects.

BENCHMARK.json carries the names, units, directions and regression bounds
of the gated metrics; this module adds, for every workload, the layer it
loads, and for every per-layer metric, which end-to-end metric it should
move on which workload. Every result file embeds this record, and the self-check asserts
that it and BENCHMARK.json agree (names, units, directions, workload whys).
"""

WORKLOADS = {
    "verdict": {
        "why": "criterion requests (0-2 spectators, 1-2 S spins): the library's core question, "
               "mixing I(T) < 2 pi pulses with BURP/cascades that violate it; loads propagation "
               "refinement and magnus",
        "loads": "propagation refinement, magnus extraction and the gap/bound audit",
    },
    "tables": {
        "why": "decompose and propagate requests writing full-grid CSV, the export path; loads "
               "the expansion RK4 loop and cli row formatting, while extraction and the gap audit "
               "never run",
        "loads": "expansion RK4 loop, angles_from_state and cli per-row formatting",
    },
    "sweep": {
        "why": "profile requests with 21-101 offsets over +-1-5 kHz: many fixed-grid, "
               "endpoint-only propagations without refinement",
        "loads": "propagation without refinement, pulses sampling repeated per offset",
    },
    "spectators": {
        "why": "criterion requests on 3-5 spectators (one S spin) or 3-4 (two S spins), where the "
               "gap audit and trajectory memory dominate",
        "loads": "magnus gap audit and trajectory memory",
    },
}

#: Mean wall seconds per request when this benchmark was written, on a 2-core
#: Intel Xeon virtual machine (Python 3.11, numpy 2.4). A run of `--seconds s`
#: sends round(s / this) requests: fixed work per run, sized to take about s
#: seconds there.
NOMINAL_REQUEST_S = {"verdict": 2.2, "tables": 2.7, "sweep": 2.5, "spectators": 16.0}

#: name -> (unit, better, meaning)
END_TO_END = {
    "request_p50_s": ("s", "lower", "median wall time of one CLI request"),
    "request_tail_s": ("s", "lower", "highest percentile with at least 10 requests beyond it; "
                                     "percentile and sample count are recorded beside it"),
    "requests_per_s": ("1/s", "higher", "completed requests / timed wall time"),
    "setup_s": ("s", "lower", "interpreter start to ready: import magnuspulse, catalog load, "
                              "warm-up; median of several fresh interpreters"),
    "peak_rss_mb": ("MB", "lower", "peak RSS of the workload's process (ru_maxrss)"),
    "failed_ratio": ("1", "lower", "failed / attempted; exit 2 or 4 or an output failing its "
                                   "check; exit 3 on criterion is a valid answer"),
}

#: name -> (unit, better, what it is, the end-to-end metric and workload it should move).
#: Times and counts are means per traced request.
PER_LAYER = {
    "pulses.busy_s": ("s", "lower", "pulses self time",
                      "request_p50_s on sweep, where samples repeat across offsets; small on verdict"),
    "pulses.calls": ("count", "lower", "calls into pulses functions", "request_p50_s on sweep"),
    "pulses.samples": ("count", "lower", "envelope samples: n_steps passed to sample and the "
                       "quadratures (calibrate's included) plus points evaluated for expansion",
                       "request_p50_s on sweep"),
    "system.busy_s": ("s", "lower", "system self time", "nothing on its own"),
    "system.configs": ("count", "lower", "n_configs of the loaded system",
                       "size descriptor; moves nothing on its own"),
    "propagation.busy_s": ("s", "lower", "propagation self time",
                           "request_p50_s on verdict and sweep; peak_rss_mb on spectators"),
    "propagation.calls": ("count", "lower", "propagate_interaction calls",
                          "request_p50_s on sweep"),
    "propagation.slices_computed": ("count", "lower", "n_configs x steps over every refinement "
                                    "level", "request_p50_s on verdict and sweep"),
    "propagation.slices_kept": ("count", "lower", "n_configs x steps of the returned grid",
                                "peak_rss_mb on spectators"),
    "propagation.useful_ratio": ("1", "higher", "slices kept / slices computed",
                                 "request_p50_s on verdict"),
    "propagation.refinement_levels": ("count", "lower", "grid doublings per propagation",
                                      "request_p50_s on verdict"),
    "propagation.trajectory_mb": ("MB", "lower", "bytes of the returned trajectory per "
                                  "propagation", "peak_rss_mb on spectators"),
    "magnus.extract_busy_s": ("s", "lower", "magnus self time outside explicit_criterion "
                              "(extract_omega and what it calls)",
                              "request_p50_s on verdict and spectators"),
    "magnus.extract_samples": ("count", "lower", "n_configs x stored times passed to "
                               "extract_omega", "request_p50_s on verdict"),
    "magnus.audit_self_s": ("s", "lower", "explicit_criterion self time: the gap and bound audits",
                            "request_p50_s and peak_rss_mb on spectators"),
    "magnus.failures": ("count", "lower", "ExtractionError raised", "failed_ratio on verdict"),
    "expansion.integrate_busy_s": ("s", "lower", "expansion self time outside angles_from_state",
                                   "request_p50_s on tables; zero elsewhere"),
    "expansion.rk4_steps_computed": ("count", "lower", "RK4 grid steps over every refinement level",
                                     "request_p50_s on tables"),
    "expansion.useful_ratio": ("1", "higher", "RK4 steps kept / computed",
                               "request_p50_s on tables"),
    "expansion.angles_busy_s": ("s", "lower", "angles_from_state self time",
                                "request_p50_s on tables"),
    "expansion.failures": ("count", "lower", "integrate_expansion failures",
                           "failed_ratio on tables"),
    "cli.self_s": ("s", "lower", "cli.main span minus its library child spans",
                   "request_p50_s on tables; near zero on verdict"),
    "cli.rows": ("count", "lower", "table rows written", "request_p50_s on tables"),
    "cli.output_mb": ("MB", "lower", "bytes written to stdout or --output",
                      "request_p50_s on tables"),
    "trace.request_p50_s": ("s", "lower", "median traced request time", "none: tracing only"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced request_p50_s over the same "
                         "requests", "none: tracing only"),
    "trace.accounted_ratio": ("1", "higher", "layer self times plus cli.self_s over the timed "
                              "wall time, for the least-covered traced request; near 1 when "
                              "every layer is wrapped", "none: tracing only"),
    "trace.absent_sites": ("count", "lower", "wrapped names missing from the library",
                           "none: tracing only"),
}

