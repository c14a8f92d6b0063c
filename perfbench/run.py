"""Closed-loop benchmark of the magnuspulse command line.

One process, one caller, one request in flight: each request is one call of
``magnuspulse.cli.main(argv)`` on pulse and system files generated from the
seed. Run from the root of a source checkout::

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50    # every workload, one table
    python3 perfbench/run.py --selfcheck                    # tiny load, asserts the contract

``--seconds`` sets the size of a run: round(seconds / nominal seconds per
request) requests, the nominal costs being those measured when the benchmark
was written on a 2-core Xeon VM (`design.NOMINAL_REQUEST_S`), so a run there
measures for about that long. Every run at the same ``--seconds`` sends the same number
of requests in the same stratum mix, whatever the seed, the machine's speed
at the moment or the commit, which keeps medians and percentiles comparable.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the first
half of the requests untraced, replays them with a span around every call
into each library layer, and reports the per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the full record
(environment, input shares, per-request outcomes) goes to
``.perfbench/result-*.json`` and the spans to ``.perfbench/trace-*.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3


def limit_thread_pools() -> dict:
    """Pin BLAS/OpenMP pools to one thread unless set to 1..nproc; before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


THREADS = limit_thread_pools()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import design  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WARM_UP_PULSE = {"name": "warm-up", "family": "gaussian", "duration_s": 1e-3,
                 "nominal_flip_deg": 90.0, "params": {"truncation": 0.01}}
WARM_UP_SYSTEM = {"s_count": 1, "s_offset_hz": 10.0,
                  "i_spins": [{"offset_hz": 35.0, "j_to_s_hz": 8.0}], "j_ii_hz": []}
WARM_UP_COMMANDS = {
    "verdict": (["criterion"],),
    "spectators": (["criterion"],),
    "tables": (["decompose"], ["propagate"]),
    "sweep": (["profile", "--offset-start", "-1000", "--offset-stop", "1000",
               "--offset-count", "5"],),
}


def import_cli():
    """The checkout's magnuspulse.cli; never an installed copy."""
    sys.path.insert(0, str(SRC))
    from magnuspulse import cli
    if Path(cli.__file__).resolve().parent != (SRC / "magnuspulse").resolve():
        raise ImportError(f"magnuspulse resolved to {cli.__file__}, not {SRC}")
    return cli


def call_cli(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """One request: exit code (None if it raised), captured stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a benchmark error
            err.write(f"raised {exc!r}")
            rc = None
    return rc, out.getvalue(), err.getvalue()


def warm_up(cli, workload: str, tmp: Path):
    """Catalog load plus small-grid runs of every command the workload uses."""
    cli.list_catalog()
    pulse, system = tmp / "warm-pulse.json", tmp / "warm-system.json"
    pulse.write_text(json.dumps(WARM_UP_PULSE))
    system.write_text(json.dumps(WARM_UP_SYSTEM))
    for command in WARM_UP_COMMANDS[workload]:
        argv = command + ["--pulse", str(pulse), "--system", str(system),
                          "--steps", "256", "--tol", "1e-6"]
        if command[0] != "criterion":
            argv += ["--output", str(tmp / "warm-output.csv")]
        rc, _, err = call_cli(cli, argv)
        if rc not in (0, 3):
            raise RuntimeError(f"warm-up {command[0]} failed with exit {rc}: {err.strip()}")


def setup_probe(workload: str) -> int:
    """Child side of a setup measurement: import, catalog, warm-up, say ready."""
    cli = import_cli()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        warm_up(cli, workload, Path(tmp))
    print("ready", flush=True)
    return 0


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters from start to ready, SETUP_PROBES times.

    The clock stops when the child reports ready, which excludes interpreter
    teardown; reading the pipe also avoids the coarse polling of a timed wait.
    """
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                               workload], cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            if proc.wait(timeout=60) != 0 or ready.strip() != "ready":
                raise RuntimeError(f"setup probe for {workload} exited {proc.returncode}")
    return times


def run_requests(cli, requests: list, tmp: Path, tracer=None) -> list[dict]:
    """Closed loop: send each request once the previous one has returned.

    Only the call itself is timed; writing inputs, reading outputs and
    checking them happen between requests.
    """
    records = []
    for req in requests:
        pulse, system = tmp / f"pulse-{req.index}.json", tmp / f"system-{req.index}.json"
        pulse.write_text(json.dumps(req.pulse))
        system.write_text(json.dumps(req.system))
        output = tmp / f"output-{req.index}.csv" if req.command != "criterion" else None
        argv = req.argv(str(pulse), str(system), str(output) if output else None)
        call = lambda: call_cli(cli, argv)  # noqa: E731
        start = time.perf_counter()
        rc, stdout, stderr = tracer.request(req.index, call) if tracer else call()
        latency = time.perf_counter() - start
        text = output.read_text() if output is not None and output.exists() else stdout
        problems = checks.check(req, rc, text)
        records.append(describe(req, rc, latency, text, problems, stderr))
        for path in (pulse, system, output):
            if path is not None and path.exists():
                path.unlink()
    return records


def describe(req, rc, latency: float, text: str, problems: list[str], stderr: str) -> dict:
    """Per-request record, with the input properties the shares are taken over."""
    i_ref, _ = checks.criterion_integrals(req.pulse)
    grid = np.linspace(0.0, req.pulse["duration_s"], 4097)
    rows = text.count("\n") - 1 if req.command != "criterion" else 0
    steps = None
    if rc in (0, 3) and not problems:
        if req.command == "criterion":
            steps = json.loads(text)["trajectory_steps"]
        elif req.command in ("propagate", "decompose"):
            steps = rows // req.n_configs - 1
    return {
        "index": req.index, "command": req.command, "pulse": req.pulse["name"],
        "n_configs": req.n_configs, "s_count": req.system["s_count"],
        "offsets": offset_band(req.offsets[2]) if req.offsets else None,
        "i_total_ge_2pi": i_ref >= 2.0 * math.pi,
        "negative_lobes": bool(np.min(checks.envelope(req.pulse)(grid)) < 0.0),
        "refinement_levels": int(round(math.log2(steps / 4096))) if steps else None,
        "rc": rc, "latency_s": latency, "rows": rows, "output_bytes": len(text.encode()),
        "problems": problems, "stderr": stderr.strip()[-500:],
    }


def offset_band(count: int) -> str:
    low = 20 * ((count - 1) // 20) + 1
    return f"{low}-{low + 19}"


def is_failure(record: dict) -> bool:
    return bool(record["problems"])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): highest percentile with at least 10 requests beyond it.

    With 10 requests or fewer no such percentile exists; the maximum is
    reported with percentile 100 so the record shows it.
    """
    ordered, n = sorted(latencies), len(latencies)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records: list[dict], setup: list[float], rss_mb: float) -> tuple[dict, dict]:
    latencies = [r["latency_s"] if not is_failure(r) else math.inf for r in records]
    failed = sum(is_failure(r) for r in records)
    value, percentile, n = tail(latencies)
    metrics = {
        "request_p50_s": statistics.median(latencies),
        "request_tail_s": value,
        "requests_per_s": (len(records) - failed) / sum(r["latency_s"] for r in records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "failed_ratio": failed / len(records),
    }
    return metrics, {"tail_percentile": percentile, "samples": n, "setup_samples_s": setup}


def shares(records: list[dict]) -> dict:
    """Measured share of every input property the behaviour depends on."""
    def share_of(key):
        values = [r[key] for r in records if r[key] is not None]
        counts = {}
        for v in values:
            counts[str(v)] = counts.get(str(v), 0) + 1
        return {k: c / len(values) for k, c in sorted(counts.items())} if values else {}

    return {key: share_of(key) for key in ("i_total_ge_2pi", "negative_lobes",
                                           "refinement_levels", "n_configs", "s_count",
                                           "offsets", "command")}


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-request means of layer self times and counts from one traced phase."""
    n = len(traced)
    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    calls = {layer: 0 for layer in spans.LAYERS}
    named_self = {"magnus.explicit_criterion": 0.0, "expansion.angles_from_state": 0.0}
    request_self = {r["index"]: 0.0 for r in traced}
    for span, own in zip(tracer.spans, tracer.self_times()):
        layer = span["layer"]
        if layer in layer_self:
            layer_self[layer] += own
            calls[layer] += 1
            request_self[span["request"]] += own
        if span["name"] in named_self:
            named_self[span["name"]] += own
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    totals = {
        "pulses.busy_s": layer_self["pulses"],
        "pulses.calls": calls["pulses"],
        "pulses.samples": c["pulses.samples"],
        "system.busy_s": layer_self["system"],
        "system.configs": c["system.configs"],
        "propagation.busy_s": layer_self["propagation"],
        "propagation.calls": c["propagation.calls"],
        "propagation.slices_computed": c["propagation.slices_computed"],
        "propagation.slices_kept": c["propagation.slices_kept"],
        "magnus.extract_busy_s": layer_self["magnus"] - named_self["magnus.explicit_criterion"],
        "magnus.extract_samples": c["magnus.extract_samples"],
        "magnus.audit_self_s": named_self["magnus.explicit_criterion"],
        "magnus.failures": c["magnus.failures"],
        "expansion.integrate_busy_s": layer_self["expansion"] - named_self["expansion.angles_from_state"],
        "expansion.rk4_steps_computed": c["expansion.rk4_steps_computed"],
        "expansion.angles_busy_s": named_self["expansion.angles_from_state"],
        "expansion.failures": c["expansion.failures"],
        "cli.self_s": layer_self["cli"],
        "cli.rows": sum(r["rows"] for r in traced),
        "cli.output_mb": sum(r["output_bytes"] for r in traced) / 1e6,
    }
    metrics = {k: v / n for k, v in totals.items()}
    traced_p50 = statistics.median(r["latency_s"] for r in traced)
    metrics.update({
        "propagation.useful_ratio": ratio("propagation.slices_kept", "propagation.slices_computed"),
        "propagation.refinement_levels": ratio("propagation.refinement_levels", "propagation.calls"),
        "propagation.trajectory_mb": ratio("propagation.trajectory_bytes", "propagation.calls") / 1e6,
        "expansion.useful_ratio": ratio("expansion.rk4_steps_kept", "expansion.rk4_steps_computed"),
        "trace.request_p50_s": traced_p50,
        "trace.overhead_s": traced_p50 - statistics.median(r["latency_s"] for r in untraced),
        # The worst request: how much of its timed wall time the layer self times explain.
        "trace.accounted_ratio": min(request_self[r["index"]] / r["latency_s"] for r in traced),
        "trace.absent_sites": len(tracer.absent),
    })
    return metrics


def environment(seed: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "magnuspulse").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        # The ceiling keeps git from searching the checkout's parent directories.
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "thread_pools": THREADS, "commit": commit, "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def unit_of(name: str) -> str:
    return (design.END_TO_END.get(name) or design.PER_LAYER[name])[0]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the full result record of one workload."""
    cli = import_cli()
    catalog = inputs.load_catalog(SRC / "magnuspulse" / "data")
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    count = max(1, round(seconds / design.NOMINAL_REQUEST_S[workload]))
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        warm_up(cli, workload, tmp)
        if not trace:
            setup = measure_setup(workload)
            records = run_requests(cli, inputs.requests(workload, seed, catalog, count), tmp)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics, detail = end_to_end(records, setup, rss_mb)
            result.update(detail)
        else:
            sent = inputs.requests(workload, seed, catalog, max(1, count // 2))
            untraced = run_requests(cli, sent, tmp)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = run_requests(cli, sent, tmp, tracer)
            finally:
                tracer.restore()
            records = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            result.update({"absent_sites": tracer.absent, "counter_errors": tracer.counter_errors})
            tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json")
    wrong = [r["index"] for r in records if r["rc"] in (0, 3) and r["problems"]]
    result.update({
        "correct": not wrong, "attempted": len(records),
        "failed": sum(is_failure(r) for r in records),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "design": {"workload": design.WORKLOADS[workload],
                   "metrics": {k: design.END_TO_END.get(k) or design.PER_LAYER[k] for k in metrics}},
        "input_shares": shares(records), "environment": environment(seed), "requests": records,
    })
    return result


def gated_metrics(trace: bool) -> list[str]:
    """The metric names BENCHMARK.json gates on for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary(result: dict) -> str:
    lines = [f"{result['workload']} seed={result['seed']} trace={int(result['trace'])} "
             f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}"]
    for name, m in result["metrics"].items():
        note = ""
        if name == "request_tail_s":
            note = f"  (p{result['tail_percentile']:.1f} of {result['samples']} requests)"
        lines.append(f"  {name:32s} {m['value']:14.6g} {m['unit']}{note}")
    for key, share in result["input_shares"].items():
        lines.append(f"  share {key:26s} " + ", ".join(f"{k}: {v:.2f}" for k, v in share.items()))
    return "\n".join(lines)


def last_line(result: dict, names: list[str]) -> str:
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    })


def child(args: list[str]) -> dict:
    """Run this script in a fresh process and parse its last line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def require(condition: bool, detail):
    if not condition:
        raise AssertionError(f"selfcheck failed: {detail}")


def selfcheck(seed: int) -> int:
    """Tiny load on every workload; assert every metric is emitted and checks bite."""
    for workload in inputs.WORKLOADS:
        for trace, named in ((False, design.END_TO_END), (True, design.PER_LAYER)):
            out = child(["--workload", workload, "--seed", str(seed), "--seconds", "0.001",
                         "--trace", str(int(trace))])
            require(set(out) == {"correct", "attempted", "failed", "metrics"}, out)
            require(out["attempted"] >= 1 and out["correct"], out)
            require(set(out["metrics"]) == set(gated_metrics(trace)), out["metrics"])
            full = json.loads((OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json")
                              .read_text())
            missing = set(named) - set(full["metrics"])
            require(not missing, f"{workload}: metrics not emitted: {sorted(missing)}")
            for name, m in full["metrics"].items():
                require(math.isfinite(m["value"]), (workload, name, m))
            if trace:
                ratio = full["metrics"]["trace.accounted_ratio"]["value"]
                require(0.99 < ratio <= 1.0, f"{workload}: layer self times cover {ratio} of a request")
            print(f"selfcheck {workload} trace={int(trace)}: {len(full['metrics'])} metrics ok")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"] + spec["per_layer"]:
        unit, better = (design.END_TO_END.get(m["name"]) or design.PER_LAYER[m["name"]])[:2]
        require((m["unit"], m["better"]) == (unit, better), (m, unit, better))
    for w in spec["workloads"]:
        require(design.WORKLOADS.get(w["name"], {}).get("why") == w["why"], w)
    corrupted_failures(seed)
    print("selfcheck passed")
    return 0


def corrupted_failures(seed: int):
    """A corrupted copy of one valid output per command must count as failed."""
    cli = import_cli()
    catalog = inputs.load_catalog(SRC / "magnuspulse" / "data")
    seen = {}
    for workload in ("verdict", "tables", "sweep"):
        for req in inputs.requests(workload, seed, catalog, 2):
            seen.setdefault(req.command, req)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        tmp = Path(tmp)
        for command, req in seen.items():
            records = run_requests(cli, [req], tmp)
            require(not is_failure(records[0]), f"valid {command} output failed: {records[0]}")
            # Same request again, with the output corrupted before the check.
            original = checks.check
            checks.check = lambda r, rc, text: original(r, rc, checks.corrupt(r.command, text))
            try:
                records = run_requests(cli, [req], tmp)
            finally:
                checks.check = original
            require(is_failure(records[0]), f"corrupted {command} output passed its check")
            print(f"selfcheck corrupted {command} output: counted as failed "
                  f"({records[0]['problems'][0]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--setup-probe", choices=inputs.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "magnuspulse" / "__init__.py").is_file():
        print(f"error: no magnuspulse sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.selfcheck:
        return selfcheck(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = {}
        for workload in inputs.WORKLOADS:
            child(["--workload", workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)])
            path = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            results[workload] = json.loads(path.read_text())
            print(summary(results[workload]), flush=True)
        print(json.dumps({w: r["metrics"] for w, r in results.items()}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(summary(result))
    print(last_line(result, gated_metrics(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
