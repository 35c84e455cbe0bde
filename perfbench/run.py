#!/usr/bin/env python3
"""The repository benchmark: four end-to-end workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-2048 --seed 1 --seconds 20 \\
        --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``dense-2048``       warm ``repro.api.image_layout`` on a 2048^2 B2m raster
* ``gds-aref``         the same call on a hierarchical binary-GDSII chip,
                       fresh in-memory tile cache per call
* ``campaign-service`` an open loop of campaigns against ``repro serve``
* ``nitho-fit``        train Nitho from scratch and predict the test tiles

Inputs are a pure function of ``--seed``.  Every output is checked; a failed
check counts as a failed operation.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics, measured by probes that time calls into
the program's public functions.  The line before it holds the details:
environment, input sizes, the workload's own figures (e.g.
``layout_um2_per_s``), the tail percentile and sample count and, when
traced, per-layer self time and the Chrome trace-event file written under
``.perfbench-out/`` (opens in Perfetto).

``op_s_p50`` / ``op_s_tail`` time each workload's operation: one
``image_layout`` call, one campaign (due time to report), one Adam step.
``peak_rss_mib`` is this process's peak, or the server's for the service.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("dense-2048", "gds-aref", "campaign-service", "nitho-fit")
#: Fresh processes whose set-up is timed; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Longest a set-up-only child process may take.
SETUP_TIMEOUT_S = 45
#: Untraced tail of a traced run, as a share of ``--seconds``, that gives
#: the tracing overhead (traced minus untraced op latency).
UNTRACED_SHARE = 0.3
#: Workload-facing names of the op latency, printed among the details.
LATENCY_NAMES = {"dense-2048": "layout_call_s", "gds-aref": "layout_call_s",
                 "campaign-service": "campaign_latency_s",
                 "nitho-fit": "fit_step_s"}
PINNED_COMPUTE = {"REPRO_FFT_BACKEND": "scipy", "REPRO_FFT_WORKERS": "1",
                  "REPRO_PRECISION": "float64", "REPRO_TILE_CACHE": "0"}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced input sizes (the benchmark's own tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def pin_environment(workdir):
    """No ambient setting may switch a code path.

    Every ``REPRO_*`` variable is dropped, and the compute policy of code
    paths that take no explicit ``ComputeConfig`` (dataset simulation,
    ``predict_batch``) is pinned to what the workloads pass explicitly.
    Native thread pools are capped at one thread: the workloads' BLAS calls
    are on tiny matrices, and OpenBLAS's spinning threads made Nitho's Adam
    step 60 % slower whenever another process was busy on the shared CPUs.
    The kernel cache points at a fresh directory so set-up is cold.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    for key in THREAD_VARIABLES:
        os.environ[key] = "1"
    os.environ.update(PINNED_COMPUTE)
    os.environ["REPRO_KERNEL_CACHE_DIR"] = os.path.join(workdir,
                                                        "kernel-cache")
    sys.path[:0] = [SRC, HERE]


def make_workload(name, seed, small, workdir):
    if name in ("dense-2048", "gds-aref"):
        from wl_imaging import DenseWorkload, GdsWorkload

        cls = DenseWorkload if name == "dense-2048" else GdsWorkload
        return cls(seed, small, workdir)
    if name == "campaign-service":
        from wl_service import ServiceWorkload

        return ServiceWorkload(seed, small, workdir, SRC)
    from wl_nitho import NithoWorkload

    return NithoWorkload(seed, small, workdir)


def child_setup_times(args):
    """Set-up time of ``SETUP_REPEATS - 1`` fresh processes, run one after
    another so they do not contend (the measuring process is the last)."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)] + \
        (["--small"] if args.small else [])
    times = []
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return times


def measure(args, workdir):
    """Set up, run, check; returns ``(details, result)``."""
    from benchlib import Probes, Tracer, environment_record, peak_rss_mib, \
        timing_summary

    workload = make_workload(args.workload, args.seed, args.small, workdir)
    import_s = time.perf_counter() - _STARTED
    tracer = Tracer() if args.trace else None

    @contextmanager
    def probed():
        """Probes around the workload's layers while tracing, else nothing."""
        if tracer is None:
            yield
            return
        with Probes(tracer) as probes:
            workload.install_probes(probes)
            yield

    try:
        with probed():
            workload.setup(tracer)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            return None, {"setup_s": setup_s}
        setup_counters = dict(tracer.counters) if tracer is not None else {}
        workload.prepare_checks()
        with probed():
            phase = workload.run(args.seconds, tracer)
        untraced = None
        if tracer is not None:
            untraced = workload.run(args.seconds * UNTRACED_SHARE, None,
                                    first_run_id=phase.attempted)
        peak_mib = workload.peak_rss_mib() \
            if hasattr(workload, "peak_rss_mib") else peak_rss_mib()
        inputs = workload.describe()
        environment = workload.environment()
    finally:
        workload.close()

    spec = benchmark_spec()
    attempted = phase.attempted + len(workload.pending_checks)
    failed = phase.failed + sum(not ok for ok, _ in workload.pending_checks)
    problems = [problem for ok, problem in workload.pending_checks if not ok]
    problems += phase.problems
    if untraced is not None:
        attempted += untraced.attempted
        failed += untraced.failed
        problems += untraced.problems
    summary = timing_summary(phase.latencies) if phase.latencies else None

    setup_runs = child_setup_times(args) + [setup_s]
    setup_s = statistics.median(setup_runs)
    latency_name = LATENCY_NAMES[args.workload]
    figures = {"setup_s": (setup_s, "s"), "peak_rss_mib": (peak_mib, "MiB"),
               "error_rate": (failed / attempted, "failed/attempted")}
    if summary is not None:
        figures[f"{latency_name}_p50"] = (summary["p50"], "s")
        figures[f"{latency_name}_tail"] = (summary["tail"], "s")
    figures.update(phase.figures)

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": dict(environment_record(), **environment),
               "inputs": inputs, "import_s": import_s,
               "setup_runs_s": setup_runs, "latency": summary,
               "figures": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in figures.items()},
               "problems": problems}

    if tracer is None:
        values = {"setup_s": setup_s, "peak_rss_mib": peak_mib}
        if summary is not None:
            values.update(op_s_p50=summary["p50"], op_s_tail=summary["tail"])
        declared = spec["end_to_end"]
    else:
        run_ids = set(range(phase.attempted))
        ops = max(1, phase.attempted)
        loop_counters = {name: total - setup_counters.get(name, 0.0)
                         for name, total in tracer.counters.items()}
        layers = workload.layer_metrics(tracer, run_ids, ops, setup_counters,
                                        loop_counters)
        layers.update(phase.figures)
        units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
        for name, (_, unit) in layers.items():
            if name in units and unit != units[name]:
                raise ValueError(f"{name} is measured in {unit}, but "
                                 f"BENCHMARK.json declares {units[name]}")
        values = {name: value for name, (value, _) in layers.items()}
        untraced_summary = timing_summary(untraced.latencies) \
            if untraced.latencies else None
        if summary is not None and untraced_summary is not None:
            values["trace.overhead_s"] = \
                summary["p50"] - untraced_summary["p50"]
        values["trace.span_coverage"] = tracer.coverage("op")
        trace_file = os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(trace_file, f"perfbench {args.workload}")
        details["trace_file"] = os.path.relpath(trace_file, ROOT)
        details["self_s_per_op"] = {
            name: total / ops
            for name, total in sorted(tracer.self_times(run_ids).items())}
        details["untraced_latency"] = untraced_summary
        declared = spec["per_layer"]

    metrics = {}
    for entry in declared:
        # A layer the workload does not run reports zero work.
        metrics[entry["name"]] = {"value": float(values.get(entry["name"],
                                                            0.0)),
                                  "unit": entry["unit"]}
    result = {"correct": failed == 0 and summary is not None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return details, result


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    # A terminated run still unwinds, so the server and scratch dirs go too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        pin_environment(workdir)
        details, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if details is not None:
        print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
