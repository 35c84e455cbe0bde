"""The ``campaign-service`` workload: an open loop against ``repro serve``.

The server runs in its own process on a fresh data dir.  Users are
independent, so campaigns are offered on a fixed schedule whatever the
server's pace; each is timed from the moment it was due until both the
``completed`` status and the JSON report have come back.  The generator
polls its outstanding campaigns itself every :data:`POLL_S` seconds
(``ServiceClient.wait`` sleeps 0.2 s, which would round every campaign up
to 0.2 s) and reports how late it sent each campaign.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError

from benchlib import Phase, Probes, Tracer, percentile, peak_rss_mib, \
    tail_percentile

#: Offered load: about half the closed-loop capacity on 2 CPUs.
RATE_PER_S = 4.0
#: Status poll interval per outstanding campaign.
POLL_S = 0.005
#: Latency limit for the SLO (about 3x the p90 on 2 CPUs).
SLO_LATENCY_S = 0.5
#: How long the generator waits for stragglers after the last send.
DRAIN_TIMEOUT_S = 30.0
#: How long the server may take to print its listening banner.
START_TIMEOUT_S = 30.0

FOCUS_NM = [-80.0, -40.0, 0.0, 40.0, 80.0]
DOSE = [0.9, 1.0, 1.1]
OPTICS = {"tile_size_px": 256, "pixel_size_nm": 1.0}
COMPUTE = {"fft_backend": "scipy", "fft_workers": 1, "precision": "float64",
           "tile_cache": False}
#: An explicit CD target, so a layout with nothing printed on the tracked
#: cutline yields CDs of 0 instead of a refused campaign.
TARGET_CD_NM = 150.0


class _Job:
    __slots__ = ("index", "due", "id", "last_poll", "polls")

    def __init__(self, index: int, due: float, job_id: str, now: float):
        self.index, self.due, self.id = index, due, job_id
        self.last_poll, self.polls = now, 0


class ServiceWorkload:
    name = "campaign-service"

    def __init__(self, seed: int, small: bool, workdir: str, src_dir: str):
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.src_dir = src_dir
        self.layout_px = 256 if small else 512
        self.process: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None
        self.data_dir = ""
        self.warm_report: Optional[dict] = None
        self.pending_checks: List[Tuple[bool, str]] = []
        self.server_peak_mib = 0.0
        self.store_sizes: List[Tuple[int, int]] = []

    # -- requests -------------------------------------------------------- #
    def campaign_seed(self, index: int) -> int:
        return (self.seed * 1_000_003 + index) % (2 ** 31)

    def request(self, index: int) -> dict:
        return {"layout": {"kind": "synthetic", "family": "B2m",
                           "width_px": self.layout_px,
                           "height_px": self.layout_px,
                           "seed": self.campaign_seed(index)},
                "optics": dict(OPTICS),
                "grid": {"focus_nm": FOCUS_NM, "dose": DOSE},
                "compute": dict(COMPUTE), "target_cd_nm": TARGET_CD_NM}

    def environment(self) -> Dict[str, object]:
        return {"compute": dict(COMPUTE), "server": "repro serve --port 0"}

    def describe(self) -> Dict[str, object]:
        return {"campaign": f"{len(FOCUS_NM)}x{len(DOSE)} focus x dose",
                "layout_px": [self.layout_px, self.layout_px],
                "offered_rate_per_s": RATE_PER_S, "loop": "open",
                "poll_s": POLL_S, "slo_latency_s": SLO_LATENCY_S}

    # -- server lifecycle ------------------------------------------------ #
    def setup(self, tracer: Optional[Tracer]) -> None:
        """Start a server on a fresh data dir and run one warm-up campaign
        (cold kernel banks for the fixed focus list)."""
        self.data_dir = os.path.join(self.workdir, "service")
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--data-dir",
             self.data_dir, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env)
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    START_TIMEOUT_S)
        banner = self.process.stdout.readline() if ready else ""
        if "listening on " not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        url = banner.split("listening on ", 1)[1].split()[0]
        self.client = ServiceClient(url)
        phase = Phase()
        report = self._closed_loop_campaign(-1, phase)
        if phase.failed:
            raise RuntimeError(f"warm-up campaign failed: {phase.problems}")
        self.warm_report = report

    def stop_server(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.server_peak_mib = max(self.server_peak_mib,
                                       peak_rss_mib(self.process.pid))
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None

    def peak_rss_mib(self) -> float:
        """The server's peak RSS: the memory the service costs its host."""
        if self.process is not None and self.process.poll() is None:
            return max(self.server_peak_mib, peak_rss_mib(self.process.pid))
        return self.server_peak_mib

    def close(self) -> None:
        self.stop_server()

    # -- checks ---------------------------------------------------------- #
    @staticmethod
    def check_report(report: dict) -> Tuple[bool, str]:
        progress = report.get("progress", {})
        cells = [cd for row in report.get("cd_matrix", []) for cd in row]
        expected = len(FOCUS_NM) * len(DOSE)
        if progress.get("completed") != expected or not progress.get(
                "complete") or len(cells) != expected or None in cells:
            return False, f"report incomplete: {progress}"
        return True, ""

    def prepare_checks(self) -> None:
        """The warm-up report's CD table equals an in-process sweep."""
        import repro.api as api
        from repro.backend import ComputeConfig
        from repro.layout.sources import synthesize_layout_mask
        from repro.optics.simulator import OpticsConfig

        optics = OpticsConfig(**OPTICS)
        mask = synthesize_layout_mask(
            self.layout_px, self.layout_px, optics.tile_size_px,
            optics.pixel_size_nm, "B2m", self.campaign_seed(-1))
        outcome = api.sweep_window(
            mask, optics, focus_nm=FOCUS_NM, dose=DOSE,
            target_cd_nm=TARGET_CD_NM, compute=ComputeConfig(scheduler="serial", **COMPUTE))
        matrix = outcome.window.cd_matrix()
        expected = [[matrix[focus][dose] for dose in DOSE]
                    for focus in FOCUS_NM]
        served = self.warm_report["cd_matrix"]
        ok = served == expected
        self.pending_checks.append(
            (ok, "" if ok else f"served CDs {served} != in-process {expected}"))

    # -- one campaign, waited for (warm-up) ------------------------------ #
    def _closed_loop_campaign(self, index: int, phase: Phase) -> dict:
        due = time.perf_counter()
        job = _Job(index, due, self.client.submit(self.request(index))["id"],
                   due)
        while True:
            time.sleep(POLL_S)
            settled = self._poll(job, phase, None, {})
            if settled is not None:
                return settled

    def _poll(self, job: _Job, phase: Phase, tracer: Optional[Tracer],
              samples: Dict[str, List[float]]) -> Optional[dict]:
        """Poll once; on settling return the report (or ``{}`` on failure)."""
        job.last_poll = time.perf_counter()
        job.polls += 1
        status = self._call(tracer, job.index, "http.status", samples,
                            self.client.status, job.id)
        if status is None:
            return None
        state = status["state"]
        if state not in ("completed", "failed", "cancelled"):
            return None
        observed_wall = time.time()
        report = None
        if state == "completed":
            report = self._call(tracer, job.index, "http.report", samples,
                                self.client.report, job.id)
        latency = time.perf_counter() - job.due
        samples.setdefault("polls", []).append(job.polls)
        if report is None:
            phase.outcome(False, f"campaign {job.id} {state}: "
                                 f"{status.get('error')}")
            samples.setdefault("slo_miss", []).append(1)
            return {}
        ok, problem = self.check_report(report)
        phase.latencies.append(latency)
        phase.outcome(ok, problem)
        samples.setdefault("slo_miss", []).append(
            int(not ok or latency > SLO_LATENCY_S))
        samples.setdefault("queue_wait", []).append(
            status["started_at"] - status["created_at"])
        samples.setdefault("sweep_run", []).append(
            status["finished_at"] - status["started_at"])
        samples.setdefault("notify_lag", []).append(
            observed_wall - status["finished_at"])
        self.store_sizes.append(_tree_size(status["store_dir"]))
        if tracer is not None:
            offset = time.perf_counter() - time.time()
            tracer.run_id = job.index
            tracer.add_span("campaign", job.due, time.perf_counter())
            tracer.add_span("service.queue_wait",
                            status["created_at"] + offset,
                            status["started_at"] + offset)
            tracer.add_span("sweep.run", status["started_at"] + offset,
                            status["finished_at"] + offset)
            tracer.run_id = -1
        return report

    def _call(self, tracer: Optional[Tracer], run_id: int, name: str,
              samples: Dict[str, List[float]], method, *args):
        """One HTTP call, timed; a transport failure returns ``None``."""
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                tracer.run_id = run_id
                with tracer.span(name):
                    result = method(*args)
                tracer.run_id = -1
            else:
                result = method(*args)
        except (ServiceError, OSError) as exc:
            if tracer is not None:
                tracer.run_id = -1
            samples.setdefault("http_failed", []).append(1)
            samples.setdefault("errors", []).append(repr(exc))
            return None
        samples.setdefault(name, []).append(time.perf_counter() - t0)
        return result

    # -- the open loop --------------------------------------------------- #
    def run(self, seconds: float, tracer: Optional[Tracer],
            first_run_id: int = 0) -> Phase:
        phase = Phase()
        samples: Dict[str, List[float]] = {}
        self.store_sizes = []
        count = max(1, int(round(seconds * RATE_PER_S)))
        start = time.perf_counter()
        dues = [start + i / RATE_PER_S for i in range(count)]
        outstanding: Dict[str, _Job] = {}
        sent = 0
        give_up = dues[-1] + DRAIN_TIMEOUT_S
        while sent < count or outstanding:
            now = time.perf_counter()
            if sent < count and now >= dues[sent]:
                index = first_run_id + sent
                samples.setdefault("send_lag", []).append(now - dues[sent])
                job = self._call(tracer, index, "http.submit", samples,
                                 self.client.submit, self.request(index))
                if job is None:
                    phase.outcome(False, "submit refused")
                    samples.setdefault("slo_miss", []).append(1)
                else:
                    outstanding[job["id"]] = _Job(index, dues[sent],
                                                  job["id"], now)
                sent += 1
                continue
            for job in list(outstanding.values()):
                if now - job.last_poll >= POLL_S:
                    if self._poll(job, phase, tracer, samples) is not None:
                        del outstanding[job.id]
            if now > give_up:
                for job in outstanding.values():
                    phase.outcome(False, f"campaign {job.id} timed out")
                    samples.setdefault("slo_miss", []).append(1)
                break
            wake = min([job.last_poll + POLL_S
                        for job in outstanding.values()]
                       + ([dues[sent]] if sent < count else []),
                       default=now)
            time.sleep(max(0.0, wake - time.perf_counter()))
        self._figures(phase, samples)
        return phase

    def _figures(self, phase: Phase, samples: Dict[str, List[float]]) -> None:
        def p50(key):
            values = samples.get(key)
            return statistics.median(values) if values else 0.0

        send_lag = samples.get("send_lag", [0.0])
        slo = samples.get("slo_miss", [])
        figures = {
            "campaign_slo_miss_rate": (sum(slo) / len(slo) if slo else 0.0,
                                       "share"),
            "offered_rate_per_s": (RATE_PER_S, "1/s"),
            "poll_s": (POLL_S, "s"),
            "http.submit.s_p50": (p50("http.submit"), "s"),
            "http.status.calls": (
                sum(samples.get("polls", [])) / max(1, len(samples.get(
                    "polls", []))), "count"),
            "http.report.s_p50": (p50("http.report"), "s"),
            "http.failed": (float(len(samples.get("http_failed", []))),
                            "count"),
            "service.queue_wait_s_p50": (p50("queue_wait"), "s"),
            "service.notify_lag_s_p50": (p50("notify_lag"), "s"),
            "client.send_lag_s_tail": (
                percentile(send_lag, tail_percentile(len(send_lag))), "s"),
            "sweep.run_s_p50": (p50("sweep_run"), "s"),
        }
        if self.store_sizes:
            figures["store.bytes_per_campaign"] = (
                statistics.mean(size for size, _ in self.store_sizes), "B")
            figures["store.files_per_campaign"] = (
                statistics.mean(files for _, files in self.store_sizes),
                "count")
        phase.figures.update(figures)
        phase.problems.extend(samples.get("errors", [])[:3])

    # -- tracing --------------------------------------------------------- #
    def install_probes(self, probes: Probes) -> None:
        """The server is another process: its layers are seen through the
        client's HTTP spans and the status timestamps."""

    def layer_metrics(self, tracer: Tracer, run_ids: set, ops: int,
                      setup_counters: Dict[str, float],
                      loop_counters: Dict[str, float]
                      ) -> Dict[str, Tuple[float, str]]:
        return {}


def _tree_size(path: str) -> Tuple[int, int]:
    """(bytes, files) under a campaign store directory."""
    total = files = 0
    for root, _, names in os.walk(path):
        for name in names:
            total += os.path.getsize(os.path.join(root, name))
            files += 1
    return total, files
