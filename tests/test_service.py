"""The campaign service: HTTP round trips, shared caches, kill/resume, chaos.

The acceptance properties of the service PR, each pinned directly:

* a campaign submitted over HTTP produces bit-for-bit the CD matrix of the
  same campaign run serially in-process,
* concurrent campaigns share the process-wide kernel-bank machinery — two
  campaigns over the same optics leave one set of bank files, not two,
* a server killed mid-campaign (SIGKILL, no cleanup) recomputes exactly the
  remainder on restart,
* ``REPRO_SCHEDULER_FAULTS`` chaos through the ServiceScheduler still ends
  in correct, complete results (the facade's serial recompute answers).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.api as api
from repro.backend import ComputeConfig
from repro.engine import ShardedExecutor
from repro.layout.sources import synthesize_layout_mask
from repro.optics.simulator import OpticsConfig
from repro.service import (
    CampaignManager,
    CampaignRequest,
    CampaignServer,
    ServiceClient,
    ServiceError,
)
from repro.sweep import FocusExposureGrid, ProcessWindowSweep, report_as_dict

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

FOCI = [-40.0, 0.0, 40.0]
DOSES = [0.95, 1.0, 1.05]
COMPUTE_JSON = {"fft_backend": "numpy", "precision": "float64"}


def make_request(seed: int = 0, **overrides) -> dict:
    request = {
        "layout": {"kind": "synthetic", "family": "B2m", "width_px": 64,
                   "height_px": 64, "seed": seed},
        "optics": {"tile_size_px": 64, "pixel_size_nm": 8.0},
        "grid": {"focus_nm": FOCI, "dose": DOSES},
        "compute": dict(COMPUTE_JSON),
        "tolerance": 0.2,
    }
    request.update(overrides)
    return request


@pytest.fixture()
def server(tmp_path):
    with CampaignServer(str(tmp_path / "svc"), campaign_workers=2) as svc:
        yield svc


class TestRequestValidation:
    def test_rejects_unknown_fields_and_missing_blocks(self):
        with pytest.raises(ValueError, match="unknown request field"):
            CampaignRequest.from_dict(make_request(bogus=1))
        with pytest.raises(ValueError, match="grid"):
            CampaignRequest.from_dict(
            {"layout": {"kind": "array", "data": [[1.0]]},
             "optics": {"tile_size_px": 32}})
        with pytest.raises(ValueError, match="layout.kind"):
            CampaignRequest.from_dict(
                make_request(layout={"kind": "hologram"}))

    @pytest.mark.parametrize("overrides", [
        {"optics": {"tile_size_px": 64, "bogus": 1}},
        {"optics": {"tile_size_px": 64, "source": "warp"}},
        {"optics": {"tile_size_px": 64, "pixel_size_nm": "x"}},
        {"optics": {"tile_size_px": -3}},
        {"grid": {"focus_nm": ["x"], "dose": DOSES}},
        {"target_cd_nm": 0},
        {"target_cd_nm": -5.0},
    ], ids=["unknown-optics-field", "unknown-source", "pixel-size-not-number",
            "negative-tile", "focus-not-number", "zero-target",
            "negative-target"])
    def test_rejects_campaigns_the_runner_cannot_start(self, overrides):
        with pytest.raises(ValueError):
            CampaignRequest.from_dict(make_request(**overrides))

    def test_null_target_still_measures(self):
        parsed = CampaignRequest.from_dict(make_request(target_cd_nm=None))
        assert parsed.target_cd_nm is None
        assert CampaignRequest.from_dict(
            make_request(target_cd_nm=90)).target_cd_nm == 90.0

    def test_resolves_layouts_like_the_cli(self):
        parsed = CampaignRequest.from_dict(make_request(seed=3))
        layout = parsed.resolve_layout()
        expected = synthesize_layout_mask(64, 64, 64, 8.0, "B2m", 3)
        np.testing.assert_array_equal(layout, expected)


class TestHttpRoundTrip:
    def test_served_campaign_matches_serial_bit_for_bit(self, server,
                                                        tmp_path):
        client = ServiceClient(server.url)
        assert client.health()["status"] == "ok"
        job = client.submit(make_request())
        final = client.wait(job["id"])
        assert final["state"] == "completed", final["error"]
        assert final["computed_conditions"] == len(FOCI) * len(DOSES)
        served = client.report(job["id"], format="json")

        serial_store = str(tmp_path / "serial")
        api.sweep_window(synthesize_layout_mask(64, 64, 64, 8.0, "B2m", 0),
                         OpticsConfig(tile_size_px=64, pixel_size_nm=8.0),
                         focus_nm=FOCI, dose=DOSES, tolerance=0.2,
                         compute=ComputeConfig(**COMPUTE_JSON),
                         store=serial_store)
        serial = report_as_dict(api.open_campaign(serial_store))
        # bit-for-bit: the exact float CD values, not approximate equality
        assert served["cd_matrix"] == serial["cd_matrix"]
        assert served["window"] == serial["window"]

        html = client.report(job["id"], format="html")
        assert "<table" in html and "CD" in html
        text = client.report(job["id"], format="text")
        assert "focus" in text.lower()

    def test_status_listing_and_errors(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as excinfo:
            client.status("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"layout": {"kind": "array"}})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit(make_request(
                optics={"tile_size_px": 64, "bogus": 1}))
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)
        job = client.submit(make_request())
        assert any(entry["id"] == job["id"] for entry in client.list())
        client.wait(job["id"])

    def test_cancel_settles_the_job(self, server):
        client = ServiceClient(server.url)
        job = client.submit(make_request())
        client.cancel(job["id"])
        final = client.wait(job["id"])
        assert final["state"] in ("cancelled", "completed")

    def test_thumbnails_served_for_stored_aerials(self, server):
        client = ServiceClient(server.url)
        job = client.submit(make_request(store_aerials=True))
        client.wait(job["id"])
        report = client.report(job["id"], format="json")
        assert report["aerials"]
        pgm = client.thumbnail(job["id"], report["aerials"][0])
        assert pgm.startswith(b"P5")


class TestSharedKernelCache:
    def test_concurrent_campaigns_share_bank_files(self, tmp_path):
        with CampaignServer(str(tmp_path / "svc"),
                            campaign_workers=2) as server:
            client = ServiceClient(server.url)
            # same optics, different layouts: the kernel banks must be
            # decomposed once per focus, not once per campaign
            first = client.submit(make_request(seed=0))
            second = client.submit(make_request(seed=9))
            assert client.wait(first["id"])["state"] == "completed"
            assert client.wait(second["id"])["state"] == "completed"
            banks = glob.glob(os.path.join(server.manager.kernel_cache_dir,
                                           "kernels-*.npz"))
            assert len(banks) == len(FOCI)
            stats = client.health()["queue"]
            assert stats["submitted"] > 0


class TestKillAndResume:
    def test_sigkilled_server_recomputes_exactly_the_remainder(self,
                                                               tmp_path):
        data_dir = str(tmp_path / "svc")
        total = len(FOCI) * len(DOSES)
        # Phase 1: a real server process, SIGKILLed mid-campaign.
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.cli import main\n"
            "main(['serve', '--data-dir', {data!r}, '--port', '0',\n"
            "      '--queue-workers', '2'])\n"
        ).format(src=SRC_DIR, data=data_dir)
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            url = next(tok for tok in banner.split()
                       if tok.startswith("http://"))
            client = ServiceClient(url)
            # a slower campaign (multi-tile layout) so the kill lands mid-run
            request = make_request(layout={"kind": "synthetic",
                                           "family": "B2m", "width_px": 96,
                                           "height_px": 96, "seed": 1},
                                   optics={"tile_size_px": 32,
                                           "pixel_size_nm": 8.0})
            job = client.submit(request)
            store_dir = os.path.join(data_dir, "campaigns", job["id"])
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(glob.glob(os.path.join(store_dir, "cond_*.npz"))) >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("campaign never stored a condition")
        finally:
            proc.kill()  # SIGKILL: no atexit, no manifest consolidation
            proc.wait(timeout=10)

        completed_before = len(glob.glob(os.path.join(store_dir,
                                                      "cond_*.npz")))
        assert 0 < completed_before  # the kill landed after >= 1 condition

        # Phase 2: restart over the same data dir; recovery must compute
        # exactly the remainder.
        with CampaignServer(data_dir, campaign_workers=1) as server:
            client = ServiceClient(server.url)
            final = client.wait(job["id"], timeout=240)
            assert final["state"] == "completed", final["error"]
            assert final["resumed"] is True
            if completed_before < total:
                assert final["computed_conditions"] == \
                    total - completed_before
                assert final["resumed_conditions"] == completed_before
            else:  # campaign finished before the kill: nothing recomputed
                assert final["computed_conditions"] == 0
            report = client.report(job["id"], format="json")
            assert report["progress"]["complete"] is True

    def test_manager_recovery_marks_finished_campaigns_completed(self,
                                                                 tmp_path):
        data_dir = str(tmp_path / "svc")
        manager = CampaignManager(data_dir, campaign_workers=1)
        try:
            job = manager.submit(make_request())
            manager.wait(job.id)
        finally:
            manager.close()
        revived = CampaignManager(data_dir, campaign_workers=1)
        try:
            recovered = revived.get(job.id)
            assert recovered is not None
            assert recovered.state == "completed"
            assert recovered.computed_conditions == 0  # nothing re-imaged
        finally:
            revived.close()


class TestChaosThroughServiceScheduler:
    def test_faults_still_end_in_serial_results(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULER_FAULTS", "break_after=1")
        optics = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)
        layout = synthesize_layout_mask(64, 64, 32, 8.0, "B2m", 2)
        grid = FocusExposureGrid.from_sequences(FOCI, DOSES)
        compute = ComputeConfig(fft_backend="numpy", precision="float64",
                                scheduler="service")
        with ShardedExecutor(num_workers=1, compute=compute) as executor:
            chaotic = ProcessWindowSweep(optics, executor=executor,
                                         compute=compute).run(
                layout, grid=grid, tolerance=0.2,
                store=str(tmp_path / "chaotic"))
        monkeypatch.delenv("REPRO_SCHEDULER_FAULTS")
        serial = api.sweep_window(layout, optics, grid=grid, tolerance=0.2,
                                  compute=ComputeConfig(fft_backend="numpy",
                                                        precision="float64"),
                                  store=str(tmp_path / "serial"))
        assert chaotic.window.cd_matrix() == serial.window.cd_matrix()
