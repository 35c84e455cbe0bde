"""The unified ComputeConfig policy object: the one compute-policy spelling.

Pins the API-redesign contract: one serialisable object carries every
compute-policy knob through the engine, executor, sweep and CLI layers, and
no constructor takes those knobs as loose keyword arguments.
"""

import json

import numpy as np
import pytest

from repro.backend import ComputeConfig
from repro.cli import _compute_from_args, build_parser
from repro.engine import EngineSpec, ShardedExecutor
from repro.optics.simulator import OpticsConfig

OPTICS = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0)


class TestComputeConfig:
    def test_json_round_trip(self):
        config = ComputeConfig(fft_backend="numpy", fft_workers=2,
                               precision="float32", tile_cache=True,
                               scheduler="pool")
        assert ComputeConfig.from_json(config.to_json()) == config
        assert ComputeConfig.from_json(config.as_dict()) == config
        # drop_none keeps the round trip: missing keys stay None
        sparse = ComputeConfig(precision="float64")
        assert ComputeConfig.from_json(sparse.to_json(drop_none=True)) == sparse

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="fft_backnd"):
            ComputeConfig.from_dict({"fft_backnd": "numpy"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            ComputeConfig.from_json(json.dumps(["numpy"]))

    def test_validates_field_types(self):
        with pytest.raises(ValueError):
            ComputeConfig(fft_workers=0)
        with pytest.raises(TypeError):
            ComputeConfig(fft_workers=True)
        with pytest.raises(TypeError, match="instances directly"):
            ComputeConfig(tile_cache="yes")
        with pytest.raises(TypeError, match="instances directly"):
            ComputeConfig(precision=np.float32)

    def test_from_env_reads_the_legacy_variables(self, monkeypatch):
        for var in ("REPRO_FFT_BACKEND", "REPRO_FFT_WORKERS",
                    "REPRO_PRECISION", "REPRO_TILE_CACHE",
                    "REPRO_TILE_CACHE_DIR", "REPRO_SCHEDULER"):
            monkeypatch.delenv(var, raising=False)
        assert ComputeConfig.from_env() == ComputeConfig()
        monkeypatch.setenv("REPRO_FFT_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_FFT_WORKERS", "3")
        monkeypatch.setenv("REPRO_PRECISION", "float32")
        monkeypatch.setenv("REPRO_TILE_CACHE", "off")
        monkeypatch.setenv("REPRO_SCHEDULER", "stealing")
        assert ComputeConfig.from_env() == ComputeConfig(
            fft_backend="numpy", fft_workers=3, precision="float32",
            tile_cache=False, scheduler="stealing")
        # REPRO_TILE_CACHE_DIR alone implies caching on
        monkeypatch.delenv("REPRO_TILE_CACHE")
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", "/tmp/somewhere")
        assert ComputeConfig.from_env().tile_cache is True

    def test_resolve_pins_concrete_names(self):
        resolved = ComputeConfig(fft_backend="numpy").resolve()
        assert resolved.fft_backend == "numpy"
        assert resolved.precision in ("float64", "float32")
        with pytest.raises(ValueError, match="registered schedulers"):
            ComputeConfig(scheduler="bogus").resolve()
        # every registered scheduler name resolves, including "service"
        for name in ("serial", "pool", "stealing", "service"):
            assert ComputeConfig(scheduler=name).resolve().scheduler == name


class TestLegacyShim:
    """What replaced the legacy per-field kwargs: ``compute=`` alone."""

    def test_engine_spec_equal_and_same_fingerprint_both_ways(self):
        via_imaging = EngineSpec(
            config=OPTICS, compute=ComputeConfig(fft_backend="numpy",
                                                 precision="float32"))
        via_full = EngineSpec(
            config=OPTICS, compute=ComputeConfig(
                fft_backend="numpy", precision="float32", tile_cache=True,
                scheduler="pool"))
        assert via_imaging == via_full
        assert via_imaging.fingerprint() == via_full.fingerprint()
        # executor-level policies are not part of the worker recipe
        assert via_full.compute == ComputeConfig(fft_backend="numpy",
                                                 precision="float32")

    def test_sharded_executor_takes_policy_from_compute(self):
        executor = ShardedExecutor(
            num_workers=1,
            compute=ComputeConfig(tile_cache=True, scheduler="serial"))
        try:
            assert executor.scheduler == "serial"
            assert executor.tile_cache is not None
        finally:
            executor.close()
        # names are spelled in the config only
        with pytest.raises(TypeError, match="ComputeConfig"):
            ShardedExecutor(num_workers=1, tile_cache=False)
        with pytest.raises(TypeError, match="ComputeConfig"):
            ShardedExecutor(num_workers=1, scheduler="serial")


class TestCliComputeConfig:
    def _args(self, extra):
        return build_parser().parse_args(
            ["image-layout", "--output", "x.npz"] + extra)

    def test_compute_config_flag_seeds_the_policy(self):
        arguments = self._args(["--compute-config",
                                '{"fft_backend": "numpy", '
                                '"precision": "float32"}'])
        compute = _compute_from_args(arguments)
        assert compute.fft_backend == "numpy"
        assert compute.precision == "float32"

    def test_explicit_flags_override_the_json(self):
        arguments = self._args(["--compute-config",
                                '{"fft_backend": "numpy", '
                                '"scheduler": "pool"}',
                                "--scheduler", "serial",
                                "--precision", "float64"])
        compute = _compute_from_args(arguments)
        assert compute == ComputeConfig(fft_backend="numpy",
                                        precision="float64",
                                        scheduler="serial")

    def test_compute_config_from_file(self, tmp_path):
        path = tmp_path / "compute.json"
        path.write_text(json.dumps({"precision": "float32"}))
        arguments = self._args(["--compute-config", f"@{path}"])
        assert _compute_from_args(arguments).precision == "float32"

    def test_bad_json_fails_loudly(self):
        arguments = self._args(["--compute-config", '{"precisio": "x"}'])
        with pytest.raises(ValueError, match="precisio"):
            _compute_from_args(arguments)
