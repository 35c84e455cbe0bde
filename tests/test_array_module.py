"""Tests for the ArrayModule device seam (repro.backend.array_module).

Pinned guarantees:

* **residency is provable**: on the ``fakegpu`` module the batched core pays
  exactly one upload per mask chunk and one download per aerial chunk — for
  the dense, streaming and sharded-serial paths alike — and the kernel bank
  is uploaded once per (fingerprint, device), never per chunk or per batch,
* **streamed downloads stage through one reusable host buffer** (the pinned
  -buffer hook): ``host_buffer_allocations == 1`` for a whole streamed
  layout,
* **fakegpu == numpy bit for bit** across precisions, real/complex FFT paths
  and band limiting (hypothesis-pinned), so the residency bookkeeping can
  never drift the numerics,
* **host-math mixing raises**: numpy ufuncs on a :class:`FakeDeviceArray`
  and device<->host binary ops fail loudly instead of silently detouring
  through the host,
* **host modules are pass-throughs**: wrapping a plain backend changes
  nothing (same results, zero counted transfers), and the wrapper is cached
  per backend instance,
* ``--precision auto`` resolves deterministically everywhere an engine is
  built (constructor, ``for_optics``, ``EngineSpec``) and never leaks the
  string ``"auto"`` into a worker-bound spec.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import (
    FLOAT32,
    FLOAT64,
    ComputeConfig,
    DeviceMixingError,
    HostArrayModule,
    NumpyFFTBackend,
    as_array_module,
    autotune_precision,
    get_backend,
    is_auto_precision,
    resolve_precision,
)
from repro.engine import EngineSpec, ExecutionEngine, ShardedExecutor
from repro.engine.batched import batched_aerial_from_kernels
from repro.engine.execution import (
    DEVICE_BANK_LIMIT,
    _DEVICE_BANKS,
    device_kernel_bank,
)
from repro.optics import OpticsConfig
from repro.optics.aerial import mask_spectrum

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)

RNG = np.random.default_rng(7)
KERNELS = (RNG.standard_normal((3, 9, 9))
           + 1j * RNG.standard_normal((3, 9, 9)))


@pytest.fixture()
def fakegpu():
    """The process-cached fakegpu module with counters and bank memo reset."""
    module = get_backend("fakegpu")
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()
    yield module
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()


def make_engines(**kwargs):
    numpy_engine = ExecutionEngine(KERNELS, tile_size_px=32,
                                   compute=ComputeConfig(fft_backend="numpy",
                                                         tile_cache=False),
                                   **kwargs)
    fake_engine = ExecutionEngine(KERNELS, tile_size_px=32,
                                  compute=ComputeConfig(fft_backend="fakegpu",
                                                        tile_cache=False),
                                  **kwargs)
    return numpy_engine, fake_engine


binary_masks = arrays(np.float64, (4, 32, 32),
                      elements=st.sampled_from([0.0, 1.0]))


# --------------------------------------------------------------------------- #
# transfer counting: residency is provable
# --------------------------------------------------------------------------- #
class TestTransferCounts:
    def test_dense_batch_one_upload_one_download_per_chunk(self, fakegpu):
        _, engine = make_engines()
        masks = RNG.random((6, 32, 32))
        # A chunk budget of one tile: every tile is its own chunk.
        tiny = ExecutionEngine(KERNELS, tile_size_px=32, max_chunk_bytes=1,
                               compute=ComputeConfig(fft_backend="fakegpu",
                                                     tile_cache=False))
        tiny.aerial_batch(masks)
        stats = fakegpu.transfer_stats
        assert stats.uploads == 6 + 1  # one per chunk + the bank, once
        assert stats.downloads == 6
        # Full-batch chunk: the whole stack is one upload + one download.
        fakegpu.transfer_stats.reset()
        engine.aerial_batch(masks)
        assert stats.uploads == 1  # bank already device-resident
        assert stats.downloads == 1

    def test_kernel_bank_uploaded_once_per_fingerprint(self, fakegpu):
        _, engine = make_engines()
        masks = RNG.random((2, 32, 32))
        for _ in range(3):
            engine.aerial_batch(masks)
        # 3 chunk uploads + exactly 1 bank upload across all batches.
        assert fakegpu.transfer_stats.uploads == 3 + 1
        # A second engine sharing the bank shares the device copy too.
        other = ExecutionEngine(KERNELS, tile_size_px=32,
                                compute=ComputeConfig(fft_backend="fakegpu",
                                                      tile_cache=False))
        other.aerial_batch(masks)
        assert fakegpu.transfer_stats.uploads == 4 + 1

    def test_streaming_layout_counts_and_staging_buffer(self, fakegpu):
        numpy_engine, fake_engine = make_engines()
        layout = RNG.random((70, 70))
        reference = numpy_engine.image_layout(layout, tile_px=32, guard_px=8)
        result = fake_engine.image_layout(layout, tile_px=32, guard_px=8)
        np.testing.assert_array_equal(reference.aerial, result.aerial)
        np.testing.assert_array_equal(reference.resist, result.resist)
        stats = fakegpu.transfer_stats
        # The default stream batch is the engine's own chunk size, so each
        # streamed batch is one chunk: one upload + one download each, plus
        # the bank upload, staged through ONE reusable host buffer.
        assert stats.uploads == stats.downloads + 1
        assert stats.host_buffer_allocations == 1

    def test_streaming_download_bytes_match_aerial_payload(self, fakegpu):
        _, fake_engine = make_engines()
        masks = RNG.random((3, 32, 32))
        fake_engine.aerial_batch(masks)
        assert fakegpu.transfer_stats.download_bytes == \
            masks.size * np.dtype(np.float64).itemsize

    def test_sharded_serial_path_stays_resident(self, fakegpu, tmp_path):
        spec = EngineSpec(config=CONFIG, cache_dir=str(tmp_path),
                          compute=ComputeConfig(fft_backend="fakegpu"))
        executor = ShardedExecutor(num_workers=0, cache_dir=str(tmp_path))
        masks = RNG.random((4, 32, 32))
        reference = ShardedExecutor(num_workers=0).aerial_batch(
            EngineSpec(config=CONFIG,
                       compute=ComputeConfig(fft_backend="numpy")), masks)
        fakegpu.transfer_stats.reset()
        _DEVICE_BANKS.clear()
        result = executor.aerial_batch(spec, masks)
        np.testing.assert_array_equal(reference, result)
        stats = fakegpu.transfer_stats
        assert stats.uploads == 1 + 1  # one chunk + the bank
        assert stats.downloads == 1

    def test_device_bank_memo_is_lru_bounded(self, fakegpu):
        for index in range(DEVICE_BANK_LIMIT + 3):
            device_kernel_bank(fakegpu, f"bank-{index}", KERNELS)
        assert len(_DEVICE_BANKS) == DEVICE_BANK_LIMIT
        # Re-requesting an evicted bank re-uploads (one more transfer).
        before = fakegpu.transfer_stats.uploads
        device_kernel_bank(fakegpu, "bank-0", KERNELS)
        assert fakegpu.transfer_stats.uploads == before + 1

    def test_legacy_host_calls_count_round_trips(self, fakegpu):
        # Host arrays through a device module's transforms keep today's
        # host-in/host-out semantics but the round-trip is counted.
        host = RNG.random((4, 4))
        result = fakegpu.fft2(host, norm="ortho")
        assert isinstance(result, np.ndarray)
        assert fakegpu.transfer_stats.uploads == 1
        assert fakegpu.transfer_stats.downloads == 1


# --------------------------------------------------------------------------- #
# numerics: fakegpu == numpy, bit for bit
# --------------------------------------------------------------------------- #
class TestFakeGpuEqualsNumpy:
    @settings(max_examples=10, deadline=None)
    @given(masks=binary_masks,
           precision=st.sampled_from(["float64", "float32"]),
           band_limited=st.booleans())
    def test_batched_aerial_bit_for_bit(self, masks, precision, band_limited):
        policy = resolve_precision(precision)
        masks = policy.as_real(masks)
        kernels = KERNELS.astype(policy.complex_dtype)
        reference = batched_aerial_from_kernels(
            masks, kernels, band_limited=band_limited,
            backend=get_backend("numpy"), precision=policy)
        result = batched_aerial_from_kernels(
            masks, kernels, band_limited=band_limited,
            backend=get_backend("fakegpu"), precision=policy)
        assert result.dtype == reference.dtype
        np.testing.assert_array_equal(reference, result)

    @settings(max_examples=10, deadline=None)
    @given(masks=binary_masks, real_fft=st.booleans())
    def test_mask_spectrum_bit_for_bit(self, masks, real_fft):
        module = get_backend("fakegpu")
        reference = mask_spectrum(masks, (9, 9), backend=get_backend("numpy"),
                                  real_fft=real_fft)
        device = mask_spectrum(module.asarray(masks), (9, 9), backend=module,
                               real_fft=real_fft)
        np.testing.assert_array_equal(reference, module.to_host(device))

    def test_out_buffer_result_identical(self, fakegpu):
        _, engine = make_engines()
        masks = RNG.random((3, 32, 32))
        reference = engine.aerial_batch(masks)
        out = np.empty_like(reference)
        returned = engine.aerial_batch(masks, out=out)
        assert returned is out
        np.testing.assert_array_equal(reference, out)


# --------------------------------------------------------------------------- #
# host-math mixing fails loudly
# --------------------------------------------------------------------------- #
class TestDeviceMixing:
    def test_numpy_ufunc_on_device_array_raises(self, fakegpu):
        device = fakegpu.asarray(np.ones((2, 2)))
        with pytest.raises(TypeError):
            np.abs(device)

    def test_binary_op_with_host_ndarray_raises(self, fakegpu):
        device = fakegpu.asarray(np.ones((2, 2)))
        with pytest.raises(DeviceMixingError):
            device * np.ones((2, 2))

    def test_implicit_array_conversion_raises(self, fakegpu):
        device = fakegpu.asarray(np.ones((2, 2)))
        with pytest.raises(DeviceMixingError, match="to_host"):
            np.asarray(device)

    def test_scalars_are_metadata_and_interoperate(self, fakegpu):
        device = fakegpu.asarray(np.full((2, 2), 3.0))
        doubled = fakegpu.to_host(2.0 * device)
        np.testing.assert_array_equal(doubled, np.full((2, 2), 6.0))

    def test_device_mixing_error_is_a_type_error(self):
        assert issubclass(DeviceMixingError, TypeError)


# --------------------------------------------------------------------------- #
# host modules are cached pass-throughs
# --------------------------------------------------------------------------- #
class TestAsArrayModule:
    def test_plain_backend_wrapped_once(self):
        backend = NumpyFFTBackend()
        module = as_array_module(backend)
        assert isinstance(module, HostArrayModule)
        assert module.name == "numpy"
        assert not module.is_resident
        assert as_array_module(backend) is module

    def test_host_ops_are_numpy_verbatim(self):
        module = as_array_module(NumpyFFTBackend())
        fields = RNG.standard_normal((2, 3, 4, 4)) \
            + 1j * RNG.standard_normal((2, 3, 4, 4))
        np.testing.assert_array_equal(module.abs2_sum(fields, axis=1),
                                      np.sum(np.abs(fields) ** 2, axis=1))
        np.testing.assert_array_equal(module.fftshift(fields),
                                      np.fft.fftshift(fields, axes=(-2, -1)))
        assert module.transfer_stats.uploads == 0
        assert module.transfer_stats.downloads == 0

    def test_like_narrows_device_module_to_host_view(self, fakegpu):
        host_mask = np.ones((4, 4))
        module = as_array_module(fakegpu, like=host_mask)
        assert not module.is_resident
        assert module.host_view() is module
        # ... but a device operand keeps the device namespace.
        device_mask = fakegpu.asarray(host_mask)
        assert as_array_module(fakegpu, like=device_mask) is fakegpu

    def test_module_passes_through_unwrapped(self, fakegpu):
        assert as_array_module(fakegpu) is fakegpu


# --------------------------------------------------------------------------- #
# --precision auto
# --------------------------------------------------------------------------- #
class TestAutoPrecision:
    def test_autotune_picks_float32_when_truncation_dominates(self):
        # Least-energetic kernel carries ~1e-2 of the energy: truncation
        # error far above float32's documented 1e-4 tolerance.
        kernels = np.stack([np.full((4, 4), 1.0 + 0j),
                            np.full((4, 4), 0.1 + 0j)])
        assert autotune_precision(kernels) is FLOAT32

    def test_autotune_keeps_float64_for_tight_banks(self):
        # Both kernels matter equally down to ~1e-6 of the energy: dtype
        # error would dominate, stay in float64.
        kernels = np.stack([np.full((4, 4), 1.0 + 0j),
                            np.full((4, 4), 1e-3 + 0j)])
        assert autotune_precision(kernels) is FLOAT64

    def test_is_auto_precision_spellings(self, monkeypatch):
        assert is_auto_precision("auto")
        assert not is_auto_precision("float32")
        assert not is_auto_precision(FLOAT64)
        monkeypatch.setenv("REPRO_PRECISION", "auto")
        assert is_auto_precision(None)

    def test_resolve_precision_rejects_auto_with_pointer(self):
        with pytest.raises(ValueError, match="kernel bank"):
            resolve_precision("auto")

    def test_engine_constructor_resolves_auto(self):
        engine = ExecutionEngine(KERNELS, tile_size_px=32,
                                 compute=ComputeConfig(precision="auto",
                                                       tile_cache=False))
        assert engine.precision in (FLOAT32, FLOAT64)
        assert engine.kernels.dtype == engine.precision.complex_dtype

    def test_for_optics_resolves_auto(self):
        engine = ExecutionEngine.for_optics(
            CONFIG, compute=ComputeConfig(precision="auto"))
        assert engine.precision in (FLOAT32, FLOAT64)

    def test_engine_spec_ships_concrete_name_to_workers(self, tmp_path):
        spec = EngineSpec(config=CONFIG, cache_dir=str(tmp_path),
                          compute=ComputeConfig(precision="auto"))
        assert spec.precision in ("float32", "float64")
        assert "auto" not in spec.fingerprint()
        # The spec's engine runs at exactly the precision the parent chose.
        engine = spec.build()
        assert engine.precision.name == spec.precision
