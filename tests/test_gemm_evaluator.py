"""Tests for the batched core's GEMM evaluator (repro.engine.batched).

Pinned guarantees:

* **tolerance oracle**: the GEMM evaluator (pruned DFTs as matrix products)
  equals the seed reference ``aerial_from_kernels`` and the retained FFT
  evaluator within :data:`GEMM_RTOL` in float64 and ``FLOAT32.aerial_rtol``
  in float32 — hypothesis-swept over odd and even kernel windows, non-square
  tiles and output shapes other than the mask shape,
* **evaluator choice** is a function of the geometry alone: small banks take
  the GEMM evaluator, the 29 x 29 bank of the backend benchmark stays on the
  FFT one, ``real_fft=False`` and the direct path are untouched,
* **batch independence**: a tile's aerial is bit-identical whether imaged
  alone, in an 81-tile batch or one tile per chunk — the tile cache and the
  cached == flattened layout digests rely on it,
* **residency**: on ``fakegpu`` the DFT operators travel inside the kernel
  bank's single upload, the evaluator never touches host data, and its
  results equal the numpy backend's bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import (
    FLOAT32,
    FLOAT64,
    ComputeConfig,
    DeviceMixingError,
    as_array_module,
    get_backend,
)
from repro.engine import ExecutionEngine
from repro.engine.batched import (
    _band_limited_chunk,
    _gemm_chunk,
    batched_aerial_from_kernels,
    chunk_evaluator,
    dft_operators,
)
from repro.engine.execution import _DEVICE_BANKS
from repro.optics.aerial import aerial_from_kernels

#: Largest float64 error of the GEMM evaluator against either oracle, as a
#: share of the reference's peak intensity.  Measured ~2e-15; the bound
#: leaves room for BLAS kernels that order their sums differently.
GEMM_RTOL = 1e-12

RNG = np.random.default_rng(12)
NO_CACHE = ComputeConfig(tile_cache=False)
HOST = ComputeConfig(fft_backend="numpy", tile_cache=False)


def random_kernels(order, n, m, rng=RNG):
    return rng.standard_normal((order, n, m)) \
        + 1j * rng.standard_normal((order, n, m))


def gemm_aerial(masks, kernels, out_h, out_w, precision=FLOAT64,
                backend="numpy"):
    """The GEMM evaluator forced, whatever the crossover would choose."""
    xp = as_array_module(get_backend(backend))
    operators = dft_operators(*masks.shape[-2:], out_h, out_w,
                              *kernels.shape[-2:], precision)
    return _gemm_chunk(precision.as_real(masks),
                       precision.as_complex(kernels), out_h, out_w, xp,
                       operators)


def assert_close_to_peak(result, reference, rtol):
    error = np.abs(result - reference).max()
    assert error <= rtol * np.abs(reference).max(), \
        f"error {error:.3g} vs peak {np.abs(reference).max():.3g}"


@st.composite
def geometries(draw):
    """Random kernel window (odd or even sides), mask and output shapes."""
    n = draw(st.integers(2, 9))
    m = draw(st.integers(2, 9))
    height = draw(st.integers(n, 40))
    width = draw(st.integers(m, 40))
    out_h = draw(st.integers(2 * n, 48))
    out_w = draw(st.integers(2 * m, 48))
    return n, m, height, width, out_h, out_w


# --------------------------------------------------------------------------- #
# tolerance oracle
# --------------------------------------------------------------------------- #
class TestToleranceOracle:
    @settings(max_examples=40, deadline=None)
    @given(geometry=geometries(), seed=st.integers(0, 2 ** 16))
    def test_float64_matches_seed_reference_and_fft_evaluator(self, geometry,
                                                              seed):
        n, m, height, width, out_h, out_w = geometry
        rng = np.random.default_rng(seed)
        masks = (rng.random((2, height, width)) > 0.5).astype(float)
        kernels = random_kernels(3, n, m, rng)
        result = gemm_aerial(masks, kernels, out_h, out_w)
        assert result.shape == (2, out_h, out_w)
        assert result.dtype == np.float64
        seed_reference = np.stack([
            aerial_from_kernels(mask, kernels, output_shape=(out_h, out_w),
                                backend=get_backend("numpy"))
            for mask in masks])
        assert_close_to_peak(result, seed_reference, GEMM_RTOL)
        fft_evaluator = _band_limited_chunk(
            masks, kernels, out_h, out_w,
            as_array_module(get_backend("numpy")), True)
        assert_close_to_peak(result, fft_evaluator, GEMM_RTOL)

    @settings(max_examples=20, deadline=None)
    @given(geometry=geometries(), seed=st.integers(0, 2 ** 16))
    def test_float32_within_documented_tolerance(self, geometry, seed):
        n, m, height, width, out_h, out_w = geometry
        rng = np.random.default_rng(seed)
        masks = (rng.random((2, height, width)) > 0.5).astype(float)
        kernels = random_kernels(3, n, m, rng)
        result = gemm_aerial(masks, kernels, out_h, out_w, precision=FLOAT32)
        assert result.dtype == np.float32
        reference = gemm_aerial(masks, kernels, out_h, out_w)
        assert_close_to_peak(result, reference, FLOAT32.aerial_rtol)

    def test_public_entry_point_runs_gemm_below_the_crossover(self):
        masks = (RNG.random((3, 64, 48)) > 0.5).astype(float)
        kernels = random_kernels(4, 7, 6)
        assert chunk_evaluator((7, 6), (64, 48), (64, 48)) == "gemm"
        result = batched_aerial_from_kernels(masks, kernels,
                                             backend="numpy")
        np.testing.assert_array_equal(result,
                                      gemm_aerial(masks, kernels, 64, 48))
        complex_path = batched_aerial_from_kernels(masks, kernels,
                                                   backend="numpy",
                                                   real_fft=False)
        assert_close_to_peak(result, complex_path, GEMM_RTOL)


# --------------------------------------------------------------------------- #
# evaluator choice
# --------------------------------------------------------------------------- #
class TestEvaluatorChoice:
    def test_small_banks_take_gemm(self):
        assert chunk_evaluator((7, 7), (256, 256), (256, 256)) == "gemm"
        assert chunk_evaluator((15, 15), (512, 512), (512, 512)) == "gemm"

    def test_backend_benchmark_bank_stays_on_fft(self):
        # The backend-matrix benchmark's 24 x 29 x 29 bank on 256 px tiles.
        assert chunk_evaluator((29, 29), (256, 256), (256, 256)) == "fft"

    def test_crossover_grows_with_tile_size(self):
        def largest_gemm(size):
            return max(n for n in range(2, 64)
                       if chunk_evaluator((n, n), (size, size),
                                          (size, size)) == "gemm")
        assert largest_gemm(128) < largest_gemm(256) < largest_gemm(512)

    def test_reference_paths_untouched(self):
        assert chunk_evaluator((7, 7), (256, 256), (256, 256),
                               real_fft=False) == "fft"
        assert chunk_evaluator((7, 7), (256, 256), (256, 256),
                               band_limited=False) == "direct"
        assert chunk_evaluator((9, 9), (16, 16), (16, 16)) == "direct"

    def test_engine_reports_its_evaluator(self):
        engine = ExecutionEngine(random_kernels(2, 7, 7), tile_size_px=64,
                                 compute=HOST)
        assert engine.evaluator((64, 64)) == "gemm"
        assert engine.evaluator((12, 12)) == "direct"

    def test_operators_are_memoised(self):
        first = dft_operators(64, 64, 64, 64, 7, 7, FLOAT64)
        assert dft_operators(64, 64, 64, 64, 7, 7, FLOAT64) is first
        single = dft_operators(64, 64, 64, 64, 7, 7, FLOAT32)
        assert single.spectrum_cols.dtype == np.float32
        assert single.spectrum_rows.dtype == np.complex64


# --------------------------------------------------------------------------- #
# batch independence
# --------------------------------------------------------------------------- #
class TestBatchIndependence:
    @pytest.mark.parametrize("backend", ["numpy", "scipy", "fakegpu"])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_tile_identical_alone_batched_and_one_per_chunk(self, backend,
                                                            precision):
        kernels = random_kernels(8, 7, 7, np.random.default_rng(3))
        masks = (np.random.default_rng(4).random((81, 64, 64)) > 0.5) \
            .astype(float)

        def engine(**kwargs):
            return ExecutionEngine(
                kernels, tile_size_px=64, compute=ComputeConfig(
                    fft_backend=backend, precision=precision,
                    tile_cache=False), **kwargs)

        assert engine().evaluator((64, 64)) == "gemm"
        batched = engine().aerial_batch(masks)
        one_per_chunk = engine(max_chunk_bytes=1).aerial_batch(masks)
        np.testing.assert_array_equal(batched, one_per_chunk)
        for index in (0, 40, 80):
            alone = engine().aerial_batch(masks[index:index + 1])
            np.testing.assert_array_equal(alone[0], batched[index])


# --------------------------------------------------------------------------- #
# residency on fakegpu
# --------------------------------------------------------------------------- #
@pytest.fixture()
def fakegpu():
    module = get_backend("fakegpu")
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()
    yield module
    module.transfer_stats.reset()
    _DEVICE_BANKS.clear()


class TestResidency:
    def test_engine_operators_share_the_bank_upload(self, fakegpu):
        kernels = random_kernels(3, 7, 7)
        masks = RNG.random((6, 64, 64))
        engine = ExecutionEngine(kernels, tile_size_px=64, fft_backend=fakegpu,
                                 max_chunk_bytes=1, compute=NO_CACHE)
        assert engine.evaluator((64, 64)) == "gemm"
        reference = ExecutionEngine(kernels, tile_size_px=64,
                                    compute=HOST).aerial_batch(masks)
        np.testing.assert_array_equal(engine.aerial_batch(masks), reference)
        assert fakegpu.transfer_stats.uploads == 6 + 1  # chunks + the bank
        assert fakegpu.transfer_stats.downloads == 6
        fakegpu.transfer_stats.reset()
        engine.aerial_batch(masks)
        assert fakegpu.transfer_stats.uploads == 6  # bank memoised

    def test_host_kernels_and_operators_one_upload_per_call(self, fakegpu):
        kernels = random_kernels(3, 7, 7)
        masks = RNG.random((2, 64, 64))
        result = batched_aerial_from_kernels(masks, kernels, backend=fakegpu)
        assert fakegpu.transfer_stats.uploads == 1 + 1  # one chunk + bank
        np.testing.assert_array_equal(
            result, batched_aerial_from_kernels(masks, kernels,
                                                backend="numpy"))

    def test_matmul_refuses_host_operands(self, fakegpu):
        device = fakegpu.asarray(np.eye(3))
        with pytest.raises(DeviceMixingError):
            fakegpu.matmul(device, np.eye(3))
        with pytest.raises(DeviceMixingError):
            fakegpu.matmul(np.eye(3), device)

    def test_packed_upload_is_one_bit_exact_transfer(self, fakegpu):
        parts = (random_kernels(2, 3, 5), RNG.random((7, 3)),
                 RNG.random(5).astype(np.float32))
        device = fakegpu.asarray_packed(parts)
        assert fakegpu.transfer_stats.uploads == 1
        for original, copy in zip(parts, device):
            host = fakegpu.to_host(copy)
            assert host.dtype == original.dtype
            np.testing.assert_array_equal(host, original)
