"""Tests for the out-of-core streaming layout path (repro.engine.streaming).

Pinned guarantees:

* the batched ``image_layout`` loop is **bit-for-bit** the whole-stack
  reference (every tile imaged in one batch, then stitched) — across guard
  bands, batch sizes, FFT backends (numpy / scipy) and precisions
  (float64 / float32), including a hypothesis sweep over random layout
  geometries,
* ``iter_tile_batches`` covers every placement exactly once and never
  materialises more than one batch,
* the ``out_dir`` memmap layout round-trips through ``open_layout_dir``
  (self-describing ``.npy`` files + ``meta.json``), and
* memmapped *inputs* work: a layout opened with ``mmap_mode="r"`` streams
  through without being loaded wholesale — a ``uint8`` memmap is cut into
  float tiles window by window, never cast as a whole.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import ComputeConfig
from repro.engine import (
    EngineSpec,
    TilingSpec,
    extract_tile_batch,
    extract_tiles,
    iter_tile_batches,
    open_layout_dir,
    plan_tiles,
    stitch_into,
)
from repro.optics import OpticsConfig
from repro.optics.source import CircularSource

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)


@pytest.fixture(scope="module")
def engine():
    return EngineSpec(config=CONFIG, source=SOURCE).build()


@pytest.fixture(scope="module")
def layout():
    rng = np.random.default_rng(11)
    return (rng.random((90, 122)) > 0.72).astype(float)


class TestTileBatching:
    def test_batches_cover_all_placements_once(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=8)
        placements = plan_tiles(*layout.shape, spec)
        seen = []
        for tiles, subset in iter_tile_batches(layout, placements, spec, 3):
            assert len(tiles) == len(subset) <= 3
            seen.extend(subset)
        assert seen == placements

    def test_batches_match_full_extraction(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=8)
        full, placements = extract_tiles(layout, spec)
        streamed = np.concatenate(
            [tiles for tiles, _ in iter_tile_batches(layout, placements,
                                                     spec, 4)], axis=0)
        np.testing.assert_array_equal(streamed, full)

    def test_extract_tile_batch_is_a_slice_of_extract_tiles(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=6)
        full, placements = extract_tiles(layout, spec)
        subset = placements[2:5]
        np.testing.assert_array_equal(
            extract_tile_batch(layout, subset, spec), full[2:5])

    def test_batch_tiles_validation(self, layout):
        spec = TilingSpec(tile_px=32, guard_px=0)
        with pytest.raises(ValueError):
            list(iter_tile_batches(layout, plan_tiles(*layout.shape, spec),
                                   spec, 0))

    def test_stitch_into_is_split_inverse(self, layout):
        """Incremental stitch of the raw tiles reproduces the layout exactly."""
        spec = TilingSpec(tile_px=32, guard_px=8)
        placements = plan_tiles(*layout.shape, spec)
        out = np.zeros_like(layout)
        for tiles, subset in iter_tile_batches(layout, placements, spec, 5):
            stitch_into(out, tiles, subset, spec)
        np.testing.assert_array_equal(out, layout)


class TestStreamingEqualsInMemory:
    @pytest.mark.parametrize("backend_name,precision", [
        ("numpy", "float64"),
        ("numpy", "float32"),
        ("scipy", "float64"),
        ("scipy", "float32"),
    ])
    @pytest.mark.parametrize("guard_px", [0, 8])
    def test_bit_for_bit_across_policies(self, layout, backend_name,
                                         precision, guard_px,
                                         reference_image_layout):
        if backend_name == "scipy":
            pytest.importorskip("scipy.fft")
        engine = EngineSpec(config=CONFIG, source=SOURCE,
                            compute=ComputeConfig(fft_backend=backend_name,
                                                  precision=precision)).build()
        reference = reference_image_layout(engine, layout, guard_px=guard_px)
        streamed = engine.image_layout(layout, guard_px=guard_px,
                                       batch_tiles=3)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)
        assert streamed.num_tiles == reference.num_tiles
        assert streamed.aerial.dtype == reference.aerial.dtype

    @pytest.mark.parametrize("batch_tiles", [1, 2, 7, None])
    def test_bit_for_bit_across_batch_sizes(self, engine, layout, batch_tiles,
                                            reference_image_layout):
        reference = reference_image_layout(engine, layout, guard_px=8)
        streamed = engine.image_layout(layout, guard_px=8,
                                       batch_tiles=batch_tiles)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)

    @settings(max_examples=10, deadline=None)
    @given(height=st.integers(20, 70), width=st.integers(20, 70),
           guard=st.integers(0, 12), batch=st.integers(1, 5),
           seed=st.integers(0, 2 ** 16))
    def test_bit_for_bit_random_geometry(self, engine, reference_image_layout,
                                         height, width, guard, batch, seed):
        rng = np.random.default_rng(seed)
        layout = (rng.random((height, width)) > 0.7).astype(float)
        reference = reference_image_layout(engine, layout, guard_px=guard)
        streamed = engine.image_layout(layout, guard_px=guard,
                                       batch_tiles=batch)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    def test_default_batch_matches_engine_chunk(self, engine):
        tiling = TilingSpec(tile_px=32, guard_px=8)
        assert engine.stream_batch_tiles(tiling) >= 1
        small_chunk = EngineSpec(config=CONFIG, source=SOURCE,
                                 max_chunk_bytes=32 * 32 * 16).build()
        assert small_chunk.stream_batch_tiles(tiling) == 1


class TestMemmapOutput:
    def test_out_dir_roundtrip(self, engine, layout, tmp_path,
                               reference_image_layout):
        out_dir = str(tmp_path / "streamed")
        reference = reference_image_layout(engine, layout, guard_px=8)
        result = engine.image_layout(layout, guard_px=8, out_dir=out_dir)
        assert isinstance(result.aerial, np.memmap)
        assert result.out_dir == out_dir
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)

        aerial, resist, meta = open_layout_dir(out_dir)
        np.testing.assert_array_equal(np.asarray(aerial), reference.aerial)
        np.testing.assert_array_equal(np.asarray(resist), reference.resist)
        assert meta["shape"] == list(layout.shape)
        assert meta["tile_px"] == 32 and meta["guard_px"] == 8
        assert meta["num_tiles"] == reference.num_tiles
        assert meta["aerial_dtype"] == "float64"
        assert meta["backend"] == engine.backend.name
        assert meta["precision"] == engine.precision.name

    def test_open_layout_dir_requires_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_layout_dir(str(tmp_path))

    def test_memmap_layout_input_streams(self, engine, layout, tmp_path,
                                         reference_image_layout):
        """An np.load(..., mmap_mode='r') layout goes straight through."""
        path = str(tmp_path / "layout.npy")
        np.save(path, layout)
        mapped = np.load(path, mmap_mode="r")
        reference = reference_image_layout(engine, layout, guard_px=8)
        streamed = engine.image_layout(mapped, guard_px=8)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)

    def test_out_dir_files_exist(self, engine, layout, tmp_path):
        out_dir = str(tmp_path / "d")
        engine.image_layout(layout, guard_px=8, out_dir=out_dir)
        assert sorted(os.listdir(out_dir)) == ["aerial.npy", "meta.json",
                                               "resist.npy"]


class TestDenseInputCastPerWindow:
    def test_uint8_memmap_is_never_cast_wholesale(self, engine, tmp_path,
                                                  reference_image_layout):
        """Tiles are cut straight into the engine dtype: imaging a uint8
        memmap into an out_dir allocates far less than a float64 copy."""
        layout = (np.random.default_rng(4).random((1024, 1024)) > 0.7
                  ).astype(np.uint8)
        path = str(tmp_path / "layout.npy")
        np.save(path, layout)
        mapped = np.load(path, mmap_mode="r")
        out_dir = str(tmp_path / "out")
        tracemalloc.start()
        try:
            result = engine.image_layout(mapped, guard_px=0, out_dir=out_dir,
                                         batch_tiles=16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        float_copy = layout.size * np.dtype(np.float64).itemsize
        assert peak < float_copy / 4, \
            f"peak {peak / 2**20:.1f} MiB vs float copy {float_copy / 2**20:.0f} MiB"
        reference = reference_image_layout(engine, layout, guard_px=0)
        np.testing.assert_array_equal(np.asarray(result.aerial),
                                      reference.aerial)
        np.testing.assert_array_equal(np.asarray(result.resist),
                                      reference.resist)
