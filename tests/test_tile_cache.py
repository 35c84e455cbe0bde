"""Tests for the content-addressed tile-result cache (repro.engine.tile_cache).

Pinned guarantees:

* deduplicated imaging is **bit-for-bit** the uncached result — across FFT
  backends (numpy / scipy), precisions (float64 / float32), serial and
  sharded execution, single- and multi-batch runs, including a hypothesis
  sweep over random layout geometries,
* a 2x2 instance array of one cell images exactly one unique tile; the
  other three are served from the cache (:class:`TileCacheStats` observable),
* all-zero tiles are served by the constant fast path without ever calling
  the imaging function,
* ``extract_tile_batch`` writes every row of its ``np.empty`` allocation
  (the satellite that dropped the ``np.zeros`` memset),
* ``window_is_empty`` agrees with ``read_window(...).any()`` on both bundled
  readers, including bucket-grid candidates that do not really intersect,
* the disk tier round-trips imaged tiles to a fresh cache instance, and the
  LRU tier evicts oldest-first under a byte budget,
* the batched core's evaluator is part of the key, so a disk entry written
  under the pre-evaluator prefix misses instead of serving a tile from the
  other evaluator, and
* a campaign store accumulates the sweep's cache counters and the rendered
  report shows them.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import ComputeConfig
from repro.engine import (
    ZERO_TILE_DIGEST,
    ExecutionEngine,
    ShardedExecutor,
    TileCacheContext,
    TileResultCache,
    TilingSpec,
    extract_tile_batch,
    plan_tiles,
    resolve_tile_cache,
    tile_digest,
)
from repro.engine import tile_cache as tile_cache_module
from repro.layout import ArrayLayoutReader, GeometryLayoutReader
from repro.masks.geometry import Rect
from repro.optics import OpticsConfig
from repro.optics.source import CircularSource

CONFIG = OpticsConfig(tile_size_px=32, pixel_size_nm=8.0, max_socs_order=8)
SOURCE = CircularSource(sigma=0.6)

CONTEXT = TileCacheContext(kernel_fingerprint="bank", backend="numpy",
                           precision="float64", tile_px=4, guard_px=0)


def counting(function):
    """Wrap an image_batch callable, recording every batch it was handed."""
    batches = []

    def wrapper(tiles):
        batches.append(np.array(tiles))
        return function(tiles)

    wrapper.batches = batches
    return wrapper


@functools.lru_cache(maxsize=None)
def engine_pair(backend, precision):
    """(uncached, cached) engines sharing optics; kernel banks come from the
    process-wide kernel cache, so each pair is built once per session."""
    compute = ComputeConfig(fft_backend=backend, precision=precision)
    build = functools.partial(ExecutionEngine.for_optics, CONFIG,
                              source=SOURCE)
    return (build(compute=compute.replace(tile_cache=False)),
            build(compute=compute, tile_cache=TileResultCache()))


class TestTileDigest:
    def test_content_addressing(self):
        tile = np.arange(16.0).reshape(4, 4)
        assert tile_digest(tile) == tile_digest(tile.copy())
        assert tile_digest(tile) != tile_digest(tile + 1)
        assert tile_digest(tile) != tile_digest(tile.astype(np.float32))
        assert tile_digest(tile) != tile_digest(tile.reshape(2, 8))
        assert tile_digest(tile) != ZERO_TILE_DIGEST

    def test_key_prefix_separates_policies(self):
        prefixes = {
            CONTEXT.key_prefix(),
            dataclasses.replace(CONTEXT, backend="scipy").key_prefix(),
            dataclasses.replace(CONTEXT, precision="float32").key_prefix(),
            dataclasses.replace(CONTEXT, guard_px=8).key_prefix(),
            dataclasses.replace(CONTEXT, kernel_fingerprint="x").key_prefix(),
        }
        assert len(prefixes) == 5


class TestExtractTileBatchDigests:
    LAYOUT = np.zeros((64, 64))
    LAYOUT[8:24, 8:24] = 1.0  # content only in the top-left tile

    def test_digest_mode_matches_plain_mode(self):
        spec = TilingSpec(tile_px=32, guard_px=8)
        placements = plan_tiles(*self.LAYOUT.shape, spec)
        plain = extract_tile_batch(self.LAYOUT, placements, spec)
        tiles, digests = extract_tile_batch(self.LAYOUT, placements, spec,
                                            with_digests=True)
        np.testing.assert_array_equal(tiles, plain)
        assert len(digests) == len(tiles)
        for tile, digest in zip(tiles, digests):
            if tile.any():
                assert digest == tile_digest(tile)
            else:
                assert digest == ZERO_TILE_DIGEST

    def test_every_row_is_written(self, monkeypatch):
        """Pin the np.zeros -> np.empty switch: poison the allocation with
        NaNs and require that extraction fully overwrites every row."""
        real_empty = np.empty

        def poisoned_empty(shape, dtype=float, **kwargs):
            out = real_empty(shape, dtype=dtype, **kwargs)
            if np.issubdtype(out.dtype, np.floating):
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned_empty)
        spec = TilingSpec(tile_px=32, guard_px=8)
        placements = plan_tiles(*self.LAYOUT.shape, spec)
        for with_digests in (False, True):
            result = extract_tile_batch(self.LAYOUT, placements, spec,
                                        with_digests=with_digests)
            tiles = result[0] if with_digests else result
            assert np.isfinite(tiles).all()

    def test_reader_empty_windows_skip_rasterising(self):
        """A reader advertising window_is_empty never gets read_window calls
        for windows its geometry proves empty."""
        reader = GeometryLayoutReader({"m1": [Rect(0, 0, 64, 64)]},
                                      pixel_size_nm=8.0, extent_nm=512.0)
        reads = []
        real_read = reader.read_window
        reader.read_window = lambda *args: (reads.append(args),
                                            real_read(*args))[1]
        spec = TilingSpec(tile_px=32, guard_px=0)
        placements = plan_tiles(*reader.shape, spec)
        tiles, digests = extract_tile_batch(reader, placements, spec,
                                            with_digests=True)
        assert digests.count(ZERO_TILE_DIGEST) == len(placements) - 1
        assert len(reads) == 1  # only the one non-empty tile was rasterised
        np.testing.assert_array_equal(
            tiles, extract_tile_batch(reader, placements, spec))


class TestWindowIsEmpty:
    def scan(self, reader):
        for row in range(-8, reader.shape[0] + 8, 5):
            for col in range(-8, reader.shape[1] + 8, 5):
                empty = reader.window_is_empty(row, col, 12, 12)
                assert empty == (not reader.read_window(row, col,
                                                        12, 12).any())

    def test_array_reader_agrees_with_read_window(self):
        layout = np.zeros((40, 56))
        layout[10:20, 30:44] = 1.0
        self.scan(ArrayLayoutReader(layout))

    def test_geometry_reader_agrees_with_read_window(self):
        reader = GeometryLayoutReader(
            {"m1": [Rect(64, 80, 80, 48)], "m2": [Rect(240, 8, 32, 96)]},
            pixel_size_nm=8.0, extent_nm=448.0)
        self.scan(reader)

    def test_geometry_candidate_must_really_intersect(self):
        """A shape sharing the query's bucket but not its extent is not a
        hit: the interval check, not the bucket grid, decides emptiness."""
        reader = GeometryLayoutReader({"m1": [Rect(0, 0, 16, 16)]},
                                      pixel_size_nm=8.0, extent_nm=1024.0,
                                      bucket_px=64)
        # Same bucket as the 2x2 px rect at the origin, no real overlap.
        assert reader.window_is_empty(10, 10, 20, 20)
        assert not reader.window_is_empty(0, 0, 20, 20)

    def test_validates_window_dims(self):
        for reader in (ArrayLayoutReader(np.zeros((8, 8))),
                       GeometryLayoutReader({"m1": [Rect(0, 0, 8, 8)]},
                                            pixel_size_nm=8.0,
                                            extent_nm=64.0)):
            with pytest.raises(ValueError):
                reader.window_is_empty(0, 0, 0, 4)
            with pytest.raises(ValueError):
                reader.window_is_empty(0, 0, 4, -1)


class TestTileResultCache:
    def batch(self):
        tile_a = np.full((4, 4), 2.0)
        tile_b = np.arange(16.0).reshape(4, 4)
        tiles = np.stack([tile_a, tile_b, tile_a, np.zeros((4, 4))])
        digests = [tile_digest(tile_a), tile_digest(tile_b),
                   tile_digest(tile_a), ZERO_TILE_DIGEST]
        return tiles, digests

    def test_images_unique_tiles_once_and_scatters(self):
        cache = TileResultCache()
        tiles, digests = self.batch()
        image = counting(lambda batch: batch * 3.0)
        out = cache.image_tile_batch(tiles, digests, image, CONTEXT)
        assert len(image.batches) == 1
        np.testing.assert_array_equal(image.batches[0], tiles[:2])
        np.testing.assert_array_equal(out[:3], tiles[:3] * 3.0)
        np.testing.assert_array_equal(out[3], 0.0)
        assert dataclasses.asdict(cache.stats) == {
            "tiles": 4, "hits": 1, "zero_hits": 1, "disk_loads": 0,
            "misses": 2, "evictions": 0}

    def test_second_batch_is_served_entirely_from_memory(self):
        cache = TileResultCache()
        tiles, digests = self.batch()
        first = cache.image_tile_batch(tiles, digests,
                                       lambda batch: batch * 3.0, CONTEXT)
        image = counting(lambda batch: batch * 3.0)
        second = cache.image_tile_batch(tiles, digests, image, CONTEXT)
        assert image.batches == []  # nothing imaged the second time
        np.testing.assert_array_equal(second, first)
        assert cache.stats.misses == 2 and cache.stats.served == 6

    def test_zero_fast_path_never_calls_image_batch(self):
        cache = TileResultCache()
        tiles = np.zeros((3, 4, 4))
        image = counting(lambda batch: batch)
        out = cache.image_tile_batch(tiles, [ZERO_TILE_DIGEST] * 3, image,
                                     CONTEXT)
        assert image.batches == []
        np.testing.assert_array_equal(out, 0.0)
        assert cache.stats.zero_hits == 3 and len(cache) == 0

    def test_output_dtype_follows_precision_not_input(self):
        cache = TileResultCache()
        tiles, digests = self.batch()
        context = dataclasses.replace(CONTEXT, precision="float32")
        out = cache.image_tile_batch(
            tiles, digests,
            lambda batch: (batch * 3.0).astype(np.float32), context)
        assert out.dtype == np.float32

    def test_lru_evicts_oldest_under_byte_budget(self):
        tile = np.zeros((4, 4))
        cache = TileResultCache(max_bytes=int(tile.nbytes * 1.5))
        for value in (1.0, 2.0, 3.0):
            cache.image_tile_batch(np.full((1, 4, 4), value),
                                   [tile_digest(np.full((4, 4), value))],
                                   lambda batch: batch, CONTEXT)
        assert len(cache) == 1 and cache.stats.evictions == 2
        # The newest entry survived; the oldest must be re-imaged.
        image = counting(lambda batch: batch)
        cache.image_tile_batch(np.full((1, 4, 4), 3.0),
                               [tile_digest(np.full((4, 4), 3.0))],
                               image, CONTEXT)
        assert image.batches == []
        cache.image_tile_batch(np.full((1, 4, 4), 1.0),
                               [tile_digest(np.full((4, 4), 1.0))],
                               image, CONTEXT)
        assert len(image.batches) == 1

    def test_disk_tier_round_trips_to_a_fresh_cache(self, tmp_path):
        tiles, digests = self.batch()
        warm = TileResultCache(cache_dir=str(tmp_path))
        expected = warm.image_tile_batch(tiles, digests,
                                         lambda batch: batch * 3.0, CONTEXT)
        cold = TileResultCache(cache_dir=str(tmp_path))
        image = counting(lambda batch: batch * 3.0)
        out = cold.image_tile_batch(tiles, digests, image, CONTEXT)
        assert image.batches == []  # every tile came from disk or the batch
        np.testing.assert_array_equal(out, expected)
        assert cold.stats.disk_loads == 2
        assert cold.stats.misses == 0

    def test_clear_keeps_disk(self, tmp_path):
        tiles, digests = self.batch()
        cache = TileResultCache(cache_dir=str(tmp_path))
        cache.image_tile_batch(tiles, digests, lambda batch: batch, CONTEXT)
        cache.clear()
        assert len(cache) == 0 and cache.stats.tiles == 0
        cache.image_tile_batch(tiles, digests, lambda batch: batch, CONTEXT)
        assert cache.stats.disk_loads == 2

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            TileResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            TileResultCache().image_tile_batch(
                np.zeros((2, 4, 4)), ["only-one"], lambda batch: batch,
                CONTEXT)

    def test_resolve_tile_cache(self, monkeypatch):
        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        monkeypatch.delenv("REPRO_TILE_CACHE", raising=False)
        monkeypatch.delenv("REPRO_TILE_CACHE_DIR", raising=False)
        cache = TileResultCache()
        assert resolve_tile_cache(cache) is cache
        assert resolve_tile_cache(False) is None
        assert resolve_tile_cache(None) is None
        assert resolve_tile_cache(True) is tile_cache_module.default_tile_cache()
        with pytest.raises(TypeError):
            resolve_tile_cache("yes")
        monkeypatch.setenv("REPRO_TILE_CACHE", "1")
        assert resolve_tile_cache(None) is not None
        monkeypatch.setenv("REPRO_TILE_CACHE", "off")
        assert resolve_tile_cache(None) is None
        monkeypatch.delenv("REPRO_TILE_CACHE")
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", "/tmp/somewhere")
        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        resolved = resolve_tile_cache(None)
        assert resolved is not None
        assert resolved.cache_dir == "/tmp/somewhere"


class TestEvaluatorInCacheKey:
    """The batched core's evaluator joins the key: the GEMM and FFT
    evaluators agree only to ~1e-15, so a disk tier persisted by one must
    never serve the other."""

    def test_evaluators_get_distinct_prefixes(self):
        gemm = dataclasses.replace(CONTEXT, evaluator="gemm")
        assert "|eval=gemm|" in gemm.key_prefix()
        assert gemm.key_prefix() != CONTEXT.key_prefix()

    def test_disk_entry_under_pre_evaluator_prefix_misses(self, tmp_path):
        kernels = np.random.default_rng(5).standard_normal((3, 7, 7)) + 0.5j
        engine = ExecutionEngine(kernels, tile_size_px=64,
                                 compute=ComputeConfig(fft_backend="numpy",
                                                       tile_cache=False))
        tiling = TilingSpec(tile_px=64, guard_px=0)
        context = engine.tile_cache_context(tiling)
        assert context.evaluator == "gemm"
        tiles = (np.random.default_rng(6).random((1, 64, 64)) > 0.5) \
            .astype(float)
        digest = tile_digest(tiles[0])
        # What a build without the evaluator in its key persisted (an
        # FFT-evaluator tile; a sentinel value makes a wrong hit obvious).
        old_key = (f"{context.kernel_fingerprint}|backend={context.backend}"
                   f"|prec={context.precision}|tile={context.tile_px}"
                   f"|guard={context.guard_px}|{digest}")
        TileResultCache(cache_dir=str(tmp_path))._save_to_disk(
            old_key, np.full((64, 64), -1.0))
        cache = TileResultCache(cache_dir=str(tmp_path))
        image = counting(engine.aerial_batch)
        out = cache.image_tile_batch(tiles, [digest], image, context)
        assert cache.stats.misses == 1 and cache.stats.disk_loads == 0
        assert len(image.batches) == 1
        np.testing.assert_array_equal(out, engine.aerial_batch(tiles))
        # The stale file is still there: it was skipped, not overwritten.
        assert cache._load_from_disk(old_key)[0, 0] == -1.0


class TestCachedImagingBitForBit:
    def test_instance_array_images_one_unique_tile(self):
        """2x2 array of one 32 px cell: 4 tiles, 1 imaged, 3 from cache."""
        rng = np.random.default_rng(7)
        cell = (rng.random((32, 32)) > 0.7).astype(float)
        layout = np.tile(cell, (2, 2))
        plain, cached = engine_pair("numpy", "float64")
        cache = cached.tile_cache
        cache.clear()
        reference = plain.image_layout(layout, tile_px=32, guard_px=0)
        result = cached.image_layout(layout, tile_px=32, guard_px=0)
        np.testing.assert_array_equal(result.aerial, reference.aerial)
        np.testing.assert_array_equal(result.resist, reference.resist)
        assert cache.stats.tiles == 4
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3

    def test_all_zero_layout_is_never_imaged(self):
        _, cached = engine_pair("numpy", "float64")
        cache = cached.tile_cache
        cache.clear()
        result = cached.image_layout(np.zeros((64, 96)), tile_px=32,
                                     guard_px=0)
        np.testing.assert_array_equal(result.aerial, 0.0)
        assert cache.stats.zero_hits == result.num_tiles
        assert cache.stats.misses == 0

    @pytest.mark.parametrize("backend,precision", [
        ("numpy", "float64"),
        ("numpy", "float32"),
        ("scipy", "float64"),
        ("scipy", "float32"),
    ])
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), guard=st.sampled_from([0, 8]),
           height=st.integers(33, 70), width=st.integers(33, 96))
    def test_dedup_is_bit_for_bit(self, reference_image_layout, backend,
                                  precision, seed, guard, height, width):
        """Cached == uncached, bit for bit, across backends, precisions and
        single- / multi-batch runs, on random repetitive layouts."""
        if backend == "scipy":
            pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(seed)
        layout = np.zeros((height, width))
        for _ in range(int(rng.integers(0, 5))):
            row, col = rng.integers(0, height), rng.integers(0, width)
            layout[row:row + int(rng.integers(1, 20)),
                   col:col + int(rng.integers(1, 20))] = 1.0
        plain, cached = engine_pair(backend, precision)
        reference = reference_image_layout(plain, layout, tile_px=32,
                                           guard_px=guard)
        dense = cached.image_layout(layout, tile_px=32, guard_px=guard)
        streamed = cached.image_layout(layout, tile_px=32, guard_px=guard,
                                       batch_tiles=3)
        np.testing.assert_array_equal(dense.aerial, reference.aerial)
        np.testing.assert_array_equal(dense.resist, reference.resist)
        np.testing.assert_array_equal(streamed.aerial, reference.aerial)
        np.testing.assert_array_equal(streamed.resist, reference.resist)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("batch_tiles", [None, 3])
    def test_sharded_dedup_is_bit_for_bit(self, tmp_path, precision,
                                          batch_tiles, reference_image_layout):
        """Parent-side dedup in ShardedExecutor matches the uncached
        whole-stack result exactly, in one batch or many."""
        from repro.engine import EngineSpec

        layout = np.zeros((80, 110))
        layout[10:70, 20:28] = 1.0
        layout[30:38, 40:100] = 1.0
        spec = EngineSpec(config=CONFIG, source=SOURCE,
                          compute=ComputeConfig(precision=precision))
        cache = TileResultCache()
        reference = reference_image_layout(spec.build(), layout, guard_px=8)
        with ShardedExecutor(num_workers=2, cache_dir=str(tmp_path),
                             tile_cache=cache) as executor:
            result = executor.image_layout(spec, layout, guard_px=8,
                                           batch_tiles=batch_tiles)
        np.testing.assert_array_equal(result.aerial, reference.aerial)
        np.testing.assert_array_equal(result.resist, reference.resist)
        assert cache.stats.tiles == reference.num_tiles
        assert cache.stats.misses < cache.stats.tiles  # zero tiles dedup


class TestSweepIntegration:
    def test_store_accumulates_cache_counters_and_report_renders(
            self, tmp_path):
        from repro.sweep import (FocusExposureGrid, ProcessWindowSweep,
                                 load_campaign_report,
                                 render_campaign_report)

        layout = np.zeros((64, 64))
        layout[8:56, 28:36] = 1.0
        grid = FocusExposureGrid((0.0, 80.0), (1.0,))
        store_dir = str(tmp_path / "store")
        cache = TileResultCache()
        with ShardedExecutor(num_workers=1,
                             cache_dir=str(tmp_path / "banks"),
                             tile_cache=cache) as executor:
            sweep = ProcessWindowSweep(CONFIG, source=SOURCE,
                                       executor=executor)
            sweep.run(layout, grid=grid, tolerance=0.3, guard_px=8,
                      store=store_dir)
        stats = dataclasses.asdict(cache.stats)
        assert stats["tiles"] > 0
        from repro.sweep import CampaignStore

        stored = CampaignStore(store_dir).read_manifest()["tile_cache"]
        assert stored == {key: value for key, value in stats.items()}
        report = load_campaign_report(store_dir)
        rendered = render_campaign_report(report)
        assert "tile cache" in rendered
        assert f"{cache.stats.served}/{cache.stats.tiles} tiles" in rendered

    def test_cache_persists_across_foci(self, tmp_path):
        """One cache serves every focus; banks differ per focus so tiles are
        *namespaced* per kernel fingerprint, never served across foci."""
        from repro.sweep import FocusExposureGrid, ProcessWindowSweep

        rng = np.random.default_rng(3)
        cell = (rng.random((32, 32)) > 0.7).astype(float)
        layout = np.tile(cell, (2, 2))
        grid = FocusExposureGrid((0.0, 80.0), (0.9, 1.0, 1.1))
        cache = TileResultCache()
        with ShardedExecutor(num_workers=1,
                             cache_dir=str(tmp_path / "banks"),
                             tile_cache=cache) as executor:
            ProcessWindowSweep(CONFIG, source=SOURCE, executor=executor).run(
                layout, target_cd_nm=100.0, grid=grid, tolerance=0.3,
                guard_px=0)
        # One aerial per focus (doses rescale the threshold, not the
        # aerial), 4 tiles each, 1 unique cell per focus.
        assert cache.stats.tiles == 8
        assert cache.stats.misses == 2
        assert cache.stats.hits == 6


class TestCLI:
    def test_image_layout_warm_run_serves_everything(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.cli import main
        from repro.engine import configure_default_tile_cache

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        arguments = ["image-layout", "--width", "64", "--height", "64",
                     "--tile-size", "32", "--pixel-size-nm", "8",
                     "--guard", "0", "--tile-cache",
                     "--output", str(tmp_path / "aerial.npz")]
        configure_default_tile_cache(str(tmp_path / "tile-cache"))
        assert main(arguments) == 0
        cold = capsys.readouterr().out
        assert "tile cache:" in cold
        # Fresh in-memory tier, same disk tier: the warm run images nothing.
        configure_default_tile_cache(str(tmp_path / "tile-cache"))
        assert main(arguments) == 0
        warm = capsys.readouterr().out
        assert "100.0% hit rate, 0 imaged" in warm

    def test_no_tile_cache_flag_disables_env(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main

        monkeypatch.setattr(tile_cache_module, "_default_cache", None)
        monkeypatch.setenv("REPRO_TILE_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["image-layout", "--width", "32", "--height", "32",
                     "--tile-size", "32", "--pixel-size-nm", "8",
                     "--guard", "0", "--no-tile-cache",
                     "--output", str(tmp_path / "aerial.npz")]) == 0
        assert "tile cache:" not in capsys.readouterr().out
