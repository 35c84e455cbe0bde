"""The two layout-imaging workloads: ``dense-2048`` and ``gds-aref``.

Both time warm :func:`repro.api.image_layout` calls, serial
(``num_workers=1``), with the compute policy passed explicitly.

* ``dense-2048`` images a synthetic B2m raster with the tile cache off.  Its
  time sits in the batched SOCS core and the FFT backend, and it bypasses
  the layout readers and the tile cache.
* ``gds-aref`` images a hierarchical binary GDSII chip (random leaf cells
  2x2 in a block, the block AREF'd at twice the tile-core pitch) through the
  lazy reader with a fresh in-memory tile cache per call, so the hit rate
  measures repetition within the chip.  Its time sits in the reader, the
  digests, the cache and the stitch.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.api as api
from repro.backend import ComputeConfig, get_backend
from repro.engine import tile_cache as tile_cache_module
from repro.engine import tiling as tiling_module
from repro.engine.cache import KernelBankCache
from repro.engine.execution import ExecutionEngine
from repro.engine.sharded import EngineSpec
from repro.engine.tile_cache import TileResultCache, \
    configure_default_tile_cache
from repro.layout.gdsii import GDSBoundary, GDSCell, GDSReference, write_gds
from repro.layout.hierarchy import HierarchicalLayoutReader
from repro.layout.sources import load_layout_source, synthesize_layout_mask
from repro.optics.aerial import aerial_from_kernels
from repro.optics.resist import ConstantThresholdResist
from repro.optics.simulator import OpticsConfig

from benchlib import Phase, Probes, Tracer

#: Sampled tiles checked against the seed oracle per output.
ORACLE_TILES = 4
#: Largest error of a sampled tile against ``aerial_from_kernels``, as a
#: share of the tile's peak intensity.  The batched core agrees to ~1e-13 in
#: float64; 1e-6 also admits float32 and named-tolerance fast paths.
ORACLE_RTOL = 1e-6

#: Guard band of the default bank's 256 px tiles (one 7 px kernel window).
GUARD_PX = 7
#: Rectangles per random leaf cell (fixed, so cost does not vary by seed).
LEAF_RECTS = 6
#: Side of the square anchors pinning every leaf's bounding box to its cell.
ANCHOR_NM = 8


def imaging_compute(tile_cache: bool) -> ComputeConfig:
    """Serial, single-threaded FFTs: on 2 shared CPUs a second FFT thread
    made the op 25 % faster but 35 % slower whenever another process was
    busy, and the benchmark must read the same on a busy neighbour."""
    return ComputeConfig(fft_backend="scipy", fft_workers=1,
                         precision="float64", tile_cache=tile_cache,
                         scheduler="serial")


def output_digest(image) -> str:
    """Content hash of a LayoutImage's aerial + resist rasters."""
    digest = hashlib.sha1()
    for array in (image.aerial, image.resist):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.shape}|{array.dtype.str}|".encode())
        digest.update(memoryview(array).cast("B"))
    return digest.hexdigest()


def _nbytes(result) -> int:
    tiles = result[0] if isinstance(result, tuple) else result
    return int(tiles.nbytes)


def install_imaging_probes(probes: Probes) -> None:
    """Spans around every layer an ``image_layout`` call passes through."""
    probes.method(HierarchicalLayoutReader, "read_window", "layout.read_window",
                  counts=lambda args, result, state, elapsed: {
                      "layout.read_window.calls": 1,
                      "layout.read_window.candidates":
                          args[0].last_candidates})
    probes.method(HierarchicalLayoutReader, "window_is_empty",
                  "layout.window_is_empty")
    probes.function(tiling_module, "extract_tile_batch", "tiling.extract",
                    counts=lambda args, result, state, elapsed: {
                        "tiling.extract.tiles": len(args[1]),
                        "tiling.bytes_computed": _nbytes(result)})
    probes.function(tiling_module, "extract_tiles", "tiling.extract")
    probes.function(tiling_module, "stitch_into", "tiling.stitch")
    probes.function(tiling_module, "stitch_tiles", "tiling.stitch")
    probes.function(tile_cache_module, "tile_digest", "tile_cache.digest",
                    counts=lambda args, result, state, elapsed: {
                        "tile_cache.bytes_hashed_computed": args[0].nbytes})
    probes.method(TileResultCache, "image_tile_batch", "tile_cache")
    install_core_probes(probes)


def install_core_probes(probes: Probes) -> None:
    """Spans around the batched SOCS core, the FFTs, resist and kernel banks
    (shared with the training workload's ``predict_batch``)."""
    probes.method(ExecutionEngine, "aerial_batch", "socs",
                  counts=lambda args, result, state, elapsed: {
                      "socs.calls": 1, "socs.tiles": len(args[1])})
    backend_type = type(get_backend("scipy"))
    probes.method(backend_type, "rfft2", "fft.rfft2",
                  counts=lambda args, result, state, elapsed: {
                      "fft.rfft2.calls": 1,
                      "fft.points_computed": np.size(args[1])})
    probes.method(backend_type, "irfft2", "fft.irfft2",
                  counts=lambda args, result, state, elapsed: {
                      "fft.irfft2.calls": 1,
                      "fft.points_computed": np.size(result)})
    probes.method(ConstantThresholdResist, "develop", "resist.develop")
    probes.method(KernelBankCache, "get_kernels", "kernel_cache",
                  before=lambda args: args[0].stats.misses,
                  counts=_kernel_cache_counts)


def _kernel_cache_counts(args, result, misses_before, elapsed):
    missed = args[0].stats.misses > misses_before
    return {"kernel_cache.lookups": 1,
            "kernel_cache.misses": int(missed),
            "kernel_cache.build_s": elapsed if missed else 0.0}


def core_layer_metrics(tracer: Tracer, run_ids: set, ops: int,
                       setup_counters: Dict[str, float],
                       loop_counters: Dict[str, float]
                       ) -> Dict[str, Tuple[float, str]]:
    """Per-op SOCS / FFT / resist figures and per-set-up kernel-bank figures."""
    tiles = loop_counters.get("socs.tiles", 0.0)
    socs_busy = tracer.busy("socs", run_ids)
    return {
        "socs.calls": (loop_counters.get("socs.calls", 0.0) / ops, "count"),
        "socs.tiles": (tiles / ops, "count"),
        "socs.busy_s": (socs_busy / ops, "s"),
        "socs.s_per_tile": (socs_busy / tiles if tiles else 0.0, "s"),
        "fft.rfft2.calls": (loop_counters.get("fft.rfft2.calls", 0.0) / ops,
                            "count"),
        "fft.rfft2.busy_s": (tracer.busy("fft.rfft2", run_ids) / ops, "s"),
        "fft.irfft2.calls": (loop_counters.get("fft.irfft2.calls", 0.0) / ops,
                             "count"),
        "fft.irfft2.busy_s": (tracer.busy("fft.irfft2", run_ids) / ops, "s"),
        "fft.points_computed": (
            loop_counters.get("fft.points_computed", 0.0) / ops, "points"),
        "resist.develop.busy_s": (
            tracer.busy("resist.develop", run_ids) / ops, "s"),
        "kernel_cache.lookups": (
            setup_counters.get("kernel_cache.lookups", 0.0), "count"),
        "kernel_cache.misses": (
            setup_counters.get("kernel_cache.misses", 0.0), "count"),
        "kernel_cache.build_s": (
            setup_counters.get("kernel_cache.build_s", 0.0), "s"),
    }


class _ImagingWorkload:
    """Shared loop: time ``image_layout`` calls, check every output."""

    tile_cache = False

    def __init__(self, seed: int, small: bool, workdir: str):
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.optics = OpticsConfig()  # 1 nm px, 256 px tiles, 8x7x7 bank
        self.compute = imaging_compute(self.tile_cache)
        self.layout = None
        self.reference_digest: Optional[str] = None
        self.oracles: List[Tuple[object, np.ndarray]] = []
        self.last_cache: Optional[TileResultCache] = None
        #: Outcomes of checks made during set-up, counted with the first phase.
        self.pending_checks: List[Tuple[bool, str]] = []

    # -- one timed operation ------------------------------------------- #
    def image(self):
        if self.tile_cache:
            self.last_cache = configure_default_tile_cache()
        return api.image_layout(self.layout, self.optics,
                                compute=self.compute)

    @property
    def area_um2(self) -> float:
        height, width = self.layout.shape
        return height * width * (self.optics.pixel_size_nm * 1e-3) ** 2

    def environment(self) -> Dict[str, object]:
        return {"compute": self.compute.as_dict()}

    # -- checks ---------------------------------------------------------- #
    def _kernels(self) -> np.ndarray:
        spec = EngineSpec(config=self.optics, compute=self.compute)
        cache = KernelBankCache(
            cache_dir=os.environ["REPRO_KERNEL_CACHE_DIR"])
        return spec.build(cache=cache).kernels

    def _sample_oracles(self, image, source) -> None:
        """Seed-oracle aerials of a few sampled tile cores of ``source``."""
        placements = tiling_module.plan_tiles(*self.layout.shape, image.tiling)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(placements),
                           size=min(ORACLE_TILES, len(placements)),
                           replace=False)
        kernels = self._kernels()
        guard = image.tiling.guard_px
        for pick in sorted(int(p) for p in picks):
            place = placements[pick]
            tile = tiling_module.extract_tile_batch(source, [place],
                                                    image.tiling)[0]
            aerial = aerial_from_kernels(tile, kernels)
            self.oracles.append((place, aerial[guard:guard + place.core_h,
                                               guard:guard + place.core_w]))

    def check(self, image) -> Tuple[bool, str]:
        for place, expected in self.oracles:
            got = image.aerial[place.row:place.row + place.core_h,
                               place.col:place.col + place.core_w]
            error = float(np.max(np.abs(got - expected)))
            scale = float(np.max(np.abs(expected))) or 1.0
            if not error <= ORACLE_RTOL * scale:
                return False, (f"tile at ({place.row}, {place.col}) is "
                               f"{error / scale:.2e} off the oracle")
        if output_digest(image) != self.reference_digest:
            return False, "output differs from the untraced reference"
        return True, ""

    # -- measurement ----------------------------------------------------- #
    def run(self, seconds: float, tracer: Optional[Tracer],
            first_run_id: int = 0) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not phase.attempted:
            run_id = first_run_id + phase.attempted
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.run_id = run_id
                    with tracer.span("op"):
                        image = self.image()
                    tracer.run_id = -1
                    self._count_cache(tracer)
                else:
                    image = self.image()
                phase.latencies.append(time.perf_counter() - t0)
                ok, problem = self.check(image)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                ok, problem = False, repr(exc)
            phase.outcome(ok, problem)
            image = None
        if phase.latencies:
            busy = sum(phase.latencies)
            phase.figures["layout_um2_per_s"] = (
                self.area_um2 * len(phase.latencies) / busy, "um2/s")
        return phase

    def _count_cache(self, tracer: Tracer) -> None:
        stats = self.last_cache.stats if self.last_cache else None
        if stats is not None:
            tracer.count("tile_cache.tiles", stats.tiles)
            tracer.count("tile_cache.hits", stats.served)
            tracer.count("tile_cache.misses", stats.misses)

    def install_probes(self, probes: Probes) -> None:
        install_imaging_probes(probes)

    def layer_metrics(self, tracer: Tracer, run_ids: set, ops: int,
                      setup_counters: Dict[str, float],
                      loop_counters: Dict[str, float]
                      ) -> Dict[str, Tuple[float, str]]:
        tiles = loop_counters.get("tile_cache.tiles", 0.0)
        self_times = tracer.self_times(run_ids)
        loads = tracer.durations("layout.load")
        metrics = {
            "layout.load_s": (statistics.median(loads) if loads else 0.0, "s"),
            "layout.read_window.calls": (
                loop_counters.get("layout.read_window.calls", 0.0) / ops,
                "count"),
            "layout.read_window.busy_s": (
                tracer.busy("layout.read_window", run_ids) / ops, "s"),
            "layout.read_window.candidates": (
                loop_counters.get("layout.read_window.candidates", 0.0) / ops,
                "count"),
            "tiling.extract.tiles": (
                loop_counters.get("tiling.extract.tiles", 0.0) / ops, "count"),
            "tiling.extract.busy_s": (
                tracer.busy("tiling.extract", run_ids) / ops, "s"),
            "tiling.stitch.busy_s": (
                tracer.busy("tiling.stitch", run_ids) / ops, "s"),
            "tiling.bytes_computed": (
                loop_counters.get("tiling.bytes_computed", 0.0) / ops, "B"),
            "tile_cache.tiles": (tiles / ops, "count"),
            "tile_cache.hits": (
                loop_counters.get("tile_cache.hits", 0.0) / ops, "count"),
            "tile_cache.misses": (
                loop_counters.get("tile_cache.misses", 0.0) / ops, "count"),
            "tile_cache.hit_rate": (
                loop_counters.get("tile_cache.hits", 0.0) / tiles
                if tiles else 0.0, "share"),
            "tile_cache.self_s": (self_times.get("tile_cache", 0.0) / ops,
                                  "s"),
            "tile_cache.bytes_hashed_computed": (
                loop_counters.get("tile_cache.bytes_hashed_computed", 0.0)
                / ops, "B"),
        }
        metrics.update(core_layer_metrics(tracer, run_ids, ops,
                                          setup_counters, loop_counters))
        return metrics

    def close(self) -> None:
        self.layout = None


class DenseWorkload(_ImagingWorkload):
    """``dense-2048``: a 2048x2048 B2m raster, 81 tiles, tile cache off."""

    name = "dense-2048"
    tile_cache = False

    @property
    def side_px(self) -> int:
        return 512 if self.small else 2048

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.layout = synthesize_layout_mask(
            self.side_px, self.side_px, self.optics.tile_size_px,
            self.optics.pixel_size_nm, "B2m", self.seed)
        self.image()  # cold kernel bank; later calls are warm

    def prepare_checks(self) -> None:
        reference = self.image()
        self.reference_digest = output_digest(reference)
        self.num_tiles = reference.num_tiles
        self._sample_oracles(reference, self.layout)

    def describe(self) -> Dict[str, object]:
        return {"layout_px": list(self.layout.shape),
                "layout_um2": self.area_um2,
                "tiles": self.num_tiles, "tile_cache": False}


class GdsWorkload(_ImagingWorkload):
    """``gds-aref``: a hierarchical .gds chip through the lazy reader."""

    name = "gds-aref"
    tile_cache = True

    @property
    def blocks(self) -> int:
        """Blocks per side.  8 (256 tiles, ~0.5 s a call) rather than 12
        (576 tiles, ~1.3 s): a 20 s run then holds ~35 calls, enough for
        a steady median and a tail above it on a noisy 2-CPU host."""
        return 3 if self.small else 8

    def _cell_nm(self) -> int:
        """Leaf pitch = one tile core, so the block pitch is two cores."""
        core_px = self.optics.tile_size_px - 2 * GUARD_PX
        return int(round(core_px * self.optics.pixel_size_nm))

    def write_chip(self, path: str) -> None:
        """Random leaf cells 2x2 in a block, the block AREF'd blocks^2."""
        rng = np.random.default_rng(self.seed)
        cell = self._cell_nm()

        def rect(x, y, w, h):
            return GDSBoundary(1, ((x, y), (x + w, y), (x + w, y + h),
                                   (x, y + h)))

        cells = {}
        leaves = []
        for index in range(4):
            name = f"LEAF{index}"
            shapes = [rect(0, 0, ANCHOR_NM, ANCHOR_NM),
                      rect(cell - ANCHOR_NM, cell - ANCHOR_NM,
                           ANCHOR_NM, ANCHOR_NM)]
            for _ in range(LEAF_RECTS):
                horizontal = bool(rng.integers(2))
                long_side = int(rng.integers(60, cell // 2))
                short_side = int(rng.integers(16, 40))
                w, h = (long_side, short_side) if horizontal \
                    else (short_side, long_side)
                x = int(rng.integers(ANCHOR_NM, cell - ANCHOR_NM - w))
                y = int(rng.integers(ANCHOR_NM, cell - ANCHOR_NM - h))
                shapes.append(rect(x, y, w, h))
            cells[name] = GDSCell(name, boundaries=shapes, references=[])
            leaves.append(name)
        cells["BLOCK"] = GDSCell("BLOCK", boundaries=[], references=[
            GDSReference(leaves[0], (0, 0)),
            GDSReference(leaves[1], (cell, 0)),
            GDSReference(leaves[2], (0, cell)),
            GDSReference(leaves[3], (cell, cell)),
        ])
        pitch = 2 * cell
        cells["CHIP"] = GDSCell("CHIP", boundaries=[], references=[
            GDSReference("BLOCK", (0, 0), columns=self.blocks,
                         rows=self.blocks, column_vector=(pitch, 0),
                         row_vector=(0, pitch)),
        ])
        write_gds(cells, path, unit_nm=1.0, name="PERFBENCH")

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.path = os.path.join(self.workdir, "chip.gds")
        self.write_chip(self.path)
        with tracer.span("layout.load") if tracer else nullcontext():
            self.layout = load_layout_source(self.path,
                                             self.optics.pixel_size_nm)
        self.image()  # cold kernel bank; later calls are warm

    def prepare_checks(self) -> None:
        """Image the flattened (non-hierarchical) layout once, cache off."""
        flat = self.layout.flatten()
        reference = api.image_layout(flat, self.optics,
                                     compute=imaging_compute(False))
        self.reference_digest = output_digest(reference)
        self._sample_oracles(reference, flat)
        del reference
        cached = self.image()
        self.unique_tiles = self.last_cache.stats.misses
        self.pending_checks.append(self.check(cached))

    def describe(self) -> Dict[str, object]:
        stats = self.last_cache.stats
        return {"layout_px": list(self.layout.shape),
                "layout_um2": self.area_um2,
                "tiles": stats.tiles, "unique_tiles": self.unique_tiles,
                "blocks": f"{self.blocks}x{self.blocks}",
                "tile_cache": "fresh in-memory per call"}
