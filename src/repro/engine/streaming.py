"""Layout imaging: the one loop from a layout to stitched aerial / resist rasters.

Both ``image_layout`` implementations — the engine's and the sharded
executor's — run :func:`stream_image_layout`, which images an arbitrarily
large layout in **O(tile-batch) RAM**:

1. tile *placements* are planned up front (cheap metadata, no pixels),
2. a generator cuts guard-banded tiles for one bounded batch of placements at
   a time (:func:`iter_tile_batches`) — the full tile stack never exists.
   Dense inputs are cut window-by-window straight into the engine's real
   dtype, so even a ``uint8`` memmap is never cast wholesale,
3. an optional tile-result cache reduces each batch to its unique contents,
4. the batch is imaged by the caller's *runner* — an engine's
   ``aerial_batch``, or a sharded executor's — and
5. each batch's interior cores are stitched **incrementally** into a
   preallocated output — a plain array (developed in one pass at the end), or
   a ``numpy.memmap`` when an ``out_dir`` is given (developed batch by batch),
   so even the stitched result needn't fit in RAM.

Because every batch is fully consumed (copied out) before the next one is
requested, a device-resident engine passes a single reusable host
staging buffer as ``aerial_batch``'s ``out=`` — downloads land in pinned
memory (where the backend provides it) and the per-batch host allocation
disappears; ``ExecutionEngine.image_layout`` wires this up automatically.

Bit-for-bit guarantee
---------------------
Per-tile FFT work is independent of how the batch axis is chunked (the
invariant pinned by ``tests/test_engine.py``), every layout pixel
belongs to exactly one tile core, and resist development is elementwise.
The stitched result is therefore **bit for bit** what imaging the whole
tile stack at once and stitching it would give, whatever the batch size,
guard band, backend or precision — pinned by ``tests/test_streaming.py``
against a reference rebuilt from the tiling primitives.

Memmap directory layout (``out_dir``)
-------------------------------------
``out_dir/`` holds self-describing ``.npy`` memmaps plus a JSON sidecar:

* ``aerial.npy``  — stitched aerial intensities, shape ``(H, W)``, the
  engine's real dtype (float64 / float32), written via
  ``numpy.lib.format.open_memmap`` so ``np.load(..., mmap_mode="r")`` reads
  it without copying;
* ``resist.npy``  — developed binary resist, shape ``(H, W)``, uint8;
* ``meta.json``   — provenance: layout shape, dtypes, tile/guard geometry,
  tile count and the writing engine's backend/precision names.

The files are preallocated at full size before imaging starts and filled
core-by-core; :func:`open_layout_dir` reopens a completed directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .tiling import (
    TilePlacement,
    TilingSpec,
    extract_tile_batch,
    plan_tiles,
    stitch_into,
)

AERIAL_FILE = "aerial.npy"
RESIST_FILE = "resist.npy"
META_FILE = "meta.json"


@dataclass(frozen=True)
class LayoutImage:
    """Result of imaging a full layout: stitched aerial + resist + provenance.

    ``aerial`` / ``resist`` are plain arrays, or ``numpy.memmap`` views when
    the layout was imaged into an ``out_dir`` (recorded here; ``None``
    otherwise).
    """

    aerial: np.ndarray
    resist: np.ndarray
    tiling: TilingSpec
    num_tiles: int
    out_dir: Optional[str] = None

    @property
    def shape(self) -> Tuple[int, int]:
        return self.aerial.shape


def iter_tile_batches(layout,
                      placements: Sequence[TilePlacement],
                      spec: TilingSpec, batch_tiles: int,
                      with_digests: bool = False,
                      ) -> Iterator[Tuple[np.ndarray, List[TilePlacement]]]:
    """Yield ``(tiles, placements)`` batches of at most ``batch_tiles`` tiles.

    Tiles are cut lazily per batch, so only ``batch_tiles`` guard-banded
    tiles are ever resident; ``layout`` may itself be a ``numpy.memmap`` or
    a windowed :class:`repro.layout.LayoutReader` — with a reader the tiles
    are rasterised window-by-window and the dense raster never exists, so
    peak RAM for layout data is O(one batch) end to end.

    With ``with_digests=True`` each batch is a ``(tiles, digests,
    placements)`` triple — per-tile content digests for the tile-result
    cache, computed during extraction so the tiles are hashed while still
    hot in cache (see :func:`~repro.engine.tiling.extract_tile_batch`).
    """
    if batch_tiles < 1:
        raise ValueError("batch_tiles must be at least 1")
    for start in range(0, len(placements), batch_tiles):
        subset = list(placements[start:start + batch_tiles])
        if with_digests:
            # Unpacked in place: a suspended generator keeps no reference to
            # the batch, so the consumer can free its masks early.
            yield (*extract_tile_batch(layout, subset, spec,
                                       with_digests=True), subset)
        else:
            yield extract_tile_batch(layout, subset, spec), subset


def _preallocate(out_dir: Optional[str], name: str, shape: Tuple[int, int],
                 dtype) -> np.ndarray:
    """An ``(H, W)`` output: in-memory, or a ``.npy`` memmap under ``out_dir``."""
    if out_dir is None:
        return np.empty(shape, dtype=dtype)  # the tile cores cover every pixel
    os.makedirs(out_dir, exist_ok=True)
    return np.lib.format.open_memmap(os.path.join(out_dir, name), mode="w+",
                                     dtype=np.dtype(dtype), shape=shape)


def stream_image_layout(layout, engine, tiling: TilingSpec,
                        image_batch: Callable[[np.ndarray], np.ndarray],
                        batch_tiles: int, out_dir: Optional[str] = None,
                        meta: Optional[dict] = None, tile_cache=None,
                        ) -> LayoutImage:
    """Image a layout tile-stream into preallocated aerial / resist rasters.

    Parameters
    ----------
    layout:
        A dense ``(H, W)`` array or ``numpy.memmap`` (cut into tiles of the
        engine's real dtype window by window, never cast as a whole), or a
        windowed layout reader (which keeps its own window dtype).
    engine:
        The :class:`~repro.engine.execution.ExecutionEngine` the result
        follows: its precision sets the output dtype, its resist model
        develops the resist (elementwise, so per-batch development equals
        whole-raster development exactly), and it keys the tile cache.
    image_batch:
        The runner: ``(B, tile, tile) -> (B, tile, tile)`` aerial imaging of
        one bounded batch — the engine's ``aerial_batch`` or a sharded
        executor's.
    batch_tiles:
        Tiles per batch; peak RAM is O(this batch), independent of the
        layout size.
    out_dir:
        When given, aerial / resist become disk-backed memmaps in the
        documented directory layout and ``meta.json`` (plus ``meta``) is
        written on success.
    tile_cache:
        Optional :class:`~repro.engine.tile_cache.TileResultCache`: each
        batch is deduplicated to its unique tile contents, ``image_batch``
        sees only first-occurrence misses, and results are scattered back
        before the stitch — bit-for-bit the uncached stream (per-tile FFT
        work is independent of batch composition).

    Returns a :class:`LayoutImage`; its arrays are memmaps (flushed before
    returning) when ``out_dir`` was given.
    """
    real_dtype = engine.precision.real_dtype
    if not hasattr(layout, "read_window"):
        from ..layout.reader import ArrayLayoutReader

        layout = ArrayLayoutReader(layout, dtype=real_dtype)
    if len(layout.shape) != 2:
        raise ValueError("layout must be a 2-D image")
    height, width = layout.shape
    placements = plan_tiles(height, width, tiling)
    cache_context = engine.tile_cache_context(tiling) \
        if tile_cache is not None else None

    aerial = _preallocate(out_dir, AERIAL_FILE, (height, width), real_dtype)
    resist = None if out_dir is None else \
        _preallocate(out_dir, RESIST_FILE, (height, width), np.uint8)

    for batch in iter_tile_batches(layout, placements, tiling, batch_tiles,
                                   with_digests=tile_cache is not None):
        if tile_cache is not None:
            tiles, digests, subset = batch
            aerial_tiles = tile_cache.image_tile_batch(
                tiles, digests, image_batch, cache_context)
        else:
            tiles, subset = batch
            aerial_tiles = image_batch(tiles)
        del batch, tiles  # free the masks before any stitch temporaries
        stitch_into(aerial, aerial_tiles, subset, tiling)
        if resist is not None:
            # Memmap sinks develop per batch (elementwise, so bit-identical)
            # and never need the whole aerial in RAM.
            stitch_into(resist, engine.resist_model.develop(aerial_tiles),
                        subset, tiling)
    if resist is None:
        resist = engine.resist_model.develop(aerial)

    if out_dir is not None:
        aerial.flush()
        resist.flush()
        payload = {
            "shape": [int(height), int(width)],
            "aerial_dtype": str(np.dtype(real_dtype)),
            "resist_dtype": "uint8",
            "tile_px": int(tiling.tile_px),
            "guard_px": int(tiling.guard_px),
            "num_tiles": len(placements),
            "backend": engine.backend.name,
            "precision": engine.precision.name,
        }
        payload.update(meta or {})
        with open(os.path.join(out_dir, META_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return LayoutImage(aerial=aerial, resist=resist, tiling=tiling,
                       num_tiles=len(placements), out_dir=out_dir)


def open_layout_dir(out_dir: str, mmap_mode: str = "r",
                    ) -> Tuple[np.ndarray, np.ndarray, dict]:
    """Reopen a streamed layout directory as ``(aerial, resist, meta)``.

    Arrays come back as read-only memmaps (``mmap_mode="r"``), so inspecting
    a huge streamed result costs no RAM beyond the pages actually touched.
    """
    meta_path = os.path.join(out_dir, META_FILE)
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{out_dir} is not a completed streamed-layout directory "
            f"(missing {META_FILE})")
    with open(meta_path, "r", encoding="utf-8") as handle:
        meta = json.load(handle)
    aerial = np.load(os.path.join(out_dir, AERIAL_FILE), mmap_mode=mmap_mode)
    resist = np.load(os.path.join(out_dir, RESIST_FILE), mmap_mode=mmap_mode)
    return aerial, resist, meta
