"""Content-addressed tile-result cache: image each unique tile once.

Real layouts are overwhelmingly repetitive — instance arrays, standard-cell
rows, vast empty regions — yet the engine would happily image every
guard-banded tile from scratch even when its pixel content is byte-identical
to a tile it imaged a microsecond earlier.  This module memoises *aerial tile
images* by content: a tile's guard-banded pixels are hashed
(:func:`tile_digest`), the digest is combined with everything else that
determines the aerial result — the kernel-bank fingerprint, the FFT backend,
the precision policy, the tile geometry and the evaluator
(:class:`TileCacheContext`) — and the imaged tile is stored under that key.
A later tile with the same key is served from the cache **bit for bit**:
per-tile work (FFTs, per-slice ``matmul``) is independent of batch
composition (pinned), so imaging a deduplicated sub-batch and scattering the
results back is indistinguishable from imaging the full batch.

Two tiers, mirroring :class:`~repro.engine.cache.KernelBankCache`:

* an in-process LRU tier bounded by ``max_bytes`` (oldest entries evicted
  first, so a huge layout cannot exhaust RAM through its own cache), and
* an optional disk tier (``cache_dir`` or the ``REPRO_TILE_CACHE_DIR``
  environment variable for the default cache) persisting each imaged tile as
  a compressed ``.npz``, so repeated CLI runs and resumed campaigns skip the
  FFTs entirely.

The all-zero fast path never touches either tier: an empty reticle tile
images to exactly zero under every backend and precision (the DFT of an
exactly-zero array is exactly ±0 and ``|0|^2`` is ``+0``), so zero tiles —
detected upstream without rasterising via ``window_is_empty`` and tagged
with :data:`ZERO_TILE_DIGEST` — are filled with ``0.0`` directly.

:class:`TileCacheStats` counts every served tile (memory hits, zero hits,
disk loads) and every miss, giving tests and the CLI an observable dedup
rate with zero recomputation.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..backend import resolve_precision

#: Sentinel digest for an all-zero (empty reticle) guard-banded tile.  Not a
#: hex hash on purpose: zero tiles are served by the constant fast path and
#: must never collide with a content digest.
ZERO_TILE_DIGEST = "zero"

#: Default in-memory budget: enough for ~2000 float64 256px tiles while
#: staying far from typical container limits.
DEFAULT_MAX_BYTES = 512 * 2 ** 20


def tile_digest(tile: np.ndarray) -> str:
    """Content digest of one guard-banded tile (shape + dtype + bytes)."""
    tile = np.ascontiguousarray(tile)
    header = f"{tile.shape}|{tile.dtype.str}|".encode("utf-8")
    return hashlib.sha1(header + tile.tobytes()).hexdigest()


@dataclass(frozen=True)
class TileCacheContext:
    """Everything besides pixel content that determines an aerial tile.

    Two tiles may share identical pixels yet image differently when any of
    these differ, so all of them join the cache key: the kernel-bank
    fingerprint (optics + truncation order + band limiting), the FFT backend
    name, the precision policy name, the tile geometry, and the batched
    core's evaluator (:func:`~repro.engine.batched.chunk_evaluator` — the
    GEMM and FFT evaluators agree only to ~1e-15, so a disk tier written by
    one must never serve the other).
    """

    kernel_fingerprint: str
    backend: str
    precision: str
    tile_px: int
    guard_px: int
    evaluator: str = "fft"

    def key_prefix(self) -> str:
        return (f"{self.kernel_fingerprint}|backend={self.backend}"
                f"|prec={self.precision}|tile={self.tile_px}"
                f"|guard={self.guard_px}|eval={self.evaluator}|")


@dataclass
class TileCacheStats:
    """Observable counters; ``tiles == hits + zero_hits + disk_loads + misses``."""

    tiles: int = 0
    hits: int = 0
    zero_hits: int = 0
    disk_loads: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def served(self) -> int:
        """Tiles that skipped imaging entirely."""
        return self.hits + self.zero_hits + self.disk_loads

    @property
    def hit_rate(self) -> float:
        return self.served / self.tiles if self.tiles else 0.0


class TileResultCache:
    """Thread-safe content-addressed cache of imaged aerial tiles.

    Parameters
    ----------
    cache_dir:
        Optional directory for on-disk persistence of imaged tiles (created
        on first write).  ``None`` keeps the cache purely in-memory.
    max_bytes:
        In-memory LRU budget.  The newest entry always stays resident even
        when it alone exceeds the budget, so a pathological budget can slow
        the cache down but never break it.
    """

    def __init__(self, cache_dir: Optional[str] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.cache_dir = cache_dir
        self.max_bytes = int(max_bytes)
        self.stats = TileCacheStats()
        self._memory: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._memory_bytes = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # the dedup entry point
    # ------------------------------------------------------------------ #
    def image_tile_batch(self, tiles: np.ndarray, digests: Sequence[str],
                         image_batch: Callable[[np.ndarray], np.ndarray],
                         context: TileCacheContext) -> np.ndarray:
        """Image a batch through the cache: unique misses only, then scatter.

        ``tiles`` is the guard-banded ``(N, tile_px, tile_px)`` stack and
        ``digests`` its per-tile content digests (``ZERO_TILE_DIGEST`` marks
        all-zero tiles).  ``image_batch`` is called **at most once**, on the
        sub-stack of first-occurrence misses; every other row is served from
        the zero fast path, the in-memory tier, the disk tier, or its
        within-batch duplicate.  The returned stack is bit-for-bit what
        ``image_batch(tiles)`` would have produced.
        """
        tiles = np.asarray(tiles)
        if len(digests) != len(tiles):
            raise ValueError(
                f"{len(digests)} digests for {len(tiles)} tiles")
        real_dtype = resolve_precision(context.precision).real_dtype
        out = np.empty(tiles.shape, dtype=real_dtype)
        prefix = context.key_prefix()
        # key -> rows of the batch it serves; the first row is the one imaged.
        pending: "OrderedDict[str, List[int]]" = OrderedDict()
        with self._lock:
            self.stats.tiles += len(tiles)
            for index, digest in enumerate(digests):
                if digest == ZERO_TILE_DIGEST:
                    out[index] = 0.0
                    self.stats.zero_hits += 1
                    continue
                key = prefix + digest
                rows = pending.get(key)
                if rows is not None:
                    rows.append(index)
                    self.stats.hits += 1
                    continue
                cached = self._lookup(key)
                if cached is not None:
                    out[index] = cached
                    continue
                pending[key] = [index]
                self.stats.misses += 1
        if pending:
            first_rows = [rows[0] for rows in pending.values()]
            imaged = np.asarray(image_batch(tiles[np.asarray(first_rows)]))
            for result, rows in zip(imaged, pending.values()):
                for index in rows:
                    out[index] = result
            with self._lock:
                for result, key in zip(imaged, pending):
                    self._store(key, result)
        return out

    # ------------------------------------------------------------------ #
    # tiers (lock held by callers)
    # ------------------------------------------------------------------ #
    def _lookup(self, key: str) -> Optional[np.ndarray]:
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return cached
        loaded = self._load_from_disk(key)
        if loaded is not None:
            self.stats.disk_loads += 1
            self._admit(key, loaded)  # promote without re-writing the file
            return loaded
        return None

    def _store(self, key: str, value: np.ndarray) -> None:
        if key not in self._memory:
            self._admit(key, value)
            self._save_to_disk(key, value)

    def _admit(self, key: str, value: np.ndarray) -> None:
        self._memory[key] = value
        self._memory_bytes += value.nbytes
        while self._memory_bytes > self.max_bytes and len(self._memory) > 1:
            _, evicted = self._memory.popitem(last=False)
            self._memory_bytes -= evicted.nbytes
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters (disk is kept)."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
            self.stats = TileCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    # ------------------------------------------------------------------ #
    # on-disk persistence (same `.npz` protocol as KernelBankCache)
    # ------------------------------------------------------------------ #
    def _disk_path(self, key: str) -> Optional[str]:
        if not self.cache_dir:
            return None
        digest = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return os.path.join(self.cache_dir, f"tiles-{digest}.npz")

    def _save_to_disk(self, key: str, value: np.ndarray) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        np.savez_compressed(path, tile=value)

    def _load_from_disk(self, key: str) -> Optional[np.ndarray]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        with np.load(path) as data:
            return np.ascontiguousarray(data["tile"])


_default_cache: Optional[TileResultCache] = None


def default_tile_cache() -> TileResultCache:
    """The process-wide tile cache (disk tier from ``REPRO_TILE_CACHE_DIR``)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = TileResultCache(
            cache_dir=os.environ.get("REPRO_TILE_CACHE_DIR"))
    return _default_cache


def configure_default_tile_cache(cache_dir: Optional[str] = None,
                                 max_bytes: int = DEFAULT_MAX_BYTES,
                                 ) -> TileResultCache:
    """Replace the process-wide tile cache (e.g. to point it at a directory)."""
    global _default_cache
    _default_cache = TileResultCache(cache_dir=cache_dir, max_bytes=max_bytes)
    return _default_cache


def resolve_tile_cache(tile_cache=None) -> Optional[TileResultCache]:
    """Normalise the user-facing ``tile_cache`` argument to a cache or ``None``.

    * a :class:`TileResultCache` instance — used as-is,
    * ``True`` — the process-wide default cache,
    * ``False`` — caching off, regardless of the environment,
    * ``None`` — consult the environment: ``REPRO_TILE_CACHE`` switches the
      default cache on (any value but ``0``/``false``/``no``/``off``), and
      setting ``REPRO_TILE_CACHE_DIR`` alone also implies on.
    """
    if isinstance(tile_cache, TileResultCache):
        return tile_cache
    if tile_cache is True:
        return default_tile_cache()
    if tile_cache is False:
        return None
    if tile_cache is not None:
        raise TypeError(
            f"tile_cache must be a TileResultCache, bool or None, "
            f"got {tile_cache!r}")
    flag = os.environ.get("REPRO_TILE_CACHE")
    if flag is not None:
        if flag.strip().lower() in ("", "0", "false", "no", "off"):
            return None
        return default_tile_cache()
    if os.environ.get("REPRO_TILE_CACHE_DIR"):
        return default_tile_cache()
    return None


def attach_tile_cache(instance: Optional[TileResultCache],
                      flag: Optional[bool]) -> Optional[TileResultCache]:
    """A constructor's tile cache: the live ``instance`` when given, else its
    ``ComputeConfig.tile_cache`` on/off ``flag`` via :func:`resolve_tile_cache`.
    """
    if instance is None:
        return resolve_tile_cache(flag)
    if not isinstance(instance, TileResultCache):
        raise TypeError(
            f"tile_cache= takes a TileResultCache instance, got {instance!r}; "
            f"switch caching on or off with compute=ComputeConfig(tile_cache=)")
    return instance
