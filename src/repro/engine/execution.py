"""The unified forward-lithography execution engine.

``ExecutionEngine`` is the one object the rest of the codebase images masks
through.  It owns a fixed frequency-domain kernel bank — golden SOCS kernels,
learned Nitho kernels, anything of shape ``(r, n, m)`` — and provides:

* vectorised single-tile and batched imaging (:meth:`aerial`,
  :meth:`aerial_batch`, :meth:`resist`, :meth:`resist_batch`) built on
  :mod:`repro.engine.batched`,
* large-layout imaging (:meth:`image_layout`) through the guard-banded
  tiling loop in :mod:`repro.engine.streaming`, lifting the historical
  "exactly one tile" restriction,
* construction from an optics description (:meth:`for_optics`) through the
  process-wide kernel-bank cache in :mod:`repro.engine.cache`, so the TCC +
  eigendecomposition for a given optics fingerprint happens at most once per
  process no matter how many simulators, experiments or benchmarks ask, and
* the compute policy knobs of :mod:`repro.backend`: ``fft_backend`` /
  ``fft_workers`` select the FFT implementation (numpy, multi-threaded
  scipy, or anything registered), ``precision`` selects the float64 / float32
  dtype pair the whole pipeline runs at (the kernel bank is cast once at
  construction; the cache keys banks by precision so dtypes never mix).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from ..backend import (
    FLOAT64,
    ComputeConfig,
    FFTBackend,
    Precision,
    apply_legacy_kwargs,
    as_array_module,
    autotune_precision,
    get_backend,
    is_auto_precision,
    resolve_precision,
)
from ..optics.resist import ConstantThresholdResist
from .batched import (
    DEFAULT_MAX_CHUNK_BYTES,
    DFTOperators,
    batched_aerial_from_kernels,
    chunk_evaluator,
    dft_operators,
    effective_chunk_tiles,
)
from .cache import KernelBankCache, default_kernel_cache
from .streaming import LayoutImage, stream_image_layout
from .tile_cache import TileCacheContext, resolve_tile_cache
from .tiling import TilingSpec, default_guard_px


# --------------------------------------------------------------------------- #
# device-resident kernel banks
# --------------------------------------------------------------------------- #
#: Most device banks the process-wide memo retains (LRU).  A campaign visits
#: one bank per (focus, precision); an evicted bank re-uploads in one
#: transfer, whereas an unbounded memo would pin every bank of a long sweep
#: in device memory.
DEVICE_BANK_LIMIT = 8

#: (kernel fingerprint, device tag, operator geometry) -> device-resident
#: kernel bank + GEMM operators.  The device-side mirror of
#: :class:`~repro.engine.cache.KernelBankCache`: keyed by content + device so
#: every engine sharing a bank (and backend module) shares ONE upload — the
#: transfer-count tests pin "bank uploaded once per fingerprint, not once per
#: chunk or per batch".
_DEVICE_BANKS: "OrderedDict[Tuple[str, str, object], tuple]" = OrderedDict()


def device_kernel_bank(module, fingerprint: str, kernels: np.ndarray,
                       operators: Optional[DFTOperators] = None):
    """``(kernels, operators)`` on the device, uploaded at most once.

    ``module`` is a resident :class:`~repro.backend.ArrayModule`; the memo
    key pairs the engine's kernel fingerprint with the module's device tag,
    so distinct devices (or dtypes — the fingerprint hashes dtype + bytes)
    never share a bank.  The GEMM evaluator's ``operators``, when given, are
    packed into the bank's single upload (one memo entry per geometry);
    otherwise the second item is ``None``.
    """
    key = (fingerprint, f"{module.name}:{module.device}",
           None if operators is None else operators.key)
    bank = _DEVICE_BANKS.get(key)
    if bank is None:
        if operators is None:
            bank = (module.asarray(kernels), None)
        else:
            device_kernels, *arrays = module.asarray_packed(
                (kernels,) + operators.arrays)
            bank = (device_kernels, operators.with_arrays(arrays))
        _DEVICE_BANKS[key] = bank
        while len(_DEVICE_BANKS) > DEVICE_BANK_LIMIT:
            _DEVICE_BANKS.popitem(last=False)
    else:
        _DEVICE_BANKS.move_to_end(key)
    return bank


class ExecutionEngine:
    """Batched, cached, tiling-aware forward lithography from a kernel bank."""

    def __init__(self, kernels: np.ndarray, resist_threshold: float = 0.225,
                 tile_size_px: Optional[int] = None,
                 band_limited: bool = True,
                 max_chunk_bytes: int = DEFAULT_MAX_CHUNK_BYTES,
                 fft_backend: Optional[Union[FFTBackend, str]] = None,
                 fft_workers: Optional[int] = None,
                 precision: Optional[Union[Precision, str]] = None,
                 tile_cache=None,
                 compute: Optional[ComputeConfig] = None):
        kernels = np.asarray(kernels)
        if kernels.ndim != 3:
            raise ValueError("kernels must have shape (r, n, m)")
        # The loose per-knob kwargs are deprecated in favour of one
        # serialisable ``compute=ComputeConfig(...)``.  Rich instances
        # (FFTBackend / Precision / TileResultCache) are not expressible in
        # a config — strip them out before the shim so they keep working
        # warning-free.
        backend_instance = fft_backend \
            if isinstance(fft_backend, FFTBackend) else None
        if backend_instance is not None:
            fft_backend = None
        precision_policy = precision if isinstance(precision, Precision) \
            else None
        if precision_policy is not None:
            precision = None
        tile_cache_obj = None
        if tile_cache is not None and not isinstance(tile_cache, bool):
            tile_cache_obj, tile_cache = tile_cache, None
        compute = apply_legacy_kwargs(
            compute, "ExecutionEngine", fft_backend=fft_backend,
            fft_workers=fft_workers, precision=precision,
            tile_cache=tile_cache)
        #: The names-only compute policy this engine was built with (live
        #: objects — an injected FFTBackend / Precision / TileResultCache —
        #: live on :attr:`backend` / :attr:`precision` / :attr:`tile_cache`).
        self.compute = compute
        #: Precision policy of every array this engine touches (masks cast on
        #: the way in, kernels cast once here, intensities come back real).
        #: The deferred ``"auto"`` spelling is resolved right here, against
        #: this bank: float32 exactly when the bank's SOCS truncation error
        #: already dominates the float32 dtype error (measured once).
        requested_precision = precision_policy if precision_policy is not None \
            else compute.precision
        self.precision = autotune_precision(kernels) \
            if is_auto_precision(requested_precision) \
            else resolve_precision(requested_precision)
        if backend_instance is not None:
            if compute.fft_workers is not None:
                raise ValueError(
                    "fft_workers cannot be applied to an already-constructed "
                    "FFTBackend instance; pass a backend name instead")
            self.backend = backend_instance
        else:
            self.backend = get_backend(compute.fft_backend,
                                       workers=compute.fft_workers)
        self.kernels = kernels.astype(self.precision.complex_dtype)
        self.resist_model = ConstantThresholdResist(resist_threshold)
        #: Tile size the kernel bank was calibrated for.  The kernels sample
        #: frequencies at spacing ``1 / (tile_size_px * pixel_size)``, so
        #: imaging masks of a different size re-interprets them on a
        #: different physical grid; layout tiling always uses this size.
        self.tile_size_px = tile_size_px
        self.band_limited = band_limited
        self.max_chunk_bytes = max_chunk_bytes
        #: Content-addressed tile-result cache (None = caching off).  A
        #: TileResultCache instance / True / False / None — None consults
        #: REPRO_TILE_CACHE / REPRO_TILE_CACHE_DIR (see resolve_tile_cache).
        self.tile_cache = resolve_tile_cache(
            tile_cache_obj if tile_cache_obj is not None
            else compute.tile_cache)
        self._kernel_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_optics(cls, config, source=None, pupil=None,
                   cache: Optional[KernelBankCache] = None,
                   precision: Optional[Union[Precision, str]] = None,
                   compute: Optional[ComputeConfig] = None,
                   **kwargs) -> "ExecutionEngine":
        """Engine for an optics description, kernels served by the shared cache.

        ``source`` / ``pupil`` default to the golden simulator's defaults
        (annular illumination, ideal pupil plus the configured defocus).
        ``precision`` keys the cache lookup, so a float32 engine receives a
        complex64 bank and never re-casts per batch.  ``"auto"`` first pulls
        the float64 master bank (computed at most once per fingerprint
        anyway), autotunes against it, then fetches the bank at the chosen
        precision — a float32 verdict costs one cached cast, never a second
        decomposition.  ``compute`` carries the whole policy as one
        :class:`~repro.backend.ComputeConfig` (its ``precision`` field is
        honoured when the ``precision`` argument is unset); the loose
        per-knob kwargs remain accepted via the constructor's shim.
        """
        from ..optics.pupil import Pupil
        from ..optics.source import AnnularSource

        source = source or AnnularSource(sigma_inner=0.5, sigma_outer=0.8)
        pupil = pupil or Pupil(defocus_nm=config.defocus_nm)
        # "cache or default" would discard an *empty* injected cache, because
        # KernelBankCache defines __len__ and a fresh cache is falsy.
        cache = default_kernel_cache() if cache is None else cache
        if precision is None and compute is not None:
            precision = compute.precision
        if is_auto_precision(precision):
            master = cache.get_kernels(config, source, pupil,
                                       precision=FLOAT64)
            precision = autotune_precision(master.kernels)
        else:
            precision = resolve_precision(precision)
        bank = cache.get_kernels(config, source, pupil, precision=precision)
        kwargs.setdefault("resist_threshold", config.resist_threshold)
        kwargs.setdefault("tile_size_px", config.tile_size_px)
        if compute is not None:
            # Precision is passed as the resolved policy object below; a
            # stale name in the config would shadow the autotune verdict.
            compute = compute.replace(precision=None)
        return cls(bank.kernels, precision=precision, compute=compute,
                   **kwargs)

    # ------------------------------------------------------------------ #
    # kernel bank
    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        return self.kernels.shape[0]

    @property
    def kernel_shape(self) -> Tuple[int, int]:
        return self.kernels.shape[1], self.kernels.shape[2]

    def truncate(self, order: int) -> "ExecutionEngine":
        """New engine keeping only the ``order`` most energetic kernels."""
        if order <= 0:
            raise ValueError("order must be positive")
        if order > self.order:
            raise ValueError(
                f"cannot truncate to {order} kernels: only {self.order} available")
        return type(self)(self.kernels[:order],
                          resist_threshold=self.resist_model.threshold,
                          tile_size_px=self.tile_size_px,
                          band_limited=self.band_limited,
                          max_chunk_bytes=self.max_chunk_bytes,
                          fft_backend=self.backend,
                          precision=self.precision,
                          # A live cache is shared as-is; otherwise caching
                          # stays off regardless of the environment.
                          tile_cache=self.tile_cache,
                          compute=ComputeConfig(tile_cache=False)
                          if self.tile_cache is None else None)

    def kernel_energy(self) -> np.ndarray:
        """Per-kernel energy ``sum |K_i|^2`` — proportional to the SOCS eigenvalues."""
        return np.sum(np.abs(self.kernels) ** 2, axis=(1, 2))

    def kernel_fingerprint(self) -> str:
        """Content hash of the kernel bank (+ band limiting), computed once.

        Identifies everything about *this engine's kernels* that determines
        an aerial tile: the bank's values (which already encode optics,
        truncation order and precision — the bank is cast at construction)
        and the band-limited evaluation mode.  Chunk size and the resist
        threshold are excluded: the former never changes results (pinned),
        the latter only affects development.  This is the kernel component
        of the tile-result cache key, so two engines sharing a bank share
        cached tiles.
        """
        if self._kernel_fingerprint is None:
            bank = np.ascontiguousarray(self.kernels)
            digest = hashlib.sha1()
            digest.update(f"{bank.shape}|{bank.dtype.str}|".encode("utf-8"))
            digest.update(bank.tobytes())
            digest.update(f"|band={self.band_limited}".encode("utf-8"))
            self._kernel_fingerprint = digest.hexdigest()
        return self._kernel_fingerprint

    def evaluator(self, mask_shape: Tuple[int, int],
                  output_shape: Optional[Tuple[int, int]] = None) -> str:
        """The batched core's evaluator for masks of ``mask_shape``."""
        return chunk_evaluator(self.kernel_shape, mask_shape,
                               mask_shape if output_shape is None
                               else output_shape,
                               band_limited=self.band_limited)

    def tile_cache_context(self, tiling: TilingSpec) -> TileCacheContext:
        """The non-content components of this engine's tile-cache key."""
        tile = (tiling.tile_px, tiling.tile_px)
        return TileCacheContext(kernel_fingerprint=self.kernel_fingerprint(),
                                backend=self.backend.name,
                                precision=self.precision.name,
                                tile_px=tiling.tile_px,
                                guard_px=tiling.guard_px,
                                evaluator=self.evaluator(tile))

    # ------------------------------------------------------------------ #
    # imaging
    # ------------------------------------------------------------------ #
    def aerial_batch(self, masks: np.ndarray,
                     output_shape: Optional[Tuple[int, int]] = None,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
        """Aerial images of a mask batch ``(B, H, W)`` in one vectorised pass.

        On a device-resident backend the kernel bank goes up through the
        process-wide :func:`device_kernel_bank` memo — one upload per
        (fingerprint, device), shared by every engine and every batch — and
        each chunk pays exactly one mask upload + one intensity download.
        ``out`` optionally receives the results (:meth:`image_layout`'s
        reusable staging buffer); contents are identical either way.
        """
        masks = np.stack([self.precision.as_real(mask) for mask in masks], axis=0) \
            if isinstance(masks, (list, tuple)) else self.precision.as_real(masks)
        kernels, operators = self.kernels, None
        module = as_array_module(self.backend)
        if module.is_resident:
            shape = masks.shape[-2:]
            out_shape = shape if output_shape is None else output_shape
            if self.evaluator(shape, out_shape) == "gemm":
                operators = dft_operators(*shape, *out_shape,
                                          *self.kernel_shape, self.precision)
            kernels, operators = device_kernel_bank(
                module, self.kernel_fingerprint(), self.kernels, operators)
        return batched_aerial_from_kernels(
            masks, kernels, output_shape=output_shape,
            band_limited=self.band_limited,
            max_chunk_bytes=self.max_chunk_bytes,
            backend=self.backend, precision=self.precision, out=out,
            operators=operators)

    def aerial(self, mask: np.ndarray) -> np.ndarray:
        """Aerial image of one mask tile.

        Dispatches straight to the single-tile reference path (no batch
        stacking / chunk bookkeeping), which is the faster option for one
        tile.  Masks of a size other than :attr:`tile_size_px` are accepted
        but re-interpret the bank on a different frequency grid — exact only
        at the calibrated tile size.
        """
        from ..optics.aerial import aerial_from_kernels

        mask = self.precision.as_real(mask)
        if mask.ndim != 2:
            raise ValueError("mask must be a 2-D image")
        return aerial_from_kernels(mask, self.kernels, backend=self.backend)

    def resist_batch(self, masks: np.ndarray) -> np.ndarray:
        return self.resist_model.develop(self.aerial_batch(masks))

    def resist(self, mask: np.ndarray) -> np.ndarray:
        return self.resist_model.develop(self.aerial(mask))

    # ------------------------------------------------------------------ #
    # large layouts
    # ------------------------------------------------------------------ #
    def resolve_tiling(self, tiling: Optional[TilingSpec],
                        tile_px: Optional[int],
                        guard_px: Optional[int]) -> TilingSpec:
        if tiling is not None:
            return tiling
        if tile_px is None:
            tile_px = self.tile_size_px
        if tile_px is None:
            raise ValueError(
                "engine has no calibrated tile size; pass tile_px or tiling "
                "matching the size the kernel bank was computed for")
        if guard_px is None:
            guard_px = default_guard_px(self.kernel_shape, tile_px)
        return TilingSpec(tile_px=int(tile_px), guard_px=int(guard_px))

    def stream_batch_tiles(self, tiling: TilingSpec) -> int:
        """Default tiles-per-batch of :meth:`image_layout` for this engine.

        Exactly the chunk size :meth:`aerial_batch` would split a large batch
        into internally (the byte-denominated ``max_chunk_bytes`` budget), so
        batching adds no extra chunking and peak RAM is one chunk.
        """
        return max(1, effective_chunk_tiles(
            np.iinfo(np.int32).max, self.kernels.shape,
            tiling.tile_px, tiling.tile_px,
            band_limited=self.band_limited,
            max_chunk_bytes=self.max_chunk_bytes,
            itemsize=self.precision.complex_itemsize))

    def image_layout(self, layout,
                     tiling: Optional[TilingSpec] = None,
                     tile_px: Optional[int] = None,
                     guard_px: Optional[int] = None,
                     out_dir: Optional[str] = None,
                     batch_tiles: Optional[int] = None) -> LayoutImage:
        """Image an arbitrary ``(H, W)`` layout by guard-banded tiling.

        Tiles are cut, imaged and stitched one bounded batch at a time by
        :func:`~repro.engine.streaming.stream_image_layout`, so peak RAM is
        O(one tile batch), not O(layout).

        Parameters
        ----------
        layout:
            A dense ``(H, W)`` raster, a ``numpy.memmap``, or a windowed
            :class:`repro.layout.LayoutReader` (anything with a
            ``read_window`` method).  Readers rasterise tiles on demand —
            the dense raster never exists — and produce bit-for-bit the
            dense-array result.
        tiling:
            Explicit tile geometry; overrides ``tile_px`` / ``guard_px``.
        tile_px:
            Full tile size; defaults to the engine's calibrated
            :attr:`tile_size_px`.  Tiles must match the size the kernel bank
            was built for — the kernels sample the tile's frequency lattice
            — so an engine without a known tile size requires an explicit
            value.  Layouts smaller than one tile are handled by the
            extractor (beyond-boundary content is an empty reticle).
        guard_px:
            Guard band per side; defaults to :func:`default_guard_px`
            (one kernel window), the scale over which partially coherent
            cross-talk decays.
        out_dir:
            Stitch the aerial / resist into ``.npy`` memmaps under this
            directory (see the :mod:`repro.engine.streaming` docstring for
            the layout), so even the output needn't fit in RAM.
        batch_tiles:
            Tiles per batch; defaults to :meth:`stream_batch_tiles` (the
            batched core's own chunk size).
        """
        tiling = self.resolve_tiling(tiling, tile_px, guard_px)
        if batch_tiles is None:
            batch_tiles = self.stream_batch_tiles(tiling)
        image_batch = self.aerial_batch
        module = as_array_module(self.backend)
        if module.is_resident and self.tile_cache is None:
            # Downloads land in one reusable (pinned, where supported) host
            # buffer sized by the first, largest batch: the loop copies each
            # batch out before the next, but a tile cache keeps row views.
            staging = []

            def image_batch(tiles):
                if not staging:
                    staging.append(module.empty_host(
                        tiles.shape, self.precision.real_dtype))
                return self.aerial_batch(tiles, out=staging[0][:len(tiles)])
        return stream_image_layout(layout, self, tiling, image_batch,
                                   batch_tiles, out_dir=out_dir,
                                   tile_cache=self.tile_cache)
