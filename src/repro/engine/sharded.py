"""Multiprocess sharding of tile batches across worker processes.

The batched core (:mod:`repro.engine.batched`) saturates one interpreter; a
qualification campaign (hundreds of (focus, dose) conditions over thousands of
tiles) wants every core.  :class:`ShardedExecutor` splits a tile batch into
contiguous shards, images each shard in a worker process and concatenates the
results in submission order, so the sharded output is **bit-for-bit identical**
to the serial output (per-tile FFT work is independent of how the batch is
chunked — pinned by ``tests/test_engine.py::TestBatchedEquivalence``).

Workers do not receive kernel banks over the wire.  They receive a small,
picklable :class:`EngineSpec` (optics config + source + pupil + engine
options) and rebuild their own :class:`~repro.engine.execution.ExecutionEngine`
through a :class:`~repro.engine.cache.KernelBankCache`.  The cache-warm
protocol keeps that cheap:

1. the parent builds the engine once through a **disk-backed** cache
   (``cache_dir``, defaulting to ``REPRO_KERNEL_CACHE_DIR``), writing the
   decomposed bank as ``.npz``,
2. every worker's first task for a fingerprint loads that ``.npz`` instead of
   re-running the TCC accumulation + eigendecomposition,
3. the worker memoises the engine in process-global state, so subsequent
   shards for the same optics are pure imaging work.

Everything degrades gracefully: ``num_workers <= 1``, single-shard batches or
a broken/unavailable process pool all fall back to the serial in-process path.
"""

from __future__ import annotations

import dataclasses
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import (
    FLOAT64,
    ComputeConfig,
    autotune_precision,
    get_backend,
    is_auto_precision,
    resolve_precision,
)
from ..optics.pupil import Pupil
from ..optics.simulator import OpticsConfig
from ..optics.source import AnnularSource, Source
from .batched import DEFAULT_MAX_CHUNK_BYTES
from .cache import KernelBankCache, default_kernel_cache, optics_fingerprint
from .execution import ExecutionEngine
from .scheduler import Scheduler, SerialScheduler, TaskSpec, resolve_scheduler
from .streaming import LayoutImage, stream_image_layout
from .tile_cache import TileResultCache, attach_tile_cache
from .tiling import TilingSpec


@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for rebuilding an :class:`ExecutionEngine` in a worker.

    Holds the optics description rather than the kernel bank itself: the bank
    can be megabytes, while the spec is a few hundred bytes and the workers
    resolve it through the shared (disk-backed) kernel cache.

    The compute policy travels with the spec as ``compute``, normalised at
    construction to concrete names (``None`` resolves the parent's
    environment, never the worker's; ``"auto"`` precision autotunes against
    the cached float64 master bank right here), so every worker reconstructs
    the exact same backend + precision as the parent — the sharded == serial
    bit-for-bit guarantee holds under every backend/precision combination.
    ``fft_workers`` only affects wall-clock (pocketfft is deterministic
    across worker counts), never output.  The config's ``tile_cache`` /
    ``scheduler`` fields are executor-level policies, not part of the worker
    imaging recipe, and are dropped; the imaging fields read back as
    :attr:`fft_backend`, :attr:`fft_workers` and :attr:`precision`.

    ``dose`` is the optional exposure axis: a relative dose scales the
    resist threshold of the built engine (``threshold / dose`` — the aerial
    image is dose-independent under the constant-threshold resist), so a
    campaign can schedule true (focus, dose, shard) tasks when its resist
    model demands it.  ``None`` keeps the config's nominal threshold and the
    pre-dose fingerprints.
    """

    config: OpticsConfig
    source: Optional[Source] = None
    pupil: Optional[Pupil] = None
    band_limited: bool = True
    max_chunk_bytes: int = DEFAULT_MAX_CHUNK_BYTES
    cache_dir: Optional[str] = None
    dose: Optional[float] = None
    compute: Optional[ComputeConfig] = None

    def __post_init__(self):
        compute = self.compute if self.compute is not None \
            else ComputeConfig()
        # Normalise the compute policy HERE, in the constructing process:
        # "auto" / env-var / None must not be re-interpreted by a worker
        # whose environment could differ.
        if is_auto_precision(compute.precision):
            # Deferred "auto" resolves against the float64 master bank
            # (served by the shared cache, so the decomposition happens at
            # most once) and ships to workers as a concrete name — every
            # worker runs the precision the PARENT measured.
            source, pupil = self.resolved_optics()
            cache = (KernelBankCache(cache_dir=self.cache_dir)
                     if self.cache_dir else default_kernel_cache())
            master = cache.get_kernels(self.config, source, pupil,
                                       precision=FLOAT64)
            precision = autotune_precision(master.kernels).name
        else:
            precision = resolve_precision(compute.precision).name
        object.__setattr__(self, "compute", ComputeConfig(
            fft_backend=get_backend(compute.fft_backend).name,
            fft_workers=compute.fft_workers, precision=precision))
        if self.dose is not None and self.dose <= 0:
            raise ValueError("dose must be positive")

    @property
    def fft_backend(self) -> str:
        return self.compute.fft_backend

    @property
    def fft_workers(self) -> Optional[int]:
        return self.compute.fft_workers

    @property
    def precision(self) -> str:
        return self.compute.precision

    def resolved_optics(self) -> Tuple[Source, Pupil]:
        """Source / pupil with the same defaults as ``ExecutionEngine.for_optics``."""
        source = self.source or AnnularSource(sigma_inner=0.5, sigma_outer=0.8)
        pupil = self.pupil or Pupil(defocus_nm=self.config.defocus_nm)
        return source, pupil

    def fingerprint(self) -> str:
        """Cache key: optics fingerprint + the engine options that change output."""
        source, pupil = self.resolved_optics()
        base = optics_fingerprint(self.config, source, pupil)
        fingerprint = (
            f"{base}|order={getattr(self.config, 'max_socs_order', None)}"
            f"|band={self.band_limited}|chunk={self.max_chunk_bytes}"
            f"|backend={self.fft_backend}|workers={self.fft_workers}"
            f"|prec={self.precision}")
        if self.dose is not None:
            # Appended only when set, so pre-dose fingerprints (and the
            # campaign-store identities derived from them) are unchanged.
            fingerprint += f"|dose={self.dose}"
        return fingerprint

    def with_focus(self, focus_nm: float) -> "EngineSpec":
        """The same imaging system refocused: config + pupil defocus replaced."""
        source, pupil = self.resolved_optics()
        return dataclasses.replace(
            self,
            config=dataclasses.replace(self.config, defocus_nm=float(focus_nm)),
            source=source,
            pupil=dataclasses.replace(pupil, defocus_nm=float(focus_nm)))

    def with_condition(self, focus_nm: float,
                       dose: Optional[float] = None) -> "EngineSpec":
        """The spec for one (focus, dose) process condition of this system."""
        refocused = self.with_focus(focus_nm)
        return dataclasses.replace(
            refocused, dose=float(dose) if dose is not None else None)

    def build(self, cache: Optional[KernelBankCache] = None) -> ExecutionEngine:
        """Build the engine, serving kernels through ``cache`` (or the spec's dir)."""
        source, pupil = self.resolved_optics()
        if cache is None:
            cache = (KernelBankCache(cache_dir=self.cache_dir) if self.cache_dir
                     else default_kernel_cache())
        kwargs = {}
        if self.dose is not None:
            # Dose rescales the develop threshold only; the kernel bank (and
            # its cache entry) is shared across every dose of a focus.
            kwargs["resist_threshold"] = self.config.resist_threshold / self.dose
        return ExecutionEngine.for_optics(
            self.config, source=source, pupil=pupil, cache=cache,
            band_limited=self.band_limited,
            max_chunk_bytes=self.max_chunk_bytes,
            compute=self.compute, **kwargs)


# --------------------------------------------------------------------------- #
# worker-process state
# --------------------------------------------------------------------------- #
#: Most engines an engine memo retains.  A campaign visits one fingerprint
#: per focus setting; with a disk-backed cache an evicted engine rebuilds
#: from ``.npz`` in milliseconds, whereas an unbounded memo would keep every
#: decomposed bank of a hundreds-of-conditions sweep resident (GBs).
ENGINE_MEMO_LIMIT = 8

#: Per-worker-process engine memo (LRU): each worker pays the kernel-bank
#: cost at most once per optics fingerprint per memo window (a disk load
#: when the parent warmed the shared cache dir), then serves subsequent
#: shards from memory.
_WORKER_ENGINES: "OrderedDict[str, ExecutionEngine]" = OrderedDict()
_WORKER_CACHES: Dict[str, KernelBankCache] = {}


def _memoise_engine(memo: "OrderedDict[str, ExecutionEngine]", key: str,
                    build) -> ExecutionEngine:
    """LRU lookup/insert bounded by :data:`ENGINE_MEMO_LIMIT`."""
    engine = memo.get(key)
    if engine is None:
        engine = build()
        memo[key] = engine
        while len(memo) > ENGINE_MEMO_LIMIT:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return engine


def _worker_engine(spec: EngineSpec) -> ExecutionEngine:
    def build() -> ExecutionEngine:
        cache_key = spec.cache_dir or ""
        cache = _WORKER_CACHES.get(cache_key)
        if cache is None:
            cache = (KernelBankCache(cache_dir=spec.cache_dir) if spec.cache_dir
                     else default_kernel_cache())
            _WORKER_CACHES[cache_key] = cache
        engine = spec.build(cache=cache)
        if spec.cache_dir:
            # The engine owns a copy of the kernels; the bank can drop out of
            # memory (disk reloads are ~ms) so long campaigns stay bounded.
            cache.trim_memory()
        return engine

    return _memoise_engine(_WORKER_ENGINES, spec.fingerprint(), build)


def _shard_aerial(spec: EngineSpec, masks: np.ndarray,
                  output_shape: Optional[Tuple[int, int]]) -> np.ndarray:
    """Image one shard in a worker process (top-level so it pickles)."""
    return _worker_engine(spec).aerial_batch(masks, output_shape=output_shape)


def available_workers() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    from ..backend.fft import available_cpus

    return available_cpus()


class ShardedExecutor:
    """Execute tile batches across worker processes with a serial fallback.

    Parameters
    ----------
    num_workers:
        Worker-process count; defaults to the available CPU count.  ``<= 1``
        selects the serial in-process path (no pool is ever created).
    cache_dir:
        Disk directory for the kernel-bank warm protocol; defaults to
        ``REPRO_KERNEL_CACHE_DIR``.  ``None`` still works — each worker then
        recomputes the bank once per fingerprint.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g. ``get_context("spawn")``)
        for tests that must prove the disk protocol without fork inheritance.
    min_shard_tiles:
        Smallest shard worth shipping to a worker; batches below
        ``2 * min_shard_tiles`` run serially.
    tile_cache:
        A :class:`~repro.engine.tile_cache.TileResultCache` instance to use
        for :meth:`image_layout`, or ``None`` for ``compute.tile_cache``.
        Deduplication happens **parent-side**, before any shard is cut:
        workers image only first-occurrence unique tiles and never see the
        cache, so the sharded == serial bit-for-bit guarantee is untouched.
    scheduler:
        A ready-made :class:`~repro.engine.scheduler.Scheduler` instance,
        used as-is, or ``None`` for ``compute.scheduler``.
    compute:
        A :class:`~repro.backend.ComputeConfig` supplying the executor's
        policies: ``tile_cache`` (``True`` / ``False`` / ``None`` — ``None``
        consults ``REPRO_TILE_CACHE`` / ``REPRO_TILE_CACHE_DIR``) and
        ``scheduler`` (``"serial"`` / ``"pool"`` / ``"stealing"`` /
        ``"service"``, or ``None`` to consult ``REPRO_SCHEDULER``, default
        ``pool``; ``REPRO_SCHEDULER_FAULTS`` additionally wraps named
        schedulers in a fault injector for CI chaos runs).  Its FFT /
        precision fields belong to the :class:`EngineSpec` each call
        carries and are ignored here.
    """

    def __init__(self, num_workers: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 mp_context=None, min_shard_tiles: int = 1,
                 tile_cache: Optional[TileResultCache] = None,
                 scheduler: Optional[Scheduler] = None,
                 compute: Optional[ComputeConfig] = None):
        if num_workers is not None and num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if min_shard_tiles < 1:
            raise ValueError("min_shard_tiles must be at least 1")
        self.num_workers = available_workers() if num_workers is None else int(num_workers)
        self.cache_dir = cache_dir if cache_dir is not None else \
            os.environ.get("REPRO_KERNEL_CACHE_DIR")
        self.min_shard_tiles = int(min_shard_tiles)
        if scheduler is not None and not isinstance(scheduler, Scheduler):
            raise TypeError(
                f"scheduler= takes a Scheduler instance, got {scheduler!r}; "
                f"name a scheduler with compute=ComputeConfig(scheduler=)")
        compute = compute if compute is not None else ComputeConfig()
        self.tile_cache = attach_tile_cache(tile_cache, compute.tile_cache)
        #: A wired Scheduler instance, a scheduler name, or None (= env).
        self.scheduler = scheduler if scheduler is not None \
            else compute.scheduler
        if isinstance(self.scheduler, str):
            # Fail loudly at construction, not mid-campaign.
            resolve_scheduler(self.scheduler, pool_provider=None,
                              engine_provider=None, inject_faults=False)
        self._mp_context = mp_context
        self._pool: Optional[ProcessPoolExecutor] = None
        self._local_engines: "OrderedDict[str, ExecutionEngine]" = OrderedDict()
        self._local_cache = (KernelBankCache(cache_dir=self.cache_dir)
                             if self.cache_dir else None)
        #: Diagnostics of the most recent ``aerial_batch`` call: how many
        #: shards ran and whether the pool path was actually used.
        self.last_num_shards = 0
        self.last_used_pool = False

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def _pool_handle(self) -> ProcessPoolExecutor:
        """The worker pool, created lazily and reused across batches."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.num_workers,
                                             mp_context=self._mp_context)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a new one spawns on demand)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ShardedExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # best-effort: don't leak worker processes
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter-shutdown races
            pass

    # ------------------------------------------------------------------ #
    # cache warm protocol
    # ------------------------------------------------------------------ #
    def _resolve_spec(self, spec: EngineSpec) -> EngineSpec:
        if spec.cache_dir is None and self.cache_dir:
            return dataclasses.replace(spec, cache_dir=self.cache_dir)
        return spec

    def _worker_spec(self, spec: EngineSpec, active_workers: int) -> EngineSpec:
        """The spec as shipped to pool workers: split the FFT thread budget.

        With an unset ``fft_workers`` every worker process would claim every
        CPU for its own multi-threaded transforms (``num_workers`` processes
        x ``num_cpus`` threads).  Dividing the budget over the workers that
        will actually run (``active_workers`` = the shard count, which can be
        below ``num_workers`` for small batches) keeps total threads at the
        CPU count without idling cores; worker counts never change FFT
        results, so the sharded == serial guarantee is untouched.
        """
        if spec.fft_workers is not None or active_workers <= 1:
            return spec
        budget = max(1, available_workers() // active_workers)
        return dataclasses.replace(
            spec, compute=spec.compute.replace(fft_workers=budget))

    def warm(self, spec: EngineSpec) -> ExecutionEngine:
        """Build the engine in-process, persisting the bank for the workers.

        With a ``cache_dir`` this writes the decomposed kernel bank as
        ``.npz`` so every worker's first lookup is a disk load rather than a
        fresh TCC accumulation + eigendecomposition.
        """
        spec = self._resolve_spec(spec)

        def build() -> ExecutionEngine:
            engine = spec.build(cache=self._local_cache)
            if self._local_cache is not None:
                self._local_cache.trim_memory()  # bank persisted; engine owns a copy
            return engine

        return _memoise_engine(self._local_engines, spec.fingerprint(), build)

    # ------------------------------------------------------------------ #
    # sharded imaging
    # ------------------------------------------------------------------ #
    def _shard_slices(self, batch: int) -> List[slice]:
        """Contiguous, deterministic shard slices (at most one per worker)."""
        per_worker = -(-batch // self.num_workers)  # ceil
        size = max(per_worker, self.min_shard_tiles)
        return [slice(start, min(start + size, batch))
                for start in range(0, batch, size)]

    def aerial_batch(self, spec: EngineSpec, masks: np.ndarray,
                     output_shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """Aerial images of ``(B, H, W)`` masks, sharded across the workers.

        Results are concatenated in shard-submission order, so the output is
        bit-for-bit the serial output regardless of worker scheduling.
        """
        spec = self._resolve_spec(spec)
        # Cast once, in the parent: workers then receive (and return) arrays
        # in the spec's precision, halving the pickled bytes under float32.
        masks = resolve_precision(spec.precision).as_real(masks)
        if masks.ndim != 3:
            raise ValueError("masks must have shape (B, H, W)")
        batch = masks.shape[0]
        self.last_used_pool = False

        if self.num_workers <= 1 or batch < 2 * self.min_shard_tiles:
            self.last_num_shards = 1 if batch else 0
            return self.warm(spec).aerial_batch(masks, output_shape=output_shape)

        shards = self._shard_slices(batch)
        self.last_num_shards = len(shards)
        if len(shards) <= 1:
            return self.warm(spec).aerial_batch(masks, output_shape=output_shape)

        # One single-condition campaign: the scheduler does the sharding,
        # the degradation story and the submission-order concatenation.
        for _, result in self.run_conditions([(0, spec)], masks,
                                             output_shape=output_shape):
            return result
        raise RuntimeError("scheduler yielded no result")  # pragma: no cover

    def resist_batch(self, spec: EngineSpec, masks: np.ndarray) -> np.ndarray:
        """Binary resist images of a sharded mask batch."""
        aerial = self.aerial_batch(spec, masks)
        return self.warm(spec).resist_model.develop(aerial)

    # ------------------------------------------------------------------ #
    # campaign scheduling: one task per (condition, shard)
    # ------------------------------------------------------------------ #
    def _task_engine(self, spec: EngineSpec) -> ExecutionEngine:
        """Engine provider handed to schedulers for in-process execution."""
        return self.warm(spec)

    def _make_scheduler(self) -> Tuple[Scheduler, bool]:
        """A scheduler for one campaign run + whether this facade owns it.

        Named schedulers are constructed fresh per run (their bookkeeping is
        per-campaign) and wired to this executor's lazy pool handle and
        warm-engine provider; a ready-made instance passed at construction
        is reused as-is, so tests can hand in pre-wired fault injectors and
        inspect them afterwards.
        """
        if isinstance(self.scheduler, Scheduler):
            return self.scheduler, False
        return resolve_scheduler(
            self.scheduler,
            # Late-bound so monkeypatched / injected ``_pool_handle``
            # attributes are honoured at submit time, not construction time.
            pool_provider=lambda: self._pool_handle(),
            engine_provider=self._task_engine), True

    def run_conditions(self, conditions: Sequence[Tuple[Hashable, EngineSpec]],
                       masks: np.ndarray,
                       output_shape: Optional[Tuple[int, int]] = None,
                       ) -> Iterator[Tuple[Hashable, np.ndarray]]:
        """Schedule per-(condition, shard) tasks, yield conditions as they finish.

        The generalisation of the campaign workload: ``conditions`` is a
        sequence of ``(key, EngineSpec)`` pairs — every key an opaque
        process condition (a campaign index, a ``(focus, dose)`` pair, ...)
        whose spec may carry its own focus *and* dose — and ``masks`` the
        tile batch imaged under each of them.  Every ``(condition, shard)``
        pair becomes one :class:`~repro.engine.scheduler.TaskSpec` submitted
        through the configured scheduler, so the pool stays saturated
        across condition boundaries and stragglers of one condition overlap
        the next.

        Yields ``(key, aerial_batch)`` as each condition *completes*
        (completion order is scheduling-dependent; the array contents are
        not: shards are concatenated in submission order, so every yielded
        batch is bit-for-bit the serial result for that condition).
        Yielding per completed condition lets a campaign store persist and
        drop each one before the next finishes, keeping memory at O(one
        condition).

        A broken/unavailable pool — even mid-campaign — degrades to the
        serial in-process path for every condition not yet yielded,
        preserving results exactly; the same fallback recomputes any task a
        faulty scheduler *dropped*.  Abandoning the iterator cancels every
        task that has not started (no futures keep running behind a
        consumer that walked away).  All specs must share one compute
        policy (the campaign's); the mask batch is cast once to that
        precision.
        """
        conditions = [(key, self._resolve_spec(spec))
                      for key, spec in conditions]
        if not conditions:
            return
        masks = resolve_precision(conditions[0][1].precision).as_real(masks)
        if masks.ndim != 3:
            raise ValueError("masks must have shape (B, H, W)")
        batch = masks.shape[0]
        self.last_used_pool = False

        scheduler, owned = self._make_scheduler()
        shards = self._shard_slices(batch) if batch else []
        use_pool = (scheduler.uses_pool and self.num_workers > 1
                    and batch >= 2 * self.min_shard_tiles and len(shards) > 1)
        if not use_pool:
            if scheduler.uses_pool:
                # Serial-scale work never spins a pool up: route the tasks
                # through the in-process scheduler instead (the pre-existing
                # small-batch / single-worker fallback, unchanged).
                scheduler, owned = SerialScheduler(self._task_engine), True
            shards = [slice(0, batch)] if batch else []
        self.last_num_shards = len(shards) if use_pool else (1 if batch else 0)

        done = set()
        pieces: Dict[int, List[Optional[np.ndarray]]] = {}
        try:
            if use_pool:
                for _, spec in conditions:
                    self.warm(spec)  # persist every bank before a worker asks
            active = min(self.num_workers, len(shards) * len(conditions)) \
                if use_pool else 1
            index: Dict[TaskSpec, Tuple[int, int]] = {}
            try:
                for cid, (key, spec) in enumerate(conditions):
                    task_spec = self._worker_spec(spec, active) if use_pool \
                        else spec
                    pieces[cid] = [None] * len(shards)
                    for sid, piece in enumerate(shards):
                        task = TaskSpec(spec=task_spec, masks=masks[piece],
                                        shard_slice=piece, condition=key,
                                        output_shape=output_shape)
                        index[scheduler.submit(task)] = (cid, sid)
                for task, result in scheduler.as_completed():
                    cid, sid = index[task]
                    pieces[cid][sid] = result
                    if all(piece is not None for piece in pieces[cid]):
                        self.last_used_pool = use_pool
                        done.add(cid)
                        parts = pieces.pop(cid)
                        yield conditions[cid][0], (
                            np.concatenate(parts, axis=0)
                            if len(parts) > 1 else parts[0])
            finally:
                # Consumer walked away (GeneratorExit) or the pool died:
                # reclaim everything that has not started so no futures keep
                # burning workers behind our back.
                scheduler.cancel_pending()
                if owned:
                    scheduler.close()
        except (BrokenProcessPool, OSError, PermissionError):
            # Mid-campaign pool death is an availability event, never a
            # correctness one: drop to serial for the unfinished conditions.
            # The diagnostic reads True only when the WHOLE campaign ran
            # through the pool — a partial run still fell back.
            self.last_used_pool = False
            self.close()
        for cid, (key, spec) in enumerate(conditions):
            if cid not in done:
                yield key, self.warm(spec).aerial_batch(
                    masks, output_shape=output_shape)

    # ------------------------------------------------------------------ #
    # sharded layouts
    # ------------------------------------------------------------------ #
    def image_layout(self, spec: EngineSpec, layout,
                     tiling: Optional[TilingSpec] = None,
                     tile_px: Optional[int] = None,
                     guard_px: Optional[int] = None,
                     out_dir: Optional[str] = None,
                     batch_tiles: Optional[int] = None) -> LayoutImage:
        """Guard-banded tiling of an ``(H, W)`` layout with sharded tile imaging.

        :meth:`ExecutionEngine.image_layout`'s loop with :meth:`aerial_batch`
        as the runner: cutting, tile-cache dedup and stitching stay in the
        parent (repeated cells never cross a process boundary twice); only
        per-tile FFT work is distributed.  Batches default to one engine
        chunk *per worker*, and a pool that breaks mid-layout degrades to
        serial for the remaining batches.  Readers match the dense-array
        output bit for bit.
        """
        spec = self._resolve_spec(spec)
        engine = self.warm(spec)
        tiling = engine.resolve_tiling(tiling, tile_px, guard_px)
        if batch_tiles is None:
            batch_tiles = engine.stream_batch_tiles(tiling) * \
                max(1, self.num_workers)
        return stream_image_layout(
            layout, engine, tiling,
            lambda tiles: self.aerial_batch(spec, tiles), batch_tiles,
            out_dir=out_dir, meta={"num_workers": self.num_workers},
            tile_cache=self.tile_cache)
