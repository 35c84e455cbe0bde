"""Truly vectorised batched SOCS imaging — the engine's numerical core.

The seed code imaged batches of masks by looping the single-tile path in
Python.  Here a whole batch ``(B, H, W)`` moves through the pipeline as one
array program:

1. one batched transform produces every centred ``n x m`` mask spectrum,
2. one broadcast multiply forms the ``(B, r, n, m)`` kernel products,
3. one batched inverse FFT returns the coherent fields, and
4. a reduction over the kernel axis yields the aerial intensities.

On top of the plain batched evaluation, :func:`batched_aerial_from_kernels`
exploits the paper's band-limit argument (Eq. (10)) for a large additional
speed-up: the coherent fields only carry ``n x m`` frequency samples, so the
intensity — whose spectrum is the autocorrelation of the field spectrum — is
band-limited to ``(2n - 1) x (2m - 1)`` samples.  The intensity is therefore
evaluated exactly on a small ``2n x 2m`` grid and Fourier-upsampled (zero-pad
in the frequency domain, an exact sinc interpolation for band-limited
signals) to the requested output resolution.

The same argument means the pipeline only ever *reads* an ``n x m`` window
of the mask spectrum and only ever *writes* a ``(2n - 1) x (2m - 1)`` band,
so the band-limited path has two evaluators, chosen by
:func:`chunk_evaluator` from the geometry alone:

* **GEMM evaluator** (:func:`_gemm_chunk`, small kernel windows) — the two
  full-tile transforms become small matrix products against precomputed
  DFT operators (:class:`DFTOperators`, memoised per geometry and
  precision): the spectrum is ``F_r @ mask @ F_c`` (a real ``W x 2m``
  product, then an ``n x H`` complex one) and the upsample is the
  separable real operator ``[Re M_r | -Im M_r] @ [S Re C ; S Im C]``,
  which reproduces the FFT evaluator's one-sided Nyquist placement and
  ``irfft`` bin weights to ~2e-15 relative.  Every product is a per-tile
  ``matmul`` slice, so a tile's result never depends on its batch.
* **FFT evaluator** (:func:`_band_limited_chunk`, beyond
  :data:`GEMM_CROSSOVER`) — ``rfft2`` half spectra in (the centred window
  gathered via Hermitian symmetry) and a zero-padded half-spectrum
  ``irfft2`` out; ``real_fft=False`` keeps the full complex-spectrum
  reference variant.  The embeds write quadrants directly into unshifted
  layout, so no per-chunk full-size ``fftshift``/``ifftshift`` survives.

The remaining policy comes from the pluggable compute backend
(:mod:`repro.backend`):

* **Precision policy** — a :class:`~repro.backend.Precision` threads the
  dtype decision through the pipeline (operators included); float32 halves
  every byte moved, and because the chunk budget is denominated in
  **bytes** the effective batch size per chunk doubles.
* **Device residency** — when the backend is a resident
  :class:`~repro.backend.ArrayModule` (cupy, or the CI-testable ``fakegpu``),
  each chunk pays exactly one host->device upload and one device->host
  download, and the GEMM evaluator's operators travel inside the kernel
  bank's single upload; spectra, kernel products, fields, the ``|field|^2``
  reduction and the upsampling all run in the module's namespace on the
  device.  Host modules route the identical expressions through numpy, so
  host and fakegpu results agree bit for bit.

Memory is bounded by chunking the batch axis so the intermediate
``(B, r, ...)`` product array never exceeds ``max_chunk_bytes``; within a
chunk everything is a single vectorised expression.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..backend import (
    ArrayModule,
    FFTBackend,
    Precision,
    as_array_module,
    get_backend,
    resolve_precision,
)
from ..optics.aerial import mask_spectrum
from ..optics.grid import embed_centre_unshifted

#: Upper bound in **bytes** on any per-chunk intermediate — the
#: ``(B, r, ...)`` kernel-product stack and the ``(B, H, W)`` upsampling
#: spectra alike (256 MiB; the float64 default admits 2**24 complex128
#: samples, float32 twice as many), keeping peak memory flat for arbitrarily
#: large batches.
DEFAULT_MAX_CHUNK_BYTES = 2 ** 28


def _as_mask_batch(masks: np.ndarray, precision: Precision) -> np.ndarray:
    masks = precision.as_real(masks)
    if masks.ndim != 3:
        raise ValueError("masks must have shape (B, H, W)")
    return masks


def _as_kernel_stack(kernels: np.ndarray, precision: Precision) -> np.ndarray:
    kernels = precision.as_complex(kernels)
    if kernels.ndim != 3:
        raise ValueError("kernels must have shape (r, n, m)")
    return kernels


def _direct_chunk(masks, kernels, out_h: int, out_w: int,
                  xp: ArrayModule, real_fft: bool):
    """Plain batched evaluation at full output resolution (reference path).

    ``xp`` is the array module the chunk lives in: a host module leaves
    every expression bit-for-bit the historical numpy code; a device module
    (cupy / fakegpu) receives device-resident ``masks`` / ``kernels`` and
    returns a device-resident intensity chunk — no transfer happens here.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    spectra = mask_spectrum(masks, (n, m), backend=xp,
                            real_fft=None if real_fft else False)  # (B, n, m)
    products = kernels[None, :, :, :] * spectra[:, None, :, :]  # (B, r, n, m)
    embedded = embed_centre_unshifted(products, out_h, out_w, xp=xp)
    fields = xp.ifft2(embedded, norm="ortho")
    return xp.abs2_sum(fields, axis=1)


def _small_intensity(spectra, kernels, xp: ArrayModule):
    """SOCS intensity on the exact ``2n x 2m`` band-limit grid.

    The kernel products, their embeds, the small inverse FFT and the
    ``|field|^2`` reduction — shared by both band-limited evaluators.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    products = kernels[None, :, :, :] * spectra[:, None, :, :]
    embedded = embed_centre_unshifted(products, 2 * n, 2 * m, xp=xp)
    fields = xp.ifft2(embedded, norm="ortho")
    return xp.abs2_sum(fields, axis=1)                        # (B, 2n, 2m)


def _band_limited_chunk(masks, kernels, out_h: int, out_w: int,
                        xp: ArrayModule, real_fft: bool):
    """FFT evaluator: exact band-limit-grid intensity + Fourier upsampling.

    Like :func:`_direct_chunk`, the whole pipeline — spectrum, kernel
    product, fields, ``|field|^2`` reduction, upsampling — runs inside
    ``xp``'s namespace, so a device chunk stays resident end to end.
    """
    n, m = kernels.shape[-2], kernels.shape[-1]
    small_h, small_w = 2 * n, 2 * m

    spectra = mask_spectrum(masks, (n, m), backend=xp,
                            real_fft=None if real_fft else False)
    small = _small_intensity(spectra, kernels, xp)

    # The intensity spectrum occupies (2n - 1) x (2m - 1) centred samples, so
    # zero-padding it to (out_h, out_w) is an exact sinc interpolation.  The
    # "forward" norm preserves sample values; the area ratio restores the
    # orthonormal-FFT intensity scale of the full-resolution evaluation.
    if real_fft:
        # Half-spectrum upsampling: the small intensity is real, its rfft2
        # columns 0..m all fit inside the target half spectrum (2m <= out_w),
        # and the band limit keeps the Nyquist bins at rounding level, so
        # placing the n positive- and n negative-frequency row blocks at the
        # target's corners is the same zero-padding — without ever forming
        # the full spectrum or shifting it.
        half = xp.rfft2(small, norm="forward")                # (B, 2n, m + 1)
        padded = xp.zeros(small.shape[:-2] + (out_h, out_w // 2 + 1),
                          dtype=half.dtype)
        padded[..., :n, :m + 1] = half[..., :n, :]
        padded[..., out_h - n:, :m + 1] = half[..., n:, :]
        upsampled = xp.irfft2(padded, s=(out_h, out_w), norm="forward")
    else:
        spectrum = xp.fftshift(xp.fft2(small, norm="forward"),
                               axes=(-2, -1))
        padded = embed_centre_unshifted(spectrum, out_h, out_w, xp=xp)
        upsampled = xp.real(xp.ifft2(padded, norm="forward"))
    scale = (small_h * small_w) / float(out_h * out_w)
    return upsampled * small.dtype.type(scale)


# --------------------------------------------------------------------------- #
# the GEMM evaluator: pruned DFTs as small matrix products
# --------------------------------------------------------------------------- #
#: Crossover of the GEMM evaluator.  Per output pixel it costs ``2m + 4n``
#: multiply-adds (the ``W x 2m`` spectrum product and the ``out x 4n``
#: upsample product dominate), the FFT evaluator ``~log2`` of each full-tile
#: transform's length; the GEMM evaluator is chosen while its count stays
#: below this multiple of the FFT one.  4.0 keeps GEMM up to n = m = 18 on
#: 128 px tiles, 21 on 256 px and 24 on 512 px, where it measured >= 1.5x
#: faster even against an FFT worker per CPU; past that, on 128 and 256 px,
#: multi-threaded FFTs won (table recorded by
#: ``benchmarks/test_bench_gemm_crossover.py``).
GEMM_CROSSOVER = 4.0


def _dft_phase(freqs: np.ndarray, samples: np.ndarray,
               size: int) -> np.ndarray:
    """``exp(2 pi i f x / size)`` over the ``(freqs, samples)`` grid.

    The integer product is reduced modulo ``size`` before scaling, so large
    ``f * x`` lose no phase accuracy.
    """
    turns = np.mod(np.outer(freqs, samples), size) / size
    return np.exp(2j * np.pi * turns)


@dataclass(frozen=True)
class DFTOperators:
    """The four matrices of the GEMM evaluator for one geometry.

    * ``spectrum_cols`` ``(W, 2m)`` real — ``[Re F_c | Im F_c]``, the
      orthonormal forward DFT onto the ``m`` centred column frequencies;
    * ``spectrum_rows`` ``(n, H)`` complex — ``F_r``, the same onto the ``n``
      centred row frequencies, so ``F_r @ mask @ F_c`` is the centred
      ``n x m`` window of ``fftshift(fft2(mask, norm="ortho"))``;
    * ``upsample_cols`` ``(2m, 2 out_w)`` real — ``[Re C | Im C]``, the
      small grid's forward column DFT followed by the irfft column synthesis
      with its bin weights (1 for DC and a true Nyquist bin, 2 otherwise);
    * ``upsample_rows`` ``(out_h, 4n)`` real — ``[Re M_r | -Im M_r]``, the
      small grid's forward row DFT, the one-sided placement of its Nyquist
      row at ``-n``, the row synthesis and the area-ratio intensity scale.

    With ``S`` the real small intensity, ``Re(M_r @ S @ C)`` is exactly the
    zero-padded ``irfft2`` upsample of :func:`_band_limited_chunk`.
    ``key`` names the geometry and precision the operators were built for.
    """

    key: Tuple[int, int, int, int, int, int, str]
    spectrum_cols: object
    spectrum_rows: object
    upsample_cols: object
    upsample_rows: object

    @property
    def arrays(self) -> tuple:
        return (self.spectrum_cols, self.spectrum_rows,
                self.upsample_cols, self.upsample_rows)

    def with_arrays(self, arrays) -> "DFTOperators":
        """The same operators holding ``arrays`` (e.g. device copies)."""
        return DFTOperators(self.key, *arrays)


@functools.lru_cache(maxsize=32)
def dft_operators(height: int, width: int, out_h: int, out_w: int,
                  n: int, m: int, precision: Precision) -> DFTOperators:
    """The GEMM evaluator's operators, built once per geometry + precision.

    Assembled in float64 and cast once; the memo holds read-only host
    arrays (a few hundred KiB at 512 px), device copies travel with the
    kernel bank.
    """
    row_freqs = np.arange(n) - n // 2
    col_freqs = np.arange(m) - m // 2
    f_c = _dft_phase(-col_freqs, np.arange(width), width).T / np.sqrt(width)
    f_r = _dft_phase(-row_freqs, np.arange(height), height) / np.sqrt(height)

    # Rows: forward DFT of the 2n small rows, frequencies -n..n-1 (the
    # Nyquist row lands one-sided at -n, as in the irfft2 padding), then
    # the inverse DFT at out_h samples; the area ratio rides along.
    small_freqs = np.arange(-n, n)
    m_r = (_dft_phase(np.arange(out_h), small_freqs, out_h)
           @ _dft_phase(small_freqs, np.arange(2 * n), 2 * n).conj())
    m_r *= (2 * m) / float(out_h * out_w)
    # Columns: rfft of the 2m small columns (bins 0..m), then the irfft
    # synthesis at out_w samples with its one-sided bin weights.
    bins = np.arange(m + 1)
    weights = np.where((bins == 0) | (2 * bins == out_w), 1.0, 2.0)
    c = ((_dft_phase(-np.arange(2 * m), bins, 2 * m) / (2 * m))
         @ (weights[:, None] * _dft_phase(bins, np.arange(out_w), out_w)))

    real = precision.real_dtype
    # C order throughout: BLAS sums a transposed operand in another order,
    # and the device copies (packed C-contiguous) must match bit for bit.
    arrays = tuple(
        np.ascontiguousarray(array, dtype=dtype) for array, dtype in (
            (np.concatenate([f_c.real, f_c.imag], axis=1), real),
            (f_r, precision.complex_dtype),
            (np.concatenate([c.real, c.imag], axis=1), real),
            (np.concatenate([m_r.real, -m_r.imag], axis=1), real)))
    for array in arrays:  # shared by every caller of the memo
        array.flags.writeable = False
    return DFTOperators((height, width, out_h, out_w, n, m, precision.name),
                        *arrays)


def _gemm_chunk(masks, kernels, out_h: int, out_w: int, xp: ArrayModule,
                operators: DFTOperators):
    """GEMM evaluator: the band-limited pipeline without a full-tile FFT.

    The mask spectrum is ``F_r @ mask @ F_c`` (a real ``W x 2m`` product,
    then an ``n x H`` complex one) and the upsample is
    ``[Re M_r | -Im M_r] @ [S Re C ; S Im C]`` — every product a per-tile
    ``matmul`` slice, so a tile's result never depends on its batch.
    """
    m = kernels.shape[-1]
    cols = xp.matmul(masks, operators.spectrum_cols)          # (B, H, 2m)
    spectra = xp.matmul(operators.spectrum_rows,
                        cols[..., :m] + 1j * cols[..., m:])   # (B, n, m)
    small = _small_intensity(spectra, kernels, xp)            # (B, 2n, 2m)
    halves = xp.matmul(small, operators.upsample_cols)        # (B, 2n, 2ow)
    stacked = xp.concatenate([halves[..., :out_w], halves[..., out_w:]],
                             axis=-2)                         # (B, 4n, ow)
    return xp.matmul(operators.upsample_rows, stacked)


def chunk_evaluator(kernel_shape: Tuple[int, int],
                    mask_shape: Tuple[int, int],
                    output_shape: Tuple[int, int],
                    band_limited: bool = True, real_fft: bool = True) -> str:
    """Name of the evaluator :func:`batched_aerial_from_kernels` runs.

    ``"direct"`` (full-resolution reference), ``"fft"`` (band-limited,
    full-tile FFTs) or ``"gemm"`` (band-limited, pruned DFTs as matrix
    products).  A function of the geometry alone; the GEMM and FFT
    evaluators agree to ~2e-15 relative, not bit for bit, so the name is
    part of every tile-cache key.
    """
    n, m = kernel_shape
    height, width = mask_shape
    out_h, out_w = output_shape
    if not (band_limited and 2 * n <= out_h and 2 * m <= out_w):
        return "direct"
    gemm_cost = height * width * 2 * m + out_h * out_w * 4 * n
    fft_cost = (height * width * np.log2(height * width)
                + out_h * out_w * np.log2(out_h * out_w))
    if real_fft and gemm_cost <= GEMM_CROSSOVER * fft_cost:
        return "gemm"
    return "fft"


#: Chunk evaluators by :func:`chunk_evaluator` name.  Each takes ``(masks,
#: kernels, out_h, out_w, xp, option)``: ``option`` is ``real_fft`` for the
#: FFT-based two and the :class:`DFTOperators` for ``"gemm"``.
_EVALUATORS = {"direct": _direct_chunk, "fft": _band_limited_chunk,
               "gemm": _gemm_chunk}


def batch_chunk_size(batch: int, order: int, height: int, width: int,
                     max_chunk_bytes: int = DEFAULT_MAX_CHUNK_BYTES,
                     itemsize: int = 16) -> int:
    """Largest per-chunk batch size keeping ``chunk * r * H * W * itemsize`` bytes
    under the cap.

    The budget is denominated in bytes, so a single-precision run
    (``itemsize=8`` complex64 samples) fits twice the masks per chunk of a
    double-precision one.
    """
    if max_chunk_bytes <= 0:
        return batch
    per_mask = max(1, order * height * width * itemsize)
    return int(min(max(max_chunk_bytes // per_mask, 1), max(batch, 1)))


def effective_chunk_tiles(batch: int, kernel_shape: Tuple[int, int, int],
                          out_h: int, out_w: int, band_limited: bool = True,
                          max_chunk_bytes: int = DEFAULT_MAX_CHUNK_BYTES,
                          itemsize: int = 16) -> int:
    """Tiles per chunk :func:`batched_aerial_from_kernels` actually evaluates.

    Bounds BOTH per-chunk intermediates: the ``(chunk, r, work_h, work_w)``
    kernel-product stack and — on the band-limited fast path — the
    ``(chunk, out_h, out_w)`` complex upsampling spectra.  Layout imaging
    sizes its tile batches with this same arithmetic, so its peak memory is
    one chunk, no more.
    """
    order, n, m = kernel_shape
    use_fast = band_limited and 2 * n <= out_h and 2 * m <= out_w
    work_h, work_w = (2 * n, 2 * m) if use_fast else (out_h, out_w)
    return min(batch_chunk_size(batch, order, work_h, work_w,
                                max_chunk_bytes, itemsize),
               batch_chunk_size(batch, 1, out_h, out_w,
                                max_chunk_bytes, itemsize))


def batched_aerial_from_kernels(masks: np.ndarray, kernels: np.ndarray,
                                output_shape: Optional[Tuple[int, int]] = None,
                                band_limited: bool = True,
                                max_chunk_bytes: int = DEFAULT_MAX_CHUNK_BYTES,
                                backend: Optional[Union[FFTBackend, str]] = None,
                                precision: Optional[Union[Precision, str]] = None,
                                real_fft: bool = True,
                                out: Optional[np.ndarray] = None,
                                operators: Optional[DFTOperators] = None,
                                ) -> np.ndarray:
    """Aerial images of a mask batch ``(B, H, W)`` -> ``(B, H, W)``.

    Parameters
    ----------
    masks:
        Real mask batch ``(B, H, W)``; any real dtype is accepted.
    kernels:
        Complex frequency-domain kernel stack ``(r, n, m)`` (centred DC),
        each kernel already scaled by ``sqrt(eigenvalue)``.  May already be
        a **device array** of the backend's module (the engine uploads its
        bank once and passes it here), in which case its dtype must match
        ``precision`` and no per-call upload happens.
    output_shape:
        Resolution of the returned aerial images; defaults to the mask shape.
    band_limited:
        Evaluate on the intensity band-limit grid and Fourier-upsample
        (exact, and much faster whenever ``2n < H``).  The direct full-size
        path is used automatically when it is the cheaper or the only exact
        option; :func:`chunk_evaluator` names the evaluator a geometry gets.
    max_chunk_bytes:
        Memory cap in bytes for the ``(chunk, r, ...)`` intermediates; see
        :data:`DEFAULT_MAX_CHUNK_BYTES`.
    backend:
        FFT backend (instance or registered name); ``None`` resolves the
        default (``REPRO_FFT_BACKEND`` / auto).  A backend that is a
        device-resident :class:`~repro.backend.ArrayModule` (cupy, fakegpu)
        switches the loop below to the resident flow: **one upload per mask
        chunk, one download per aerial chunk**, every intermediate staying
        on the device.
    precision:
        Precision policy (:class:`~repro.backend.Precision` or name);
        ``None`` resolves the default (``REPRO_PRECISION`` / float64).
    real_fft:
        Exploit the real masks and intensities (default): below the
        :data:`GEMM_CROSSOVER` the pruned-DFT GEMM evaluator, above it the
        ``rfft2`` half-spectrum FFT evaluator.  ``False`` retains the full
        complex-spectrum FFT path — the property tests pin all three equal
        to ~1e-12 relative in float64.
    out:
        Optional preallocated ``(B, H, W)`` host array (the streaming path's
        reusable — on CUDA, pinned — staging buffer) the results are written
        into; returned when given.  Results are identical either way.
    operators:
        The GEMM evaluator's :class:`DFTOperators` for this geometry, already
        on the backend's device (the engine uploads them with its kernel
        bank).  ``None`` takes them from the :func:`dft_operators` memo and,
        on a resident module, uploads them in the kernels' own transfer.
    """
    if backend is None or isinstance(backend, str):
        backend = get_backend(backend)
    xp = as_array_module(backend)
    precision = resolve_precision(precision)
    masks = _as_mask_batch(masks, precision)
    device_kernels = xp.is_device_array(kernels)
    if device_kernels:
        if np.dtype(kernels.dtype) != precision.complex_dtype:
            raise ValueError(
                f"device kernel bank dtype {kernels.dtype} does not match "
                f"precision {precision.name}; cast before uploading")
        if len(kernels.shape) != 3:
            raise ValueError("kernels must have shape (r, n, m)")
    else:
        kernels = _as_kernel_stack(kernels, precision)
    batch = masks.shape[0]
    out_h, out_w = masks.shape[-2:] if output_shape is None else output_shape
    order, n, m = kernels.shape

    evaluator = chunk_evaluator((n, m), masks.shape[-2:], (out_h, out_w),
                                band_limited=band_limited, real_fft=real_fft)

    if out is not None:
        if tuple(out.shape) != (batch, out_h, out_w):
            raise ValueError(
                f"out has shape {tuple(out.shape)}, expected "
                f"{(batch, out_h, out_w)}")
        if np.dtype(out.dtype) != precision.real_dtype:
            raise ValueError(
                f"out has dtype {out.dtype}, expected {precision.real_dtype}")

    if batch == 0:
        return out if out is not None \
            else np.zeros((0, out_h, out_w), dtype=precision.real_dtype)

    chunk = effective_chunk_tiles(batch, (order, n, m), out_h, out_w,
                                  band_limited=band_limited,
                                  max_chunk_bytes=max_chunk_bytes,
                                  itemsize=precision.complex_itemsize)

    if evaluator == "gemm" and operators is None:
        operators = dft_operators(*masks.shape[-2:], out_h, out_w, n, m,
                                  precision)
        if xp.is_resident:
            # Host kernels and the operators go up in one shared transfer.
            head = () if device_kernels else (kernels,)
            uploads = xp.asarray_packed(head + operators.arrays)
            if not device_kernels:
                kernels, device_kernels = uploads[0], True
            operators = operators.with_arrays(uploads[len(head):])
    evaluate = _EVALUATORS[evaluator]
    option = operators if evaluator == "gemm" else real_fft

    if xp.is_resident:
        # Device-resident flow: per chunk exactly ONE host->device transfer
        # (the mask slice) and ONE device->host transfer (the finished
        # intensity chunk, written straight into the result rows) — the
        # kernel bank (and the GEMM operators with it) either arrived
        # resident or goes up once per call.
        if not device_kernels:
            kernels = xp.asarray(kernels)
        result = out if out is not None \
            else np.empty((batch, out_h, out_w), dtype=precision.real_dtype)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            chunk_masks = xp.asarray(masks[start:stop])
            device_chunk = evaluate(chunk_masks, kernels, out_h, out_w,
                                    xp, option)
            xp.to_host(device_chunk, out=result[start:stop])
        return result

    # Host flow: bit-for-bit the historical numpy/scipy code (the host
    # module's ops ARE the numpy functions; no staging copies unless the
    # caller provided an ``out`` to fill).
    if out is None:
        if chunk >= batch:
            return evaluate(masks, kernels, out_h, out_w, xp, option)
        pieces = [evaluate(masks[start:start + chunk], kernels, out_h, out_w,
                           xp, option)
                  for start in range(0, batch, chunk)]
        return np.concatenate(pieces, axis=0)
    for start in range(0, batch, chunk):
        stop = min(start + chunk, batch)
        out[start:stop] = evaluate(masks[start:stop], kernels, out_h, out_w,
                                   xp, option)
    return out


def batched_resist_from_kernels(masks: np.ndarray, kernels: np.ndarray,
                                threshold: float,
                                **kwargs) -> np.ndarray:
    """Binary resist batch via constant-threshold development of the aerial batch."""
    aerial = batched_aerial_from_kernels(masks, kernels, **kwargs)
    return (aerial > threshold).astype(np.uint8)
