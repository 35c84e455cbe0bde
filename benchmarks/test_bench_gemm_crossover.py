"""Micro-benchmark — where the GEMM evaluator stops beating the FFT one.

The batched core's band-limited path has two evaluators: full-tile
``rfft2`` / ``irfft2`` transforms (the FFT evaluator) and pruned DFTs as
small matrix products (the GEMM evaluator, whose cost grows with the kernel
window).  :data:`repro.engine.batched.GEMM_CROSSOVER` picks between them
from the geometry alone; this benchmark records the measured table behind
that constant — seconds per tile of both evaluators over kernel windows
``n = m`` in {7, 11, 15, 21, 31} on 128, 256 and 512 px tiles, an 8-kernel
bank, the scipy FFT (numpy when scipy is absent) with one worker and with
one per CPU — next to the evaluator the crossover selects for each cell.

It records data only: no key is named ``*speedup`` or ``*seconds``, so the
trajectory gate reports nothing from it.  Its one assertion is that the two
evaluators agree in every cell.
"""

import os
import time

import numpy as np

from repro.backend import FLOAT64, as_array_module, available_backends, \
    get_backend
from repro.engine import available_workers
from repro.engine.batched import (
    GEMM_CROSSOVER,
    _band_limited_chunk,
    _gemm_chunk,
    chunk_evaluator,
    dft_operators,
)

TILE_SIZES = (128, 256, 512)
WINDOWS = (7, 11, 15, 21, 31)
ORDER = 8
#: Tiles per timed batch: 16 at 256 px, scaled to equal pixels per batch.
BATCH_PIXELS = 16 * 256 * 256
REPEATS = 5


def _best_seconds(function) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return min(times)


def test_gemm_fft_crossover_table(record_output, record_json):
    backend = "scipy" if "scipy" in available_backends() else "numpy"
    cpus = available_workers()
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    xp = as_array_module(get_backend(backend, workers=1))
    xp_all = as_array_module(get_backend(backend, workers=cpus))
    rng = np.random.default_rng(0)
    records = []
    for size in TILE_SIZES:
        batch = max(2, BATCH_PIXELS // (size * size))
        masks = (rng.random((batch, size, size)) > 0.5).astype(np.float64)
        for n in WINDOWS:
            kernels = rng.standard_normal((ORDER, n, n)) \
                + 1j * rng.standard_normal((ORDER, n, n))
            operators = dft_operators(size, size, size, size, n, n, FLOAT64)

            def gemm():
                return _gemm_chunk(masks, kernels, size, size, xp, operators)

            def fft(module=xp):
                return _band_limited_chunk(masks, kernels, size, size, module,
                                           True)

            reference = fft()
            error = np.abs(gemm() - reference).max() / np.abs(reference).max()
            assert error < 1e-12, (size, n, error)
            gemm_s = _best_seconds(gemm) / batch
            fft_s = _best_seconds(fft) / batch
            fft_all_s = _best_seconds(lambda: fft(xp_all)) / batch
            records.append({
                "tile_px": size, "n": n, "m": n, "order": ORDER,
                "batch": batch,
                "gemm_ms_per_tile": gemm_s * 1e3,
                "fft_ms_per_tile": fft_s * 1e3,
                "fft_all_cpus_ms_per_tile": fft_all_s * 1e3,
                "fft_over_gemm": fft_s / gemm_s,
                "fft_all_cpus_over_gemm": fft_all_s / gemm_s,
                "selected": chunk_evaluator((n, n), (size, size),
                                            (size, size)),
                "relative_error": error,
            })

    record_json("gemm_crossover", {
        "op": "band_limited_evaluator",
        "cpus": cpus,
        "fft_backend": backend,
        "blas_threads": blas_threads,
        "gemm_crossover": GEMM_CROSSOVER,
        "records": records,
    })
    lines = [f"GEMM vs FFT evaluator, {ORDER}-kernel bank, ms per tile "
             f"({backend} FFT with 1 / {cpus} workers; {cpus} cpus; "
             f"BLAS threads {blas_threads}; "
             f"GEMM_CROSSOVER = {GEMM_CROSSOVER})",
             f"{'tile':>5} {'n':>3} {'gemm':>8} {'fft':>8} {'fft/gemm':>9} "
             f"{'fft-all':>8} {'fft-all/gemm':>13}  selected"]
    for record in records:
        lines.append(f"{record['tile_px']:>5} {record['n']:>3} "
                     f"{record['gemm_ms_per_tile']:>8.3f} "
                     f"{record['fft_ms_per_tile']:>8.3f} "
                     f"{record['fft_over_gemm']:>8.2f}x "
                     f"{record['fft_all_cpus_ms_per_tile']:>8.3f} "
                     f"{record['fft_all_cpus_over_gemm']:>12.2f}x  "
                     f"{record['selected']}")
    report = "\n".join(lines)
    print("\n" + report)
    record_output("gemm_crossover", report)
