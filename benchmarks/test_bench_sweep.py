"""Micro-benchmark — sharded process-window sweep vs. the serial campaign.

Tracks the two wins of the sweep subsystem:

* **TCC / kernel-bank economy**: an ``F x D`` focus-exposure campaign builds
  exactly ``F`` kernel banks (dose never touches the optics), and the banks
  persist in the shared cache dir so worker processes load ``.npz`` files
  (~2 ms) instead of re-running the TCC accumulation + eigendecomposition
  (~0.6 s at 256 px).
* **Multiprocess sharding**: tile batches split across worker processes with
  a bit-for-bit identical stitch.  The wall-clock speedup is asserted only
  when the machine actually has more than one CPU; the equality guarantee is
  asserted everywhere.
"""

import os
import time

import numpy as np

from repro.backend import ComputeConfig, available_backends, get_backend
from repro.engine import ShardedExecutor, available_workers
from repro.masks.generators import ISPDMetalGenerator
from repro.optics import OpticsConfig
from repro.optics.source import AnnularSource
from repro.sweep import FocusExposureGrid, ProcessWindowSweep

TILE = 256
PIXEL_NM = 4.0
LAYOUT_SHAPE = (1024, 768)  # 24 guard-banded tiles per focus setting
GRID = FocusExposureGrid(focus_values_nm=(-60.0, 0.0, 60.0),
                         dose_values=(0.9, 1.0, 1.1))


def _layout(seed: int = 3) -> np.ndarray:
    generator = ISPDMetalGenerator(TILE, PIXEL_NM, seed=seed)
    rows, cols = LAYOUT_SHAPE[0] // TILE, LAYOUT_SHAPE[1] // TILE
    tiles = np.asarray(generator.generate(rows * cols), dtype=float)
    canvas = tiles.reshape(rows, cols, TILE, TILE).transpose(0, 2, 1, 3)
    return canvas.reshape(LAYOUT_SHAPE)


def test_sharded_sweep_speedup(record_output, record_json, tmp_path):
    config = OpticsConfig(tile_size_px=TILE, pixel_size_nm=PIXEL_NM, max_socs_order=24)
    source = AnnularSource(0.5, 0.8)
    layout = _layout()
    cache_dir = str(tmp_path / "kernel-cache")
    num_workers = max(2, min(available_workers(), 4))

    with ShardedExecutor(num_workers=1, cache_dir=cache_dir) as serial_executor, \
            ShardedExecutor(num_workers=num_workers,
                            cache_dir=cache_dir) as sharded_executor:
        serial_sweep = ProcessWindowSweep(config, source=source,
                                          executor=serial_executor)
        sharded_sweep = ProcessWindowSweep(config, source=source,
                                           executor=sharded_executor)

        # Warm outside the timed region: banks are decomposed once per focus
        # and persisted, the pool is spun up, and every worker loads its
        # banks from disk on its first shard.
        warm_start = time.perf_counter()
        for focus in GRID.focus_values_nm:
            serial_sweep.engine_for_focus(focus)
            sharded_sweep.engine_for_focus(focus)
        spec = sharded_sweep.spec_for_focus(GRID.focus_values_nm[0])
        sharded_executor.aerial_batch(
            spec, np.zeros((num_workers, TILE, TILE)))
        warm_s = time.perf_counter() - warm_start

        serial = serial_sweep.run(layout, grid=GRID, keep_aerials=True)
        sharded = sharded_sweep.run(layout, grid=GRID, keep_aerials=True)

    # F x D conditions -> exactly F kernel banks on disk (the TCC-reuse claim).
    banks = [name for name in os.listdir(cache_dir) if name.endswith(".npz")]
    assert len(banks) == len(GRID.focus_values_nm)

    # Sharding must be invisible in the output: identical windows and
    # bit-for-bit identical stitched aerials at every focus.
    assert sharded.window == serial.window
    for focus in GRID.focus_values_nm:
        np.testing.assert_array_equal(sharded.aerials[focus],
                                      serial.aerials[focus])

    # Backend choice must not break the sharded == serial guarantee: run the
    # campaign again with the scipy-workers backend pinned explicitly (above,
    # serial and sharded already share the environment default) and with
    # numpy, and assert each backend's sharded output is bit-compatible with
    # its serial output and every backend lands on the identical window.
    default_backend = get_backend().name
    cross_backend_diff = 0.0
    pinned_backends = [name for name in ("numpy", "scipy")
                       if name in available_backends()]
    for backend_name in pinned_backends:
        with ShardedExecutor(num_workers=1, cache_dir=cache_dir) as b_serial_ex, \
                ShardedExecutor(num_workers=num_workers,
                                cache_dir=cache_dir) as b_sharded_ex:
            compute = ComputeConfig(fft_backend=backend_name)
            b_serial = ProcessWindowSweep(
                config, source=source, executor=b_serial_ex,
                compute=compute).run(layout, grid=GRID, keep_aerials=True)
            b_sharded = ProcessWindowSweep(
                config, source=source, executor=b_sharded_ex,
                compute=compute).run(layout, grid=GRID, keep_aerials=True)
        assert b_sharded.window == b_serial.window
        for focus in GRID.focus_values_nm:
            np.testing.assert_array_equal(b_sharded.aerials[focus],
                                          b_serial.aerials[focus])
        # Across backends, aerials differ at rounding level (~1e-15), so an
        # exact window comparison would be flaky by design whenever a pixel
        # grazes the resist threshold: assert measured CDs within one pixel
        # instead, and record the raw aerial diff.
        for point, ref_point in zip(b_serial.window.points, serial.window.points):
            assert (point.focus_nm, point.dose) == (ref_point.focus_nm,
                                                    ref_point.dose)
            assert abs(point.cd_nm - ref_point.cd_nm) <= PIXEL_NM + 1e-9
        for focus in GRID.focus_values_nm:
            diff = float(np.abs(b_serial.aerials[focus] -
                                serial.aerials[focus]).max())
            cross_backend_diff = max(cross_backend_diff, diff)

    speedup = serial.elapsed_s / max(sharded.elapsed_s, 1e-9)
    conditions = len(GRID)
    report = (
        f"process-window sweep: {LAYOUT_SHAPE[0]}x{LAYOUT_SHAPE[1]} px layout, "
        f"{len(GRID.focus_values_nm)} focus x {len(GRID.dose_values)} dose = "
        f"{conditions} conditions, {serial.num_tiles} tiles/focus, "
        f"{TILE}px tiles\n"
        f"  kernel banks   : {len(banks)} (one per focus, shared by "
        f"{conditions} conditions; warm {warm_s:.2f} s)\n"
        f"  serial         : {serial.elapsed_s:8.2f} s "
        f"({conditions / serial.elapsed_s:5.1f} conditions/s)\n"
        f"  sharded x{num_workers}     : {sharded.elapsed_s:8.2f} s "
        f"({conditions / sharded.elapsed_s:5.1f} conditions/s)\n"
        f"  speedup        : {speedup:.2f}x "
        f"({available_workers()} CPU(s) available)\n"
        f"  outputs        : windows identical, aerials bit-for-bit equal\n"
        f"  backends       : sharded == serial bit-for-bit under numpy and "
        f"scipy (default {default_backend}); cross-backend CDs within one "
        f"pixel, max cross-backend aerial diff {cross_backend_diff:.2e}\n"
    )
    print("\n" + report)
    record_output("sweep_sharded", report)
    record_json("sweep_sharded", {
        "op": "process_window_sweep",
        "shape": list(LAYOUT_SHAPE),
        "conditions": conditions,
        "tiles_per_focus": serial.num_tiles,
        "backend": default_backend,
        "precision": "float64",
        "num_workers": num_workers,
        "cpus": available_workers(),
        "serial_seconds": serial.elapsed_s,
        "sharded_seconds": sharded.elapsed_s,
        "speedup": speedup,
        "cross_backend_max_aerial_diff": cross_backend_diff,
        "sharded_equals_serial_backends": pinned_backends,
    })

    if available_workers() >= 2:
        # Deliberately loose: the regression signal lives in the recorded
        # report; the assertion only has to prove sharding beats serial at
        # all on a multi-core machine without flaking on loaded CI runners.
        assert speedup >= 1.05
    else:
        # Single-CPU machines timeshare the workers; only equality and the
        # cache economy are meaningful here, and both are asserted above.
        assert speedup > 0
