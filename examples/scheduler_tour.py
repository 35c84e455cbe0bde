"""Tour of the condition-level scheduler seam behind ShardedExecutor.

The same (focus, dose, shard) campaign runs through all three scheduler
implementations — serial, pool, and work-stealing — and then once more with
a fault injected mid-campaign.  Whatever the scheduling strategy (and
whatever breaks), the stitched results are bit-for-bit identical: the
scheduler decides *where and when* tiles are imaged, never *what* the
answer is.

Run with:  PYTHONPATH=src python examples/scheduler_tour.py
"""

import time

import numpy as np

from repro.backend import ComputeConfig
from repro.engine import (
    EngineSpec,
    FaultInjectingScheduler,
    PoolScheduler,
    ShardedExecutor,
)
from repro.masks.generators import ISPDMetalGenerator
from repro.optics import OpticsConfig
from repro.optics.source import AnnularSource


def main() -> None:
    tile_size_px = 128
    config = OpticsConfig(tile_size_px=tile_size_px, pixel_size_nm=8.0,
                          max_socs_order=12)
    base = EngineSpec(config=config, source=AnnularSource(0.5, 0.8))
    masks = np.asarray(ISPDMetalGenerator(tile_size_px, 8.0, seed=5)
                       .generate(8), dtype=float)

    # A small focus x dose campaign.  Dose only rescales the resist
    # threshold, so the aerials of (0.0, 0.9) and (0.0, 1.1) come from the
    # same kernel bank — the scheduler sees 4 conditions, the optics pays
    # for 2.
    conditions = [((focus, dose), base.with_condition(focus, dose))
                  for focus in (0.0, 60.0) for dose in (0.9, 1.1)]

    results = {}
    for name in ("serial", "pool", "stealing"):
        with ShardedExecutor(num_workers=2,
                             compute=ComputeConfig(scheduler=name)) as executor:
            start = time.perf_counter()
            results[name] = dict(executor.run_conditions(conditions, masks))
            elapsed = time.perf_counter() - start
        print(f"{name:<9}: {len(results[name])} conditions "
              f"in {elapsed:.2f} s")

    # One more run with chaos: the pool "breaks" after the first condition
    # completes.  The executor falls back to its in-process serial path and
    # still finishes the campaign.
    executor = ShardedExecutor(num_workers=2)
    executor.scheduler = FaultInjectingScheduler(
        PoolScheduler(executor._pool_handle, executor._task_engine),
        break_after=1)
    with executor:
        results["faulted"] = dict(executor.run_conditions(conditions, masks))
    print(f"faulted  : {len(results['faulted'])} conditions "
          f"(pool died after 1, serial fallback finished the rest)")

    reference = results.pop("serial")
    for name, run in results.items():
        for key, aerial in reference.items():
            np.testing.assert_array_equal(run[key], aerial)
    print("\nall schedulers (and the faulted run) are bit-for-bit equal "
          "to serial across", len(reference), "conditions")


if __name__ == "__main__":
    main()
