"""The ``nitho-fit`` workload: the paper's own method, trained from scratch.

Each operation trains a fresh :class:`repro.core.NithoModel` at the tiny
preset's budgets (8 B1 training tiles, 64 px at 16 nm, 12 kernels, 80
epochs) and predicts the 4 test tiles with ``predict_batch``.  It is the
only workload that runs ``core/`` and ``nn/`` (autograd, Adam).  Latency is
the wall time between consecutive Adam steps, stamped by an optimizer
subclass handed to the public ``NithoTrainer``.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import nn
from repro.core.nitho import NithoModel
from repro.core.trainer import NithoTrainer
from repro.experiments.config import ExperimentConfig
from repro.masks.datasets import build_dataset
from repro.nn import functional as functional_module
from repro.nn.tensor import Tensor

from benchlib import Phase, Probes, Tracer
from wl_imaging import core_layer_metrics, install_core_probes

#: Upper bound on the test MSE of a fitted model (aerial intensity units).
#: Fitted models land near 1e-4 on every seed tried; an untrained network
#: is two orders of magnitude worse.
MSE_BOUND = 2e-3


class StepClock(nn.Adam):
    """Adam that stamps the wall clock after every step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: List[float] = []

    def step(self) -> None:
        super().step()
        self.stamps.append(time.perf_counter())


class NithoWorkload:
    name = "nitho-fit"

    def __init__(self, seed: int, small: bool, workdir: str):
        self.seed = seed
        self.small = small
        self.dataset = None
        self.reference_digest: Optional[str] = None
        self.pending_checks: List[Tuple[bool, str]] = []
        self.steps_per_fit = 0

    def setup(self, tracer: Optional[Tracer]) -> None:
        """Simulate the dataset (cold kernel banks) and fix the budgets."""
        experiment = ExperimentConfig(preset="tiny", seed=self.seed)
        self.dataset = build_dataset("B1", preset="tiny", seed=self.seed)
        self.optics = experiment.optics_config()
        self.config = experiment.nitho_config(
            **({"epochs": 30} if self.small else {}))

    def prepare_checks(self) -> None:
        """Nothing to precompute: every fit is checked against the bound
        and against the first fit of the run (training is deterministic)."""

    def environment(self) -> Dict[str, object]:
        """``predict_batch`` runs on the engine defaults (REPRO_* cleared)."""
        from repro.backend import get_backend, resolve_precision

        return {"compute": {"fft_backend": get_backend().name,
                            "precision": resolve_precision(None).name}}

    def describe(self) -> Dict[str, object]:
        data = self.dataset
        return {"dataset": "B1 tiny", "train_tiles": data.num_train,
                "test_tiles": data.num_test,
                "tile_px": data.tile_size_px,
                "pixel_nm": data.pixel_size_nm,
                "kernels": self.config.num_kernels,
                "epochs": self.config.epochs,
                "steps_per_fit": self.steps_per_fit}

    # -- one fit ---------------------------------------------------------- #
    def fit(self) -> Tuple[np.ndarray, List[float]]:
        """Train from scratch, predict the test tiles; returns the
        predictions and the step intervals."""
        model = NithoModel(self.optics, self.config)
        optimizer = StepClock(model.network.parameters(),
                              lr=model.config.learning_rate)
        data = self.dataset
        NithoTrainer(model, optimizer=optimizer).fit(data.train_masks,
                                                     data.train_aerials)
        predictions = model.predict_batch(data.test_masks)
        return predictions, list(np.diff(optimizer.stamps))

    def check(self, predictions: np.ndarray) -> Tuple[bool, str, float]:
        mse = float(np.mean((predictions - self.dataset.test_aerials) ** 2))
        digest = hashlib.sha1(np.ascontiguousarray(predictions)).hexdigest()
        if self.reference_digest is None:
            self.reference_digest = digest
        if not mse < MSE_BOUND:
            return False, f"test MSE {mse:.3e} is not below {MSE_BOUND}", mse
        if digest != self.reference_digest:
            return False, "predictions differ from the run's first fit", mse
        return True, "", mse

    def run(self, seconds: float, tracer: Optional[Tracer],
            first_run_id: int = 0) -> Phase:
        phase = Phase()
        fit_s: List[float] = []
        steps = 0
        mses: List[float] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or not phase.attempted:
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.run_id = first_run_id + phase.attempted
                    with tracer.span("op"):
                        predictions, intervals = self.fit()
                    tracer.run_id = -1
                else:
                    predictions, intervals = self.fit()
                fit_s.append(time.perf_counter() - t0)
                steps += len(intervals) + 1
                self.steps_per_fit = len(intervals) + 1
                phase.latencies.extend(intervals)
                ok, problem, mse = self.check(predictions)
                mses.append(mse)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                ok, problem = False, repr(exc)
            phase.outcome(ok, problem)
            # Autograd graphs are cyclic: without a collection between fits
            # their garbage piles up and peak RSS grows with the run length.
            gc.collect()
        if fit_s:
            phase.figures["fit_steps_per_s"] = (steps / sum(fit_s),
                                                "steps/s")
            phase.figures["fit_s_p50"] = (statistics.median(fit_s), "s")
        if mses:
            phase.figures["nitho_test_mse"] = (statistics.median(mses), "mse")
        return phase

    # -- tracing ---------------------------------------------------------- #
    def install_probes(self, probes: Probes) -> None:
        probes.method(NithoModel, "prepare_spectra", "nitho.prepare")
        probes.method(NithoModel, "prepare_targets", "nitho.prepare")
        probes.method(NithoModel, "forward_aerial", "nitho.forward")
        probes.function(functional_module, "mse_loss", "nitho.loss")
        probes.method(Tensor, "backward", "nn.backward")
        probes.method(nn.Adam, "step", "nn.adam_step",
                      counts=lambda args, result, state, elapsed: {
                          "nn.steps": 1})
        install_core_probes(probes)

    def layer_metrics(self, tracer: Tracer, run_ids: set, ops: int,
                      setup_counters: Dict[str, float],
                      loop_counters: Dict[str, float]
                      ) -> Dict[str, Tuple[float, str]]:
        metrics = {
            "nitho.prepare_s": (tracer.busy("nitho.prepare", run_ids) / ops,
                                "s"),
            "nitho.forward.busy_s": (
                tracer.busy("nitho.forward", run_ids) / ops, "s"),
            "nitho.loss.busy_s": (tracer.busy("nitho.loss", run_ids) / ops,
                                  "s"),
            "nn.backward.busy_s": (tracer.busy("nn.backward", run_ids) / ops,
                                   "s"),
            "nn.adam_step.busy_s": (
                tracer.busy("nn.adam_step", run_ids) / ops, "s"),
            "nn.steps": (loop_counters.get("nn.steps", 0.0) / ops, "count"),
        }
        metrics.update(core_layer_metrics(tracer, run_ids, ops,
                                          setup_counters, loop_counters))
        return metrics

    def close(self) -> None:
        self.dataset = None
