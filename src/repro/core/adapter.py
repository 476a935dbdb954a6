"""TASFAR: the end-to-end target-agnostic source-free adaptation pipeline.

The :class:`Tasfar` class wires together the substrates:

1. :meth:`Tasfar.calibrate_on_source` is run **once, before deployment**, on
   the labelled source dataset: it fits the uncertainty-to-error curve ``Q_s``
   and the confidence threshold ``tau``.  Only these few scalars travel with
   the source model; no source data is needed at the target (the source-free
   property).
2. :meth:`Tasfar.adapt` runs at the target with unlabeled target data: it
   splits the data by confidence, estimates the label density map from the
   confident part, pseudo-labels the uncertain part, and fine-tunes a copy of
   the source model with the credibility-weighted loss.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..engine import LossDropEarlyStopper
from ..engine.rng import ADAPTATION_STREAM, CALIBRATION_STREAM, stream_seed_sequence
from ..engine.stacked import StackedFineTuneEngine
from ..nn.data import ArrayDataset
from ..nn.losses import Loss, MSELoss
from ..nn.models import RegressionModel
from ..nn.stacked import PerReplicaLoss, StackedAdam, stack_modules, unstack_modules
from ..uncertainty.calibration import UncertaintyCalibrator, fit_sigma_curve
from ..uncertainty.mc_dropout import MCDropoutPredictor, UncertainPrediction
from .confidence import ConfidenceClassifier, ConfidenceSplit
from .config import TasfarConfig
from .density_map import LabelDensityMap
from .estimator import LabelDistributionEstimator
from .pseudo_label import PseudoLabelBatch, PseudoLabelGenerator

__all__ = ["NoConfidentSamplesError", "SourceCalibration", "AdaptationResult", "Tasfar"]


class NoConfidentSamplesError(ValueError):
    """Raised when adaptation is attempted on data with zero confident samples.

    A distinct type (not a bare ``ValueError``) so callers that want to
    retry later — e.g. the streaming service buffering through a sensor
    glitch — can catch exactly this condition without masking unrelated
    errors.
    """



@dataclass
class SourceCalibration:
    """Everything TASFAR keeps from the source domain.

    This is deliberately tiny (a threshold and a handful of line
    coefficients): it is the paper's answer to "what replaces the source
    dataset".
    """

    threshold: float
    calibrators: list[UncertaintyCalibrator]
    source_uncertainty_mean: float = 0.0
    source_error_mean: float = 0.0

    @property
    def label_dim(self) -> int:
        """Number of label dimensions covered by the calibration."""
        return len(self.calibrators)


@dataclass
class AdaptationResult:
    """Output of one TASFAR adaptation run, with diagnostics for analysis."""

    target_model: RegressionModel
    density_map: LabelDensityMap
    split: ConfidenceSplit
    pseudo_labels: PseudoLabelBatch
    target_prediction: UncertainPrediction
    losses: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None

    @property
    def n_training_samples(self) -> int:
        """Number of samples used in the adaptation fine-tuning."""
        return len(self.pseudo_labels)


class Tasfar:
    """Target-agnostic source-free domain adaptation for regression tasks.

    Parameters
    ----------
    config:
        Hyper-parameters; defaults reproduce the paper's setting.
    loss:
        Task loss used for adaptation fine-tuning (Eq. 22 leaves it
        task-dependent); defaults to weighted MSE.
    """

    def __init__(self, config: TasfarConfig | None = None, loss: Loss | None = None) -> None:
        self.config = config if config is not None else TasfarConfig()
        self.loss = loss if loss is not None else MSELoss()

    # ------------------------------------------------------------------
    # Source-side calibration
    # ------------------------------------------------------------------
    def calibrate_on_source(
        self,
        source_model: RegressionModel,
        source_inputs: np.ndarray,
        source_labels: np.ndarray,
    ) -> SourceCalibration:
        """Fit ``Q_s`` and the confidence threshold ``tau`` on source data.

        Parameters
        ----------
        source_model:
            The trained source regression model.
        source_inputs, source_labels:
            The labelled source dataset (or a held-out part of it).
        """
        source_labels = np.asarray(source_labels, dtype=np.float64)
        if source_labels.ndim == 1:
            source_labels = source_labels[:, None]
        if source_labels.shape[0] != len(source_inputs):
            raise ValueError("source_inputs and source_labels must have the same length")

        # The probe runs on a private copy: it puts the model in eval mode
        # and its dropout layers in MC mode, which the caller's must not see.
        predictor = MCDropoutPredictor(
            copy.deepcopy(source_model),
            n_samples=self.config.n_mc_samples,
            seed=stream_seed_sequence(self.config.seed, CALIBRATION_STREAM),
        )
        prediction = predictor.predict(source_inputs)

        label_dim = source_labels.shape[1]
        errors = np.abs(prediction.mean - source_labels)
        # One sigma curve per label dimension, all driven by the scalar
        # prediction uncertainty u_t (the paper's single-uncertainty Q_s).
        calibrators = [
            fit_sigma_curve(
                prediction.uncertainty,
                errors[:, dim],
                n_segments=self.config.n_segments,
            )
            for dim in range(label_dim)
        ]

        classifier = ConfidenceClassifier(self.config.confidence_ratio)
        classifier.fit(prediction.uncertainty)
        return SourceCalibration(
            threshold=float(classifier.threshold),
            calibrators=calibrators,
            source_uncertainty_mean=float(prediction.uncertainty.mean()),
            source_error_mean=float(errors.mean()),
        )

    # ------------------------------------------------------------------
    # Target-side adaptation
    # ------------------------------------------------------------------
    def adapt(
        self,
        source_model: RegressionModel,
        target_inputs: np.ndarray,
        calibration: SourceCalibration,
        seed: int | None = None,
    ) -> AdaptationResult:
        """Adapt ``source_model`` to the target domain using unlabeled data.

        The source model itself is left untouched; the returned
        :class:`AdaptationResult` carries the fine-tuned copy.  This is the
        one-job case of :meth:`adapt_stacked`; a failure is raised here.

        Parameters
        ----------
        seed:
            Seed for the stochastic parts of this adaptation (MC-dropout
            masks, mini-batch shuffling); defaults to ``config.seed``.  The
            result is a pure function of ``(model, inputs, calibration,
            seed)``, which is what lets the runtime service adapt many
            targets in parallel with order-independent results.
        """
        [(result, error)] = self.adapt_stacked(
            [(source_model, target_inputs, seed)], calibration
        )
        if error is not None:
            raise error
        return result

    def adapt_stacked(
        self,
        jobs: list[tuple[RegressionModel, np.ndarray, "int | None"]],
        calibration: SourceCalibration,
    ) -> list[tuple["AdaptationResult | None", "Exception | None"]]:
        """Adapt several targets at once through stacked fine-tunes.

        ``jobs`` is a list of ``(start_model, target_inputs, seed)`` triples
        — the same arguments :meth:`adapt` takes, K at a time.  Per job the
        pre-work (MC-dropout probing, confidence split, density estimation,
        pseudo-labelling) runs on its own; the fine-tuning stage then stacks
        the jobs whose weighted datasets have equal length into one
        :class:`~repro.engine.StackedFineTuneEngine` run (a group of one is
        a one-replica stack).  Every job's result is **bit-identical** to
        its own :meth:`adapt` call.

        Returns one ``(result, error)`` pair per job, in input order: jobs
        that fail (e.g. :class:`NoConfidentSamplesError`) carry their
        exception instead of poisoning the whole stack.
        """
        prepared: list[dict | None] = [None] * len(jobs)
        errors: list[Exception | None] = [None] * len(jobs)
        for index, (source_model, target_inputs, seed) in enumerate(jobs):
            try:
                seed = self.config.seed if seed is None else int(seed)
                rng = np.random.default_rng(seed)
                # Probe the job's own copy, never the caller's model (which
                # may be serving on other threads while the probe's dropout
                # layers run in MC mode).
                target_model = copy.deepcopy(source_model)
                predictor = MCDropoutPredictor(
                    target_model,
                    n_samples=self.config.n_mc_samples,
                    seed=stream_seed_sequence(seed, ADAPTATION_STREAM),
                )
                prediction = predictor.predict(target_inputs)
                classifier = ConfidenceClassifier(self.config.confidence_ratio)
                classifier.threshold = calibration.threshold
                split = classifier.split(prediction.uncertainty)
                estimator = LabelDistributionEstimator(
                    calibrators=calibration.calibrators,
                    grid_size=self.config.grid_size,
                    auto_grid_bins=self.config.auto_grid_bins,
                    margin_sigmas=self.config.grid_margin_sigmas,
                    error_model=self.config.error_model,
                )
                density_map, pseudo_batch = self._pseudo_label_uncertain(
                    estimator, calibration, prediction, split
                )
                prepared[index] = {
                    "rng": rng,
                    "prediction": prediction,
                    "split": split,
                    "density_map": density_map,
                    "pseudo_batch": pseudo_batch,
                    "target_model": target_model,
                    "dataset": self.build_adaptation_dataset(
                        target_inputs, prediction, split, pseudo_batch
                    ),
                    "losses": [],
                    "stopped_epoch": None,
                }
            except Exception as exc:  # noqa: BLE001 - attributed per job
                errors[index] = exc

        # Group trainable jobs by dataset length: replicas in one stack must
        # share every gemm shape, and the engine deliberately refuses to pad
        # ragged batches (padding changes the bits — see engine/stacked.py).
        groups: dict[int, list[int]] = {}
        for index, job in enumerate(prepared):
            if job is None:
                continue
            dataset = job["dataset"]
            if len(dataset) == 0 or float(np.sum(dataset.weights)) <= 0:
                continue  # nothing to fit: no training, empty losses
            groups.setdefault(len(dataset), []).append(index)

        for indices in groups.values():
            try:
                self._fine_tune_stack([prepared[index] for index in indices])
            except Exception as exc:  # noqa: BLE001 - attributed to the group
                for index in indices:
                    errors[index] = exc
                    prepared[index] = None

        results: list[tuple[AdaptationResult | None, Exception | None]] = []
        for job, error in zip(prepared, errors):
            if error is not None or job is None:
                results.append((None, error))
                continue
            results.append(
                (
                    AdaptationResult(
                        target_model=job["target_model"],
                        density_map=job["density_map"],
                        split=job["split"],
                        pseudo_labels=job["pseudo_batch"],
                        target_prediction=job["prediction"],
                        losses=job["losses"],
                        stopped_epoch=job["stopped_epoch"],
                    ),
                    None,
                )
            )
        return results

    def _fine_tune_stack(self, jobs: list[dict]) -> None:
        """Weighted supervised fine-tuning (Eq. 22) of one length group.

        The epoch/batch loop lives in the shared
        :class:`~repro.engine.StackedFineTuneEngine`; only the weighted-loss
        batch step is TASFAR's own.  Each replica gets a fresh loss-drop
        early stopper.
        """
        models = [job["target_model"] for job in jobs]
        stacked = stack_modules(models)
        stoppers = None
        if self.config.early_stop:
            stoppers = [
                LossDropEarlyStopper(
                    drop_fraction=self.config.early_stop_drop_fraction,
                    patience=self.config.early_stop_patience,
                    min_epochs=self.config.min_adaptation_epochs,
                )
                for _ in jobs
            ]
        engine = StackedFineTuneEngine(
            self.config.adaptation_epochs,
            self.config.adaptation_batch_size,
            disable_dropout=not self.config.dropout_during_adaptation,
            stoppers=stoppers,
        )
        optimizer = StackedAdam(
            stacked.parameters(), len(jobs), lr=self.config.adaptation_lr
        )
        loss = PerReplicaLoss(self.loss)

        def step(inputs: np.ndarray, labels: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
            outputs = stacked.forward(inputs)
            values, grads = loss(outputs, labels, weights)
            stacked.backward(grads)
            return values

        outcomes = engine.run(
            stacked,
            [job["dataset"] for job in jobs],
            optimizer,
            step,
            rngs=[job["rng"] for job in jobs],
        )
        unstack_modules(stacked, models)
        for job, outcome in zip(jobs, outcomes):
            job["losses"] = outcome.losses
            job["stopped_epoch"] = outcome.stopped_epoch

    # ------------------------------------------------------------------
    # Pipeline pieces (also used directly by the experiments)
    # ------------------------------------------------------------------
    def _pseudo_label_uncertain(
        self,
        estimator: LabelDistributionEstimator,
        calibration: SourceCalibration,
        prediction: UncertainPrediction,
        split: ConfidenceSplit,
    ) -> tuple[LabelDensityMap, PseudoLabelBatch]:
        """Estimate the density map and pseudo-label the uncertain samples."""
        confident = split.confident_indices
        uncertain = split.uncertain_indices
        if len(confident) == 0:
            raise NoConfidentSamplesError(
                "no confident target samples: the source model is uncertain about "
                "every target input, so the label distribution cannot be estimated"
            )

        density_map = estimator.estimate(
            prediction.mean[confident], prediction.uncertainty[confident]
        )
        generator = PseudoLabelGenerator(
            estimator=estimator,
            threshold=calibration.threshold,
            locality_sigmas=self.config.locality_sigmas,
            mode=self.config.pseudo_label_mode,
        )
        pseudo_batch = generator.pseudo_label(
            density_map,
            prediction.mean[uncertain],
            prediction.uncertainty[uncertain],
        )
        return density_map, pseudo_batch

    def build_adaptation_dataset(
        self,
        target_inputs: np.ndarray,
        prediction: UncertainPrediction,
        split: ConfidenceSplit,
        pseudo_batch: PseudoLabelBatch,
    ) -> ArrayDataset:
        """Assemble the weighted fine-tuning dataset (Eq. 22).

        Uncertain samples carry their pseudo-labels weighted by credibility;
        confident samples (optionally) carry their own predictions with unit
        weight, which combats catastrophic forgetting.
        """
        target_inputs = np.asarray(target_inputs, dtype=np.float64)
        uncertain = split.uncertain_indices
        confident = split.confident_indices

        inputs_list = [target_inputs[uncertain]]
        labels_list = [pseudo_batch.pseudo_labels]
        if self.config.use_credibility:
            credibilities = pseudo_batch.credibilities.copy()
            if self.config.normalize_credibility and credibilities.size and credibilities.mean() > 0:
                credibilities = credibilities / credibilities.mean()
            weights_list = [credibilities]
        else:
            weights_list = [np.ones(len(uncertain))]

        if self.config.include_confident_data and len(confident) > 0:
            inputs_list.append(target_inputs[confident])
            labels_list.append(prediction.mean[confident])
            weights_list.append(np.ones(len(confident)))

        inputs = np.concatenate(inputs_list, axis=0)
        labels = np.concatenate(labels_list, axis=0)
        weights = np.concatenate(weights_list, axis=0)
        return ArrayDataset(inputs, labels, weights)
