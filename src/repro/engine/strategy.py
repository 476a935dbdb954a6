"""One adaptation call for every adaptation scheme.

An :class:`AdaptationStrategy` is the one dialect every scheme speaks, for
the runtime services, the CLI and the experiment harness alike:
:class:`TasfarStrategy` wraps :class:`~repro.core.Tasfar`, and the five
comparison schemes in :mod:`repro.baselines` subclass
:class:`BaselineStrategy`.  A scheme implements two methods:

* :meth:`AdaptationStrategy.prepare` runs once, source-side, before
  deployment, and absorbs whatever the scheme ships to the target — TASFAR's
  calibration (``Q_s`` and ``tau``), Datafree's feature statistics, or the
  labelled source dataset for the source-based schemes;
* ``adapt_stacked`` runs at the target with unlabeled data, for a list of
  :class:`StackJob` (a lone target is a list of one): the one call through
  which the runtime adapts.  A job may start from a previously adapted
  model, so the streaming service warm-starts *any* scheme.

:meth:`AdaptationStrategy.adapt` is the one-job call of ``adapt_stacked``.

Strategies are looked up by scheme name through :mod:`repro.engine.registry`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..core.adapter import AdaptationResult, SourceCalibration, Tasfar
from ..core.config import TasfarConfig
from ..core.density_map import LabelDensityMap
from ..nn.data import ArrayDataset
from ..nn.losses import Loss
from ..nn.models import RegressionModel

__all__ = [
    "SourceResources",
    "StrategyOutcome",
    "StackJob",
    "AdaptationStrategy",
    "TasfarStrategy",
    "BaselineStrategy",
]


@dataclass
class SourceResources:
    """Everything a strategy may consume during source-side preparation.

    All fields are optional; each strategy takes what its setting allows —
    a source-free scheme never touches ``source_data``.
    """

    #: Labelled source training data (source-based schemes only).
    source_data: ArrayDataset | None = None
    #: Held-out labelled source split for calibration-style statistics.
    calibration_data: ArrayDataset | None = None
    #: Pre-fitted TASFAR source calibration, when already available.
    calibration: SourceCalibration | None = None


@dataclass
class StrategyOutcome:
    """Scheme-agnostic result of one strategy adaptation."""

    target_model: RegressionModel
    scheme: str
    losses: list[float] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    stopped_epoch: int | None = None
    #: Estimated label density map, when the scheme produces one (TASFAR).
    density_map: LabelDensityMap | None = None
    #: The full TASFAR result for schemes that have one; ``None`` otherwise.
    result: AdaptationResult | None = None


@dataclass
class StackJob:
    """One target's slot in an ``adapt_stacked`` call.

    ``model`` is the start model for this target — the source model, or a
    previously adapted model for warm starts.  Jobs may share one instance,
    and it may be serving on other threads: the scheme probes and trains a
    clone of it and never mutates it.  The runtime also queues jobs with
    ``model=None``, meaning the runner's source model, which
    :func:`~repro.runtime.workers.run_task` fills in before the scheme sees
    the job, so a cold job crosses a process boundary without weights.
    """

    model: RegressionModel | None
    inputs: np.ndarray
    seed: int | None = None
    target_id: str | None = None


class AdaptationStrategy:
    """Interface every adaptation scheme exposes to the runtime layers.

    A scheme implements :meth:`prepare` and
    ``adapt_stacked(jobs: list[StackJob], *, warm_epochs=None)``, which
    returns one ``(outcome, error)`` pair per job, in input order.  Jobs
    that cannot share a stack (different dataset lengths, say) go to
    separate groups, never padded (``nn/stacked.py``), so each outcome is
    **bit-identical** whatever jobs it came with.  A job's failure is its
    error; one that concerns the whole call (an unprepared scheme) may be
    raised.  ``warm_epochs`` shortens the schedule for warm starts.
    """

    name: str = "strategy"
    #: whether :meth:`prepare` needs the labelled source dataset
    requires_source_data: bool = False

    @property
    def default_epochs(self) -> int | None:
        """The scheme's cold (full-schedule) epoch budget, when known.

        The streaming service derives its default warm-start schedule from
        this (a quarter of the cold budget), so "warm is shorter than cold"
        holds for every scheme, not just TASFAR.  ``None`` means unknown.
        """
        return None

    def prepare(
        self, source_model: RegressionModel, resources: SourceResources
    ) -> "AdaptationStrategy":
        """Source-side preparation (run once, before deployment).

        Returns ``self`` so ``create_strategy(...).prepare(...)`` chains.
        """
        return self

    def adapt(
        self,
        source_model: RegressionModel,
        target_inputs: np.ndarray,
        *,
        seed: int | None = None,
        base_model: RegressionModel | None = None,
        warm_epochs: int | None = None,
    ) -> StrategyOutcome:
        """Adapt to one target domain: the one-job call of ``adapt_stacked``.

        Parameters
        ----------
        source_model:
            The pristine source model; never modified.
        seed:
            Per-target seed; ``None`` keeps the scheme's construction-time
            seeding (what the experiment harness historically did).
        base_model:
            When given, adaptation *warm-starts* from this (already adapted)
            model instead of the source model.
        warm_epochs:
            Shorter fine-tuning schedule for warm starts; ``None`` keeps the
            scheme's full schedule.

        Raises the job's error, if it failed.
        """
        start_model = base_model if base_model is not None else source_model
        job = StackJob(model=start_model, inputs=target_inputs, seed=seed)
        [(outcome, error)] = self.adapt_stacked([job], warm_epochs=warm_epochs)
        if error is not None:
            raise error
        return outcome


class TasfarStrategy(AdaptationStrategy):
    """TASFAR behind the strategy surface; uncalibrated, ``adapt_stacked`` raises."""

    name = "tasfar"
    requires_source_data = False

    def __init__(
        self,
        config: TasfarConfig | None = None,
        loss: Loss | None = None,
        calibration: SourceCalibration | None = None,
    ) -> None:
        self.config = config if config is not None else TasfarConfig()
        self.loss = loss
        self.calibration = calibration

    @property
    def default_epochs(self) -> int | None:
        return self.config.adaptation_epochs

    def prepare(self, source_model, resources: SourceResources) -> "TasfarStrategy":
        if resources.calibration is not None:
            self.calibration = resources.calibration
        elif self.calibration is None:
            data = resources.calibration_data or resources.source_data
            if data is None:
                raise ValueError(
                    "TASFAR needs a pre-fitted calibration or labelled source data to fit one"
                )
            self.calibration = Tasfar(self.config, loss=self.loss).calibrate_on_source(
                source_model, data.inputs, data.targets
            )
        return self

    def _config_for(self, warm_epochs: int | None) -> TasfarConfig:
        if warm_epochs is None:
            return self.config
        return dataclasses.replace(
            self.config,
            adaptation_epochs=int(warm_epochs),
            min_adaptation_epochs=min(self.config.min_adaptation_epochs, int(warm_epochs)),
        )

    def _outcome_from(self, result: AdaptationResult) -> StrategyOutcome:
        return StrategyOutcome(
            target_model=result.target_model,
            scheme=self.name,
            losses=result.losses,
            stopped_epoch=result.stopped_epoch,
            density_map=result.density_map,
            result=result,
            diagnostics={
                "uncertain_ratio": result.split.uncertain_ratio,
                "n_confident": result.split.n_confident,
                "n_uncertain": result.split.n_uncertain,
                "stopped_epoch": result.stopped_epoch,
            },
        )

    def adapt_stacked(
        self, jobs: list[StackJob], *, warm_epochs: int | None = None
    ) -> list[tuple[StrategyOutcome | None, Exception | None]]:
        if self.calibration is None:
            raise ValueError(
                "TasfarStrategy has no calibration: call prepare() (or construct with "
                "calibration=...) before adapting"
            )
        tasfar = Tasfar(self._config_for(warm_epochs), loss=self.loss)
        raw = tasfar.adapt_stacked(
            [(job.model, job.inputs, job.seed) for job in jobs], self.calibration
        )
        return [
            (None, error) if error is not None else (self._outcome_from(result), None)
            for result, error in raw
        ]


class BaselineStrategy(AdaptationStrategy):
    """Base of the five comparison schemes (Baseline, MMD, ADV, AUGfree, Datafree).

    A subclass holds its hyperparameters (``epochs``, ``seed``, ...) and
    writes its fine-tune once, as ``_adapt_stack(jobs, epochs)`` over one
    group of compatible :class:`StackJob` whose seeds are resolved;
    ``adapt_stacked`` groups the jobs and calls it once per group.  Nothing
    per call is stored on the instance, so one prepared strategy is safe to
    drive from a worker pool.

    Grouping follows the bit-identity argument in ``nn/stacked.py``: a stack
    never pads, so jobs share one only when their dataset lengths agree (for
    the source-free schemes the target set *is* the dataset; for MMD/ADV it
    sizes the per-batch target draw).  Every other hyperparameter is the
    instance's own, and seeds may differ freely: each replica keeps its own
    generator.
    """

    #: Full (cold) fine-tune schedule; ``None`` for a scheme without one.
    epochs: int | None = None
    #: Construction seed, used for jobs that carry no seed of their own.
    seed: int = 0
    _source_data: ArrayDataset | None = None

    @property
    def default_epochs(self) -> int | None:
        return None if self.epochs is None else int(self.epochs)

    def prepare(self, source_model, resources: SourceResources) -> "BaselineStrategy":
        if self.requires_source_data:
            if resources.source_data is None:
                raise ValueError(
                    f"scheme {self.name!r} requires labelled source data at preparation time"
                )
            self._source_data = resources.source_data
        return self

    def adapt_stacked(
        self, jobs: list[StackJob], *, warm_epochs: int | None = None
    ) -> list[tuple[StrategyOutcome | None, Exception | None]]:
        if self.requires_source_data and self._source_data is None:
            raise ValueError(
                f"scheme {self.name!r} requires labelled source data: call prepare() "
                "before adapting"
            )
        epochs = self.epochs if warm_epochs is None else int(warm_epochs)
        groups: dict[int, list[int]] = {}
        for index, job in enumerate(jobs):
            groups.setdefault(len(job.inputs), []).append(index)
        # A failure while adapting a stack is attributed to every job in it;
        # jobs in other groups are unaffected.
        results: list = [None] * len(jobs)
        for indices in groups.values():
            group = [
                dataclasses.replace(
                    jobs[i], seed=self.seed if jobs[i].seed is None else int(jobs[i].seed)
                )
                for i in indices
            ]
            try:
                outcomes = self._adapt_stack(group, epochs)
            except Exception as exc:
                for index in indices:
                    results[index] = (None, exc)
            else:
                for index, outcome in zip(indices, outcomes):
                    results[index] = (outcome, None)
        return results

    def _adapt_stack(self, jobs: list[StackJob], epochs: int | None) -> list[StrategyOutcome]:
        """Adapt one group of compatible jobs as one stack (seeds resolved)."""
        raise NotImplementedError
