"""Strategy engine: the one training loop and the scheme registry.

Layering: ``stacked``/``rng`` sit *below* ``core`` and ``baselines`` (they
implement the training loop those layers call into); ``strategy`` sits
above ``core`` and below ``baselines`` (it wraps TASFAR and is the base the
baseline schemes subclass); ``registry`` sits above both (it maps the scheme
names to those classes for the runtime services and the CLI).  The upper
half is therefore imported lazily — ``from repro.engine import
TasfarStrategy`` works, but merely importing :mod:`repro.core` (which pulls
in :class:`StackedFineTuneEngine`) does not drag the strategy layer, and the
``core → engine.stacked`` / ``engine.strategy → core`` pair stays acyclic.
"""

from .early_stopping import LossDropEarlyStopper
from .stacked import (
    FineTuneResult,
    StackedBatchStep,
    StackedFineTuneEngine,
    train_supervised,
)
from .rng import (
    ADAPTATION_STREAM,
    CALIBRATION_STREAM,
    PROBE_STREAM,
    stream_generator,
    stream_seed_sequence,
)

__all__ = [
    "ADAPTATION_STREAM",
    "AdaptationStrategy",
    "CALIBRATION_STREAM",
    "BaselineStrategy",
    "FineTuneResult",
    "LossDropEarlyStopper",
    "PROBE_STREAM",
    "SourceResources",
    "StackJob",
    "StackedBatchStep",
    "StackedFineTuneEngine",
    "StrategyOutcome",
    "TasfarStrategy",
    "create_strategy",
    "register_strategy",
    "strategy_names",
    "stream_generator",
    "stream_seed_sequence",
    "train_supervised",
]

#: Names resolved lazily from the strategy layer (PEP 562) to keep the
#: ``core -> engine.stacked`` import light and cycle-free.
_STRATEGY_EXPORTS = {
    "AdaptationStrategy": "strategy",
    "BaselineStrategy": "strategy",
    "SourceResources": "strategy",
    "StackJob": "strategy",
    "StrategyOutcome": "strategy",
    "TasfarStrategy": "strategy",
    "create_strategy": "registry",
    "register_strategy": "registry",
    "strategy_names": "registry",
}


def __getattr__(name: str):
    module_name = _STRATEGY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module_name}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
