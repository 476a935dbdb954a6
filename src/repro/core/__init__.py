"""TASFAR core: confidence split, label density estimation, pseudo-labelling, adaptation."""

from ..engine import LossDropEarlyStopper
from .adapter import AdaptationResult, NoConfidentSamplesError, SourceCalibration, Tasfar
from .confidence import ConfidenceClassifier, ConfidenceSplit
from .config import TasfarConfig
from .density_map import LabelDensityMap
from .estimator import LabelDistributionEstimator
from .pseudo_label import PseudoLabelBatch, PseudoLabelGenerator

__all__ = [
    "AdaptationResult",
    "ConfidenceClassifier",
    "ConfidenceSplit",
    "LabelDensityMap",
    "LabelDistributionEstimator",
    "LossDropEarlyStopper",
    "NoConfidentSamplesError",
    "PseudoLabelBatch",
    "PseudoLabelGenerator",
    "SourceCalibration",
    "Tasfar",
    "TasfarConfig",
]
