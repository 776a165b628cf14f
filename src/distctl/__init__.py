"""Distributional control of tabular autoregressive sequence models.

Specify pointwise or distributional moment constraints on a base model,
derive the minimal-KL energy-based target, estimate its moments and
divergences by importance sampling, and train an autoregressive policy
toward it with an adaptive distributional policy gradient. Everything is
checkable against exhaustive-enumeration oracles on small universes.
"""

__version__ = "0.1.0"

from .ebm import Ebm, FitConfig, FitReport, fit_lambda
from .errors import DistctlError
from .estimators import Estimate, ZMovingAverage
from .features import (
    ConstraintSet,
    ConstraintSpec,
    Feature,
    PrefixMatch,
    TokenPresence,
    TokenRatio,
    WordlistPresence,
)
from .lm import TabularARModel, mle_fit
from .metrics import EvalOptions, MetricsRecord
from .dpg import DpgConfig, TrainResult, train
from .baselines import BaselineConfig, RejectionConfig, rejection_mle, train_baseline
from .seqspace import (
    SampleBatch,
    SequenceSpace,
    Vocabulary,
    tokenize_corpus,
)

__all__ = [
    "BaselineConfig",
    "ConstraintSet",
    "ConstraintSpec",
    "DistctlError",
    "DpgConfig",
    "Ebm",
    "Estimate",
    "EvalOptions",
    "Feature",
    "FitConfig",
    "FitReport",
    "MetricsRecord",
    "PrefixMatch",
    "RejectionConfig",
    "SampleBatch",
    "SequenceSpace",
    "TabularARModel",
    "TokenPresence",
    "TokenRatio",
    "TrainResult",
    "Vocabulary",
    "WordlistPresence",
    "ZMovingAverage",
    "fit_lambda",
    "mle_fit",
    "rejection_mle",
    "tokenize_corpus",
    "train",
    "train_baseline",
]
