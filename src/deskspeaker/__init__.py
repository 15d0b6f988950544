"""Desk-scale speaker recognition: attentive pooling for neural embeddings
and frame-weighted i-vectors, compared end to end on synthetic corpora."""

from .backend import (PldaModel, Preprocessor, apply_preprocess,
                      fit_preprocessor, plda_score_matrix, train_plda)
from .config import PipelineConfig, default_config, load_config, save_config
from .errors import (DegenerateScoreSetError, DegenerateWeightsError,
                     DeskSpeakerError, EmptyInputError, FormatError,
                     MissingAttentionError, NumericsError,
                     StageDependencyError, TooShortUtteranceError)
from .harness import (Report, SystemResult, expand_frame_weights,
                      load_report, run_pipeline)
from .ivector import (SufficientStats, TotalVariabilityModel,
                      accumulate_stats, extract_ivector, train_tvm)
from .metrics import (TrialScoreSet, compute_eer, compute_min_cprimary,
                      weight_posterior_correlation)
from .synth import SynthCorpus, SynthCorpusConfig, generate_corpus
from .ubm import DiagGmm, gmm_posteriors, train_gmm

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig", "default_config", "load_config", "save_config",
    "run_pipeline", "Report", "SystemResult", "load_report",
    "expand_frame_weights", "SynthCorpus",
    "SynthCorpusConfig", "generate_corpus", "DiagGmm", "train_gmm",
    "gmm_posteriors", "SufficientStats",
    "TotalVariabilityModel", "accumulate_stats", "extract_ivector",
    "train_tvm", "Preprocessor", "fit_preprocessor", "apply_preprocess",
    "PldaModel", "train_plda", "plda_score_matrix",
    "TrialScoreSet", "compute_eer", "compute_min_cprimary",
    "weight_posterior_correlation", "DeskSpeakerError", "EmptyInputError",
    "TooShortUtteranceError", "DegenerateWeightsError",
    "MissingAttentionError", "NumericsError", "FormatError",
    "StageDependencyError", "DegenerateScoreSetError",
    "__version__",
]
