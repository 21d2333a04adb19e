"""Fractional-diffusion graph embeddings with learned per-view orders.

The package splits along the pipeline: graph spectra (`graphs`), the
Mittag-Leffler kernel (`special`), fractional diffusion solvers (`solver`),
diffusion encoders (`encoder`), contrastive losses (`losses`), the adaptive
view-learning loop (`training`), evaluation and verification harnesses
(`diagnostics`), file formats and synthetic data (`data`), and the command
line (`cli`).
"""

from .data import Dataset, SynthSpec, load_dataset, synth_sbm
from .encoder import EncoderBank, EncoderParams, ViewEmbedding
from .graphs import Graph, SpectralBasis, build_graph, eigendecompose, normalized_laplacian
from .solver import DiffusionSpec, solve_caputo_pc, solve_linear_spectral, solve_with_skips
from .special import dml_dalpha, ml, ml_asymptotic, ml_spectrum
from .training import TrainConfig, TrainReport, avla, grad_loss, tune_beta

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "SynthSpec",
    "load_dataset",
    "synth_sbm",
    "EncoderBank",
    "EncoderParams",
    "ViewEmbedding",
    "Graph",
    "SpectralBasis",
    "build_graph",
    "eigendecompose",
    "normalized_laplacian",
    "DiffusionSpec",
    "solve_caputo_pc",
    "solve_linear_spectral",
    "solve_with_skips",
    "ml",
    "ml_spectrum",
    "ml_asymptotic",
    "dml_dalpha",
    "TrainConfig",
    "TrainReport",
    "avla",
    "grad_loss",
    "tune_beta",
    "__version__",
]
