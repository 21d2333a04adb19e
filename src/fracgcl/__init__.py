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
from .graphs import (
    Graph,
    LaplacianRows,
    SpectralBasis,
    build_graph,
    eigendecompose,
    laplacian_rows,
    normalized_laplacian,
)
from .solver import solve_caputo_pc, solve_linear_spectral
from .special import ml, ml_spectrum
from .training import TrainConfig, TrainReport, avla, grad_loss

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
    "LaplacianRows",
    "SpectralBasis",
    "build_graph",
    "eigendecompose",
    "laplacian_rows",
    "normalized_laplacian",
    "solve_caputo_pc",
    "solve_linear_spectral",
    "ml",
    "ml_spectrum",
    "TrainConfig",
    "TrainReport",
    "avla",
    "grad_loss",
    "__version__",
]
