"""Token-constrained contrastive learning with instance/prototype memory
banks, DBSCAN pseudo-labels, and retrieval evaluation on synthetic
identity data. Scripts import the four names below; the rest, from its module."""

from .config import load_run_config
from .evaluate import evaluate_encoder
from .synth import generate
from .training import train

__version__ = "0.1.0"
