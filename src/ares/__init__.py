"""Outlier-synthesis pipeline for out-of-distribution detection.

Synthetic data in, trained energy-score detector and FPR95/AUROC reports
out. See the README for the CLI and the module layout.
"""

__version__ = "0.1.0"

from .evaluation import evaluate
from .training import TrainConfig, train
