"""Outlier-synthesis pipeline for out-of-distribution detection.

Synthetic data in, trained energy-score detector and FPR95/AUROC reports
out. See the README for the CLI and the module layout.
"""

__version__ = "0.1.0"

from .datagen import DataBundle, LabeledDataset, make_aux_dataset, make_id_dataset, make_ood_eval
from .escape import EscapeConfig, escape_dataset, escape_instance
from .evaluation import RunReport, auroc, choose_gamma, evaluate, fpr95, run_ablation_suite
from .losses import (
    EnergyDist,
    LogisticHead,
    ce_logistic_loss,
    fit_energy_distribution,
    jsd_discrimination_loss,
    nce_loss,
    total_loss,
)
from .network import MlpNetwork, RunState, load_checkpoint, save_checkpoint
from .numerics import (
    Gauss1d,
    GaussianModel,
    beta_sample,
    fit_gaussian,
    gaussian_logpdf,
    jsd_gauss1d,
    kld_gauss1d,
    moment_match_mixture,
)
from .rng import Rng
from .synthesis import ExpandedSet, expand_features, sample_virtual_outliers
from .training import TrainConfig, TrainLog, cosine_lr, sgd_step, train
