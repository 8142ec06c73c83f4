"""Outlier-robust Bayesian optimization with confidence-bound guarantees.

Public surface: kernels, the GP posterior (plain or robust), plateau-IMQ weight
machinery, confidence schedules, adversarial corruption channels, benchmark
objectives, the optimization loops, and the benchmark harness.
"""

from .adversary import CorruptionBudget, EagerBudget, GreedyClairvoyant, NoCorruption, budget_from_horizon, corrupt
from .algorithms import BoState, Plan, fit_hyperparameters_loo, run_loop, standardize_targets, step
from .bench import ConfigError, ExperimentConfig, aggregate, load_config, run_experiment
from .gp import GpPosterior, gp_fit
from .kernels import FactorizationError, KernelSpec, cross_matrix, gram_matrix, info_gain
from .objectives import Objective, forrester, make_objective, observe
from .rcgp import rcgp_fit
from .schedules import CompactConvex, FiniteDomain, Rkhs, beta_prime, noise_bound, plateau_width, robust_beta
from .search import DomainSpec, maximize_acquisition
from .weights import PimqParams, build_corrections, c1_bound, cw_from_c1

__version__ = "0.1.0"
