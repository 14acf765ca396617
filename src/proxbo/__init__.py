"""Batch Bayesian optimization for proximal sequence design.

Deep-ensemble surrogates over one-hot sequences, UCB/EI/knowledge-gradient
acquisition, a distance-regularized campaign loop, and a reproducible
experiment harness over lookup and NK fitness landscapes.
"""

from .acquisition import KGConfig, Posterior, ei, kg_oneshot, select_batch, ucb
from .explorer import (ExplorerState, FrontierPoint, PoolProposal, RoundRecord,
                       propose_pool, random_search_round, regularized_score, run_round,
                       update_frontier)
from .harness import (AggregateCurve, CampaignConfig, aggregate_dir, aggregate_runs,
                      gen_nk, load_config, parse_config_text, run_campaign)
from .landscape import (BudgetedOracle, LookupLandscape, NKLandscape, load_lookup,
                        make_nk)
from .sequences import (Alphabet, Sequence, encode_batch, encode_onehot,
                        decode_onehot, hamming_distance, point_mutate,
                        protein_alphabet, sample_mutants, small_alphabet)
from .surrogate import (ConvRegressorConfig, Dataset, Ensemble,
                        RecurrentRegressorConfig, TrainConfig, gradient_check)

__version__ = "0.1.0"
