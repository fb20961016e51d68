"""Decentralized stochastic optimization simulator.

Core pieces: gossip topologies with accelerated consensus
(:mod:`lmtsim.topology`), per-agent gradient oracles
(:mod:`lmtsim.objectives`), the local momentum tracking round and its
step-size schedules (:mod:`lmtsim.lmt`), comparison baselines
(:mod:`lmtsim.baselines`), per-round diagnostics
(:mod:`lmtsim.diagnostics`), and the config-driven experiment harness
(:mod:`lmtsim.harness`).
"""

__version__ = "0.1.0"

from .topology import (C0, MixingMatrix, MixingMatrixError,
                       build_complete_mixing, build_ring_mixing, lca_mix,
                       load_mixing_csv)
from .objectives import (Dataset, DatasetError, GradientOracle,
                         LogisticOracle, PartitionedDataset, QuadraticOracle,
                         load_csv, load_libsvm, make_synthetic_classification,
                         partition_heterogeneous, quadratic_pl_oracle)
from .lmt import (HyperParams, accelerated_consensus, init_state, lmt_round,
                  local_steps, local_update_phase, naive_local_momentum_round,
                  theorem1_stepsizes, theorem2_stepsizes,
                  tracking_and_correction)
from .baselines import BaselineSpec, baseline_round, stepsize_parity_map
from .diagnostics import (consensus_error, d_bar_sequence, lyapunov_surrogate,
                          solve_f_star)
from .config import ConfigError, ExperimentConfig, parse_config_text
from .harness import ResultTable, run_experiment, run_sweep
from .streams import TrialStreams
