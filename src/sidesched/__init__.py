"""Subchannel scheduling for cellular V2X sidelinks under quantized SINR
feedback: square-reduced optimal matching, baselines, and a deterministic
Monte-Carlo evaluation harness."""

from .assignment import ReducedProblem, compress, expand_solution
from .cli import (ValidationReport, run_experiment, run_sweep,
                  validate_assignment_file, write_assignment_csv)
from .config import ExperimentConfig, config_from_dict, load_config
from .errors import (CapacityError, ConfigError, ConstraintViolation,
                     InfeasibleError, ParseError, ShapeError)
from .grid import DEFAULT_T_SPS_POOL_S, ResourceGrid, draw_t_sps, subframe_of
from .metrics import EvalReport, SweepRow, build_report, sweep_density
from .munkres import max_weight_assignment
from .pipeline import (CellResult, Draw, derive_seed, draw_cluster, draw_rates,
                       run_cell)
from .scenario import (Cluster, ScenarioModel, SinrMatrix, generate_sinr,
                       make_clusters, pad_to_square)
from .sideinfo import (QuantizedRates, QuantizerSpec, RateMatrix,
                       build_rate_matrices, quantize, rate_from_sinr)
from .solvers import (Assignment, METHODS, SolveStats, evaluate, solve_greedy,
                      solve_oracle, solve_proposed, solve_random,
                      verify_assignment)

__version__ = "0.1.0"
