"""Subchannel scheduling for cellular V2X sidelinks under quantized SINR
feedback: block-reduced optimal matching, baselines, and a deterministic
Monte-Carlo evaluation harness."""

from .assignment import ReducedProblem, compress, expand_solution
from .cli import (ValidationReport, run_experiment, run_sweep,
                  validate_assignment_file, write_assignment_csv)
from .config import ExperimentConfig, config_from_dict, load_config
from .errors import (CapacityError, ConfigError, ConstraintViolation,
                     InfeasibleError, ParseError, ShapeError)
from .grid import ResourceGrid
from .metrics import EvalReport, SweepRow, build_report, sweep_density
from .munkres import max_weight_assignment
from .pipeline import (CellResult, Draw, derive_seed, draw_cluster, draw_rates,
                       run_cell)
from .scenario import Cluster, ScenarioModel, generate_sinr, pad_to_square
from .sideinfo import (FineRates, QuantizedRates, QuantizerSpec,
                       build_rate_matrices, level_rates, quantize,
                       rate_from_sinr)
from .solvers import (Assignment, METHODS, evaluate, solve_greedy, solve_oracle,
                      solve_proposed, solve_random, verify_assignment)

__version__ = "0.1.0"
