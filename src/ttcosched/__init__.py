"""Time-triggered co-scheduling of periodic tasks and crossbar messages."""

from .model import (Activity, CycleError, DerivedBounds, Instance, Platform,
                    PrecedenceDAG, ShapeError, chain_bounds, derive_bounds,
                    hyper_period, inherited_jitter, job_count,
                    jitter_critical, message_exec_time, worst_case_slack)
from .validation import (Schedule, ValidationReport, is_zero_jitter,
                         schedule_memory_bytes, utilization, validate)
from .mapping import Mapping, derive_message_mapping, map_exact, map_greedy
from .solver import (JC, ZJ, BuiltModel, ModelInfeasible, SolveResult,
                     build_model, solve, solve_instance)
from .heuristic import DomainStore, run_3ls, sub_model
from .generator import (GenParams, ParamError, ScaleError, ems_case_study,
                        generate, scale_to_utilization)
from .export import export_lp, export_smtlib, parse_smt_model
from .gantt import render_gantt
from .bench import ExperimentSpec, SweepLimits, max_util_sweep, run_experiment

__version__ = "0.1.0"
