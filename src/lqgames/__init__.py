"""N-player discrete-time LQ games as a discrete dynamical system.

The backward coupled Riccati recursion computes the unique finite-horizon
feedback equilibrium stage by stage; iterating it from a terminal cost and
watching where the orbit goes exposes the infinite-horizon structure:
fixed points are stationary equilibria, periodic orbits are periodic
equilibria, and some orbits stay bounded without ever settling.
"""

from .model import (GainTuple, GameSpec, PTuple, TerminalReport,
                    ValidationReport, pbh_stabilizable, validate_game,
                    validate_terminal)
from .riccati import (ConvergenceStop, NoConvergence, NotStabilizable,
                      RecursionTrace, SingularStageSystem, StageSystem,
                      TerminationRecord, assemble_stage_system,
                      best_response_dare, closed_loop, partial_closed_loop,
                      riccati_step, run_recursion, solve_stage_gains)
from .analysis import (CertificationFailed, Classification, ClassifyOptions,
                       CycleCertificate, NashVerification, classify,
                       detect_convergence, detect_cycle,
                       fixed_point_residual, nash_verify_stationary,
                       spectral_radius, stage_gains, verify_cycle)
from .equilibria import (EquilibriumPoint, EquilibriumSet, NoEquilibriumFound,
                         residual_descent_search, scalar_two_agent_equilibria)
from .simulate import (DeviationReport, Trajectory, deviation_test,
                       finite_horizon_cost, simulate)
from .experiments import (BasinMap, CensusIncomplete, CycleCensus,
                          EnsembleReport, GenerationFailed, cycle_census,
                          random_game, random_terminal, run_basin_grid,
                          run_ensemble)
from .fileio import export_trace_figures, read_game, read_ptuple, write_game, \
    write_ptuple

__version__ = "0.1.0"

__all__ = [
    "GameSpec", "PTuple", "GainTuple", "ValidationReport", "validate_game",
    "TerminalReport", "validate_terminal", "pbh_stabilizable",
    "StageSystem", "RecursionTrace", "TerminationRecord", "ConvergenceStop",
    "assemble_stage_system", "solve_stage_gains", "riccati_step",
    "run_recursion", "closed_loop", "partial_closed_loop",
    "best_response_dare", "SingularStageSystem", "NotStabilizable",
    "NoConvergence",
    "Classification", "ClassifyOptions", "CycleCertificate",
    "NashVerification", "CertificationFailed", "classify",
    "detect_convergence", "detect_cycle", "fixed_point_residual",
    "nash_verify_stationary", "spectral_radius", "stage_gains",
    "verify_cycle",
    "EquilibriumPoint", "EquilibriumSet", "NoEquilibriumFound",
    "scalar_two_agent_equilibria", "residual_descent_search",
    "Trajectory", "DeviationReport", "simulate", "finite_horizon_cost",
    "deviation_test",
    "BasinMap", "EnsembleReport", "CycleCensus", "GenerationFailed",
    "CensusIncomplete", "random_game", "random_terminal", "run_basin_grid",
    "run_ensemble", "cycle_census",
    "export_trace_figures", "read_game", "write_game", "read_ptuple",
    "write_ptuple",
]
