"""Saturation-driven distributed control over monotone networked plants.

The package bundles three layers: physical plant models (a reactive-power
grid voltage model and a water-network pressure model, plus affine test
plants), the per-round control protocol with event-triggered beacon
messaging, and a scenario harness that applies a disruption, runs the
loop, and records traces.
"""
from .errors import (HydraulicInfeasibleError, ModelError, PlantSolveError,
                     PowerFlowInfeasibleError, PumpReverseFlowError,
                     ScenarioError, SingularJacobianError, SolverError)
from .graph import Graph, adjacency_matrix, is_connected, weighted_laplacian
from .plant import (LinearPlant, PlantModel, ProbeResult, feasibility_check,
                    max_effort_feasibility, monotonicity_probe)
from .power import (GridModel, GridPlant, PowerFlowSolution, loadability_sweep,
                    reactive_injections, solve_load_voltages)
from .protocol import (ProtocolGains, auto_gains, gain_condition,
                       is_equilibrium, message_counts, protocol_round,
                       round_constants, spectral_norm)
from .scenario_io import (bundled_scenario_path, load_scenario,
                          scenario_from_dict)
from .sim import (DisruptionEvent, MessageStats, Outcome, Scenario, Trace,
                  TraceRecord, disrupted_setup, message_stats, run,
                  verify_trace)
from .water import (HydraulicSolution, PipeLaw, PumpLaw, WaterModel,
                    WaterPlant, check_pressure_ordering, edge_pressure_drop,
                    solve_network)

__version__ = "0.1.0"
