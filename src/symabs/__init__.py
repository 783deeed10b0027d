"""Data-driven certification of symbolic abstractions for interconnected
discrete-time control systems.

The package samples a black-box subsystem, certifies a probabilistic
score-function relation between the subsystem and its finite quantization by
scenario optimization, composes the per-subsystem certificates into a
network-level guarantee under a small-gain condition, and synthesizes safety
controllers on the finite abstractions that refine to the concrete network.
"""

from .compose import (ComponentRelation, ComposedAbf, GainMatrix,
                      ScalingVector, build_gain_matrix, check_circularity,
                      compose_abf, find_scalings)
from .errors import (CapacityError, CompositionError, ConfigError, DomainError,
                     InfeasibleError, OracleError, ProtocolError,
                     RefinementError, SolverError, SymabsError, UnboundedError)
from .extoracle import ExternalOracle, serve_oracle
from .model import (BlackBoxSystem, InterconnectionTopology, RoomNetworkParams,
                    SystemSignature, build_room_network)
from .pipeline import PipelineConfig, run_pipeline
from .quantize import (AbstractPoint, UniformGrid, abstract_transition,
                       make_grid, product_grid, quantize, sink_point,
                       trivial_grid)
from .scenario import (ApbfCertificate, BasisSpec, DataLipschitz,
                       LinearLipschitz, NonlinearLipschitz, SampleBatch,
                       VariableBoxes, apbf_margin, certify_apbf,
                       convert_gains, draw_samples, kappa, kappa_inverse,
                       min_sample_size, quartic_difference_basis, solve_lp)
from .simplex import SimplexResult, solve_simplex, solve_with_rows
from .synthesize import (ControllerTable, FiniteTransitionSystem,
                         RefinedController, Trajectory, enumerate_abstraction,
                         safety_synthesis, simulate_closed_loop)

__version__ = "0.1.0"

__all__ = [
    "AbstractPoint", "ApbfCertificate", "BasisSpec", "BlackBoxSystem",
    "CapacityError", "ComponentRelation", "ComposedAbf", "CompositionError",
    "ConfigError", "ControllerTable", "DataLipschitz", "DomainError",
    "ExternalOracle", "FiniteTransitionSystem", "GainMatrix",
    "InfeasibleError", "InterconnectionTopology", "LinearLipschitz",
    "NonlinearLipschitz", "OracleError", "PipelineConfig", "ProtocolError",
    "RefinedController", "RefinementError", "RoomNetworkParams", "SampleBatch",
    "ScalingVector", "SimplexResult", "SolverError", "SymabsError",
    "SystemSignature", "Trajectory", "UnboundedError",
    "UniformGrid", "VariableBoxes", "abstract_transition", "apbf_margin",
    "build_gain_matrix", "build_room_network", "certify_apbf",
    "check_circularity", "compose_abf", "convert_gains", "draw_samples",
    "enumerate_abstraction", "find_scalings", "kappa", "kappa_inverse",
    "make_grid", "min_sample_size", "product_grid", "quantize",
    "quartic_difference_basis", "run_pipeline",
    "safety_synthesis", "serve_oracle", "simulate_closed_loop",
    "sink_point", "solve_lp", "solve_simplex", "solve_with_rows",
    "trivial_grid",
]
