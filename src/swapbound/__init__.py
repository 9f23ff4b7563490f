"""Swap-count bounds for mapping circuits onto constrained devices."""

from .assignment import Assignment, AssignmentResult, assign_qubits, max_swap_bound
from .circuits import (
    Circuit,
    DeviceSpec,
    InteractionGraph,
    interaction_graph,
    parse_circuit_json,
    parse_circuit_qasm_subset,
    parse_device,
)
from .errors import (
    NumericalError,
    ParseError,
    SizeGuardError,
    SwapBoundError,
    UnsupportedError,
    ValidationError,
)
from .graphs import Graph
from .oracle import brute_force_min_swaps, brute_force_over_assignments
from .spectral import entropy_curve, laplacian
from .uncomplexity import (
    AlgoTrace,
    BoundReport,
    SweepResult,
    beta_sweep,
    compute_bound,
    standard_beta_grid,
    swap_uncomplexity,
)

__version__ = "0.1.0"
