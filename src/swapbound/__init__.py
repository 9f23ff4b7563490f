"""Swap-count bounds for mapping circuits onto constrained devices."""

from .assignment import (
    Assignment,
    AssignmentResult,
    GedResult,
    SubgraphClass,
    assign_qubits,
    enumerate_connected_subgraph_classes,
    graph_edit_distance,
    max_swap_bound,
    most_connected_subgraph,
    vf2_embed,
)
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
    SweepError,
    UnsupportedError,
    ValidationError,
)
from .graphs import Graph, canonical_form, graph_diameter, induced_subgraph
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
