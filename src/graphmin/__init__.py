"""Graph-state rewriting, foliage partitions, and vertex-minor deciders."""

from .graph import (
    MAX_LABEL,
    Graph,
    UnknownVertexError,
    complete_graph,
    connected_components,
    delete_vertex,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    path_graph,
    ring_graph,
)
from .ops import DELETE, LC, MEASURE_X, MEASURE_Y, MEASURE_Z, Step, apply_step, replay
from .orbit import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    lc_equivalent,
    lc_orbit,
    lc_orbit_paths,
    lc_path,
)
from .foliage import (
    BlockShape,
    FoliageGraph,
    InvalidPartitionError,
    Partition,
    canonical_foliage_partition,
    classify_block,
    foliage_equivalent,
    foliage_graph,
    is_foliage_partition,
    leaves_axils,
    lifted_local_complement,
    nth_foliage_graph,
    singletons,
    twins,
)
from .minor import (
    ClassFate,
    Decision,
    class_persistence_check,
    decide_vertex_minor,
    extract_foliage_graph,
    foliage_source_reduce,
    foliage_target_reduce,
    source_reduce,
    target_reduce,
)
from .bell import (
    BellQuery,
    NotATreeError,
    decide_bell,
    decide_bell_line,
    decide_bell_ring,
    decide_bell_tree,
    lemma_blockers,
    line_query,
    ring_query,
    tree_query,
)
from .io import FormatError, parse_edge_list, parse_graph6, read_graph, write_edge_list

__version__ = "0.1.0"

# The dense oracle needs NumPy, which costs more than all the rest of the
# import; its names are resolved from ``quantum`` on first use (PEP 562).
_QUANTUM_NAMES = ("StateCapError", "find_measurement_correction", "graph_state",
                  "verify_lc_unitary", "verify_measurement")


def __getattr__(name: str):
    if name in _QUANTUM_NAMES:
        from . import quantum
        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_QUANTUM_NAMES})
