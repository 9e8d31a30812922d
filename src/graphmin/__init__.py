"""Graph-state rewriting, foliage partitions, and vertex-minor deciders.

Each public name, submodules included, is imported on first use (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_PUBLIC = {  # module: the names it provides here, led by the module itself if that is a name here
    "graph": "graph MAX_LABEL Graph UnknownVertexError complete_graph connected_components delete_vertex "
             "local_complement measure_x measure_y measure_z path_graph ring_graph",
    "ops": "ops DELETE LC MEASURE_X MEASURE_Y MEASURE_Z Decision Step apply_step replay",
    "orbit": "orbit DEFAULT_NODE_BUDGET BudgetExceededError lc_equivalent lc_orbit lc_orbit_paths lc_path",
    "foliage": "foliage BlockShape FoliageGraph InvalidPartitionError Partition canonical_foliage_partition "
               "classify_block foliage_equivalent foliage_graph is_foliage_partition nth_foliage_graph singletons",
    "minor": "minor decide_vertex_minor",
    "bell": "bell BellQuery NotATreeError decide_bell decide_bell_line decide_bell_ring decide_bell_tree "
            "line_query ring_query tree_query",
    "io": "io FormatError parse_edge_list parse_graph6 read_graph write_edge_list",
    # these modules are not names here: ``graphmin.reduction`` and ``graphmin.quantum`` need their own import
    "reduction": "extract_foliage_graph source_reduce target_reduce",
    "quantum": "StateCapError find_measurement_correction graph_state verify_lc_unitary verify_measurement",
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = _import_module(f"{__name__}.{module}")  # binds the submodule here as well
    return found if name == module else getattr(found, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
