"""The package surface: exactly the library modules' ``__all__`` lists."""

import hyperconn

PUBLIC_NAMES = {
    "__version__",
    # model
    "HypergraphError", "ParseError", "GuardError", "Hypergraph",
    "LinearityVerdict", "BoundaryProfile", "VertexProfile",
    "parse_hypergraph", "serialize_hypergraph", "degree", "degree_extremes",
    "is_uniform", "is_linear", "components", "is_connected", "boundary",
    "boundary_profile", "vertex_profile",
    # connectivity
    "CutResult", "st_edge_connectivity", "edge_connectivity",
    "edge_connectivity_oracle", "edge_atom", "is_maximally_edge_connected",
    # symmetry
    "CapExceededError", "BlockVerdict", "is_automorphism",
    "find_automorphism_mapping", "is_vertex_transitive",
    "transitivity_generators", "vertex_orbits", "enumerate_automorphisms",
    "is_block_of_imprimitivity",
    # constructions
    "SplitMix64", "ParallelClasses", "complete_uniform", "glued_complete_family",
    "affine_plane_classes", "affine_hypergraph", "affine_doubled_family",
    "cyclic_difference_hypergraph", "base_differences_distinct",
    "circulant_graph", "random_uniform_hypergraph", "builtin_corpus",
    "transitive_graph_corpus", "linear_uniform_corpus",
}


def test_package_exports_exactly_the_module_lists():
    names = hyperconn.__all__
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_NAMES
    for name in names:
        assert getattr(hyperconn, name) is not None
    modules = (hyperconn.model, hyperconn.connectivity, hyperconn.symmetry, hyperconn.constructions)
    assert names == ["__version__", *(name for module in modules for name in module.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(hyperconn, name) is getattr(module, name)
