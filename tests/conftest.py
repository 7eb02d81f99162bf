from propertyo import (
    OrientedHypergraph,
    cyclic_triangle,
    double_cycle_3graph,
    general_construction,
    merged_ten_edge_3graph,
    ten_edge_3graph,
)


def fixture_graphs() -> list[tuple[str, OrientedHypergraph]]:
    """The named instances every cross-cutting test runs over."""
    return [
        ("cyclic_triangle", cyclic_triangle()),
        ("ten_edge", ten_edge_3graph()),
        ("double_cycle", double_cycle_3graph()),
        ("merged_ten_edge", merged_ten_edge_3graph()),
        ("general_k3", general_construction(3)),
    ]

