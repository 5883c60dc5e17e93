"""The solvable-graph validators and K4-freeness against networkx on every
graph of the networkx atlas (all 1,253 graphs on at most 7 vertices)."""

import pytest

from chargraph.classify import check_palfy, check_solvable_shape
from chargraph.graphs import CharGraph, is_kn_free

nx = pytest.importorskip("networkx")

PRIMES = (2, 3, 5, 7, 11, 13, 17)


def atlas():
    """(networkx graph, the same graph as a CharGraph on primes) pairs."""
    out = []
    for g in nx.graph_atlas_g():
        label = dict(zip(sorted(g), PRIMES))
        out.append((g, CharGraph([label[v] for v in g], [(label[a], label[b]) for a, b in g.edges])))
    return out


ATLAS = atlas()


def nx_has_triangle(g) -> bool:
    return any(nx.triangles(g).values())


def nx_kn_free(g, n: int) -> bool:
    return all(len(c) < n for c in nx.find_cliques(g))


def nx_palfy(g) -> bool:
    return not nx_has_triangle(nx.complement(g))


def nx_solvable_shape(g) -> bool:
    if g.number_of_nodes() <= 3:
        return True
    return nx_has_triangle(g) or nx.is_isomorphic(g, nx.cycle_graph(4))


def test_atlas_is_complete():
    assert len(ATLAS) == 1253


def test_check_palfy_matches_networkx():
    assert [check_palfy(c) for _, c in ATLAS] == [nx_palfy(g) for g, _ in ATLAS]


def test_check_solvable_shape_matches_networkx():
    assert [check_solvable_shape(c) for _, c in ATLAS] == [nx_solvable_shape(g) for g, _ in ATLAS]


@pytest.mark.parametrize("n", range(2, 9))
def test_is_kn_free_matches_networkx(n):
    # The neighbourhood search against networkx's maximal cliques, for
    # every clique size up to one past the atlas's 7 vertices.
    assert [is_kn_free(c, n) for _, c in ATLAS] == [nx_kn_free(g, n) for g, _ in ATLAS]


def test_seven_vertex_counts():
    seven = [c for g, c in ATLAS if g.number_of_nodes() == 7]
    k4_free = [c for c in seven if is_kn_free(c, 4)]
    assert len(seven) == 1044
    assert len(k4_free) == 685
    assert sum(check_palfy(c) for c in k4_free) == 9


def test_k4_free_seven_vertices_imply_non_bipartite_complement():
    # A bipartite complement on 7 vertices has a side of >= 4 vertices,
    # which is a K4 in the graph itself (see classify.verify_main).
    for g, c in ATLAS:
        if g.number_of_nodes() == 7 and is_kn_free(c, 4):
            assert not nx.is_bipartite(nx.complement(g))
