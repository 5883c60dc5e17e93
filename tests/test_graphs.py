import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargraph.degrees import graph_psl2
from chargraph.graphs import (
    CharGraph,
    DegreeSet,
    are_isomorphic,
    complement,
    connected_components,
    disjoint_union,
    graph_from_cd,
    induced,
    is_bipartite,
    is_kn_free,
    join,
    odd_cycle_triples,
)
from conftest import PRIMES, random_chargraph
from oracles import brute_isomorphic, brute_triangle


@st.composite
def char_graphs(draw, max_vertices=7):
    verts = sorted(draw(st.sets(st.sampled_from(PRIMES), max_size=max_vertices)))
    pairs = list(combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CharGraph(verts, [p for p, k in zip(pairs, keep) if k])


def complete_graph(labels):
    return CharGraph(labels, combinations(sorted(labels), 2))


def edgeless(labels):
    return CharGraph(labels)


class TestCharGraphType:
    def test_rejects_nonprime_vertex(self):
        with pytest.raises(ValueError):
            CharGraph([4])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError):
            CharGraph([2, 3], [(2, 5)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            CharGraph([2, 3], [(2, 2)])

    def test_normalizes_edges(self):
        g = CharGraph([5, 2, 3], [(3, 2), (2, 3)])
        assert g.vertices == (2, 3, 5)
        assert g.edges == ((2, 3),)

    def test_empty_graph_is_valid(self):
        g = CharGraph(())
        assert g.vertices == ()
        assert g.edge_count == 0

    def test_json_round_trip(self):
        g = CharGraph([2, 3, 7], [(2, 7)])
        assert CharGraph.from_json(g.to_json()) == g

    def test_dot_output(self):
        dot = CharGraph([3, 7], [(3, 7)]).to_dot()
        assert '"3" -- "7";' in dot
        assert dot.startswith("graph delta {")


class TestDegreeSet:
    def test_requires_one(self):
        with pytest.raises(ValueError):
            DegreeSet([2, 3])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DegreeSet([0, 1])

    def test_normalizes(self):
        assert DegreeSet([5, 1, 5, 3]).degrees == (1, 3, 5)

    def test_rho(self):
        assert DegreeSet([1, 12, 5]).rho() == {2, 3, 5}

    def test_json_round_trip(self):
        ds = DegreeSet([1, 5, 11])
        assert DegreeSet.from_json(ds.to_json()) == ds


class TestGraphFromCd:
    def test_no_products_means_no_edges(self):
        g = graph_from_cd(DegreeSet([1, 3, 4, 5]))
        assert g.vertices == (2, 3, 5)
        assert g.edges == ()

    def test_trivial_degree_set(self):
        g = graph_from_cd(DegreeSet([1]))
        assert g.vertices == ()

    def test_psl2_11_degrees(self):
        g = graph_from_cd(DegreeSet([1, 5, 10, 11, 12]))
        assert g.vertices == (2, 3, 5, 11)
        assert g.edges == ((2, 3), (2, 5))


class TestJoin:
    def test_two_edgeless_pairs_make_a_square(self):
        g = join(edgeless([11, 13]), edgeless([5, 7]))
        assert g.vertices == (5, 7, 11, 13)
        assert g.edges == ((5, 11), (5, 13), (7, 11), (7, 13))
        assert are_isomorphic(g, CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)]))

    def test_empty_is_identity(self):
        g = complete_graph([2, 3])
        assert join(CharGraph(()), g) == g

    def test_edge_count(self):
        g = join(edgeless([19, 23, 29]), CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)]))
        assert g.vertex_count == 7
        assert g.edge_count == 16

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            join(edgeless([2, 3]), edgeless([3, 5]))

    def test_n_ary_equals_nested_binary(self):
        a, b, c = complete_graph([2, 3]), edgeless([5, 7]), complete_graph([11, 13, 17])
        assert join(a, b, c) == join(join(a, b), c) == join(a, join(b, c))
        assert join(a) == a
        assert join() == CharGraph(())

    def test_rejects_overlap_between_any_two_parts(self):
        with pytest.raises(ValueError, match=r"vertex sets overlap: \[2, 5\]"):
            join(edgeless([2, 5]), edgeless([3]), edgeless([2, 5, 7]))


class TestDisjointUnion:
    def test_case_iii_shape(self):
        g = disjoint_union(
            disjoint_union(complete_graph([3, 43, 127]), edgeless([2])),
            complete_graph([5, 29, 113]),
        )
        assert g.vertex_count == 7
        assert g.edge_count == 6
        assert g == graph_psl2(2**14)

    def test_empty_is_identity(self):
        g = complete_graph([2, 3, 5])
        assert disjoint_union(g, CharGraph(())) == g

    def test_two_singletons(self):
        g = disjoint_union(edgeless([2]), edgeless([3]))
        assert g.vertex_count == 2
        assert g.edge_count == 0

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            disjoint_union(edgeless([2]), edgeless([2]))

    def test_n_ary_equals_nested_binary(self):
        a, b, c = complete_graph([2, 3]), edgeless([5, 7]), complete_graph([11, 13, 17])
        assert disjoint_union(a, b, c) == disjoint_union(disjoint_union(a, b), c)
        assert disjoint_union(a) == a
        assert disjoint_union() == CharGraph(())

    def test_rejects_overlap_between_any_two_parts(self):
        with pytest.raises(ValueError, match=r"vertex sets overlap: \[3\]"):
            disjoint_union(edgeless([3]), edgeless([2]), edgeless([3, 5]))


class TestComplement:
    def test_complete_becomes_edgeless(self):
        assert complement(complete_graph([2, 3, 5, 7])).edge_count == 0

    @settings(max_examples=100)
    @given(char_graphs())
    def test_involution(self, g):
        assert complement(complement(g)) == g

    def test_union_of_cliques_has_complement_triangle(self):
        g = disjoint_union(
            disjoint_union(complete_graph([2, 3, 5]), edgeless([7])),
            complete_graph([11, 13, 17]),
        )
        c = complement(g)
        assert brute_triangle(c.vertices, set(c.edges)) is not None


class TestInduced:
    def test_matches_adjacency(self):
        square = join(edgeless([5, 11]), edgeless([7, 13]))
        assert induced(square, {5, 7}).edges == ((5, 7),)
        assert induced(square, {5, 11}).edges == ()

    def test_empty_selection(self):
        assert induced(complete_graph([2, 3]), set()) == CharGraph(())

    def test_adjacent_pair_of_psl2_64(self):
        assert induced(graph_psl2(64), {3, 7}) == complete_graph([3, 7])

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError):
            induced(complete_graph([2, 3]), {5})

    @settings(max_examples=50)
    @given(char_graphs())
    def test_full_induced_is_identity(self, g):
        assert induced(g, g.vertices) == g


class TestKnFree:
    def test_two_triangles_are_k4_free(self):
        g = disjoint_union(
            disjoint_union(complete_graph([2, 3, 5]), edgeless([7])),
            complete_graph([11, 13, 17]),
        )
        assert is_kn_free(g, 4)
        assert not is_kn_free(g, 3)

    def test_k4_contains_k4(self):
        assert not is_kn_free(complete_graph([2, 3, 5, 7]), 4)

    def test_joined_square_is_k4_free(self):
        square = CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)])
        g = join(edgeless([11, 13, 17]), square)
        assert is_kn_free(g, 4)

    def test_n_larger_than_graph(self):
        assert is_kn_free(complete_graph([2, 3]), 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            is_kn_free(CharGraph(()), 1)

    def test_rejects_oversized_graph(self):
        labels = [p for p in PRIMES] + [41]
        with pytest.raises(ValueError):
            is_kn_free(edgeless(labels), 4)

    def test_monotone_under_induced_subgraphs(self):
        rng = random.Random(4242)
        for _ in range(60):
            g = random_chargraph(rng)
            n = rng.randint(2, 4)
            if not is_kn_free(g, n):
                continue
            subset = rng.sample(g.vertices, rng.randint(0, g.vertex_count))
            assert is_kn_free(induced(g, subset), n)


class TestConnectedComponents:
    def test_psl2_64(self):
        assert connected_components(graph_psl2(64)) == [(2,), (3, 7), (5, 13)]

    def test_edgeless(self):
        assert connected_components(edgeless([2, 3, 5])) == [(2,), (3,), (5,)]

    def test_complete(self):
        g = complete_graph(PRIMES[:7])
        assert connected_components(g) == [tuple(PRIMES[:7])]


class TestBipartite:
    def test_square(self):
        assert is_bipartite(CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)]))

    def test_triangle(self):
        assert not is_bipartite(complete_graph([2, 3, 5]))

    def test_complement_of_psl2_2_14(self):
        assert not is_bipartite(complement(graph_psl2(2**14)))


class TestOddCycleTriples:
    def test_psl2_32(self):
        assert odd_cycle_triples(graph_psl2(32)) == [(2, 3, 31), (2, 11, 31)]

    def test_complete_graph_has_none(self):
        assert odd_cycle_triples(complete_graph(PRIMES[:7])) == []

    def test_edgeless_triple(self):
        assert odd_cycle_triples(edgeless([2, 3, 5])) == [(2, 3, 5)]

    def test_triples_witness_nonbipartite_complement(self):
        rng = random.Random(777)
        for _ in range(80):
            g = random_chargraph(rng)
            if odd_cycle_triples(g):
                assert not is_bipartite(complement(g))

    def test_not_an_equivalence_five_cycle(self):
        # The complement of a 5-cycle is again a 5-cycle: no triangle in the
        # complement, yet the complement is not bipartite.
        five = CharGraph([2, 3, 5, 7, 11], [(2, 3), (3, 5), (5, 7), (7, 11), (2, 11)])
        assert odd_cycle_triples(five) == []
        assert not is_bipartite(complement(five))


class TestIsomorphism:
    def test_square_join_example(self):
        square = CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)])
        other = join(edgeless([11, 13]), edgeless([17, 19]))
        mapping = are_isomorphic(square, other)
        assert mapping is not None
        assert set(mapping) == {2, 3, 5, 7}
        for a, b in combinations(sorted(mapping), 2):
            assert square.has_edge(a, b) == other.has_edge(mapping[a], mapping[b])

    def test_degree_sequences_differ(self):
        a = disjoint_union(complete_graph([2, 3, 5]), edgeless([7]))
        b = disjoint_union(complete_graph([2, 3]), complete_graph([5, 7]))
        assert are_isomorphic(a, b) is None

    def test_psl2_2_14_is_two_triangles_and_a_point(self):
        from chargraph.shapes import eval_shape, parse_shape

        assert are_isomorphic(graph_psl2(2**14), eval_shape(parse_shape("K3 + K1 + K3")))

    def test_invariant_under_relabeling(self):
        rng = random.Random(2026)
        for _ in range(40):
            g = random_chargraph(rng, max_vertices=6)
            relabel = dict(zip(g.vertices, rng.sample(PRIMES, g.vertex_count)))
            h = CharGraph(relabel.values(), [(relabel[a], relabel[b]) for a, b in g.edges])
            assert are_isomorphic(g, h) is not None

    def test_agrees_with_brute_force(self):
        rng = random.Random(99)
        for _ in range(120):
            a = random_chargraph(rng, max_vertices=5)
            b = random_chargraph(rng, max_vertices=5)
            expected = brute_isomorphic(a.vertices, a.edges, b.vertices, set(b.edges))
            assert (are_isomorphic(a, b) is not None) == expected

    def test_rejects_oversized(self):
        labels = [p for p in PRIMES] + [41]
        with pytest.raises(ValueError):
            are_isomorphic(edgeless(labels), edgeless(labels))


class TestProductJoinDuality:
    def test_randomized(self):
        rng = random.Random(515151)
        pool_a = [2, 3, 5, 7]
        pool_b = [11, 13, 17, 19]
        for _ in range(100):
            a = DegreeSet([1] + [rng.choice(pool_a) * rng.choice(pool_a) for _ in range(rng.randint(1, 3))])
            b = DegreeSet([1] + [rng.choice(pool_b) * rng.choice(pool_b) for _ in range(rng.randint(1, 3))])
            product = DegreeSet([x * y for x in a for y in b])
            assert graph_from_cd(product) == join(graph_from_cd(a), graph_from_cd(b))
