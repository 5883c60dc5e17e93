import itertools
import math
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chargraph import classify, graphs
from chargraph.classify import F_MAX, check_palfy, classify_f, synthetic_radical, verify_main
from chargraph.degrees import graph_psl2
from chargraph.graphs import (
    CharGraph,
    DegreeSet,
    are_isomorphic,
    complement,
    disjoint_union,
    graph_from_cd,
    is_kn_free,
    join,
)
from chargraph.shapes import eval_shape, parse_shape
from conftest import PRIMES, char_graphs, shape_asts
from oracles import brute_isomorphic, brute_triangle, cliques, trial_prime_divisors


def small_degree_sets():
    """Degree sets whose degrees are products of up to three primes <= 13."""
    degree = st.lists(st.sampled_from([2, 3, 5, 7, 11, 13]), max_size=3).map(math.prod)
    return st.lists(degree, max_size=4).map(lambda ds: DegreeSet([1] + ds))


def complete_graph(labels):
    return CharGraph(labels, combinations(sorted(labels), 2))


def edgeless(labels):
    return CharGraph(labels)


def induced(g, part):
    """The subgraph of g induced on part, which holds only vertices of g."""
    return CharGraph(part, [e for e in g.edges if part.issuperset(e)])


class TestCharGraphType:
    def test_rejects_nonprime_vertex(self):
        with pytest.raises(ValueError, match="^vertex 4 is not prime$"):
            CharGraph([4])

    @pytest.mark.parametrize("edge", [(2, 3.0), (2.0, 3)])
    def test_rejects_non_int_edge_endpoint(self, edge):
        # 3.0 == 3 is in the vertex set, so the membership check alone let
        # it in, and to_json gave [[2, 3.0]] for a graph equal to one with (2, 3).
        with pytest.raises(ValueError, match=r"^edge endpoint must be an int, got [23]\.0$"):
            CharGraph([2, 3], [edge])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match=r"^edge \(2, 5\) has an endpoint outside the vertex set$"):
            CharGraph([2, 3], [(2, 5)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="^self-loop at 2$"):
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
        with pytest.raises(ValueError, match="^a degree set must contain 1$"):
            DegreeSet([2, 3])

    def test_normalizes(self):
        assert DegreeSet([5, 1, 5, 3]).degrees == (1, 3, 5)

    def test_rho(self):
        # rho, the primes dividing some degree, is the vertex set of the graph.
        assert graph_from_cd(DegreeSet([1, 12, 5])).vertices == (2, 3, 5)

    def test_json_round_trip(self):
        ds = DegreeSet([1, 5, 11])
        assert DegreeSet.from_json({"degrees": [5, 1, 11]}) == ds
        assert DegreeSet.from_json([11, 1, 5]) == ds

    def test_to_json_round_trip(self):
        # to_json is the {"degrees": [...]} object that from_json reads.
        d = DegreeSet([1, 6, 2])
        assert d.to_json() == {"degrees": [1, 2, 6]}
        assert DegreeSet.from_json(d.to_json()) == d


# JSON values as json.loads returns them, ints past u64 included, nested
# under the keys that from_json reads.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers(2**63, 2**65) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "degrees"]), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=600, deadline=None)
@given(JSON_VALUES)
def test_from_json_raises_only_value_or_overflow_error(data):
    # The CLI turns exactly these two into exit 2; anything else is a traceback.
    for read in (CharGraph.from_json, DegreeSet.from_json):
        try:
            read(data)
        except (ValueError, OverflowError):
            pass


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

    def test_a_shared_prime_is_adjacent_to_every_other_vertex(self):
        assert join(edgeless([2, 3]), edgeless([3, 5])) == complete_graph([2, 3, 5])
        # Delta({1, 2, 3, 7} x {1, 3, 5}): 3 divides a degree of each factor,
        # so 3 * v divides a product for every other v; 2 * 7 divides none.
        g = join(edgeless([2, 3, 7]), edgeless([3, 5]))
        assert g.edges == ((2, 3), (2, 5), (3, 5), (3, 7), (5, 7))
        assert g == graph_from_cd(DegreeSet([x * y for x in (1, 2, 3, 7) for y in (1, 3, 5)]))

    def test_n_ary_equals_nested_binary(self):
        disjoint = complete_graph([2, 3]), edgeless([5, 7]), complete_graph([11, 13, 17])
        overlapping = complete_graph([2, 3]), edgeless([3, 5, 7]), CharGraph([2, 7, 11], [(2, 11)])
        for a, b, c in (disjoint, overlapping):
            assert join(a, b, c) == join(join(a, b), c) == join(a, join(b, c))
            assert join(a) == a
        assert join() == CharGraph(())


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
        with pytest.raises(ValueError, match=r"^vertex sets overlap: \[2\]$"):
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

    def test_rejects_oversized_graph(self):
        labels = [p for p in PRIMES] + [41]
        with pytest.raises(ValueError, match="^graph has 13 vertices; exhaustive search is bounded at 12$"):
            is_kn_free(edgeless(labels), 4)

    @given(char_graphs(), st.sets(st.sampled_from(PRIMES)), st.integers(2, 4))
    def test_monotone_under_induced_subgraphs(self, g, keep, n):
        if is_kn_free(g, n):
            assert is_kn_free(induced(g, keep & set(g.vertices)), n)


class TestIsomorphism:
    def test_square_join_example(self):
        square = CharGraph([2, 3, 5, 7], [(2, 3), (3, 5), (5, 7), (2, 7)])
        other = join(edgeless([11, 13]), edgeless([17, 19]))
        mapping = are_isomorphic(square, other)
        assert mapping is not None
        assert set(mapping) == {2, 3, 5, 7}
        mapped = {tuple(sorted((mapping[a], mapping[b]))) for a, b in square.edges}
        assert mapped == set(other.edges)

    def test_degree_sequences_differ(self):
        a = disjoint_union(complete_graph([2, 3, 5]), edgeless([7]))
        b = disjoint_union(complete_graph([2, 3]), complete_graph([5, 7]))
        assert are_isomorphic(a, b) is None

    def test_psl2_2_14_is_two_triangles_and_a_point(self):
        assert are_isomorphic(graph_psl2(2**14), eval_shape(parse_shape("K3 + K1 + K3")))

    @given(char_graphs(max_vertices=6), st.permutations(PRIMES))
    def test_invariant_under_relabeling(self, g, labels):
        relabel = dict(zip(g.vertices, labels))
        h = CharGraph(relabel.values(), [(relabel[a], relabel[b]) for a, b in g.edges])
        assert are_isomorphic(g, h) is not None

    @given(char_graphs(max_vertices=5), char_graphs(max_vertices=5))
    # Isomorphic under new labels; then K3 + K2 against the path P5, which
    # share the degree sequence (2, 2, 2, 1, 1) and are not isomorphic.
    @example(CharGraph([2, 3, 5], [(2, 3)]), CharGraph([7, 11, 13], [(11, 13)]))
    @example(CharGraph([2, 3, 5, 7, 11], [(2, 3), (2, 5), (3, 5), (7, 11)]),
             CharGraph([2, 3, 5, 7, 11], [(2, 3), (3, 5), (5, 7), (7, 11)]))
    def test_agrees_with_brute_force(self, a, b):
        expected = brute_isomorphic(a.vertices, a.edges, b.vertices, set(b.edges))
        assert (are_isomorphic(a, b) is not None) == expected

    def test_rejects_oversized(self):
        labels = [p for p in PRIMES] + [41]
        with pytest.raises(ValueError, match="^graph has 13 vertices; exhaustive search is bounded at 12$"):
            are_isomorphic(edgeless(labels), edgeless(labels))


class TestProductJoinDuality:
    @settings(max_examples=200)
    @given(st.lists(small_degree_sets(), min_size=2, max_size=3))
    # Two factors on disjoint primes; three, one of them {1}, as verify_main
    # joins the socle graph with one graph per radical factor, abelian ones included.
    @example([DegreeSet([1, 4, 15]), DegreeSet([1, 13, 77])])
    @example([DegreeSet([1, 5, 6]), DegreeSet([1]), DegreeSet([1, 7, 143])])
    def test_two_or_three_factors_sharing_primes(self, factors):
        # Degrees over the primes 2..13 share primes often; each product of
        # up to three degrees of at most 13^3 stays far below 2^64.
        product = DegreeSet([math.prod(ds) for ds in itertools.product(*factors)])
        assert join(*(graph_from_cd(f) for f in factors)) == graph_from_cd(product)


def degree_sets():
    """Random degree sets, some holding both d and 2d."""
    degrees = st.lists(st.integers(1, 10**6), max_size=8)
    return st.builds(lambda ds, double: DegreeSet([1] + ds + [2 * d for d in ds[:double]]),
                     degrees, st.integers(0, 8))


def recertified(g: CharGraph) -> bool:
    return CharGraph(g.vertices, g.edges) == g


class Certified(Exception):
    """Raised by a stand-in for graphs.is_prime."""


class TestTrustedBuilders:
    """The package's builders skip the vertex primality test; these tests
    certify what they build with the public constructor instead."""

    @settings(max_examples=150)
    @given(degree_sets())
    def test_graph_from_cd_recertifies_and_is_the_clique_union_of_all_degrees(self, cd):
        """Every degree adds the clique on its primes, found here by trial
        division; a degree whose double is in the set too is no exception."""
        g = graph_from_cd(cd)
        assert recertified(g)
        assert (set(g.vertices), set(g.edges)) == (
            set().union(*(trial_prime_divisors(d) for d in cd)),
            cliques(*(trial_prime_divisors(d) for d in cd)),
        )

    @settings(max_examples=150)
    @given(char_graphs(), st.sets(st.sampled_from(PRIMES)))
    def test_join_union_and_complement_recertify(self, g, subset):
        left = subset & set(g.vertices)
        a, b = induced(g, left), induced(g, set(g.vertices) - left)
        for built in (join(a, b), disjoint_union(a, b), complement(g), complement(a)):
            assert recertified(built)

    @settings(max_examples=100)
    @given(shape_asts)
    def test_shapes_recertify(self, expr):
        assert recertified(eval_shape(expr))

    @settings(max_examples=100)
    @given(st.sampled_from([q for q in range(4, 5000) if len(trial_prime_divisors(q)) == 1])
           | st.builds(lambda f: 2**f, st.integers(2, 63)))
    def test_psl2_graphs_recertify(self, q):
        assert recertified(graph_psl2(q))

    def test_builders_never_test_primality(self, monkeypatch):
        palfy_input = eval_shape(parse_shape("(K2 + K1 + K2) * K2^c"))

        def refuse(n):
            raise Certified(n)

        monkeypatch.setattr(graphs, "is_prime", refuse)
        classify._classify.cache_clear()  # build every socle graph under the patch
        case_fs = [f for f in range(2, F_MAX + 1) if classify_f(f).case]
        assert len(case_fs) == 13
        for f in case_fs:
            assert verify_main(f, synthetic_radical(f)).verified
        assert eval_shape(parse_shape("K256^c")).edge_count == 0
        assert not check_palfy(palfy_input)
        # The public constructor still certifies.
        with pytest.raises(Certified):
            CharGraph([2])
        monkeypatch.undo()
        with pytest.raises(ValueError, match="vertex 4 is not prime"):
            CharGraph([4])
        with pytest.raises(ValueError, match="vertex 4 is not prime"):
            CharGraph.from_json({"vertices": [4], "edges": []})
