import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargraph.graphs import CharGraph, are_isomorphic, complement, disjoint_union, is_kn_free, join
from chargraph import shapes
from chargraph.shapes import (
    MAX_DEPTH,
    MAX_VERTICES,
    Complement,
    Complete,
    Cycle,
    Join,
    ShapeSyntaxError,
    Union,
    eval_shape,
    parse_shape,
    render_shape,
)
from conftest import leaf_vertex_total, random_shape_expr

shape_asts = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=7).map(Complete),
        st.integers(min_value=3, max_value=7).map(Cycle),
    ),
    lambda inner: st.one_of(
        inner.map(Complement),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Union(tuple(ps))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ps: Join(tuple(ps))),
    ),
    max_leaves=6,
)


class TestParse:
    def test_join_of_complement_and_cycle(self):
        assert parse_shape("K3^c * C4") == Join((Complement(Complete(3)), Cycle(4)))

    def test_parenthesized_union_joined(self):
        expected = Join((Union((Complete(2), Complete(1), Complete(2))), Complement(Complete(2))))
        assert parse_shape("(K2 + K1 + K2) * K2^c") == expected

    def test_plain_union(self):
        assert parse_shape("K3 + K1 + K3") == Union((Complete(3), Complete(1), Complete(3)))

    def test_precedence_union_binds_tighter(self):
        assert parse_shape("K1 + K2 * K3") == Join((Union((Complete(1), Complete(2))), Complete(3)))

    def test_unicode_aliases(self):
        assert parse_shape("K3^c ⋆ C4") == parse_shape("K3^c * C4")
        assert parse_shape("K3 ∪ K1") == parse_shape("K3 + K1")

    def test_whitespace_insignificant(self):
        assert parse_shape(" K3^c*C4 ") == parse_shape("K3^c * C4")

    def test_nested_parens(self):
        assert parse_shape("((K2))") == Complete(2)

    def test_complement_of_parenthesized_expr(self):
        assert parse_shape("(K1 + K1)^c") == Complement(Union((Complete(1), Complete(1))))

    @pytest.mark.parametrize(
        "text",
        ["", "K", "C2", "K3 +", "(K1", ")", "K3 ^d", "Q4", "K3 K4", "K3)"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(ShapeSyntaxError):
            parse_shape(text)

    def test_error_carries_position(self):
        with pytest.raises(ShapeSyntaxError) as err:
            parse_shape("K3 * !")
        assert err.value.position == 5
        assert "position 5" in str(err.value)

    def test_small_cycle_rejected_with_position(self):
        with pytest.raises(ShapeSyntaxError) as err:
            parse_shape("K2 + C2")
        assert err.value.position == 6

    def test_nesting_at_the_depth_cap_parses(self):
        assert parse_shape("(" * MAX_DEPTH + "K1" + ")" * MAX_DEPTH) == Complete(1)

    def test_nesting_past_the_depth_cap_rejected_at_the_paren(self):
        with pytest.raises(ShapeSyntaxError) as err:
            parse_shape("K1 * " + "(" * 400 + "K1" + ")" * 400)
        assert err.value.position == 5 + MAX_DEPTH


class TestNodes:
    """The parser never builds these nodes; a library caller can."""

    @pytest.mark.parametrize("node,arg,message", [
        (Complete, -1, "K_n needs n >= 0"),
        (Cycle, 2, "C_n needs n >= 3"),
        (Union, (), "union of nothing"),
        (Join, (), "join of nothing"),
    ], ids=["complete", "cycle", "union", "join"])
    def test_invalid_nodes_rejected(self, node, arg, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            node(arg)


class TestEval:
    def test_join_of_edgeless_pairs_is_a_square(self):
        g = eval_shape(parse_shape("K2^c * K2^c"))
        assert are_isomorphic(g, eval_shape(parse_shape("C4"))) is not None

    def test_single_vertex(self):
        g = eval_shape(parse_shape("K1"))
        assert g.vertices == (2,)
        assert g.edges == ()

    def test_case_i_shape(self):
        g = eval_shape(parse_shape("K3^c * C4"))
        assert g.vertex_count == 7
        assert g.edge_count == 16
        assert is_kn_free(g, 4)

    def test_labels_assigned_left_to_right(self):
        g = eval_shape(parse_shape("K2 + K3"))
        assert g.vertices == (2, 3, 5, 7, 11)
        assert g.edges == ((2, 3), (5, 7), (5, 11), (7, 11))

    def test_cycle_structure(self):
        g = eval_shape(parse_shape("C5"))
        assert g.vertex_count == 5
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_complete_zero(self):
        g = eval_shape(parse_shape("K0"))
        assert g.vertices == ()

    def test_empty_graph_joined_is_identity(self):
        assert eval_shape(parse_shape("K0 * K3")) == eval_shape(parse_shape("K3"))

    @pytest.mark.parametrize("expr,n", [
        (Complete(MAX_VERTICES + 1), MAX_VERTICES + 1),
        (Union((Cycle(MAX_VERTICES), Complete(1))), MAX_VERTICES + 1),
        (Complement(Join((Complete(2), Complete(10**12)))), 10**12 + 2),
    ])
    def test_vertex_cap_checked_on_the_ast(self, expr, n, monkeypatch):
        # Nothing may be built for a shape over the cap.
        monkeypatch.setattr(shapes, "_eval", lambda *_: pytest.fail("evaluated an over-cap shape"))
        with pytest.raises(ValueError, match=f"shape has {n} vertices; at most {MAX_VERTICES}"):
            eval_shape(expr)

    def test_vertex_cap_admits_shapes_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(shapes, "_eval", lambda *_: "built")
        assert eval_shape(Union((Cycle(MAX_VERTICES - 1), Complete(1)))) == "built"

    @settings(max_examples=100)
    @given(shape_asts)
    def test_vertex_count_is_total_leaf_size(self, expr):
        assert eval_shape(expr).vertex_count == leaf_vertex_total(expr)

    @pytest.mark.parametrize("text,same", [
        (" * ".join(["K1"] * 256), "K256"),
        (" * ".join(["K2"] * 128), "K256"),
        (" + ".join(["K1"] * 256), "K256^c"),
    ])
    def test_long_chains_at_the_cap(self, text, same):
        assert eval_shape(parse_shape(text)) == eval_shape(parse_shape(same))

    @pytest.mark.parametrize("text", [
        " * ".join(["K1"] * 256),
        "(K2 + K1 + K2) * K2^c * C4 * K1",
        "(K1 + K2 + (C3 * K1 * K2)^c) + K3",
    ])
    def test_one_graph_built_per_ast_node(self, text, monkeypatch):
        def nodes(expr):
            if isinstance(expr, (Complete, Cycle)):
                return 1
            if isinstance(expr, Complement):
                return 1 + nodes(expr.inner)
            return 1 + sum(nodes(p) for p in expr.parts)

        # _build is the one construction point of both the public and the
        # trusted constructor.
        built = []
        original = CharGraph._build
        monkeypatch.setattr(CharGraph, "_build", lambda g, *a, **k: built.append(1) or original(g, *a, **k))
        expr = parse_shape(text)
        eval_shape(expr)
        assert len(built) == nodes(expr)


class TestRender:
    def test_canonical_form(self):
        assert render_shape(Join((Complement(Complete(3)), Cycle(4)))) == "K3^c * C4"

    def test_singleton_union_renders_bare(self):
        assert render_shape(Union((Complete(1),))) == "K1"

    def test_nested_complement_needs_parens(self):
        expr = Complement(Complement(Complete(3)))
        assert render_shape(expr) == "(K3^c)^c"
        assert parse_shape(render_shape(expr)) == expr

    def test_manual_nesting_survives(self):
        expr = Union((Union((Complete(1), Complete(2))), Complete(3)))
        assert parse_shape(render_shape(expr)) == expr

    @settings(max_examples=300)
    @given(shape_asts)
    def test_round_trip(self, expr):
        assert parse_shape(render_shape(expr)) == expr

    def test_round_trip_random_generator(self):
        rng = random.Random(321)
        for _ in range(300):
            expr = random_shape_expr(rng)
            assert parse_shape(render_shape(expr)) == expr


class TestAlgebraicProperties:
    def test_de_morgan_on_random_small_shapes(self):
        rng = random.Random(888)
        checked = 0
        while checked < 60:
            a = random_shape_expr(rng, max_leaves=3, max_leaf_size=3)
            b = random_shape_expr(rng, max_leaves=3, max_leaf_size=3)
            if leaf_vertex_total(a) + leaf_vertex_total(b) > 8:
                continue
            lhs = eval_shape(Complement(Union((a, b))))
            rhs = eval_shape(Join((Complement(a), Complement(b))))
            assert are_isomorphic(lhs, rhs) is not None
            checked += 1

    def test_de_morgan_on_disjoint_graphs_directly(self):
        from itertools import combinations
        from chargraph.graphs import CharGraph

        rng = random.Random(889)
        pool_a, pool_b = (2, 3, 5, 7), (41, 43, 47, 53)
        for _ in range(60):
            def pick(pool):
                verts = rng.sample(pool, rng.randint(0, len(pool)))
                edges = [e for e in combinations(sorted(verts), 2) if rng.random() < 0.5]
                return CharGraph(verts, edges)

            g, h = pick(pool_a), pick(pool_b)
            assert complement(disjoint_union(g, h)) == join(complement(g), complement(h))
