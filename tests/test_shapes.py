import pytest
from hypothesis import given, settings

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
from conftest import char_graphs, leaf_vertex_total, shape_asts


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

    @pytest.mark.parametrize("text", ["K²", "K٣"])
    def test_sizes_are_ascii_digits_only(self, text):
        # str.isdigit accepts both: int() rejects the superscript, and would
        # read the Arabic-Indic digit as 3.
        with pytest.raises(ShapeSyntaxError) as err:
            parse_shape(text)
        assert err.value.position == 1
        assert str(err.value) == "expected an integer (at position 1)"

    def test_size_longer_than_int_reads_is_a_syntax_error(self):
        # int() refuses more than sys.get_int_max_str_digits() digits (4,300 by default).
        with pytest.raises(ShapeSyntaxError) as err:
            parse_shape("K" + "1" * 5000)
        assert err.value.position == 1
        assert str(err.value) == "a size of 5000 digits is too long (at position 1)"

    def test_small_cycle_rejected_with_position(self):
        # The position is the size's first digit, past any blanks after the letter.
        for text, position in [("C2", 1), ("K2 + C2", 6), ("C 2", 2), ("K2 + C  2", 8)]:
            with pytest.raises(ShapeSyntaxError) as err:
                parse_shape(text)
            assert err.value.position == position
            # Cycle states the bound; the parser only places it.
            assert str(err.value) == f"C2: n must be >= 3, got 2 (at position {position})"

    def test_nesting_at_the_depth_cap_parses(self):
        assert parse_shape("(" * MAX_DEPTH + "K1" + ")" * MAX_DEPTH) == Complete(1)

    def test_nesting_past_the_depth_cap_rejected_at_the_paren(self):
        with pytest.raises(ShapeSyntaxError) as err:
            parse_shape("K1 * " + "(" * 400 + "K1" + ")" * 400)
        assert err.value.position == 5 + MAX_DEPTH


class TestNodes:
    """The parser never builds these nodes; a library caller can."""

    # Complete and Cycle check their size with check_int, whose rows are in
    # tests/test_values.py::TestIntArguments.
    @pytest.mark.parametrize("node,arg,message", [
        (Union, (), "a union needs two or more parts, got 0"),
        (Join, (), "a join needs two or more parts, got 0"),
        (Union, (Complete(1),), "a union needs two or more parts, got 1"),
        (Join, (Complete(1),), "a join needs two or more parts, got 1"),
    ], ids=["union", "join", "union-one", "join-one"])
    def test_invalid_nodes_rejected(self, node, arg, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            node(arg)

    @pytest.mark.parametrize("node", [Union, Join])
    def test_parts_are_stored_as_a_tuple(self, node):
        expr = node([Complete(1), Complete(2)])
        assert expr.parts == (Complete(1), Complete(2))
        assert expr == node((Complete(1), Complete(2))) == node(iter([Complete(1), Complete(2)]))
        assert hash(expr) == hash(node((Complete(1), Complete(2))))


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
        assert sorted(v for e in g.edges for v in e) == sorted(g.vertices * 2)

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

    @pytest.mark.parametrize("expr", ["K3", Union((Complete(1), "K2")), Complement(None)],
                             ids=["text", "text-part", "none-inside"])
    @pytest.mark.parametrize("function", [eval_shape, render_shape], ids=["eval", "render"])
    def test_a_non_shape_is_a_type_error(self, function, expr):
        with pytest.raises(TypeError, match="^not a shape expression: "):
            function(expr)

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


class TestAlgebraicProperties:
    @given(shape_asts, shape_asts)
    def test_de_morgan_on_random_small_shapes(self, a, b):
        # Both sides label the leaves of a, then of b, in order: equal, not just isomorphic.
        assert eval_shape(Complement(Union((a, b)))) == eval_shape(Join((Complement(a), Complement(b))))

    @given(char_graphs(pool=(2, 3, 5, 7)), char_graphs(pool=(41, 43, 47, 53)))
    def test_de_morgan_on_disjoint_graphs_directly(self, g, h):
        assert complement(disjoint_union(g, h)) == join(complement(g), complement(h))
