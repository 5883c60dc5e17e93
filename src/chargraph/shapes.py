"""A small expression language for graph shapes.

Grammar (whitespace insignificant)::

    expr   := term ( '*' term )*        join, lowest precedence
    term   := factor ( '+' factor )*    disjoint union
    factor := atom [ '^c' ]             complement, highest precedence
    atom   := 'K' int | 'C' int | '(' expr ')'

'⋆' is accepted for '*' and '∪' for '+'.  Evaluation labels vertices with
the smallest unused primes, assigned left to right, so results are valid
character graphs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations

from ._value import Value, check_int
from .arith import primes
from .graphs import CharGraph, complement as graph_complement, disjoint_union, join as graph_join


class Complete(Value):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "n", check_int(n, "n", 0))


class Cycle(Value):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        object.__setattr__(self, "n", check_int(n, "n", 3))


class Complement(Value):
    __slots__ = ("inner",)


class _Parts(Value):
    __slots__ = ()

    def __init__(self, parts: Iterable[GraphExpr]) -> None:
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError(f"a {type(self).__name__.lower()} needs two or more parts, got {len(parts)}")
        object.__setattr__(self, "parts", parts)


class Union(_Parts):
    __slots__ = ("parts",)


class Join(_Parts):
    __slots__ = ("parts",)


GraphExpr = Complete | Cycle | Complement | Union | Join

# The binary operators, loosest first: node type, symbols and the separator
# render_shape writes.  Symbols are tuples: peek returns "" at end of input,
# and "" is in every string.
_OPERATORS = (
    (Join, ("*", "⋆"), " * "),
    (Union, ("+", "∪"), " + "),
)

# Deepest parenthesis nesting parse_shape accepts.  Each level costs four
# parser frames, so this stays well inside Python's recursion limit.
MAX_DEPTH = 64

# Most leaf vertices eval_shape builds.  Edges grow with the square of the
# vertex count (K600 alone takes about 100 MB), so the cap is checked on
# the AST before anything is built.
MAX_VERTICES = 256


class ShapeSyntaxError(ValueError):
    """Raised on malformed shape expressions; carries the offending offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ShapeSyntaxError:
        return ShapeSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() reads, sys.get_int_max_str_digits()
            raise ShapeSyntaxError(f"a size of {self.pos - start} digits is too long", start) from None

    def parse_expr(self, level: int = 0) -> GraphExpr:
        # The last level calls parse_factor itself: four frames per parenthesis.
        node_type, symbols, _ = _OPERATORS[level]
        last = level == len(_OPERATORS) - 1
        parts = [self.parse_factor() if last else self.parse_expr(level + 1)]
        while self.peek() in symbols:
            self.take()
            parts.append(self.parse_factor() if last else self.parse_expr(level + 1))
        return parts[0] if len(parts) == 1 else node_type(parts)

    def parse_factor(self) -> GraphExpr:
        node = self.parse_atom()
        if self.peek() == "^":
            self.take()
            if self.pos >= len(self.text) or self.text[self.pos] != "c":
                raise self.error("expected 'c' after '^'")
            self.pos += 1
            node = Complement(node)
        return node

    def parse_atom(self) -> GraphExpr:
        ch = self.peek()
        if ch in ("K", "C"):
            self.take()
            self.skip_ws()
            at = self.pos
            n = self.parse_int()
            try:
                return Complete(n) if ch == "K" else Cycle(n)
            except ValueError as exc:  # the node states its own bound: a cycle needs n >= 3
                raise ShapeSyntaxError(f"{ch}{n}: {exc}", at) from None
        if ch == "(":
            if self.depth == MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_DEPTH}")
            self.take()
            self.depth += 1
            node = self.parse_expr()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.take()
            self.depth -= 1
            return node
        if ch == "":
            raise self.error("unexpected end of input")
        raise self.error(f"unexpected character {ch!r}")


def parse_shape(text: str) -> GraphExpr:
    """Parse a shape expression such as ``"(K2 + K1 + K2) * K2^c"``."""
    parser = _Parser(text)
    node = parser.parse_expr()
    if parser.peek() != "":
        raise parser.error("trailing input")
    return node


def _eval(expr: GraphExpr, labels: Iterator[int]) -> CharGraph:
    if isinstance(expr, Complete):
        vs = [next(labels) for _ in range(expr.n)]
        return CharGraph._trusted(vs, combinations(vs, 2))
    if isinstance(expr, Cycle):
        vs = [next(labels) for _ in range(expr.n)]
        return CharGraph._trusted(vs, [(vs[i], vs[(i + 1) % expr.n]) for i in range(expr.n)])
    if isinstance(expr, Complement):
        return graph_complement(_eval(expr.inner, labels))
    # Not held in _OPERATORS: read at call time, a wrapper bound to either name sees each call.
    if isinstance(expr, Union):
        return disjoint_union(*(_eval(p, labels) for p in expr.parts))
    return graph_join(*(_eval(p, labels) for p in expr.parts))


def _leaf_vertices(expr: GraphExpr) -> int:
    """expr's vertex count, the sum of its leaves' sizes; TypeError on any non-shape node."""
    if isinstance(expr, (Complete, Cycle)):
        return expr.n
    if isinstance(expr, Complement):
        return _leaf_vertices(expr.inner)
    if isinstance(expr, (Union, Join)):
        return sum(_leaf_vertices(p) for p in expr.parts)
    raise TypeError(f"not a shape expression: {expr!r}")


def eval_shape(expr: GraphExpr) -> CharGraph:
    """Evaluate an AST to a graph labeled with fresh primes 2, 3, 5, ...

    Raises ValueError, before building anything, when the graph would have
    more than MAX_VERTICES vertices.
    """
    n = _leaf_vertices(expr)
    if n > MAX_VERTICES:
        # A count of thousands of digits is too long for one line, or for str() at all.
        count = n if n < 2**64 else "2^64 or more"
        raise ValueError(f"shape has {count} vertices; at most {MAX_VERTICES} are supported")
    return _eval(expr, primes())


def render_shape(expr: GraphExpr) -> str:
    """Canonical text form; reparsing it recovers the same AST.

    Children that bind no tighter than their parent are parenthesized, so
    manually built nestings like Union inside Union survive the round trip.
    """
    if isinstance(expr, Complete):
        return f"K{expr.n}"
    if isinstance(expr, Cycle):
        return f"C{expr.n}"
    if isinstance(expr, Complement):
        inner = render_shape(expr.inner)
        if isinstance(expr.inner, (Complete, Cycle)):
            return f"{inner}^c"
        return f"({inner})^c"
    for level, (node_type, _, separator) in enumerate(_OPERATORS):
        if isinstance(expr, node_type):
            wrap = tuple(op[0] for op in _OPERATORS[: level + 1])
            parts = (f"({render_shape(p)})" if isinstance(p, wrap) else render_shape(p) for p in expr.parts)
            return separator.join(parts)
    raise TypeError(f"not a shape expression: {expr!r}")
