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

from collections.abc import Iterator
from itertools import combinations, count

from ._value import Value
from .arith import is_prime
from .graphs import CharGraph, complement as graph_complement, disjoint_union, join as graph_join


class Complete(Value):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("K_n needs n >= 0")
        object.__setattr__(self, "n", n)


class Cycle(Value):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 3:
            raise ValueError("C_n needs n >= 3")
        object.__setattr__(self, "n", n)


class Complement(Value):
    __slots__ = ("inner",)

    def __init__(self, inner: GraphExpr) -> None:
        object.__setattr__(self, "inner", inner)


class Union(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[GraphExpr, ...]) -> None:
        if not parts:
            raise ValueError("union of nothing")
        object.__setattr__(self, "parts", parts)


class Join(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[GraphExpr, ...]) -> None:
        if not parts:
            raise ValueError("join of nothing")
        object.__setattr__(self, "parts", parts)


GraphExpr = Complete | Cycle | Complement | Union | Join

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse_expr(self) -> GraphExpr:
        parts = [self.parse_term()]
        while self.peek() in ("*", "⋆"):
            self.take()
            parts.append(self.parse_term())
        return parts[0] if len(parts) == 1 else Join(tuple(parts))

    def parse_term(self) -> GraphExpr:
        parts = [self.parse_factor()]
        while self.peek() in ("+", "∪"):
            self.take()
            parts.append(self.parse_factor())
        return parts[0] if len(parts) == 1 else Union(tuple(parts))

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
        if ch == "K":
            self.take()
            return Complete(self.parse_int())
        if ch == "C":
            self.take()
            at = self.pos
            n = self.parse_int()
            if n < 3:
                raise ShapeSyntaxError(f"C{n} is not a cycle; need n >= 3", at)
            return Cycle(n)
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


def _prime_stream() -> Iterator[int]:
    return (n for n in count(2) if is_prime(n))


def _eval(expr: GraphExpr, labels: Iterator[int]) -> CharGraph:
    if isinstance(expr, Complete):
        vs = [next(labels) for _ in range(expr.n)]
        return CharGraph(vs, combinations(vs, 2))
    if isinstance(expr, Cycle):
        vs = [next(labels) for _ in range(expr.n)]
        return CharGraph(vs, [(vs[i], vs[(i + 1) % expr.n]) for i in range(expr.n)])
    if isinstance(expr, Complement):
        return graph_complement(_eval(expr.inner, labels))
    if isinstance(expr, Union):
        return disjoint_union(*(_eval(p, labels) for p in expr.parts))
    if isinstance(expr, Join):
        return graph_join(*(_eval(p, labels) for p in expr.parts))
    raise TypeError(f"not a shape expression: {expr!r}")


def _leaf_vertices(expr: GraphExpr) -> int:
    """The vertex count of expr's graph: the sum of its leaves' sizes."""
    if isinstance(expr, (Complete, Cycle)):
        return expr.n
    if isinstance(expr, Complement):
        return _leaf_vertices(expr.inner)
    return sum(_leaf_vertices(p) for p in expr.parts)


def eval_shape(expr: GraphExpr) -> CharGraph:
    """Evaluate an AST to a graph labeled with fresh primes 2, 3, 5, ...

    Raises ValueError, before building anything, when the graph would have
    more than MAX_VERTICES vertices.
    """
    n = _leaf_vertices(expr)
    if n > MAX_VERTICES:
        raise ValueError(f"shape has {n} vertices; at most {MAX_VERTICES} are supported")
    return _eval(expr, _prime_stream())


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
    if isinstance(expr, Union):
        return " + ".join(
            f"({render_shape(p)})" if isinstance(p, (Union, Join)) else render_shape(p)
            for p in expr.parts
        )
    if isinstance(expr, Join):
        return " * ".join(
            f"({render_shape(p)})" if isinstance(p, Join) else render_shape(p)
            for p in expr.parts
        )
    raise TypeError(f"not a shape expression: {expr!r}")
