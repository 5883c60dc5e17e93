"""Character graphs: finite simple graphs whose vertices are primes.

The graph of a degree set has a vertex for every prime dividing some degree
and an edge {p, q} whenever the product pq divides some degree.  All values
are immutable; operations return new graphs.  Vertex and edge listings are
always sorted so equal graphs print and serialize identically.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterable, Iterator
from itertools import combinations

from ._value import Value
from .arith import is_prime, prime_divisors

# Exhaustive clique/isomorphism searches are bounded to this many vertices.
MAX_SEARCH_VERTICES = 12


def _int_list(values, what: str) -> list[int]:
    """values as a list of ints; anything else, bool and float included, is
    a ValueError.  Checked before a set() could merge True into 1."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, got {type(values).__name__}")
    bad = [v for v in values if type(v) is not int]
    if bad:
        raise ValueError(f"{what} must hold integers only, got {bad[0]!r}")
    return list(values)


class CharGraph:
    """An immutable simple graph on prime-number vertices."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> None:
        vs = sorted(set(vertices))
        for v in vs:
            if not is_prime(v):
                raise ValueError(f"vertex {v} is not prime")
        vset = set(vs)
        es = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if a not in vset or b not in vset:
                raise ValueError(f"edge ({a}, {b}) has an endpoint outside the vertex set")
            es.add((a, b) if a < b else (b, a))
        self._vertices: tuple[int, ...] = tuple(vs)
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(es))
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for a, b in self._edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = adj

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, v: int) -> set[int]:
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharGraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"CharGraph(vertices={list(self._vertices)}, edges={[list(e) for e in self._edges]})"

    def to_json(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [list(e) for e in self._edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CharGraph":
        if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
            raise ValueError('a graph must be a JSON object with "vertices" and "edges" lists')
        edges = [_int_list(e, "an edge") for e in data["edges"]]
        if any(len(e) != 2 for e in edges):
            raise ValueError("every edge must be a pair of vertices")
        return cls(_int_list(data.get("vertices"), "vertices"), [tuple(e) for e in edges])

    def to_dot(self, name: str = "delta") -> str:
        lines = [f"graph {name} {{"]
        for v in self._vertices:
            lines.append(f'  "{v}";')
        for a, b in self._edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines)


class DegreeSet(Value):
    """A finite set of character degrees; always contains 1."""

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[int]) -> None:
        ds = tuple(sorted(set(_int_list(tuple(degrees), "degrees"))))
        if not ds or ds[0] < 1:
            raise ValueError("degrees must be positive integers")
        if 1 not in ds:
            raise ValueError("a degree set must contain 1")
        object.__setattr__(self, "degrees", ds)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    def __contains__(self, d: int) -> bool:
        return d in self.degrees

    def rho(self) -> set[int]:
        """Primes dividing at least one degree."""
        out: set[int] = set()
        for d in self.degrees:
            out |= prime_divisors(d)
        return out

    def to_json(self) -> dict:
        return {"degrees": list(self.degrees)}

    @classmethod
    def from_json(cls, data: dict) -> "DegreeSet":
        if not isinstance(data, dict) or "degrees" not in data:
            raise ValueError('a degree set must be a JSON object with a "degrees" list')
        return cls(_int_list(data["degrees"], "degrees"))


def graph_from_cd(*factors: DegreeSet) -> CharGraph:
    """The character graph of a degree set, or of a direct product of groups
    with the given degree sets.

    A degree of the product is one degree from each factor, and its prime
    divisors are the union of theirs, pi(ab) = pi(a) | pi(b), so no product
    is formed or factored.  Distinct primes p, q dividing the same degree d
    satisfy pq | d, so each degree contributes a clique on its prime
    divisors.
    """
    prime_sets = {frozenset()}
    for cd in factors:
        family = {frozenset(prime_divisors(d)) for d in cd}
        prime_sets = {a | b for a in prime_sets for b in family}
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for ps in prime_sets:
        verts.update(ps)
        edges.update(combinations(sorted(ps), 2))
    return CharGraph(verts, edges)


def _disjoint_vertices(gs: tuple[CharGraph, ...]) -> list[int]:
    verts = [v for g in gs for v in g.vertices]
    overlap = sorted(v for v, k in Counter(verts).items() if k > 1)
    if overlap:
        raise ValueError(f"vertex sets overlap: {overlap}")
    return verts


def join(*gs: CharGraph) -> CharGraph:
    """The disjoint union of the graphs plus every edge between two of them."""
    verts = _disjoint_vertices(gs)
    cross = [
        (x, y) for i, a in enumerate(gs) for b in gs[i + 1 :] for x in a.vertices for y in b.vertices
    ]
    return CharGraph(verts, [e for g in gs for e in g.edges] + cross)


def disjoint_union(*gs: CharGraph) -> CharGraph:
    """The union of graphs on pairwise disjoint vertex sets."""
    return CharGraph(_disjoint_vertices(gs), [e for g in gs for e in g.edges])


def complement(g: CharGraph) -> CharGraph:
    edges = [e for e in combinations(g.vertices, 2) if not g.has_edge(*e)]
    return CharGraph(g.vertices, edges)


def induced(g: CharGraph, s: Iterable[int]) -> CharGraph:
    keep = set(s)
    unknown = keep - set(g.vertices)
    if unknown:
        raise ValueError(f"not vertices of the graph: {sorted(unknown)}")
    return CharGraph(keep, [e for e in g.edges if e[0] in keep and e[1] in keep])


def _check_search_bound(g: CharGraph) -> None:
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise ValueError(
            f"graph has {g.vertex_count} vertices; exhaustive search is "
            f"bounded at {MAX_SEARCH_VERTICES}"
        )


def is_kn_free(g: CharGraph, n: int) -> bool:
    """True iff g has no clique on n vertices (checked exhaustively)."""
    if n < 2:
        raise ValueError("clique size must be >= 2")
    _check_search_bound(g)
    for combo in combinations(g.vertices, n):
        if all(g.has_edge(a, b) for a, b in combinations(combo, 2)):
            return False
    return True


def connected_components(g: CharGraph) -> list[tuple[int, ...]]:
    """Maximal connected vertex sets, each sorted, ordered by least member."""
    seen: set[int] = set()
    parts: list[tuple[int, ...]] = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for w in g.neighbors(u):
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        seen |= comp
        parts.append(tuple(sorted(comp)))
    parts.sort(key=lambda c: c[0])
    return parts


def is_bipartite(g: CharGraph) -> bool:
    """Breadth-first 2-coloring."""
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def odd_cycle_triples(g: CharGraph) -> list[tuple[int, int, int]]:
    """All 3-subsets of V(g) that induce a triangle in the complement of g."""
    out = []
    for t in combinations(g.vertices, 3):
        if not any(g.has_edge(a, b) for a, b in combinations(t, 2)):
            out.append(t)
    return out


def are_isomorphic(a: CharGraph, b: CharGraph) -> dict[int, int] | None:
    """A vertex bijection from a to b preserving adjacency both ways, or None.

    Backtracking over vertices in decreasing-degree order with degree
    pruning; the found/not-found answer matches exhaustive search.
    """
    _check_search_bound(a)
    _check_search_bound(b)
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return None
    if sorted(a.degree(v) for v in a.vertices) != sorted(b.degree(v) for v in b.vertices):
        return None
    order = sorted(a.vertices, key=lambda v: (-a.degree(v), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in b.vertices:
            if w in used or b.degree(w) != a.degree(v):
                continue
            if all(a.has_edge(v, u) == b.has_edge(w, mapping[u]) for u in mapping):
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None
