"""Character graphs: finite simple graphs whose vertices are primes.

The graph of a degree set has a vertex for every prime dividing some degree
and an edge {p, q} whenever the product pq divides some degree.  Graphs are
immutable _value.Value records; operations return new graphs.  Vertex and
edge listings are always sorted so equal graphs print and serialize
identically.

Vertices are certified prime at the boundary only: the public CharGraph
constructor and CharGraph.from_json run Miller-Rabin on every vertex and
reject self-loops and edges leaving the vertex set.  The builders inside
the package (graph_from_cd, join, disjoint_union, complement and the shape
leaves) take their vertices from factorize, from arith.primes() or from an
existing CharGraph, so they are proven primes already; those builders go
through CharGraph._trusted and skip the test, which tests/test_graphs.py
pays for instead by re-certifying their output.
"""

from __future__ import annotations

from collections import Counter
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


class CharGraph(Value):
    """An immutable simple graph on prime-number vertices.

    CharGraph(vertices, edges) and from_json certify their input: every
    vertex prime, no self-loop, no edge outside the vertex set.  _trusted
    builds from values the package has already proven and checks nothing.
    Both end in _build, the one place a graph is assembled.  Value gives
    equality, hashing and read-only fields over vertices and edges, and
    copies and unpickles through the certifying constructor.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> None:
        vs = set(vertices)
        for v in sorted(vs):
            if not is_prime(v):
                raise ValueError(f"vertex {v} is not prime")
        es = list(edges)
        for a, b in es:
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a}, {b}) has an endpoint outside the vertex set")
        self._build(vs, es)

    @classmethod
    def _trusted(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "CharGraph":
        """A graph on vertices already proven prime, with edges already known
        to join two distinct of them; nothing is checked."""
        g = cls.__new__(cls)
        g._build(vertices, edges)
        return g

    def _build(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
        vs = tuple(sorted(set(vertices)))
        es = tuple(sorted({(a, b) if a < b else (b, a) for a, b in edges}))
        adj: dict[int, set[int]] = {v: set() for v in vs}
        for a, b in es:
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es)
        object.__setattr__(self, "_adj", adj)

    def _field_values(self) -> tuple:
        return self.vertices, self.edges

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, ())

    def __repr__(self) -> str:
        return f"CharGraph(vertices={list(self.vertices)}, edges={[list(e) for e in self.edges]})"

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CharGraph":
        if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
            raise ValueError('a graph must be a JSON object with "vertices" and "edges" lists')
        edges = [_int_list(e, "an edge") for e in data["edges"]]
        if any(len(e) != 2 for e in edges):
            raise ValueError("every edge must be a pair of vertices")
        return cls(_int_list(data.get("vertices"), "vertices"), [tuple(e) for e in edges])

    def to_dot(self) -> str:
        lines = ["graph delta {"]
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a, b in self.edges:
            lines.append(f'  "{a}" -- "{b}";')
        lines.append("}")
        return "\n".join(lines)


class DegreeSet(Value):
    """A finite set of character degrees; always contains 1."""

    __slots__ = ("degrees",)

    def __init__(self, degrees: list[int] | tuple[int, ...]) -> None:
        ds = tuple(sorted(set(_int_list(degrees, "degrees"))))
        if not ds or ds[0] < 1:
            raise ValueError("degrees must be positive integers")
        if 1 not in ds:
            raise ValueError("a degree set must contain 1")
        object.__setattr__(self, "degrees", ds)

    def __iter__(self) -> Iterator[int]:
        return iter(self.degrees)

    @classmethod
    def from_json(cls, data) -> "DegreeSet":
        """A degree set given as a JSON list or as {"degrees": [...]}."""
        if isinstance(data, dict) and "degrees" in data:
            data = data["degrees"]
        elif not isinstance(data, list):
            raise ValueError('a degree set must be a JSON list or an object with a "degrees" list')
        return cls(data)


def graph_from_cd(cd: DegreeSet) -> CharGraph:
    """The character graph of a degree set: distinct primes p, q dividing the
    same degree d satisfy pq | d, so each degree adds a clique on its primes.
    """
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for d in cd:
        ps = sorted(prime_divisors(d))
        verts.update(ps)
        edges.update(combinations(ps, 2))
    return CharGraph._trusted(verts, edges)


def _disjoint_vertices(gs: tuple[CharGraph, ...]) -> list[int]:
    verts = [v for g in gs for v in g.vertices]
    overlap = sorted(v for v, k in Counter(verts).items() if k > 1)
    if overlap:
        raise ValueError(f"vertex sets overlap: {overlap}")
    return verts


def join(*gs: CharGraph) -> CharGraph:
    """The disjoint union of the graphs plus every edge between two of them.

    Delta(A x B) = Delta(A) * Delta(B) when the degrees of A and B have
    disjoint prime sets.  Each part is paired with the parts before it, so
    the cost is linear in the number of parts plus the edges made.
    """
    verts = _disjoint_vertices(gs)
    edges = [e for g in gs for e in g.edges]
    before: list[int] = []
    for g in gs:
        edges += [(x, y) for x in before for y in g.vertices]
        before += g.vertices
    return CharGraph._trusted(verts, edges)


def disjoint_union(*gs: CharGraph) -> CharGraph:
    """The union of graphs on pairwise disjoint vertex sets."""
    return CharGraph._trusted(_disjoint_vertices(gs), [e for g in gs for e in g.edges])


def complement(g: CharGraph) -> CharGraph:
    edges = [e for e in combinations(g.vertices, 2) if not g.has_edge(*e)]
    return CharGraph._trusted(g.vertices, edges)


def _check_search_bound(g: CharGraph) -> None:
    if g.vertex_count > MAX_SEARCH_VERTICES:
        raise ValueError(
            f"graph has {g.vertex_count} vertices; exhaustive search is "
            f"bounded at {MAX_SEARCH_VERTICES}"
        )


def is_kn_free(g: CharGraph, n: int) -> bool:
    """True iff g has no clique on n vertices.

    Cliques grow through adjacency sets: a clique extends only with later
    vertices adjacent to all of its members, so every clique is reached
    once, in sorted vertex order, and the answer is that of the exhaustive
    search over all n-subsets.
    """
    if n < 2:
        raise ValueError("clique size must be >= 2")
    _check_search_bound(g)
    return not _has_clique(g._adj, g.vertices, n)


def _has_clique(adj: dict[int, set[int]], candidates: tuple[int, ...] | list[int], k: int) -> bool:
    """True iff the sorted candidates, all adjacent to the clique built so
    far, hold k pairwise adjacent vertices."""
    if k == 0:
        return True
    for i in range(len(candidates) - k + 1):
        near = adj[candidates[i]]
        if _has_clique(adj, [w for w in candidates[i + 1:] if w in near], k - 1):
            return True
    return False


def are_isomorphic(a: CharGraph, b: CharGraph) -> dict[int, int] | None:
    """A vertex bijection from a to b preserving adjacency both ways, or None.

    Backtracking over vertices in decreasing-degree order with degree
    pruning; the found/not-found answer matches exhaustive search.
    """
    _check_search_bound(a)
    _check_search_bound(b)
    if a.vertex_count != b.vertex_count or a.edge_count != b.edge_count:
        return None
    deg_a = {v: a.degree(v) for v in a.vertices}
    deg_b = {w: b.degree(w) for w in b.vertices}
    if sorted(deg_a.values()) != sorted(deg_b.values()):
        return None
    order = sorted(a.vertices, key=lambda v: (-deg_a[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in b.vertices:
            if w in used or deg_b[w] != deg_a[v]:
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
