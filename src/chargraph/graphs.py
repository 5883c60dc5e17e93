"""Character graphs: finite simple graphs whose vertices are primes.

The graph of a degree set has a vertex for every prime dividing some degree
and an edge {p, q} whenever the product pq divides some degree.  Graphs are
immutable _value.Value records; operations return new graphs.  Vertex and
edge listings are always sorted so equal graphs print and serialize
identically.

CharGraph.from_json and DegreeSet.from_json check only the JSON's shape;
the constructors check the values, each with _value.check_int.  Vertices
are certified prime at the boundary only: the public CharGraph constructor
also runs Miller-Rabin on every vertex and rejects self-loops and edges
leaving the vertex set.  The builders inside the package (graph_from_cd,
join, disjoint_union, complement and the shape leaves) take their vertices
from factorize, from arith.primes() or from an existing CharGraph, so they
are proven primes already, and each edge they add has two distinct such
endpoints; those builders go through CharGraph._trusted, which checks
nothing, and tests/test_graphs.py pays for the check instead by
re-certifying their output.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from itertools import combinations

from ._value import Value, check_int
from .arith import is_prime, prime_divisors

# Exhaustive clique/isomorphism searches are bounded to this many vertices.
MAX_SEARCH_VERTICES = 12


class CharGraph(Value):
    """An immutable simple graph on prime-number vertices: the sorted tuples
    vertices and edges, each edge (low, high), and nothing else.  Every
    constructor ends in _build; copies go through the certifying one.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]] = ()) -> None:
        vs = {check_int(v, "vertex") for v in vertices}
        for v in sorted(vs):
            if not is_prime(v):
                raise ValueError(f"vertex {v} is not prime")
        es = list(edges)
        for a, b in es:
            check_int(a, "edge endpoint")
            check_int(b, "edge endpoint")
            if a == b:
                raise ValueError(f"self-loop at {a}")
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a}, {b}) has an endpoint outside the vertex set")
        self._build(vs, es)

    @classmethod
    def _trusted(cls, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "CharGraph":
        """The unchecked constructor of the package's own builders."""
        g = cls.__new__(cls)
        g._build(vertices, edges)
        return g

    def _build(self, vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> None:
        es = {(a, b) if a < b else (b, a) for a, b in edges}
        object.__setattr__(self, "vertices", tuple(sorted(set(vertices))))
        object.__setattr__(self, "edges", tuple(sorted(es)))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"CharGraph(vertices={list(self.vertices)}, edges={[list(e) for e in self.edges]})"

    @classmethod
    def from_json(cls, data: dict) -> "CharGraph":
        """A graph as {"vertices": [...], "edges": [[a, b], ...]}; the constructor checks the values."""
        if not (isinstance(data, dict) and isinstance(data.get("vertices"), list)
                and isinstance(data.get("edges"), list)):
            raise ValueError('a graph must be a JSON object with "vertices" and "edges" lists')
        if not all(isinstance(e, list) and len(e) == 2 for e in data["edges"]):
            raise ValueError("every edge must be a pair of vertices")
        return cls(data["vertices"], data["edges"])

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
        if not isinstance(degrees, (list, tuple)):
            raise ValueError(f"degrees must be a list of integers, got {type(degrees).__name__}")
        ds = tuple(sorted({check_int(d, "degree", 1) for d in degrees}))
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


def join(*gs: CharGraph) -> CharGraph:
    """Delta(A x B) = join(Delta(A), Delta(B)) for any groups A and B: the
    union of the graphs plus an edge from each vertex of a part to every
    other vertex of the parts before it, so a prime of both A and B is
    adjacent to every other vertex.  The cost is linear in the number of
    parts plus the edges made.
    """
    edges = [e for g in gs for e in g.edges]
    before: list[int] = []
    for g in gs:
        edges += [(x, y) for x in before for y in g.vertices if x != y]
        before += g.vertices
    return CharGraph._trusted(before, edges)


def disjoint_union(*gs: CharGraph) -> CharGraph:
    """The union of graphs on pairwise disjoint vertex sets."""
    verts = [v for g in gs for v in g.vertices]
    overlap = sorted(v for v, k in Counter(verts).items() if k > 1)
    if overlap:
        raise ValueError(f"vertex sets overlap: {overlap}")
    return CharGraph._trusted(verts, [e for g in gs for e in g.edges])


def complement(g: CharGraph) -> CharGraph:
    present = set(g.edges)
    edges = [e for e in combinations(g.vertices, 2) if e not in present]
    return CharGraph._trusted(g.vertices, edges)


def _adjacency(g: CharGraph) -> dict[int, set[int]]:
    """{v: the set of v's neighbours}, built for each search that reads it."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


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
    check_int(n, "clique size", 2)
    _check_search_bound(g)
    return not _has_clique(_adjacency(g), g.vertices, n)


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
    adj_a, adj_b = _adjacency(a), _adjacency(b)
    deg_a = {v: len(near) for v, near in adj_a.items()}
    deg_b = {w: len(near) for w, near in adj_b.items()}
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
            if all((u in adj_a[v]) == (mapping[u] in adj_b[w]) for u in mapping):
                mapping[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return dict(mapping) if extend(0) else None
