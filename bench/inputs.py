"""Seeded input generators for the benchmark workloads.

Everything here is pure Python and independent of chargraph: the worker
imports this module to build inputs outside its timed sections, and run.py
imports it to rebuild the same inputs for the oracle checks.  The same
seed always gives the same inputs.
"""

from __future__ import annotations

import random
from itertools import combinations

U64 = 1 << 64

# Vertex labels for generated graphs: the first 20 primes.
LABEL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# Per batch of factor inputs: (class, count).  The counts put the median
# item inside the semi20_30 class and the tail inside semi32, away from a
# class boundary, so both statistics are stable across seeds.
FACTOR_MIX = (("prime64", 3), ("smooth", 5), ("semi20_30", 8), ("semi32", 4))
FACTOR_BATCH = sum(count for _, count in FACTOR_MIX)

# Batches in the factor workload's set.
FACTOR_SET_BATCHES = 10

# Items in the graphs workload's set, a whole number of strata.
GRAPH_SET = 240

# Shape expressions stay within this many vertices.
SHAPE_MAX_VERTICES = 12

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def rng_for(kind: str, seed: int, index: int = 0) -> random.Random:
    # String seeds hash through SHA-512, so they ignore PYTHONHASHSEED.
    return random.Random(f"{kind}:{seed}:{index}")


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the bases that are exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A random prime in [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if lo <= n < hi and is_probable_prime(n):
            return n


def _factor_input(rng: random.Random, kind: str) -> int:
    if kind == "prime64":
        return random_prime(rng, U64 - (1 << 40), U64)
    if kind == "smooth":
        n = 1
        while True:
            p = random_prime(rng, 3, 1 << 20)
            if n * p >= U64:
                return n
            n *= p
    if kind == "semi20_30":
        a, b = rng.randint(20, 30), rng.randint(20, 30)
        return random_prime(rng, 1 << (a - 1), 1 << a) * random_prime(rng, 1 << (b - 1), 1 << b)
    if kind == "semi32":
        return random_prime(rng, 1 << 31, 1 << 32) * random_prime(rng, 1 << 31, 1 << 32)
    raise ValueError(f"unknown factor class {kind!r}")


def factor_batch(seed: int, batch: int) -> list[tuple[str, int]]:
    """FACTOR_BATCH (class, n) pairs, in shuffled order."""
    rng = rng_for("factor", seed, batch)
    items = [(kind, _factor_input(rng, kind)) for kind, count in FACTOR_MIX for _ in range(count)]
    rng.shuffle(items)
    return items


def factor_set(seed: int, batches: int = FACTOR_SET_BATCHES) -> list[tuple[str, int]]:
    """The factor workload's inputs: batches whole batches, with any repeat
    of an earlier input left out."""
    seen: set[int] = set()
    out = []
    for batch in range(batches):
        for kind, n in factor_batch(seed, batch):
            if n not in seen:
                seen.add(n)
                out.append((kind, n))
    return out


# ---------------------------------------------------------------- graphs

def _triangles(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return [sum(1 for x, y in combinations(sorted(adj[v]), 2) if y in adj[x]) for v in range(n)]


def random_regular(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """A d-regular simple graph on range(n): a circulant graph randomized by
    degree-preserving double-edge swaps."""
    edges = {tuple(sorted((i, (i + k) % n))) for i in range(n) for k in range(1, d // 2 + 1)}
    if d % 2:
        edges |= {tuple(sorted((i, i + n // 2))) for i in range(n // 2)}
    edge_list = sorted(edges)
    m = len(edge_list)
    for _ in range(5 * m):
        i, j = rng.randrange(m), rng.randrange(m - 1)
        j += j >= i
        (a, b), (c, e) = edge_list[i], edge_list[j]
        if rng.random() < 0.5:
            c, e = e, c
        new1, new2 = tuple(sorted((a, c))), tuple(sorted((b, e)))
        if a == c or b == e or new1 in edges or new2 in edges:
            continue
        edges -= {edge_list[i], edge_list[j]}
        edges |= {new1, new2}
        edge_list[i], edge_list[j] = new1, new2
    return sorted(edges)


def _labelled(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> dict:
    labels = rng.sample(LABEL_PRIMES, n)
    out = [[labels[a], labels[b]] for a, b in edges]
    rng.shuffle(out)
    return {"vertices": labels, "edges": out}


def positive_pair(rng: random.Random, n: int | None = None, p: float | None = None) -> tuple[dict, dict]:
    """A random G(n, p) graph and a random relabelling of it; n and p are
    drawn when not given."""
    n = rng.randint(8, 12) if n is None else n
    p = rng.uniform(0.2, 0.8) if p is None else p
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return _labelled(rng, n, edges), _labelled(rng, n, edges)


def regular_degrees(n: int) -> list[int]:
    return [k for k in range(3, n - 3) if n * k % 2 == 0]


def negative_pair(rng: random.Random, n: int | None = None, d: int | None = None) -> tuple[dict, dict]:
    """Two random d-regular graphs on the same n whose per-vertex triangle
    counts differ, which certifies that they are not isomorphic; n and d
    are drawn when not given."""
    while True:
        if n is None:
            n = rng.randint(8, 12)
        if d is None:
            d = rng.choice(regular_degrees(n))
        a = random_regular(rng, n, d)
        for _ in range(20):
            b = random_regular(rng, n, d)
            if sorted(_triangles(n, a)) != sorted(_triangles(n, b)):
                return _labelled(rng, n, a), _labelled(rng, n, b)


# (positive pair (n, p), negative pair (n, d)) per item, cycled through a
# set: every n from 8 to 12 at three densities, and every regular degree the
# generator allows for each n.
GRAPH_STRATA = tuple(zip(
    [(n, p) for n in range(8, 13) for p in (0.3, 0.5, 0.7)],
    [(n, d) for n in range(8, 13) for d in regular_degrees(n)],
    strict=True,
))


def shape_tree(rng: random.Random, budget: int = SHAPE_MAX_VERTICES, depth: int = 0):
    """A random shape AST as nested tuples, using at most budget vertices."""
    if depth >= 3 or budget < 6 or rng.random() < 0.3:
        if budget >= 3 and rng.random() < 0.4:
            return ("C", rng.randint(3, min(5, budget)))
        return ("K", rng.randint(1, min(4, budget)))
    roll = rng.random()
    if roll < 0.2:
        return ("^c", shape_tree(rng, budget, depth + 1))
    parts, left = [], budget
    for _ in range(rng.randint(2, 3)):
        if left < 1:
            break
        part = shape_tree(rng, max(1, left // 2), depth + 1)
        parts.append(part)
        left -= shape_size(part)
    if len(parts) == 1:
        return parts[0]
    return ("+" if roll < 0.6 else "*", tuple(parts))


def shape_size(tree) -> int:
    op, arg = tree
    if op in ("K", "C"):
        return arg
    if op == "^c":
        return shape_size(arg)
    return sum(shape_size(p) for p in arg)


def shape_text(tree) -> str:
    """Render a shape AST in the chargraph expression syntax, with every
    compound operand parenthesized."""
    op, arg = tree
    if op in ("K", "C"):
        return f"{op}{arg}"
    if op == "^c":
        inner = shape_text(arg)
        return f"{inner}^c" if arg[0] in ("K", "C") else f"({inner})^c"
    sep = " + " if op == "+" else " * "
    return sep.join(shape_text(p) if p[0] in ("K", "C") else f"({shape_text(p)})" for p in arg)


def graph_set(seed: int, size: int = GRAPH_SET) -> list[dict]:
    """size items; each has an isomorphic pair, a non-isomorphic pair with
    equal degree sequences, and a shape expression.

    Item i takes its sizes from stratum i (see GRAPH_STRATA) and draws
    everything else from its own generator, so the mix of sizes, which sets
    most of the work, is the same for every seed, and a longer set only
    appends items.
    """
    items = []
    for i in range(size):
        rng = rng_for("graphs", seed, i)
        (pos_n, p), (neg_n, d) = GRAPH_STRATA[i % len(GRAPH_STRATA)]
        pos = positive_pair(rng, pos_n, p)
        neg = negative_pair(rng, neg_n, d)
        tree = shape_tree(rng)
        items.append({"pos": pos, "neg": neg, "shape": shape_text(tree), "tree": tree})
    return items
