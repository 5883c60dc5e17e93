"""Shared test inputs and the two ways to run the program.

Random graphs and shapes come from the hypothesis strategies here,
`char_graphs` and `shape_asts`, drawn through `@given`, so a failure
reports a shrunk input.  A case that must be covered is an `@example`.

`run_cli` runs the command line in process; `run_python` runs a fresh
interpreter on this checkout's `src/`.  Tests call the program only
through these two.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from chargraph import cli
from chargraph.graphs import CharGraph
from chargraph.shapes import Complement, Complete, Cycle, Join, Union

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The f of each case of the main theorem: PSL2(2^f) with seven vertices.
CASE_FS = {"I": (2, 3), "II": (6, 9, 11, 23), "III": (14, 15, 21, 27, 29, 47, 53)}

# Rows [f, factors of 2^f - 1, factors of 2^f + 1] for f = 2..63, each a
# list of [prime, exponent]; frozen from sympy.factorint
# (tests/test_classify.py checks the table itself).
FACTOR_TABLE = json.loads((Path(__file__).parent / "golden" / "mersenne_factors.json").read_text())


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_python(*args: str, **kwargs) -> subprocess.CompletedProcess:
    """Run sys.executable with args on this checkout's src/; kwargs go to subprocess.run."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, *args], text=True, env=env, **kwargs)


@st.composite
def char_graphs(draw, pool=PRIMES, max_vertices=7):
    """Graphs on up to max_vertices primes of pool; each pair is an edge or not by its own draw."""
    verts = sorted(draw(st.sets(st.sampled_from(pool), max_size=max_vertices)))
    pairs = list(combinations(verts, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CharGraph(verts, [p for p, k in zip(pairs, keep) if k])


shape_asts = st.recursive(
    st.one_of(
        st.integers(min_value=0, max_value=7).map(Complete),
        st.integers(min_value=3, max_value=7).map(Cycle),
    ),
    lambda inner: st.one_of(
        inner.map(Complement),
        st.lists(inner, min_size=2, max_size=3).map(Union),
        st.lists(inner, min_size=2, max_size=3).map(Join),
    ),
    max_leaves=6,
)


def leaf_vertex_total(expr) -> int:
    if isinstance(expr, (Complete, Cycle)):
        return expr.n
    if isinstance(expr, Complement):
        return leaf_vertex_total(expr.inner)
    return sum(leaf_vertex_total(p) for p in expr.parts)
