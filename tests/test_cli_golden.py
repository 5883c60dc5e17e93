"""Golden corpus for the command line: stdout byte for byte, and the exit code.

Every verb runs in process through ``cli.main`` in each of its output
formats, together with inputs that must exit 2.  The expected results live
in ``golden/cli.json``; after an intended change of output, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from chargraph import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli.json"

CASE_FS = (2, 3, 6, 9, 11, 14, 15, 21, 23, 27, 29, 47, 53)
PSL2_QS = (4, 5, 7, 8, 9, 25, 27, 49, 64, 81, 1024, 65537)
SHAPES = ("K3^c * C4", "(K2 + K1 + K2) * K2^c", "K3 + K1 + K3", "K0", "C5^c", "K1 * K1 * K1")


def commands() -> list[list[str]]:
    """Every command of the corpus; '{inputs}' stands for golden/inputs."""
    out: list[list[str]] = []

    def each_format(argv, formats=("table", "json")):
        out.append(list(argv))
        out.extend(list(argv) + ["--format", fmt] for fmt in formats)

    for n in (1, 2, 12, 97, 1000000007, 4294967297, 600851475143, 2**64 - 1, 2**64 - 59):
        each_format(["factor", str(n)])
    for n in (1, 12, 9999999967, 2**64 - 1):
        each_format(["pi", str(n)])
    for base, n in ((2, 1), (2, 6), (3, 2), (2, 12), (10, 5), (7, 3), (2, 63)):
        each_format(["zsigmondy", str(base), str(n)])
    for q in PSL2_QS:
        each_format(["psl2-graph", str(q)], ("json", "dot", "table"))
    for expr in SHAPES:
        each_format(["parse-shape", expr], ("json", "dot", "table"))
    for a, b in (
        ("K3^c * C4", "K3^c * C4"),
        ("C4", "K2 + K2"),
        ("{inputs}/graph_c4.json", "C4"),
        ('{"vertices": [3, 5], "edges": [[3, 5]]}', "K2"),
        ("K3 + K1 + K3", "(K2 + K1 + K2) * K2^c"),
    ):
        each_format(["iso", a, b])
    for f in range(2, 64):
        each_format(["classify-f", str(f)])
    for f in CASE_FS:
        each_format(["verify-main", "--f", str(f)])
    for f, name in ((2, "radical_f2"), (6, "radical_f6"), (14, "radical_f14")):
        each_format(["verify-main", "--f", str(f), "--radical", f"{{inputs}}/{name}.json"])
    for which in ("interest", "evenfive", "oddfour"):
        each_format(["scan", which])
    for which, bound in (("interest", 2), ("interest", 63), ("evenfive", 5), ("evenfive", 63),
                         ("oddfour", 3), ("oddfour", 100)):
        each_format(["scan", which, "--max", str(bound)])
    for name in ("cd_triangle", "cd_list", "cd_not_palfy", "cd_two_edges", "cd_square"):
        each_format(["check-solvable", f"{{inputs}}/{name}.json"])

    # Inputs that must exit 2.
    out.extend([
        ["factor", "0"], ["factor", "-5"], ["factor", str(2**64)], ["factor", "abc"],
        ["pi", "0"],
        ["zsigmondy", "1", "3"], ["zsigmondy", "2", "0"], ["zsigmondy", "2", "65"],
        ["psl2-graph", "6"], ["psl2-graph", "3"], ["psl2-graph", str(2**64)],
        ["parse-shape", "K3 +"], ["parse-shape", ""], ["parse-shape", "C2"],
        ["iso", "K3 +", "K1"], ["iso", "K13", "K13"], ["iso", "{inputs}/graph_nonprime.json", "K1"],
        ["classify-f", "1"], ["classify-f", "64"],
        ["verify-main", "--f", "4"], ["verify-main", "--f", "64"],
        ["verify-main", "--f", "2", "--radical", "{inputs}/radical_reuse.json"],
        ["verify-main", "--f", "6", "--radical", "{inputs}/radical_count.json"],
        ["verify-main", "--f", "14", "--radical", "{inputs}/radical_abelian.json"],
        ["verify-main", "--f", "6", "--radical", "{inputs}/radical_not_list.json"],
        ["verify-main", "--f", "6", "--radical", "{inputs}/missing.json"],
        ["scan", "interest", "--max", "64"], ["scan", "evenfive", "--max", "1"],
        ["scan", "oddfour", "--max", "2"], ["scan", "oddfour", "--max", "100001"],
        ["scan", "nothing"],
        ["check-solvable", "{inputs}/cd_no_one.json"], ["check-solvable", "{inputs}/cd_no_key.json"],
        ["check-solvable", "{inputs}/not_json.json"], ["check-solvable", "{inputs}/missing.json"],
        ["factor", "12", "--format", "dot"], ["frobnicate"], [],
    ])
    return out


def run(argv: list[str]) -> int:
    resolved = [a.replace("{inputs}", str(GOLDEN / "inputs")) for a in argv]
    try:
        return cli.main(resolved)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code


def key(argv: list[str]) -> str:
    return json.dumps(argv)


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_cli_golden(argv, corpus, capsys):
    expected = corpus[key(argv)]
    code = run(argv)
    assert (code, capsys.readouterr().out) == (expected["exit"], "\n".join(expected["stdout"]))


def test_corpus_has_no_stale_entries(corpus):
    assert sorted(corpus) == sorted(key(a) for a in commands())


def regenerate() -> None:
    corpus = {}
    for argv in commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        corpus[key(argv)] = {"exit": code, "stdout": out.getvalue().split("\n")}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
