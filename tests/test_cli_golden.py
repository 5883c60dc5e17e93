"""Golden corpus for the command line: the exit code, stdout byte for byte,
and an empty stderr.

Every verb runs in process through ``conftest.run_cli`` in each of its
output formats.  The corpus holds only commands that exit 0 or 1; a bad
input is a row of ``test_cli.EXIT_2``; the nine of ``EXIT_2_IDS`` also keep
an id here and run as their row.  The expected results live in
``golden/cli.json``; after an intended change of output, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff.
"""

import json
from pathlib import Path

import pytest

from conftest import CASE_FS, run_cli
from test_cli import check_exit_2

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli.json"

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
    for f in sorted(f for fs in CASE_FS.values() for f in fs):
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

    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of argv with '{inputs}' resolved."""
    return run_cli([a.replace("{inputs}", str(GOLDEN / "inputs")) for a in argv])


def key(argv: list[str]) -> str:
    return json.dumps(argv)


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


# Bad inputs that keep an id of this test: id -> their test_cli.EXIT_2 row,
# which holds the same argv and input and pins the stderr line.
EXIT_2_IDS = {
    "(no arguments)": "no-arguments",
    "check-solvable {inputs}/not_json.json": "bad-json-file",
    "factor -5": "factor-minus-5",
    "factor 12 --format dot": "factor-format-dot",
    "frobnicate": "unknown-verb",
    "scan interest --max 64": "scan-interest-max-64",
    "scan nothing": "scan-unknown-name",
    "scan oddfour --max 2": "scan-oddfour-max-2",
    "zsigmondy 2 65": "zsigmondy-2-65",
}
CASES = ([pytest.param(argv, None, id=" ".join(argv)) for argv in commands()]
         + [pytest.param(None, row, id=name) for name, row in EXIT_2_IDS.items()])


@pytest.mark.parametrize("argv,row", CASES)
def test_cli_golden(argv, row, corpus, tmp_path):
    if row is not None:
        check_exit_2(row, tmp_path)
        return
    expected = corpus[key(argv)]
    assert run(argv) == (expected["exit"], "\n".join(expected["stdout"]), "")


def test_corpus_has_no_stale_entries(corpus):
    assert sorted(corpus) == sorted(key(a) for a in commands())
    assert [k for k, entry in corpus.items() if entry["exit"] == 2] == []


def regenerate() -> None:
    corpus = {}
    for argv in commands():
        code, out, _ = run(argv)
        corpus[key(argv)] = {"exit": code, "stdout": out.split("\n")}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
