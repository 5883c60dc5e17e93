"""The command line: exit codes, the grammar and help, output errors, a fuzz
of every verb and the README's examples.

`EXIT_2` is the one list of bad inputs, with a row for every verb, and the
one test of the exit-2 rule: bad input exits 2 with empty stdout and one
stderr line.  A new bad input gets a row there, not a test, and not a
golden-corpus command.
"""
import json
import os
import re
import shlex
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargraph
from chargraph import classify, cli, graphs, shapes
from chargraph.arith import is_prime
from conftest import run_cli, run_python

DEEP = "(" * 400 + "K1" + ")" * 400
DEEP_PREFIX = "syntax error: parentheses nested deeper than"
# Deeper than the JSON decoder can recurse.  Written as raw text, because
# json.dumps of such a value recurses as well.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
DEEP_JSON_ERROR = "error: JSON input is nested too deeply\n"
FIRST_PRIMES = [p for p in range(2, 1000) if is_prime(p)]
RADICAL = ["verify-main", "--f", "6", "--radical", "{file}"]
NO_SUCH_FILE = "input error: [Errno 2] No such file or directory: "
FACTOR_USAGE = "; usage: chargraph factor <n> [--format table|json]\n"
SCAN_USAGE = "; usage: chargraph scan interest|evenfive|oddfour [--max <max>] [--format table|json]\n"
VERB_USAGE = ("; usage: chargraph factor|pi|zsigmondy|psl2-graph|parse-shape|iso|classify-f|verify-main|scan|"
              "check-solvable ...\n")

# id -> (argv, text of the file that "{file}" names or None, the start of
# stderr); an expected text that ends in "\n" is the whole line.  "{missing}"
# names a file that does not exist.
EXIT_2 = {
    "vertices-not-a-list": (["iso", '{"vertices": 5, "edges": []}', "K1"], None, "error: "),
    "float-vertex": (["iso", '{"vertices": [2.0], "edges": []}', "K1"], None, "error: "),
    "string-vertex": (["iso", '{"vertices": ["2"], "edges": []}', "K1"], None, "error: "),
    "edge-not-a-pair": (["iso", '{"vertices": [2, 3], "edges": [[2, 3, 5]]}', "K1"], None, "error: "),
    "graph-not-an-object": (["iso", "{file}", "K1"], "[2, 3]", "error: "),
    "float-degree": (["check-solvable", "{file}"], '{"degrees": [1, 2.5]}', "error: "),
    "degrees-a-string": (["check-solvable", "{file}"], '{"degrees": "123"}', "error: "),
    "bool-degree": (["check-solvable", "{file}"], "[1, true, 3]", "error: "),
    "degree-set-a-string": (["check-solvable", "{file}"], '"123"', "error: "),
    "radical-entry-a-string": (RADICAL, '[[1, 2], "x"]', "error: "),
    "bool-radical-degree": (RADICAL, "[[1, true, 11]]", "error: "),
    "bad-json-file": (["check-solvable", "{file}"], '{"degrees": [1, 6\n',
                      "error: Expecting ',' delimiter: line 2 column 1 (char 18)\n"),
    "bad-json-inline": (["iso", '{"vertices": [2', "K1"], None,
                        "error: Expecting ',' delimiter: line 1 column 16 (char 15)\n"),
    "scan-oddfour-max-2": (["scan", "oddfour", "--max", "2"], None, "error: q_max must be in [3, 100000], got 2\n"),
    "scan-interest-max-64": (["scan", "interest", "--max", "64"], None, "error: f_max must be in [2, 63], got 64\n"),
    "parse-shape-deep": (["parse-shape", DEEP], None, DEEP_PREFIX),
    "iso-first-deep": (["iso", DEEP, "K1"], None, DEEP_PREFIX),
    "iso-second-deep": (["iso", "K1", DEEP], None, DEEP_PREFIX),
    "parse-shape-over-cap": (["parse-shape", "K128 + C129"], None, "error: shape has 257 vertices"),
    # Counts past 2^64 are not printed: the sum of two 4,300-digit sizes has
    # more digits than str() writes, and one such size is a 4,300-byte line.
    **{f"parse-shape-over-cap-{name}": (["parse-shape", text], None,
                                        "error: shape has 2^64 or more vertices; at most 256 are supported\n")
       for name, text in (("4300-digits", "K" + "9" * 4300), ("4301-digit-sum", " + ".join(["K" + "9" * 4300] * 2)))},
    "parse-shape-C2": (["parse-shape", "K2 + C2"], None, "syntax error: C2: n must be >= 3, got 2 (at position 6)\n"),
    "deep-json-check-solvable": (["check-solvable", "{file}"], DEEP_JSON, DEEP_JSON_ERROR),
    "deep-json-radical": (RADICAL, DEEP_JSON, DEEP_JSON_ERROR),
    "deep-json-iso-inline": (["iso", '{"vertices": ' + "[" * 20_000 + "]" * 20_000 + "}", "K1"], None, DEEP_JSON_ERROR),
    "deep-json-iso-file": (["iso", "K1", "{file}"], DEEP_JSON, DEEP_JSON_ERROR),
    **{f"check-solvable-{count}-vertices": (
        ["check-solvable", "{file}"], json.dumps([1] + FIRST_PRIMES[:count]),
        f"error: graph has {count} vertices; exhaustive search is bounded at 12\n") for count in (13, 150)},
    # The first two would build a power of millions of digits, or run out of
    # memory, if the width were checked only after building base^n.
    **{f"zsigmondy-{base}-{n}": (
        ["zsigmondy", str(base), str(n)], None, f"error: {base}^{n} - 1 exceeds the supported 64-bit range\n")
       for base, n in ((3, 10_000_000), (2, 10_000_000_000), (2, 65))},
    # Usage errors: integer arguments take ASCII digits only (int() alone
    # also reads other scripts' digits and underscores).
    "arabic-indic-digits": (["factor", "١٢"], None,
                            "usage error: argument n: invalid integer value: '١٢'" + FACTOR_USAGE),
    "underscore": (["factor", "1_2"], None, "usage error: argument n: invalid integer value: '1_2'" + FACTOR_USAGE),
    "arabic-indic-f": (["classify-f", "٦"], None, "usage error: argument f: invalid integer value: '٦'; "
                       "usage: chargraph classify-f <f> [--format table|json]\n"),
    "no-arguments": ([], None, "usage error: no verb given" + VERB_USAGE),
    "unknown-verb": (["frobnicate"], None, "usage error: unknown verb 'frobnicate'" + VERB_USAGE),
    "factor-no-argument": (["factor"], None, "usage error: factor takes 1 argument(s), got 0" + FACTOR_USAGE),
    "factor-two-arguments": (["factor", "1", "2"], None,
                             "usage error: factor takes 1 argument(s), got 2" + FACTOR_USAGE),
    "factor-format-dot": (["factor", "12", "--format", "dot"], None,
                          "usage error: argument format: invalid choice: 'dot'" + FACTOR_USAGE),
    "factor-unknown-option": (["factor", "12", "--bogus", "1"], None,
                              "usage error: unknown option '--bogus'" + FACTOR_USAGE),
    # No abbreviated options: --form is not --format.
    "factor-abbreviated-option": (["factor", "12", "--form", "json"], None,
                                  "usage error: unknown option '--form'" + FACTOR_USAGE),
    # -5 is an argument, not an option, so factorize rejects it.
    "factor-minus-5": (["factor", "-5"], None, "error: n must be >= 1, got -5\n"),
    "scan-unknown-name": (["scan", "nothing"], None,
                          "usage error: argument which: invalid scanner value: 'nothing'" + SCAN_USAGE),
    "scan-max-no-value": (["scan", "oddfour", "--max"], None, "usage error: option --max needs a value" + SCAN_USAGE),
    "verify-main-no-f": (["verify-main"], None, "usage error: option --f is required; "
                         "usage: chargraph verify-main --f <f> [--radical <radical>] [--format table|json]\n"),
    "factor-0": (["factor", "0"], None, "error: n must be >= 1, got 0\n"),
    "factor-2-to-the-64": (["factor", str(2**64)], None,
                           "error: 18446744073709551616 exceeds the supported 64-bit range\n"),
    "factor-abc": (["factor", "abc"], None, "usage error: argument n: invalid integer value: 'abc'" + FACTOR_USAGE),
    "pi-0": (["pi", "0"], None, "error: n must be >= 1, got 0\n"),
    "zsigmondy-base-1": (["zsigmondy", "1", "3"], None, "error: base must be >= 2, got 1\n"),
    "zsigmondy-n-0": (["zsigmondy", "2", "0"], None, "error: n must be >= 1, got 0\n"),
    "psl2-graph-6": (["psl2-graph", "6"], None, "error: q = 6 is not a prime power\n"),
    "psl2-graph-3": (["psl2-graph", "3"], None, "error: q must be >= 4, got 3\n"),
    "psl2-graph-2-to-the-64": (["psl2-graph", str(2**64)], None,
                               "error: 18446744073709551616 exceeds the supported 64-bit range\n"),
    "parse-shape-trailing-operator": (["parse-shape", "K3 +"], None,
                                      "syntax error: unexpected end of input (at position 4)\n"),
    "parse-shape-empty": (["parse-shape", ""], None, "syntax error: unexpected end of input (at position 0)\n"),
    "parse-shape-lone-C2": (["parse-shape", "C2"], None, "syntax error: C2: n must be >= 3, got 2 (at position 1)\n"),
    # More digits than int() reads by default (4,300).
    "parse-shape-long-size": (["parse-shape", "K" + "1" * 5000], None,
                              "syntax error: a size of 5000 digits is too long (at position 1)\n"),
    "iso-syntax-error": (["iso", "K3 +", "K1"], None, "syntax error: unexpected end of input (at position 4)\n"),
    "iso-K13": (["iso", "K13", "K13"], None, "error: graph has 13 vertices; exhaustive search is bounded at 12\n"),
    "iso-nonprime-vertex": (["iso", "{file}", "K1"], '{"vertices": [4], "edges": []}',
                            "error: vertex 4 is not prime\n"),
    "classify-f-1": (["classify-f", "1"], None, "error: f must be in [2, 63], got 1\n"),
    "classify-f-64": (["classify-f", "64"], None, "error: f must be in [2, 63], got 64\n"),
    "verify-main-f-4": (["verify-main", "--f", "4"], None, "error: f = 4 has sizes (2, 1); no case applies\n"),
    "verify-main-f-64": (["verify-main", "--f", "64"], None, "error: f must be in [2, 63], got 64\n"),
    "radical-reuses-socle-primes": (["verify-main", "--f", "2", "--radical", "{file}"], "[[1, 3, 11]]",
                                    "invalid radical: case I needs exactly 2 radical factor(s), got 1; "
                                    "factor 0 reuses socle primes [3]\n"),
    "radical-count": (RADICAL, "[[1, 11, 17], [1, 19, 23]]",
                      "invalid radical: case II needs exactly 1 radical factor(s), got 2\n"),
    "radical-not-abelian": (["verify-main", "--f", "14", "--radical", "{file}"], "[[1, 7, 11]]",
                            "invalid radical: case III radical must be abelian; factor 0 has primes [7, 11]\n"),
    "radical-not-a-list": (RADICAL, '{"degrees": [1, 11, 17]}',
                           "error: radical file must hold a JSON list of degree sets\n"),
    "radical-missing-file": (["verify-main", "--f", "6", "--radical", "{missing}"], None, NO_SUCH_FILE),
    # An empty path is a path, not "no radical".
    "radical-empty-path": (["verify-main", "--f", "6", "--radical="], None, NO_SUCH_FILE + "''\n"),
    "scan-evenfive-max-1": (["scan", "evenfive", "--max", "1"], None, "error: f_max must be in [2, 63], got 1\n"),
    "scan-oddfour-max-100001": (["scan", "oddfour", "--max", "100001"], None,
                                "error: q_max must be in [3, 100000], got 100001\n"),
    "degree-set-without-1": (["check-solvable", "{file}"], '{"degrees": [2, 3]}',
                             "error: a degree set must contain 1\n"),
    "degree-set-without-degrees-key": (["check-solvable", "{file}"], '{"sizes": [1]}',
                                       'error: a degree set must be a JSON list or an object with a "degrees" list\n'),
    "check-solvable-missing-file": (["check-solvable", "{missing}"], None, NO_SUCH_FILE),
}


def check_exit_2(row: str, tmp_path: Path) -> None:
    """Run EXIT_2[row] in tmp_path: exit 2, empty stdout and its one stderr line."""
    argv, text, expected = EXIT_2[row]
    path = tmp_path / "input.json"
    path.write_text(text or "", encoding="utf-8")
    missing = tmp_path / "missing.json"
    code, out, err = run_cli([a.replace("{file}", str(path)).replace("{missing}", str(missing)) for a in argv])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(expected)


@pytest.mark.parametrize("row", EXIT_2)
def test_bad_input_exits_2_with_one_line(row, tmp_path):
    check_exit_2(row, tmp_path)


def test_every_verb_has_a_bad_input_row():
    assert set(cli.VERBS) <= {argv[0] for argv, _, _ in EXIT_2.values() if argv}


@pytest.mark.parametrize("argv", [
    ["scan", "evenfive", "--max", "12"],
    ["scan", "oddfour", "--max", "30"],
], ids=["evenfive", "oddfour"])
def test_scan_with_a_counterexample_exits_1(argv, monkeypatch):
    # No f or q up to the bound is a counterexample; reading every number
    # as composite takes the clauses that need a prime away.
    monkeypatch.setattr(classify, "is_prime", lambda n: False)
    code, out, _ = run_cli(argv)
    lines = out.splitlines()
    assert code == 1
    assert any("COUNTEREXAMPLE" in line.split() for line in lines[:-1])
    assert not lines[-1].endswith(" 0 counterexample(s)")


@pytest.mark.parametrize("argv", [
    "factor --format json 12",
    "factor 12 --format=json",
    "factor --format json --format=json -- 12",
])
def test_options_come_before_or_after_the_arguments(argv):
    assert run_cli(argv.split()) == (0, '{"factors":[[2,2],[3,1]],"n":12}\n', "")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["scan", "oddfour", "-h"]])
def test_help_prints_every_usage_line_and_exits_0(argv):
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert [line.split()[:3] for line in out.splitlines()] == [["usage:", "chargraph", verb] for verb in cli.VERBS]


@pytest.mark.parametrize("fmt,expected", [
    ("json", '{"isomorphic":true,"mapping":{}}\n'),
    ("table", "isomorphic:\n"),
])
def test_iso_of_two_empty_graphs_prints_the_empty_mapping(fmt, expected):
    assert run_cli(["iso", "--format", fmt, "K0", "K0"]) == (0, expected, "")


def test_join_of_many_empty_parts_is_fast():
    # K0 has no vertices, so the shape's vertex cap does not bound the number
    # of parts, and join must stay linear in it.
    out = run_python("-m", "chargraph.cli", "parse-shape", " * ".join(["K0"] * 16_000),
                     capture_output=True, timeout=5, check=True)
    assert out.stdout == '{"edges":[],"vertices":[]}\n'


# A failed stdout write is an I/O error: exit 2 and one stderr line, with no
# second failure when the interpreter flushes stdout at exit.  Both run in a
# subprocess, since main points the stdout descriptor at devnull.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_2_with_one_output_error_line():
    with open("/dev/full", "w", encoding="utf-8") as full:
        out = run_python("-m", "chargraph.cli", "classify-f", "63", "--format", "json",
                         stdout=full, stderr=subprocess.PIPE, timeout=30)
    assert out.returncode == 2
    assert out.stderr.startswith("output error:") and out.stderr.count("\n") == 1


def test_a_closed_pipe_exits_2_with_one_output_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_python("-m", "chargraph.cli", "parse-shape", "K256", "--format", "json",
                         stdout=write_end, stderr=subprocess.PIPE, timeout=30)
    finally:
        os.close(write_end)
    assert out.returncode == 2
    assert out.stderr.startswith("output error:") and out.stderr.count("\n") == 1


# Generated argv for every verb, with arguments bounded to each verb's cheap
# range; file arguments are written to a scratch file and "{file}" replaced.
FORMATS = st.sampled_from(["json", "table"])
GRAPH_FORMATS = st.sampled_from(["json", "dot", "table"])
NUMBERS = st.integers(min_value=-3, max_value=2**40) | st.sampled_from([2**61 - 1, 2**64 - 1, 2**64, 2**100])
SMALL = st.integers(min_value=-3, max_value=70)
SHAPE_TEXT = st.text(alphabet="KC123456789()+*^c ", max_size=12)
JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-3, max_value=10**4) | st.floats(-10, 10) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["degrees", "vertices", "edges"]), inner, max_size=2),
    max_leaves=8,
)
# A graph argument: shape text, or inline JSON that is a well-formed graph
# of small ints or any object at all.
GRAPH_ARG = SHAPE_TEXT | st.one_of(
    st.fixed_dictionaries({
        "vertices": st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 11]), max_size=5),
        "edges": st.lists(st.lists(st.sampled_from([2, 3, 5, 6, 7]), min_size=1, max_size=3), max_size=4),
    }),
    st.dictionaries(st.sampled_from(["vertices", "edges", "degrees"]), JSON_DATA, max_size=3),
).map(json.dumps)

VERBS = {
    "factor": st.tuples(FORMATS, NUMBERS.map(str)).map(lambda t: (["factor", "--format", t[0], t[1]], None)),
    "pi": st.tuples(FORMATS, NUMBERS.map(str)).map(lambda t: (["pi", "--format", t[0], t[1]], None)),
    "zsigmondy": st.tuples(FORMATS, st.integers(-2, 12) | st.integers(2, 2**64),
                           SMALL | st.integers(-3, 10**12)).map(
        lambda t: (["zsigmondy", "--format", t[0], str(t[1]), str(t[2])], None)),
    "psl2-graph": st.tuples(GRAPH_FORMATS, st.integers(-2, 5000) | st.integers(2, 63).map(lambda k: 2**k)).map(
        lambda t: (["psl2-graph", "--format", t[0], str(t[1])], None)),
    "parse-shape": st.tuples(GRAPH_FORMATS, SHAPE_TEXT).map(lambda t: (["parse-shape", "--format", t[0], t[1]], None)),
    "iso": st.tuples(FORMATS, GRAPH_ARG, GRAPH_ARG).map(lambda t: (["iso", "--format", t[0], t[1], t[2]], None)),
    "classify-f": st.tuples(FORMATS, SMALL).map(lambda t: (["classify-f", "--format", t[0], str(t[1])], None)),
    "verify-main": st.tuples(FORMATS, SMALL, st.none() | JSON_DATA).map(
        lambda t: (["verify-main", "--format", t[0], "--f", str(t[1])] + ([] if t[2] is None else ["--radical", "{file}"]), t[2])),
    "scan": st.tuples(FORMATS, st.sampled_from(["interest", "evenfive"]), st.none() | SMALL).map(
        lambda t: (["scan", "--format", t[0], t[1]] + ([] if t[2] is None else ["--max", str(t[2])]), None))
    | st.tuples(FORMATS, st.integers(-2, 3000)).map(
        lambda t: (["scan", "--format", t[0], "oddfour", "--max", str(t[1])], None)),
    "check-solvable": st.tuples(FORMATS, JSON_DATA).map(lambda t: (["check-solvable", "--format", t[0], "{file}"], t[1])),
}


def test_fuzz_covers_every_verb():
    assert set(VERBS) == set(cli.VERBS)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_fuzzed_argv_exits_0_1_or_2(verb, scratch_file):
    @settings(max_examples=25, deadline=None)
    @given(VERBS[verb])
    def run(case):
        argv, data = case
        scratch_file.write_text(json.dumps(data), encoding="utf-8")
        code, _, _ = run_cli([a.replace("{file}", str(scratch_file)) for a in argv])
        assert code in (0, 1, 2)

    run()


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_names_every_verb_and_bound():
    readme = README.read_text(encoding="utf-8")
    assert [verb for verb in cli.VERBS if f"`{verb}`" not in readme] == []
    bounds = {
        "F_MAX": classify.F_MAX,
        "Q_ODD_MAX": classify.Q_ODD_MAX,
        "MAX_SEARCH_VERTICES": graphs.MAX_SEARCH_VERTICES,
        "MAX_VERTICES": shapes.MAX_VERTICES,
        "MAX_DEPTH": shapes.MAX_DEPTH,
    }
    assert [name for name, value in bounds.items() if f"| `{name}` | {value:,} |" not in readme] == []


def test_readme_proof_section_names_existing_tests():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## What is proved beyond the scan bounds\n", 1)[1].split("\n## ", 1)[0]
    lines = section.replace("\n  ", " ").splitlines()
    for lemma in ("interest", "evenfive", "oddfour"):
        assert any(line.startswith(f"- `{lemma}`: `tests/") for line in lines), lemma
    named = re.findall(r"`tests/(\w+\.py)::(\w+)`", section)
    assert len(named) == 4
    missing = [name for file, name in named if f"\ndef {name}(" not in (ROOT / "tests" / file).read_text(encoding="utf-8")]
    assert missing == []


# (verb, example, the literal text its Commands-table row shows, and whether
# that text is the whole output or its first or last line).
README_EXAMPLES = [
    ("factor", "factor 360", "360 = 2^3 * 3^2 * 5", "whole"),
    ("pi", "pi 255", "3 5 17", "whole"),
    ("zsigmondy", "zsigmondy 2 10", "11", "whole"),
    ("zsigmondy", "zsigmondy 2 6", "none", "whole"),
    ("psl2-graph", "psl2-graph 8", '{"edges":[],"vertices":[2,3,7]}', "whole"),
    ("iso", "iso C4 'K2^c * K2^c'", "isomorphic: 2->2 3->5 5->3 7->7", "whole"),
    ("verify-main", "verify-main --f 6", "f = 6: case II, verified", "first"),
    ("scan", "scan evenfive --max 12", "3 hit(s), 0 counterexample(s)", "last"),
]


@pytest.mark.parametrize("verb,example,shown,where", README_EXAMPLES,
                         ids=[example for _, example, _, _ in README_EXAMPLES])
def test_readme_example_prints_what_the_table_shows(verb, example, shown, where):
    [row] = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith(f"| `{verb}` |")]
    # The row names zsigmondy's second example in its Prints column.
    named = "`none` for 2^6 − 1" if example == "zsigmondy 2 6" else f"`chargraph {example}`"
    assert named in row and f"`{shown}`" in row
    code, out, _ = run_cli(shlex.split(example))
    assert code == 0
    lines = out.splitlines()
    assert {"whole": out, "first": lines[0] + "\n", "last": lines[-1] + "\n"}[where] == shown + "\n"


def test_readme_states_the_scan_defaults():
    (a, (_, first)), (b, (_, second)), (c, (_, last)) = cli._SCANNERS.items()
    assert first == second
    sentence = (f"`scan` takes `{a}`, `{b}` or `{c}`; `--max` defaults to {first:,} "
                f"for the first two and {last:,} for `{c}`.")
    assert sentence in " ".join(README.read_text(encoding="utf-8").split())


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pyproject_takes_the_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    project = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")["project"]
    assert (project["dynamic"], project["version"]) == (["version"], chargraph.__version__)
