import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargraph
from chargraph import classify, cli, graphs, shapes
from chargraph.arith import is_prime


@pytest.mark.parametrize("argv,file_data", [
    (["iso", '{"vertices": 5, "edges": []}', "K1"], None),
    (["iso", '{"vertices": [2.0], "edges": []}', "K1"], None),
    (["iso", '{"vertices": ["2"], "edges": []}', "K1"], None),
    (["iso", '{"vertices": [2, 3], "edges": [[2, 3, 5]]}', "K1"], None),
    (["iso", "{file}", "K1"], [2, 3]),
    (["check-solvable", "{file}"], {"degrees": [1, 2.5]}),
    (["check-solvable", "{file}"], {"degrees": "123"}),
    (["check-solvable", "{file}"], [1, True, 3]),
    (["check-solvable", "{file}"], "123"),
    (["verify-main", "--f", "6", "--radical", "{file}"], [[1, 2], "x"]),
    (["verify-main", "--f", "6", "--radical", "{file}"], [[1, True, 11]]),
], ids=["vertices-not-a-list", "float-vertex", "string-vertex", "edge-not-a-pair",
        "graph-not-an-object", "float-degree", "degrees-a-string", "bool-degree",
        "degree-set-a-string", "radical-entry-a-string", "bool-radical-degree"])
def test_malformed_input_exits_2_with_one_line(argv, file_data, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(file_data))
    code = cli.main([a.replace("{file}", str(path)) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1



@pytest.mark.parametrize("argv,text,message", [
    (["check-solvable", "{file}"], '{"degrees": [1, 6\n', "Expecting ',' delimiter: line 2 column 1 (char 18)"),
    (["iso", '{"vertices": [2', "K1"], None, "Expecting ',' delimiter: line 1 column 16 (char 15)"),
], ids=["json-file", "inline-graph"])
def test_malformed_json_exits_2_with_one_line(argv, text, message, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text or "")
    code = cli.main([a.replace("{file}", str(path)) for a in argv])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["scan", "oddfour", "--max", "2"], "q_max must be in [3, 100000], got 2"),
    (["scan", "interest", "--max", "64"], "f_max must be in [2, 63], got 64"),
], ids=["oddfour", "interest"])
def test_scanner_bound_out_of_range_exits_2_with_one_line(argv, message, capsys):
    code = cli.main(argv)
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

DEEP = "(" * 400 + "K1" + ")" * 400


@pytest.mark.parametrize("argv,prefix", [
    (["parse-shape", DEEP], "syntax error: parentheses nested deeper than"),
    (["iso", DEEP, "K1"], "syntax error: parentheses nested deeper than"),
    (["iso", "K1", DEEP], "syntax error: parentheses nested deeper than"),
    (["parse-shape", "K128 + C129"], "error: shape has 257 vertices"),
], ids=["parse-shape-deep", "iso-first-deep", "iso-second-deep", "parse-shape-over-cap"])
def test_oversized_shape_exits_2_with_one_line(argv, prefix, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


# Deeper than the JSON decoder can recurse.  Written as raw text, because
# json.dumps of such a value recurses as well.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ["check-solvable", "{file}"],
    ["verify-main", "--f", "6", "--radical", "{file}"],
    ["iso", '{"vertices": ' + "[" * 20_000 + "]" * 20_000 + "}", "K1"],
    ["iso", "K1", "{file}"],
], ids=["check-solvable-file", "radical-file", "iso-inline", "iso-file"])
def test_deeply_nested_json_exits_2_with_one_line(argv, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code = cli.main([a.replace("{file}", str(path)) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: JSON input is nested too deeply\n"


@pytest.mark.parametrize("count", [13, 150])
def test_check_solvable_past_the_search_bound_exits_2(count, tmp_path, capsys):
    primes = [p for p in range(2, 1000) if is_prime(p)][:count]
    path = tmp_path / "cd.json"
    path.write_text(json.dumps([1] + primes))
    code = cli.main(["check-solvable", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: graph has {count} vertices; exhaustive search is bounded at 12\n"


@pytest.mark.parametrize("base,n", [(3, 10_000_000), (2, 10_000_000_000), (2, 65)])
def test_zsigmondy_past_u64_exits_2_with_one_line(base, n, capsys):
    # The first two would build a power of millions of digits, or run out of
    # memory, if the width were checked only after building base^n.
    code = cli.main(["zsigmondy", str(base), str(n)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: {base}^{n} - 1 exceeds the supported 64-bit range\n"


@pytest.mark.parametrize("fmt,expected", [
    ("json", '{"isomorphic":true,"mapping":{}}\n'),
    ("table", "isomorphic:\n"),
])
def test_iso_of_two_empty_graphs_prints_the_empty_mapping(fmt, expected, capsys):
    code = cli.main(["iso", "--format", fmt, "K0", "K0"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, expected, "")


def run_cli_process(argv, **kwargs):
    """Run the CLI in a fresh interpreter on this checkout's source."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "chargraph.cli", *argv], text=True, env=env, **kwargs)


def test_join_of_many_empty_parts_is_fast():
    # K0 has no vertices, so the shape's vertex cap does not bound the number
    # of parts, and join must stay linear in it.
    out = run_cli_process(["parse-shape", " * ".join(["K0"] * 16_000)], capture_output=True, timeout=5, check=True)
    assert out.stdout == '{"edges":[],"vertices":[]}\n'


# A failed stdout write is an I/O error: exit 2 and one stderr line, with no
# second failure when the interpreter flushes stdout at exit.  Both run in a
# subprocess, since main points the stdout descriptor at devnull.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_stdout_exits_2_with_one_output_error_line():
    with open("/dev/full", "w") as full:
        out = run_cli_process(["classify-f", "63", "--format", "json"], stdout=full, stderr=subprocess.PIPE, timeout=30)
    assert out.returncode == 2
    assert out.stderr.startswith("output error:") and out.stderr.count("\n") == 1


def test_a_closed_pipe_exits_2_with_one_output_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_cli_process(["parse-shape", "K256", "--format", "json"], stdout=write_end,
                              stderr=subprocess.PIPE, timeout=30)
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
GRAPH_ARG = SHAPE_TEXT | st.fixed_dictionaries({
    "vertices": st.lists(st.sampled_from([1, 2, 3, 4, 5, 7, 11]), max_size=5),
    "edges": st.lists(st.lists(st.sampled_from([2, 3, 5, 6, 7]), min_size=1, max_size=3), max_size=4),
}).map(json.dumps)

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
    assert set(VERBS) == set(cli.build_parser()._subparsers._group_actions[0].choices)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_fuzzed_argv_exits_0_1_or_2(verb, scratch_file):
    @settings(max_examples=25, deadline=None)
    @given(VERBS[verb])
    def run(case):
        argv, data = case
        scratch_file.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([a.replace("{file}", str(scratch_file)) for a in argv])
        assert code in (0, 1, 2)

    run()


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_names_every_verb_and_bound():
    readme = README.read_text()
    verbs = cli.build_parser()._subparsers._group_actions[0].choices
    assert [verb for verb in verbs if f"`{verb}`" not in readme] == []
    bounds = {
        "F_MAX": classify.F_MAX,
        "Q_ODD_MAX": classify.Q_ODD_MAX,
        "MAX_SEARCH_VERTICES": graphs.MAX_SEARCH_VERTICES,
        "MAX_VERTICES": shapes.MAX_VERTICES,
        "MAX_DEPTH": shapes.MAX_DEPTH,
    }
    assert [name for name, value in bounds.items() if f"| `{name}` | {value:,} |" not in readme] == []


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
def test_readme_example_prints_what_the_table_shows(verb, example, shown, where, capsys):
    [row] = [line for line in README.read_text().splitlines() if line.startswith(f"| `{verb}` |")]
    # The row names zsigmondy's second example in its Prints column.
    named = "`none` for 2^6 − 1" if example == "zsigmondy 2 6" else f"`chargraph {example}`"
    assert named in row and f"`{shown}`" in row
    assert cli.main(shlex.split(example)) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert {"whole": out, "first": lines[0] + "\n", "last": lines[-1] + "\n"}[where] == shown + "\n"


def test_readme_states_the_scan_defaults():
    (a, (_, first)), (b, (_, second)), (c, (_, last)) = cli._SCANNERS.items()
    assert first == second
    sentence = (f"`scan` takes `{a}`, `{b}` or `{c}`; `--max` defaults to {first:,} "
                f"for the first two and {last:,} for `{c}`.")
    assert sentence in " ".join(README.read_text().split())


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_pyproject_takes_the_version_from_the_package():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    project = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")["project"]
    assert (project["dynamic"], project["version"]) == (["version"], chargraph.__version__)
