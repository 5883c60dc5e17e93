"""One output path: the cmd_* functions return (exit code, data, table
text) and cli.main alone writes stdout.

The ast guard counts every print in the package that does not write to
sys.stderr; there must be exactly one, in cli.main.  Anything a later change
adds on the side, such as work counters, then cannot reach stdout unseen.
"""

import ast
from pathlib import Path

import pytest

from chargraph import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chargraph"


def prints(tree: ast.Module) -> list[tuple[str, bool]]:
    """(enclosing top-level name, writes to sys.stderr) for each print call."""
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
                to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
                out.append((getattr(top, "name", None), to_stderr))
    return out


CALLS = {path.name: prints(ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))}


def test_the_only_stdout_print_is_in_cli_main():
    stdout = [f"{module}:{name}" for module, calls in CALLS.items() for name, to_stderr in calls if not to_stderr]
    assert stdout == ["cli.py:main"]


def test_the_guard_sees_the_stderr_prints():
    assert ("main", True) in CALLS["cli.py"]


CHEAP_ARGV = {
    "factor": ["factor", "12"],
    "pi": ["pi", "12"],
    "zsigmondy": ["zsigmondy", "2", "6"],
    "psl2-graph": ["psl2-graph", "8"],
    "parse-shape": ["parse-shape", "K3^c * C4"],
    "iso": ["iso", "C4", "K2 + K2"],
    "classify-f": ["classify-f", "6"],
    "verify-main": ["verify-main", "--f", "6"],
    "scan": ["scan", "evenfive", "--max", "12"],
    "check-solvable": ["check-solvable", "{file}"],
}


def test_every_verb_is_called():
    assert set(CHEAP_ARGV) == set(cli.VERBS)


@pytest.mark.parametrize("verb", sorted(CHEAP_ARGV))
def test_each_verb_returns_its_result_and_writes_nothing(verb, tmp_path, capsys):
    path = tmp_path / "cd.json"
    path.write_text("[1, 6, 10]")
    args = cli.parse_args([a.replace("{file}", str(path)) for a in CHEAP_ARGV[verb]])
    result = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(result, tuple) and len(result) == 3
    code, _, table = result
    assert code in (0, 1) and isinstance(table, str)
