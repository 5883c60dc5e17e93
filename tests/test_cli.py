import json

import pytest

from chargraph import cli


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
