"""Value semantics of the ten immutable records (equality by type and
fields, hashing, read-only fields, the repr, copy, pickle and JSON), the
rule for integer arguments, and the modules that importing the CLI and each
layer loads.
"""

import copy
import json
import pickle
import re

import pytest

from chargraph import graphs
from chargraph.arith import Factorization, factorize, is_prime, prime_divisors, zsigmondy
from chargraph.classify import (
    CaseReport,
    ScanHit,
    classify_f,
    scan_lemma_evenfive,
    scan_lemma_interest,
    scan_lemma_oddfour,
    synthetic_radical,
    verify_main,
)
from chargraph.degrees import cd_psl2, graph_psl2, prime_power
from chargraph.graphs import CharGraph, DegreeSet, is_kn_free
from chargraph.shapes import Complement, Complete, Cycle, Join, Union
from conftest import run_python

# name -> (builds a fresh value, the repr it must print)
VALUES = {
    "Factorization": (lambda: Factorization(12, ((2, 2), (3, 1))),
                      "Factorization(n=12, factors=((2, 2), (3, 1)))"),
    "DegreeSet": (lambda: DegreeSet([1, 6, 2]), "DegreeSet(degrees=(1, 2, 6))"),
    "Complete": (lambda: Complete(3), "Complete(n=3)"),
    "Cycle": (lambda: Cycle(4), "Cycle(n=4)"),
    "Complement": (lambda: Complement(Complete(2)), "Complement(inner=Complete(n=2))"),
    "Union": (lambda: Union((Complete(1), Cycle(3))), "Union(parts=(Complete(n=1), Cycle(n=3)))"),
    "Join": (lambda: Join((Complete(1), Complete(2))), "Join(parts=(Complete(n=1), Complete(n=2)))"),
    "CaseReport": (
        lambda: CaseReport(3, (1, 1), "I", CharGraph([2, 7, 3], []), "note", "K1", None, None),
        "CaseReport(f=3, sizes=(1, 1), case='I', socle_graph=CharGraph(vertices=[2, 3, 7], "
        "edges=[]), required_radical='note', expected_shape='K1', verified=None, "
        "product_graph=None)",
    ),
    "ScanHit": (lambda: ScanHit(6, "ok", "f = 6", (("f", 6), ("sizes", (2, 2)))),
                "ScanHit(key=6, clause='ok', detail='f = 6', fields=(('f', 6), ('sizes', (2, 2))))"),
    "CharGraph": (lambda: CharGraph([7, 2, 3], [(3, 2)]),
                  "CharGraph(vertices=[2, 3, 7], edges=[[2, 3]])"),
}
NAMES = sorted(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_by_fields(name):
    make = VALUES[name][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_unchanged(name):
    make, text = VALUES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_read_only(name):
    value = VALUES[name][0]()
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(name, clone):
    value = VALUES[name][0]()
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_hash_equal(name):
    make = VALUES[name][0]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_to_json_is_the_json_of_the_fields(name):
    # A tuple left in, or a record left unconverted, would not survive JSON.
    value = VALUES[name][0]()
    data = value.to_json()
    assert json.loads(json.dumps(data)) == data
    names = [key for key, _ in value.fields] if isinstance(value, ScanHit) else list(type(value).__slots__)
    assert list(data) == names


@pytest.mark.parametrize("a,b", [
    (Complete(3), Cycle(3)),
    (Union((Complete(1), Complete(2))), Join((Complete(1), Complete(2)))),
    (Complete(3), Complete(4)),
    (Complement(Complete(2)), Complete(2)),
    (Complete(3), (3,)),
    (Factorization(12, ((2, 2), (3, 1))), Factorization(18, ((2, 1), (3, 2)))),
    (DegreeSet([1, 2]), DegreeSet([1, 3])),
    (CharGraph([2, 3, 7], [(2, 3)]), CharGraph([2, 3, 7], [(2, 7)])),
    (ScanHit(6, "ok", "f = 6", (("f", 6),)), ScanHit(6, None, "f = 6", (("f", 6),))),
    (VALUES["CaseReport"][0](), CaseReport(3, (1, 1), "I", CharGraph([2, 3, 7]), "note", "K1", True, None)),
])
def test_unequal_across_types_and_fields(a, b):
    assert a != b and b != a
    assert not a == b


# The records that check nothing take Value's constructor: one argument per slot.
CHECK_FREE = [CaseReport, ScanHit, Complement]


@pytest.mark.parametrize("cls", CHECK_FREE, ids=lambda c: c.__name__)
def test_check_free_records_inherit_the_constructor(cls):
    assert "__init__" not in vars(cls)


@pytest.mark.parametrize("cls", CHECK_FREE, ids=lambda c: c.__name__)
def test_wrong_field_count_names_the_class_and_its_fields(cls):
    n = len(cls.__slots__)
    for count in (n - 1, n + 1):
        with pytest.raises(TypeError) as info:
            cls(*range(count))
        assert str(info.value) == f"{cls.__name__} takes {n} fields, got {count}"


def test_unpickling_calls_the_constructor():
    # So a pickle holds only fields, and loading one runs the checks again.
    value = Factorization(12, ((2, 2), (3, 1)))
    assert value.__reduce__() == (Factorization, (12, ((2, 2), (3, 1))))
    g = VALUES["CharGraph"][0]()
    assert g.__reduce__() == (CharGraph, (g.vertices, g.edges))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["deepcopy", "pickle"])
def test_graph_copies_recertify_every_vertex(monkeypatch, clone):
    g = VALUES["CharGraph"][0]()
    tested = []
    monkeypatch.setattr(graphs, "is_prime", lambda n: tested.append(n) or True)
    assert clone(g) == g
    assert tested == list(g.vertices)


# One row per public integer argument, and per integer field that from_json
# reads: the argument's name in its function's signature, a call that passes
# the value as that argument, and for a bounded argument a value outside the
# bound with the message it gets.
INT_ARGUMENTS = {
    "is_prime": ("n", is_prime, None),
    "factorize": ("n", factorize, (0, "n must be >= 1, got 0")),
    "prime_divisors": ("n", prime_divisors, (0, "n must be >= 1, got 0")),
    "zsigmondy-base": ("base", lambda v: zsigmondy(v, 3), (1, "base must be >= 2, got 1")),
    "zsigmondy-n": ("n", lambda v: zsigmondy(2, v), (0, "n must be >= 1, got 0")),
    "Factorization-n": ("n", lambda v: Factorization(v, ()), (0, "n must be >= 1, got 0")),
    "Factorization-exponent": ("exponent", lambda v: Factorization(4, ((2, v),)),
                               (0, "exponent must be >= 1, got 0")),
    "Factorization-prime": ("prime", lambda v: Factorization(2, ((v, 1),)), None),
    "prime_power": ("n", prime_power, None),
    "cd_psl2": ("q", cd_psl2, (3, "q must be >= 4, got 3")),
    "graph_psl2": ("q", graph_psl2, (3, "q must be >= 4, got 3")),
    "CharGraph-vertex": ("vertex", lambda v: CharGraph([2, v]), None),
    "CharGraph-edge": ("edge endpoint", lambda v: CharGraph([2, 3], [(2, v)]), None),
    "CharGraph.from_json-vertex": ("vertex", lambda v: CharGraph.from_json({"vertices": [2, v], "edges": []}), None),
    "CharGraph.from_json-edge": ("edge endpoint",
                                 lambda v: CharGraph.from_json({"vertices": [2, 3], "edges": [[2, v]]}), None),
    "DegreeSet": ("degree", lambda v: DegreeSet([1, v]), (0, "degree must be >= 1, got 0")),
    "DegreeSet.from_json": ("degree", lambda v: DegreeSet.from_json({"degrees": [1, v]}),
                            (0, "degree must be >= 1, got 0")),
    "is_kn_free": ("clique size", lambda v: is_kn_free(CharGraph([2, 3]), v),
                   (1, "clique size must be >= 2, got 1")),
    # Complete(True) would render as "KTrue", which does not parse back.
    "Complete": ("n", Complete, (-1, "n must be >= 0, got -1")),
    "Cycle": ("n", Cycle, (2, "n must be >= 3, got 2")),
    "classify_f": ("f", classify_f, (64, "f must be in [2, 63], got 64")),
    "verify_main": ("f", lambda v: verify_main(v, []), (1, "f must be in [2, 63], got 1")),
    "synthetic_radical": ("f", synthetic_radical, (64, "f must be in [2, 63], got 64")),
    "scan_lemma_interest": ("f_max", scan_lemma_interest, (1, "f_max must be in [2, 63], got 1")),
    "scan_lemma_evenfive": ("f_max", scan_lemma_evenfive, (64, "f_max must be in [2, 63], got 64")),
    "scan_lemma_oddfour": ("q_max", scan_lemma_oddfour, (100_001, "q_max must be in [3, 100000], got 100001")),
}


class TestIntArguments:
    """_value.check_int is the one rule for the library's integer
    arguments, those read from JSON included: an exact int, not a bool, a
    float or a string, inside its bounds.  A value that breaks it is a
    ValueError naming the argument, never an answer or a TypeError from
    deep inside.

    This is the one test of the rule: a new public integer argument gets a
    row in INT_ARGUMENTS, not a test in its own module.  The older
    per-module tests that still repeat a row here check nothing more."""

    @pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("row", sorted(INT_ARGUMENTS))
    def test_non_int_is_a_value_error(self, row, bad):
        name, call, _ = INT_ARGUMENTS[row]
        with pytest.raises(ValueError, match=f"^{name} must be an int, got {bad!r}$"):
            call(bad)

    @pytest.mark.parametrize("row", sorted(row for row, (_, _, out) in INT_ARGUMENTS.items() if out))
    def test_out_of_range_is_a_value_error(self, row):
        _, call, (value, message) = INT_ARGUMENTS[row]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site's .pth preloads out of sys.modules.  Running a verb loads
    # nothing more; gettext is absent, and every command-line parser of the
    # standard library imports it (locale comes with it).
    code = (
        "import sys; import chargraph.cli; loaded = set(sys.modules); "
        "chargraph.cli.main(['factor', '12']); "
        "print(sorted(set(sys.modules) - loaded), "
        "sorted(m for m in ('dataclasses', 'inspect', 'typing', 'gettext', 'locale') if m in sys.modules))"
    )
    out = run_python("-S", "-c", code, capture_output=True, check=True)
    assert out.stdout == "12 = 2^2 * 3\n[] []\n"


# Each layer loads only itself and the layers below it.
LAYERS = {
    "chargraph": [],
    "chargraph.arith": ["_value", "arith"],
    "chargraph.graphs": ["_value", "arith", "graphs"],
    "chargraph.degrees": ["_value", "arith", "degrees", "graphs"],
    "chargraph.shapes": ["_value", "arith", "graphs", "shapes"],
    "chargraph.classify": ["_value", "arith", "classify", "degrees", "graphs", "shapes"],
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_importing_a_layer_loads_only_the_layers_below_it(module):
    # random counts too: arith's Pollard rho needs no PRNG.
    code = (
        f"import sys; import {module}; "
        "print(sorted(m for m in sys.modules if m.startswith('chargraph.') or m == 'random'))"
    )
    out = run_python("-S", "-c", code, capture_output=True, check=True)
    assert out.stdout.strip() == repr([f"chargraph.{name}" for name in LAYERS[module]])
