"""Value semantics of the nine immutable records (equality by type and
fields, hashing, read-only fields, the repr, copy and pickle), and the
modules that importing the CLI loads.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from chargraph.arith import Factorization
from chargraph.classify import CaseReport, ScanHit
from chargraph.graphs import CharGraph, DegreeSet
from chargraph.shapes import Complement, Complete, Cycle, Join, Union

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
        lambda: CaseReport(3, (1, 1), "I", CharGraph([2, 7, 3], []), "note", Complete(1)),
        "CaseReport(f=3, sizes=(1, 1), case='I', socle_graph=CharGraph(vertices=[2, 3, 7], "
        "edges=[]), required_radical='note', expected_shape=Complete(n=1), verified=None, "
        "product_graph=None)",
    ),
    "ScanHit": (lambda: ScanHit(6, "ok", "f = 6", {"f": 6}),
                "ScanHit(key=6, clause='ok', detail='f = 6', fields={'f': 6})"),
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


@pytest.mark.parametrize("name", [n for n in NAMES if n != "ScanHit"])
def test_equal_values_hash_equal(name):
    make = VALUES[name][0]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


def test_scan_hit_is_unhashable_through_its_dict():
    with pytest.raises(TypeError, match="unhashable"):
        hash(VALUES["ScanHit"][0]())


@pytest.mark.parametrize("a,b", [
    (Complete(3), Cycle(3)),
    (Union((Complete(1), Complete(2))), Join((Complete(1), Complete(2)))),
    (Complete(3), Complete(4)),
    (Complement(Complete(2)), Complete(2)),
    (Complete(3), (3,)),
    (Factorization(12, ((2, 2), (3, 1))), Factorization(18, ((2, 1), (3, 2)))),
    (DegreeSet([1, 2]), DegreeSet([1, 3])),
    (ScanHit(6, "ok", "f = 6", {"f": 6}), ScanHit(6, None, "f = 6", {"f": 6})),
    (VALUES["CaseReport"][0](), CaseReport(3, (1, 1), "I", CharGraph([2, 3, 7]), "note", Complete(1), True)),
])
def test_unequal_across_types_and_fields(a, b):
    assert a != b and b != a
    assert not a == b


def test_unpickling_calls_the_constructor():
    # So a pickle holds only fields, and loading one runs the checks again.
    value = Factorization(12, ((2, 2), (3, 1)))
    assert value.__reduce__() == (Factorization, (12, ((2, 2), (3, 1))))


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site's .pth preloads out of sys.modules.
    code = (
        "import sys; import chargraph.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
