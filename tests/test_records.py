"""The package's immutable records: construction, equality, hashing, repr,
immutability and copies, for each of the ten record classes.

A record compares equal only to a record of its own class with equal
fields, and hashes as the tuple of its fields, so sets and dicts of records
keep their order.  The repr texts below are pinned: they are the text the
records have always printed.
"""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from chamcovers import (
    EndsReport,
    FinAbGroup,
    GroupElem,
    GroupParseError,
    IndexVerdict,
    SchreierGraph,
    Subgroup,
    WnElement,
    automorphisms,
    decide_finite_index,
    ends_report,
    expand,
    orbit_bfs,
    parse_group,
    parse_vector,
    parse_word,
    span,
    word_matrix,
)
from chamcovers.action import Mat2Q, Word
from chamcovers.groups import Automorphism

SRC = Path(__file__).resolve().parent.parent / "src"
Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
V4 = parse_group("Z2xZ2")
Z2Z4 = parse_group("Z2xZ4")


def _cases():
    """(class, field names, field values, pinned repr) for each record."""
    graph = orbit_bfs(expand(WnElement(2, (0, 1))))
    ends = ends_report(parse_vector(Z2, "L=(1);R=(1)"))
    verdict = decide_finite_index(parse_vector(Z3, "L=(1,0);R=(1,0)"))
    matrix = word_matrix(parse_word("P1,H"))
    elem = "GroupElem(group=FinAbGroup(moduli=(2,)), residues=({}))"
    return [
        (FinAbGroup, ("moduli",), ((2, 4),), "FinAbGroup(moduli=(2, 4))"),
        (
            GroupElem,
            ("group", "residues"),
            (Z2Z4, (1, 3)),
            "GroupElem(group=FinAbGroup(moduli=(2, 4)), residues=(1, 3))",
        ),
        (
            Subgroup,
            ("group", "elements"),
            (Z4, span(Z4, [Z4.elem(2)]).elements),
            "Subgroup(group=FinAbGroup(moduli=(4,)), elements=frozenset({"
            "GroupElem(group=FinAbGroup(moduli=(4,)), residues=(2,)), "
            "GroupElem(group=FinAbGroup(moduli=(4,)), residues=(0,))}))",
        ),
        (
            Automorphism,
            ("group", "codes"),
            (V4, automorphisms(V4)[1].codes),
            "Automorphism(Z2xZ2, ['0:1', '1:1'])",
        ),
        (
            Word,
            ("letters",),
            (parse_word("P1^-2,H^3,-I").letters,),
            "Word(letters=((<GeneratorLetter.P1: 'P1'>, -2), "
            "(<GeneratorLetter.H: 'H'>, 3), (<GeneratorLetter.NEG_ID: '-I'>, 1)))",
        ),
        (
            Mat2Q,
            ("a", "b", "c", "d"),
            (matrix.a, matrix.b, matrix.c, matrix.d),
            "Mat2Q(a=Fraction(8, 1), b=Fraction(-3, 2), c=Fraction(6, 1), "
            "d=Fraction(-1, 1))",
        ),
        (WnElement, ("n", "bits"), (3, (0, 1, 1)), "WnElement(n=3, bits=(0, 1, 1))"),
        (
            IndexVerdict,
            ("minimal_period", "checked_window", "witness"),
            (verdict.minimal_period, verdict.checked_window, verdict.witness),
            "IndexVerdict(minimal_period=None, checked_window=6, "
            "witness='corner relation failed: h[6]=0 but -2*h[-1]=1')",
        ),
        (
            SchreierGraph,
            ("vertices", "p1_edges", "p2_edges", "complete"),
            (graph.vertices, graph.p1_edges, graph.p2_edges, graph.complete),
            "SchreierGraph(vertices=(VectorClass(Z2, 'L=(1,1,0,0);R=(0,1,1,0)'), "
            "VectorClass(Z2, 'L=(0,1,1,0);R=(1,1,0,0)')), p1_edges=(1, 0), "
            "p2_edges=(0, 1), complete=True)",
        ),
        (
            EndsReport,
            ("right_acc", "left_acc", "n_window", "alt_sum", "g_prime", "d2_type"),
            tuple(
                getattr(ends, name)
                for name in (
                    "right_acc", "left_acc", "n_window", "alt_sum", "g_prime", "d2_type"
                )
            ),
            f"EndsReport(right_acc=frozenset({{{elem.format('1,')}}}), "
            f"left_acc=frozenset({{{elem.format('1,')}}}), n_window=1, "
            f"alt_sum={elem.format('1,')}, "
            "g_prime=Subgroup(group=FinAbGroup(moduli=(2,)), elements=frozenset({"
            f"{elem.format('0,')}, {elem.format('1,')}}})), "
            "d2_type=<SurfaceKind.LOCH_NESS: 'LochNess'>)",
        ),
    ]


CASES = _cases()
IDS = [cls.__name__ for cls, *_ in CASES]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_record_construction_and_fields(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for x in (by_position, by_keyword):
        assert type(x) is cls
        assert tuple(getattr(x, name) for name in names) == values
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_record_equality_within_one_class_and_hash_of_fields(cls, names, values, text):
    x, y = cls(*values), cls(*values)
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(values)
    # A subclass, or a plain tuple of the same fields, is never equal.
    twin = type("Twin", (cls,), {})(*values)
    assert x != twin and twin != x
    assert x != values


def test_records_of_two_classes_with_equal_fields_differ():
    codes = automorphisms(V4)[1].codes
    assert GroupElem(V4, codes) != Automorphism(V4, codes)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_record_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    x = cls(*values)
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_record_pickle_and_deepcopy_round_trip(cls, names, values, text):
    x = cls(*values)
    for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(twin) is cls
        assert twin == x and hash(twin) == hash(x)
        assert repr(twin) == repr(x)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_record_repr_is_pinned(cls, names, values, text):
    assert repr(cls(*values)) == text


def test_group_tables_are_rebuilt_not_pickled():
    g = FinAbGroup((2, 2))
    assert g.residue_columns == ((0, 0, 1, 1), (0, 1, 0, 1))
    twin = pickle.loads(pickle.dumps(g))
    assert twin == g and "residue_columns" not in vars(twin)
    assert twin.residue_columns == g.residue_columns


@pytest.mark.parametrize(
    "moduli, message",
    [
        ((), "a group needs at least one cyclic factor"),
        ((1,), "factor moduli must be integers >= 2: (1,)"),
        ((2, "3"), "factor moduli must be integers >= 2: (2, '3')"),
    ],
)
def test_group_validation_messages(moduli, message):
    with pytest.raises(GroupParseError) as info:
        FinAbGroup(moduli)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, bits, message",
    [
        (0, (), "bits must have length n >= 1"),
        (2, (1,), "bits must have length n >= 1"),
        (1, (2,), "bits must be 0 or 1"),
        (2, (0, 0), "the zero tuple does not generate the group"),
    ],
)
def test_wn_element_validation_messages(n, bits, message):
    with pytest.raises(ValueError) as info:
        WnElement(n, bits)
    assert str(info.value) == message


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # Records are written by hand, so no code is generated at import.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import chamcovers.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
