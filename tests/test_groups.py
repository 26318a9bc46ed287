import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from chamcovers import (
    MAX_AUTOMORPHISMS,
    AutomorphismBoundError,
    FinAbGroup,
    GroupParseError,
    automorphism_count,
    automorphisms,
    parse_elem,
    parse_group,
    span,
)
from chamcovers.groups import MAX_AUT_GROUP_ORDER, element_index, negation
from conftest import oracle_automorphisms, oracle_span_order

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
Z6 = parse_group("Z6")
V4 = parse_group("Z2xZ2")
Z2Z4 = parse_group("Z2xZ4")

GROUPS = [Z2, Z3, Z4, Z6, V4, Z2Z4]


def test_parse_group_round_trip():
    # Z100xZ100 has order MAX_GROUP_ORDER, the largest that parses.
    for spec in ("Z2", "Z5", "Z2xZ2", "Z2xZ4", "Z3xZ3xZ3", "Z100xZ100"):
        assert parse_group(spec).spec() == spec


@pytest.mark.parametrize(
    "bad",
    ["", "Z", "Z1", "Z0", "z2", "Z2x", "Z2 x Z2", "Z2xZ1", "Z-3", "Z2*Z2", "Z10007",
     # More digits than int() converts.
     pytest.param("Z" + "1" * 5000, id="Z-5000-digits")],
)
def test_parse_group_rejects(bad):
    with pytest.raises(GroupParseError):
        parse_group(bad)


def test_groups_equal_only_on_same_presentation():
    assert parse_group("Z6") != parse_group("Z2xZ3")
    assert parse_group("Z2xZ3") != parse_group("Z3xZ2")
    assert parse_group("Z4") == parse_group("Z4")


def test_exponent_two_groups_add_codes_by_xor():
    # The P letters over groups whose moduli are all 2 add elements as XOR
    # on their codes; no other group here adds that way.
    for spec in ("Z2", "Z2xZ2", "Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z3", "Z4", "Z2xZ4", "Z6"):
        g = parse_group(spec)
        elems, index = element_index(g)
        xor = all(
            index[(a + b).residues] == i ^ j
            for i, a in enumerate(elems)
            for j, b in enumerate(elems)
        )
        assert (g.exponent == 2) is xor is all(n == 2 for n in g.moduli), spec


def test_elem_serialization_round_trip():
    for g in GROUPS:
        for a in g.elements():
            assert parse_elem(g, str(a)) == a


def test_parse_elem_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_elem(Z2, "2")
    with pytest.raises(ValueError):
        parse_elem(V4, "1")
    with pytest.raises(ValueError):
        parse_elem(Z4, "-1")
    with pytest.raises(ValueError, match="out of range"):
        parse_elem(Z4, "1" * 5000)


def test_order_of_matches_repeated_addition():
    for g in GROUPS:
        for a in g.elements():
            acc = a
            t = 1
            while not acc.is_zero():
                acc = acc + a
                t += 1
            assert a.order() == t


def test_scale_matches_repeated_addition():
    # k a is a added k times for k >= 0, and for k < 0 the element that
    # added to |k| a gives zero; `scale` is checked against `+` alone.
    for g in GROUPS:
        for a in g.elements():
            multiples = [g.zero()]
            for _ in range(6):
                multiples.append(multiples[-1] + a)
            for k in range(-6, 7):
                if k >= 0:
                    assert a.scale(k) == multiples[k]
                else:
                    assert (a.scale(k) + multiples[-k]).is_zero()


@given(st.data())
def test_group_axioms(data):
    g = data.draw(st.sampled_from(GROUPS))
    elems = list(g.elements())
    a = data.draw(st.sampled_from(elems))
    b = data.draw(st.sampled_from(elems))
    c = data.draw(st.sampled_from(elems))
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + g.zero() == a
    assert (a + (-a)).is_zero()
    k = data.draw(st.integers(min_value=-10, max_value=10))
    acc = g.zero()
    step = a if k >= 0 else -a
    for _ in range(abs(k)):
        acc = acc + step
    assert a.scale(k) == acc


def test_span_trivial_and_full():
    assert len(span(Z4)) == 1
    assert span(Z4, [Z4.elem(1)]).index == 1
    assert span(Z4, [Z4.elem(2)]).index == 2
    assert span(Z6, [Z6.elem(2)]).index == 2
    assert span(Z6, [Z6.elem(2), Z6.elem(3)]).index == 1
    assert span(V4, [V4.elem(1, 0)]).index == 2
    assert span(V4, [V4.elem(1, 0), V4.elem(0, 1)]).index == 1


def test_span_is_a_subgroup():
    sub = span(Z2Z4, [Z2Z4.elem(1, 2)])
    for a in sub.elements:
        for b in sub.elements:
            assert a + b in sub
        assert -a in sub


def test_automorphism_count_klein_four_brute_force():
    # Independent oracle: every bijection of the 4 elements that is additive.
    elems = list(V4.elements())
    additive = 0
    images = set()
    for perm in itertools.permutations(elems):
        table = dict(zip(elems, perm))
        if all(table[a + b] == table[a] + table[b] for a in elems for b in elems):
            additive += 1
            images.add(tuple(table[g] for g in V4.factor_generators()))
    assert additive == 6
    assert {phi.images for phi in automorphisms(V4)} == images


def test_automorphism_counts_cyclic():
    # For a cyclic group the automorphisms biject with units mod n.
    import math

    for g, n in ((Z2, 2), (Z3, 3), (Z4, 4), (Z6, 6)):
        units = sum(1 for u in range(1, n) if math.gcd(u, n) == 1)
        assert len(automorphisms(g)) == units


def test_automorphisms_are_bijective_homomorphisms():
    for g in (Z4, V4, Z2Z4):
        # An automorphism is its code table: -x is found among the
        # enumerated ones, and the generator images are read off the table.
        assert negation(g) in automorphisms(g)
        for phi in automorphisms(g):
            assert phi.images == tuple(phi(x) for x in g.factor_generators())
            seen = {phi(a) for a in g.elements()}
            assert len(seen) == g.order
            for a in g.elements():
                for b in g.elements():
                    assert phi(a + b) == phi(a) + phi(b)


def test_automorphism_tables_match_residue_oracle_in_order():
    # The search on codes gives the residue-tuple search's tables, in its order.
    for spec in (
        "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "Z2xZ4", "Z3xZ3",
        "Z4xZ4", "Z2xZ2xZ2", "Z2xZ2xZ4", "Z2xZ32", "Z2xZ2xZ2xZ2",
    ):
        g = parse_group(spec)
        assert [phi.codes for phi in automorphisms(g)] == oracle_automorphisms(g), spec


def test_automorphisms_cached_and_bounded():
    assert automorphisms(Z4) is automorphisms(Z4)
    with pytest.raises(AutomorphismBoundError):
        automorphisms(parse_group("Z101"))


def _presentations(max_order):
    """Every moduli tuple (factors >= 2, any order) of product <= max_order."""
    out = []

    def rec(prefix, order):
        if prefix:
            out.append(tuple(prefix))
        for n in range(2, max_order // order + 1):
            rec(prefix + [n], order * n)

    rec([], 1)
    return out


def test_automorphism_count_closed_form_matches_enumeration():
    presentations = _presentations(16)
    assert (2, 2, 2, 2) in presentations and (4, 2, 2) in presentations
    for moduli in presentations:
        g = FinAbGroup(moduli)
        assert automorphism_count(g) == len(automorphisms(g)), g


def test_automorphism_count_known_values():
    for spec, count in (
        ("Z2xZ2xZ2xZ2xZ2", 9999360),
        ("Z2xZ2xZ2xZ4", 21504),
        ("Z2xZ2xZ2xZ2xZ3", 40320),
        ("Z4xZ4xZ4", 86016),
        ("Z3xZ3xZ3", 11232),
        ("Z67", 66),
    ):
        assert automorphism_count(parse_group(spec)) == count


def test_automorphism_group_order_bound_edge():
    # Order 64 is the largest group enumerated; order 65 is refused before
    # anything is counted.
    assert MAX_AUT_GROUP_ORDER == 64
    for spec, count in (("Z64", 32), ("Z2xZ32", 64)):
        start = time.perf_counter()
        assert len(automorphisms(parse_group(spec))) == count
        assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    with pytest.raises(AutomorphismBoundError, match="group order 65"):
        automorphisms(parse_group("Z65"))
    assert time.perf_counter() - start < 0.5


def test_automorphisms_refuse_huge_groups_up_front():
    assert len(automorphisms(parse_group("Z2xZ2xZ2xZ2"))) == MAX_AUTOMORPHISMS
    for spec in ("Z2xZ2xZ2xZ2xZ2", "Z2xZ2xZ2xZ4", "Z4xZ4xZ4"):
        start = time.perf_counter()
        with pytest.raises(AutomorphismBoundError, match="automorphisms"):
            automorphisms(parse_group(spec))
        assert time.perf_counter() - start < 0.5


def test_span_matches_group_element_closure():
    rng = random.Random(3)
    extra = ("Z3xZ3", "Z2xZ2xZ2", "Z101", "Z2xZ2xZ2xZ2")
    for g in GROUPS + [parse_group(spec) for spec in extra]:
        elems = list(g.elements())
        for _ in range(40):
            gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
            sub = span(g, gens)
            assert sub.order == oracle_span_order(g, gens)
            for a in gens:
                assert a in sub
