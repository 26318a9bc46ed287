import random

import pytest

from chamcovers import (
    GroupElem,
    SurfaceKind,
    accumulation_points,
    alt_sum,
    classify_d2,
    construct_max_ends,
    end_subgroup,
    ends_report,
    enumerate_wn,
    expand,
    format_vector,
    from_entries,
    minimal_n,
    num_ends,
    parse_group,
    parse_vector,
)
from chamcovers import topology
from conftest import oracle_end_subgroup, random_vector, raw_vector

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
V4 = parse_group("Z2xZ2")


def test_minimal_window_examples():
    assert minimal_n(parse_vector(Z2, "L=(0);R=1,1|(0)")) == 3
    assert minimal_n(parse_vector(Z2, "L=(1,0);R=(1,0)")) == 1
    assert minimal_n(parse_vector(Z2, "L=0,0,0,1|(0);R=1|(0)")) == 5


def test_alt_sum_examples():
    two_ones = parse_vector(Z2, "L=(0);R=1,1|(0)")
    assert alt_sum(two_ones, 3).is_zero()
    single = parse_vector(Z2, "L=(0);R=1|(0)")
    assert not alt_sum(single, 2).is_zero()
    # Over Z3 the signs matter: h_1 = 1, h_2 = 1 gives -1 + 1 = 0, while
    # h_1 = 1, h_2 = 2 gives -1 + 2 = 1.
    assert alt_sum(parse_vector(Z3, "L=(0);R=1,1|(0)"), 3).is_zero()
    assert str(alt_sum(parse_vector(Z3, "L=(0);R=1,2|(0)"), 3)) == "1"


def test_two_ended_example():
    h = parse_vector(Z2, "L=(0);R=1,1|(0)")
    assert num_ends(h) == 2
    assert classify_d2(h) == SurfaceKind.JACOBS_LADDER


def test_one_ended_examples():
    single = parse_vector(Z2, "L=(0);R=1|(0)")
    assert num_ends(single) == 1
    assert classify_d2(single) == SurfaceKind.LOCH_NESS
    all_ones = parse_vector(Z2, "L=(1);R=(1)")
    assert num_ends(all_ones) == 1
    assert classify_d2(all_ones) == SurfaceKind.LOCH_NESS


def test_two_ended_with_one_tails():
    h = parse_vector(Z2, "L=(1);R=0|(1)")
    assert classify_d2(h) == SurfaceKind.JACOBS_LADDER
    assert num_ends(h) == 2


def test_accumulation_points():
    h = parse_vector(Z3, "L=2|(0);R=1|(1,2)")
    racc, lacc = accumulation_points(h)
    assert {str(e) for e in racc} == {"1", "2"}
    assert {str(e) for e in lacc} == {"0"}


def test_subgroup_independent_of_window():
    rng = random.Random(11)
    for group in (Z2, Z3, Z4, V4):
        for _ in range(40):
            h = random_vector(group, rng)
            for extra in (1, 2, 5):
                n = minimal_n(h) + extra
                assert end_subgroup(h).elements == oracle_end_subgroup(h, n)


def test_end_subgroup_matches_pairwise_oracle():
    # raw_vector's letters often do not generate the group.
    rng = random.Random(14)
    groups = [parse_group(g) for g in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ4", "Z3xZ3")]
    for group in groups:
        for sample in (random_vector, raw_vector) * 10:
            h = sample(group, rng)
            for extra in (0, 1, 4):
                n = minimal_n(h) + extra
                assert end_subgroup(h).elements == oracle_end_subgroup(h, n)


def test_end_subgroup_forms_one_difference_per_accumulation_letter(monkeypatch):
    # 2 000 accumulation letters: the pairwise rule made 3 998 000 subtractions.
    group = parse_group("Z10000")
    h = parse_vector(group, "L=(0);R=(" + ",".join(map(str, range(2000))) + ")")
    calls = 0
    sub = GroupElem.__sub__

    def counted_sub(a, b):
        nonlocal calls
        calls += 1
        assert calls <= 2000, "more than one subtraction per accumulation letter"
        return sub(a, b)

    monkeypatch.setattr(GroupElem, "__sub__", counted_sub)
    g_prime = end_subgroup(h)
    assert g_prime.index == 1 and g_prime.order == 10000


def test_num_ends_divides_group_order():
    rng = random.Random(12)
    for group in (Z2, Z3, Z4, V4, parse_group("Z6")):
        for _ in range(40):
            h = random_vector(group, rng)
            assert group.order % num_ends(h) == 0


def test_num_ends_requires_generating_vector():
    with pytest.raises(ValueError):
        num_ends(parse_vector(Z4, "L=(0);R=2|(0)"))


def test_d2_type_matches_end_count_on_zero_tail_window():
    # All vectors supported inside [-6, 6] over the two-element group.
    one = Z2.elem([1])
    zero = Z2.zero()
    positions = [k for k in range(-6, 7) if k != 0]
    rng = random.Random(13)
    picks = {tuple(rng.getrandbits(1) for _ in positions) for _ in range(300)}
    vectors = [
        from_entries(Z2, {k: one for k, b in zip(positions, bits) if b})
        for bits in picks
        if any(bits)
    ]
    # Mixed tails (the periods are not both (0) nor both (1)).
    vectors += [
        parse_vector(Z2, spec)
        for spec in ("L=(0);R=(1)", "L=(1);R=(0)", "L=0|(1);R=(0,1)", "L=1,1|(0);R=(1,0)")
    ]
    for h in vectors:
        expected = 2 if classify_d2(h) == SurfaceKind.JACOBS_LADDER else 1
        assert num_ends(h) == expected


def test_weakly_periodic_covers_are_one_ended():
    for n in range(1, 7):
        for e in enumerate_wn(n):
            assert num_ends(expand(e)) == 1


def test_construct_max_ends_all_groups():
    for spec in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2"):
        group = parse_group(spec)
        h = construct_max_ends(group)
        assert num_ends(h) == group.order


def test_construct_max_ends_frozen_forms():
    assert format_vector(construct_max_ends(Z2)) == "L=0,1|(0);R=1|(0)"
    assert format_vector(construct_max_ends(Z3)) == "L=0,1|(0);R=1|(0)"
    assert (
        format_vector(construct_max_ends(V4))
        == "L=0:0,1:0,0:1|(0:0);R=1:1|(0:0)"
    )


def test_ends_report_takes_the_alternating_sum_once(monkeypatch):
    calls = []
    counted = lambda h, n_window: calls.append(n_window) or alt_sum(h, n_window)
    monkeypatch.setattr(topology, "alt_sum", counted)
    for text in ("L=(0);R=1,1|(0)", "L=1,0|(1);R=(0,1)"):
        h = parse_vector(Z2, text)
        calls.clear()
        rep = ends_report(h)
        assert calls == [minimal_n(h)]
        assert rep.alt_sum == alt_sum(h, minimal_n(h))
        assert rep.g_prime == end_subgroup(h)


def test_ends_report_shape():
    h = parse_vector(Z2, "L=(0);R=1,1|(0)")
    rep = ends_report(h)
    assert rep.n_window == 3
    assert rep.alt_sum.is_zero()
    assert rep.ends == rep.g_prime.index == 2
    assert rep.d2_type == SurfaceKind.JACOBS_LADDER
    assert rep.right_acc == frozenset({Z2.zero()})
    rep3 = ends_report(parse_vector(Z3, "L=(0);R=1|(0)"))
    assert rep3.d2_type is None
    assert rep3.ends == 1
