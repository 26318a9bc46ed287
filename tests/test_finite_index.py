import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from chamcovers import (
    EpVector,
    WnElement,
    act_h_pow,
    act_neg,
    act_p1,
    act_p2,
    canonical_class,
    decide_finite_index,
    expand,
    enumerate_wn,
    generates,
    in_cn,
    is_fixed_by_h_pow,
    is_periodic,
    normalize,
    orbit_bfs,
    parse_group,
    parse_vector,
)
from chamcovers.finite_index import _relations_hold
from conftest import (
    h_pow_fixed,
    oracle_in_cn,
    oracle_relations,
    random_vector,
    raw_vector,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")

PARITY = parse_vector(Z2, "L=(1,0);R=(1,0)")
SINGLE = parse_vector(Z2, "L=(0);R=1|(0)")
FOURP = parse_vector(Z2, "L=(1,1,0,0);R=(0,1,1,0)")
# One-sided 3-periodic on both sides but with a seam mismatch at the origin,
# fixed by the hyperbolic letter entry by entry.
SEAMED = parse_vector(Z3, "L=(1,0,2);R=(2,0,1)")


def test_in_cn_parity_vector():
    # Window 2: signed sum (1-1)+(0-0)=0, h_2 = 0 = -2h_{-1}, h_{-2} = 0 = -2h_1.
    assert in_cn(PARITY, 1)
    assert in_cn(PARITY, 2)


def test_in_cn_rejects_single_support():
    assert not in_cn(SINGLE, 1)
    assert not in_cn(SINGLE, 3)


def test_in_cn_seamed_vector():
    assert in_cn(SEAMED, 1)


def test_in_cn_rejects_bad_n():
    with pytest.raises(ValueError):
        in_cn(PARITY, 0)


def test_is_fixed_by_h_pow_examples():
    assert is_fixed_by_h_pow(PARITY, 1)
    assert canonical_class(act_h_pow(PARITY, 1)) == canonical_class(PARITY)
    assert not is_fixed_by_h_pow(FOURP, 1)
    assert is_fixed_by_h_pow(FOURP, 2)
    assert is_fixed_by_h_pow(SEAMED, 1)


def test_hyperbolic_fixed_points_lie_in_cn():
    for n in (1, 2, 3, 4):
        for e in enumerate_wn(n):
            h = expand(e)
            assert is_fixed_by_h_pow(h, n)
            assert in_cn(h, n)
    rng = random.Random(13)
    for group in (Z3, Z4):
        elems = list(group.elements())
        for n in (1, 2):
            for params in itertools.product(elems, repeat=n):
                h = h_pow_fixed(group, params)
                from chamcovers import generates

                if not generates(h):
                    continue
                assert is_fixed_by_h_pow(h, n)
                assert in_cn(h, n)


def test_in_cn_invariant_under_the_three_letters():
    # The families are closed under the two parabolic letters and negation.
    members = [PARITY, SEAMED, expand(WnElement(2, (0, 1)))]
    ns = [1, 1, 2]
    for h, n in zip(members, ns):
        assert in_cn(h, n)
        for act in (act_p1, act_p2, act_neg):
            assert in_cn(act(h), n)


def test_decide_finite_examples():
    v = decide_finite_index(PARITY)
    assert v.finite and v.minimal_period == 2 and v.checked_window == 2
    assert v.witness is None

    v = decide_finite_index(SINGLE)
    assert not v.finite and v.minimal_period is None and v.checked_window == 0
    assert "prefix" in v.witness

    v = decide_finite_index(FOURP)
    assert v.finite and v.minimal_period == 4 and v.checked_window == 4


def test_decide_finite_on_seamed_vector():
    # Not fully periodic, yet finite: the one-sided relations decide it.
    assert is_periodic(SEAMED) is None
    v = decide_finite_index(SEAMED)
    assert v.finite
    assert v.minimal_period == 3
    assert v.checked_window == 3


def test_decide_infinite_with_relation_witness():
    # One-sided periodic both ways but a corner relation fails.
    h = parse_vector(Z3, "L=(1,0);R=(1,0)")
    v = decide_finite_index(h)
    assert not v.finite
    assert v.checked_window == 6
    assert "relation failed" in v.witness


def test_decide_finite_constant_vector():
    # All entries one over Z3: in the first family, index one.
    h = parse_vector(Z3, "L=(1);R=(1)")
    v = decide_finite_index(h)
    assert v.finite and v.minimal_period == 1 and v.checked_window == 3
    assert is_fixed_by_h_pow(h, 2)
    assert not is_fixed_by_h_pow(h, 1)


def test_degree_two_decision_matches_full_periodicity():
    # Over a two-element group, finite index and full periodicity coincide.
    rng = random.Random(77)
    for _ in range(300):
        h = random_vector(Z2, rng, max_prefix=3, max_period=4)
        assert decide_finite_index(h).finite == (is_periodic(h) is not None)


def test_finite_verdicts_carry_minimal_period():
    rng = random.Random(1234)
    for group in (Z2, Z3, Z4):
        for _ in range(100):
            h = random_vector(group, rng)
            v = decide_finite_index(h)
            if v.finite:
                assert v.minimal_period is not None
                assert v.checked_window % v.minimal_period == 0
                assert v.checked_window % group.order == 0
            else:
                assert v.minimal_period is None
                assert v.witness


def _decision_corpus():
    """Vectors with both verdicts: degree-two fixed points, H^n-fixed vectors
    over larger groups, raw vectors, and purely periodic random vectors."""
    corpus = [expand(e) for n in range(1, 10) for e in enumerate_wn(n)]
    for spec in ("Z3", "Z4", "Z8", "Z9", "Z2xZ4"):
        group = parse_group(spec)
        elems = list(group.elements())
        for n in (1, 2):
            corpus += [h_pow_fixed(group, p) for p in itertools.product(elems, repeat=n)]
    rng = random.Random(606)
    for spec in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6"):
        group = parse_group(spec)
        elems = list(group.elements())
        word = lambda: tuple(rng.choice(elems) for _ in range(rng.randint(1, 4)))
        for _ in range(40):
            corpus.append(raw_vector(group, rng))
            corpus.append(EpVector(group, (), word(), (), word()))
    return corpus


def test_decision_and_cn_match_entry_walk_oracles():
    # The package reads one-sided periods off the stored normal form and
    # walks the relations over one period (they imply the vanishing signed
    # sum); the oracles walk every entry of the whole window and check the
    # signed sum on its own.
    finite, members = set(), set()
    for h in _decision_corpus():
        v = decide_finite_index(h)
        finite.add(v.finite)
        assert (v.minimal_period is None) == (not v.finite)
        g = normalize(h)
        if g.right_prefix or g.left_prefix:
            assert v.checked_window == 0 and not v.finite
        else:
            assert v.witness == oracle_relations(g, v.checked_window)
        for n in (1, 2, 3, 4):
            member = in_cn(h, n)
            assert member == oracle_in_cn(h, n)
            members.add(member)
            dn = h.group.order * n
            if not (g.right_prefix or g.left_prefix) and all(
                dn % len(w) == 0 for w in (g.right_period, g.left_period)
            ):
                assert _relations_hold(g, dn) == oracle_relations(g, dn)
    assert finite == members == {False, True}


def test_long_relation_windows_finish_fast():
    # Windows of 19 946, 398 920 and 2 * 10^7 entries: the boundary relations
    # hold for every k on the first two, so a whole-window walk takes seconds
    # to minutes.  The walk covers one period of the vector instead.
    z9973 = parse_group("Z9973")
    word = "0,0,1," + "2,1," * 17 + "2,2,1"
    calls = [
        lambda: decide_finite_index(parse_vector(z9973, "L=(1,0);R=(1,0)")),
        lambda: decide_finite_index(parse_vector(z9973, f"L=({word});R=({word})")),
        lambda: in_cn(PARITY, 10**7),
    ]
    results = []
    for call in calls:
        start = time.perf_counter()
        results.append(call())
        assert time.perf_counter() - start < 1.0
    first, second, member = results
    assert first.checked_window == 19946
    assert first.witness == "corner relation failed: h[19946]=0 but -2*h[-1]=9971"
    assert second.checked_window == 398920
    assert second.witness == "corner relation failed: h[398920]=1 but -2*h[-1]=0"
    assert member


# Above the largest orbit of an H^n-fixed vector with n <= 2 over these
# groups (24 classes, over Z5).
CLOSURE_CAP = 32


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_decision_matches_capped_orbit_closure(data):
    group = parse_group(data.draw(st.sampled_from(["Z5", "Z6", "Z2xZ4", "Z3xZ3"])))
    elems = list(group.elements())
    word = lambda lo, hi: tuple(
        data.draw(st.lists(st.sampled_from(elems), min_size=lo, max_size=hi))
    )
    finite = data.draw(st.booleans())
    if finite:
        h = h_pow_fixed(group, word(1, 2))
    else:
        # A prefix left after normalization rules out one-sided periodicity.
        h = EpVector(group, word(1, 2), word(1, 3), word(0, 2), word(1, 3))
        assume(h.right_prefix or h.left_prefix)
    assume(generates(h))
    graph = orbit_bfs(h, cap=CLOSURE_CAP)
    assert decide_finite_index(h).finite == graph.complete == finite
