import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chamcovers import (
    MAX_WORD_EXPONENT,
    EpVector,
    FinAbGroup,
    GeneratorLetter,
    Word,
    WordParseError,
    act_h,
    act_h_inv,
    act_h_pow,
    act_neg,
    act_p1,
    act_p1_inv,
    act_p2,
    act_p2_inv,
    act_word,
    canonical_class,
    format_vector,
    format_word,
    from_entries,
    generates,
    normalize,
    parse_group,
    parse_vector,
    parse_word,
    span,
    word_matrix,
)
from chamcovers import action
from chamcovers.action import _frame, _reflect
from conftest import (
    element_words,
    entries_agree,
    oracle_h,
    oracle_h_inv,
    oracle_h_pow,
    oracle_neg,
    oracle_p1,
    oracle_p1_inv,
    oracle_p2,
    oracle_p2_inv,
    public_copy,
    random_vector,
    raw_vector,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
V4 = parse_group("Z2xZ2")
GROUPS = [Z2, Z3, Z4, V4]
# The random differential test also draws larger and mixed groups.
WIDE_GROUPS = GROUPS + [parse_group(g) for g in ("Z5", "Z6", "Z2xZ4", "Z3xZ3")]
PRODUCT_GROUPS = [parse_group(g) for g in ("Z2xZ4", "Z3xZ3", "Z2xZ2xZ2")]

ACTIONS = [
    (act_p1, oracle_p1),
    (act_p1_inv, oracle_p1_inv),
    (act_p2, oracle_p2),
    (act_p2_inv, oracle_p2_inv),
    (act_neg, oracle_neg),
    (act_h, oracle_h),
    (act_h_inv, oracle_h_inv),
]


def test_actions_match_window_oracle_on_seeded_corpus():
    rng = random.Random(2024)
    for group in GROUPS:
        for _ in range(40):
            h = random_vector(group, rng)
            for act, oracle in ACTIONS:
                out = act(h)
                assert entries_agree(out, lambda k: oracle(h, k)), (
                    group.spec(),
                    format_vector(h),
                    act.__name__,
                )


def test_h_pow_matches_window_oracle():
    # H^-n = R H^n R: the oracle reads H^n of the reflected input, whose words
    # are swapped through the public constructor, at -k.
    rng = random.Random(5150)
    for group in WIDE_GROUPS + PRODUCT_GROUPS[2:]:
        for _ in range(10):
            h = random_vector(group, rng)
            rpre, rper, lpre, lper = element_words(h)
            rh = EpVector(group, lpre, lper, rpre, rper)
            for n in (1, 2, 3, 5, 12, 40):
                out = act_h_pow(h, n)
                assert entries_agree(out, lambda k: oracle_h_pow(h, n, k)), group
                out = act_h_pow(h, -n)
                assert entries_agree(out, lambda k: oracle_h_pow(rh, n, -k)), group


def test_p2_near_entries_match_window_oracle_on_product_and_cyclic_groups():
    # P2 and P2^-1 special-case k = -1, and their k = 1 and k = -1 rows read
    # h_{-1}, h_{-2} and h_0 = 0 at the edges of the frame's slices.  Inputs
    # with h_{-1} != 0, with and without a prefix, checked out to twice the
    # output period on both sides.
    rng = random.Random(4242)
    for spec in ("Z5", "Z6", "Z2xZ4", "Z3xZ3"):
        group = parse_group(spec)
        for max_prefix in (0, 2):
            checked = 0
            while checked < 12:
                h = random_vector(group, rng, max_prefix=max_prefix)
                if h.code(-1) == 0 or (max_prefix and not (h.rpre or h.lpre)):
                    continue
                checked += 1
                for act, oracle in ((act_p2, oracle_p2), (act_p2_inv, oracle_p2_inv)):
                    out = act(h)
                    period = math.lcm(len(out.rper), len(out.lper))
                    radius = max(len(out.rpre), len(out.lpre)) + 2 * period + 2
                    assert entries_agree(out, lambda k: oracle(h, k), radius), (
                        spec,
                        format_vector(h),
                        act.__name__,
                    )


def test_p1_example_over_z3():
    h = from_entries(Z3, {1: Z3.elem(1), -1: Z3.elem(2)})
    out = act_p1(h)
    assert out.entry(1) == Z3.elem(2)
    assert out.entry(2) == Z3.elem(2)
    assert out.entry(-1) == Z3.elem(0)


def test_p1_collapses_to_mirror_twisted_by_sums_over_z2():
    # Over Z2: (P1 h)_k = h_{-k}, so P1 swaps the two four-periodic vectors.
    h01 = parse_vector(Z2, "L=(1,1,0,0);R=(0,1,1,0)")
    h11 = parse_vector(Z2, "L=(0,1,1,0);R=(1,1,0,0)")
    assert act_p1(h01) == h11
    assert act_p1(h11) == h01


def test_p1_and_p2_fix_parity_vector():
    w1 = parse_vector(Z2, "L=(1,0);R=(1,0)")
    assert act_p1(w1) == w1
    assert act_p2(w1) == w1


def test_p2_fixes_four_periodic_vector():
    h01 = parse_vector(Z2, "L=(1,1,0,0);R=(0,1,1,0)")
    assert act_p2(h01) == h01


def test_h_fixes_parity_vector():
    w1 = parse_vector(Z2, "L=(1,0);R=(1,0)")
    assert act_h(w1) == w1


def test_h_shifts_single_support():
    h = parse_vector(Z2, "L=(0);R=1|(0)")
    out = act_h(h)
    assert format_vector(out) == "L=(0);R=0,1|(0)"
    assert act_h_inv(out) == h


def test_neg_is_entrywise_negation_and_involution():
    # Z67 and Z2^5 are beyond the automorphism bounds: -I never enumerates
    # Aut(G).
    cases = [
        ("Z3", "L=1,2|(0,2);R=(1)"),
        ("Z67", "L=5,66|(0,2);R=1|(33,34)"),
        ("Z2xZ2xZ2xZ2xZ2", "L=1:0:0:0:0|(0:1:0:1:1);R=(0:0:1:1:0,1:1:1:1:1)"),
    ]
    for spec, text in cases:
        h = parse_vector(parse_group(spec), text)
        out = act_neg(h)
        for k in range(-12, 13):
            if k != 0:
                assert out.entry(k) == -h.entry(k), spec
        assert act_neg(out) == h


def test_round_trips_on_seeded_corpus():
    rng = random.Random(99)
    pairs = [(act_p1, act_p1_inv), (act_p2, act_p2_inv), (act_h, act_h_inv)]
    for group in GROUPS:
        for _ in range(25):
            h = random_vector(group, rng)
            for fwd, bwd in pairs:
                assert bwd(fwd(h)) == h
                assert fwd(bwd(h)) == h


def test_h_equals_neg_p1_p2():
    rng = random.Random(31337)
    for group in GROUPS:
        for _ in range(25):
            h = random_vector(group, rng)
            assert act_h(h) == act_neg(act_p1(act_p2(h)))


def test_h_pow_equals_iteration():
    rng = random.Random(404)
    for group in GROUPS + PRODUCT_GROUPS[:1]:
        for _ in range(8):
            h = random_vector(group, rng)
            out = back = h
            for n in range(1, 41):
                out = act_h(out)
                back = act_h_inv(back)
                if n <= 5 or n == 40:
                    assert act_h_pow(h, n) == out
                    assert act_h_pow(h, -n) == back
            assert act_h_pow(h, 0) == h
            assert act_h_pow(act_h_pow(h, 3), -3) == h


def test_outputs_are_reduced_per_factor_over_product_groups():
    # The kernel runs once per cyclic factor on plain ints and reduces each
    # output entry mod that factor's modulus.
    rng = random.Random(4242)
    for group in PRODUCT_GROUPS:
        for _ in range(8):
            h = random_vector(group, rng)
            for act, oracle in ACTIONS:
                out = act(h)
                for e in out.letters():
                    assert all(0 <= r < n for r, n in zip(e.residues, group.moduli))
                assert entries_agree(out, lambda k: oracle(h, k), radius=24)


def test_equal_distinct_groups_give_equal_results():
    g1, g2 = FinAbGroup((2, 4)), FinAbGroup((2, 4))
    assert g1 is not g2
    spec = "L=1:3,0:2|(1:1,0:1);R=0:1|(1:0,1:2,0:3)"
    h1, h2 = parse_vector(g1, spec), parse_vector(g2, spec)
    for act, _ in ACTIONS:
        a, b = act(h1), act(h2)
        assert a == b and hash(a) == hash(b)
        assert format_vector(a) == format_vector(b)
    a, b = act_h_pow(h1, 7), act_h_pow(h2, 7)
    assert a == b and hash(a) == hash(b)


def test_direct_p1_inverse_equals_reflected_p1():
    # P1^-1 has its own entry formula, R P1 R written out.
    rng = random.Random(2024)
    for group in [Z2, Z3, Z4] + PRODUCT_GROUPS[:2]:
        for _ in range(40):
            h = random_vector(group, rng)
            assert act_p1_inv(h) == _reflect(act_p1(_reflect(h))), format_vector(h)


P_LETTERS = (act_p1, act_p1_inv, act_p2, act_p2_inv)


def test_p_letters_at_one_vertex_build_one_frame():
    h = parse_vector(parse_group("Z2xZ4"), "L=1:3,0:2|(1:1,0:1);R=0:1|(1:0,1:2,0:3)")
    _frame.cache_clear()
    for act in P_LETTERS:
        act(h)
    info = _frame.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def same_codes(group, h):
    """The vector over `group` spelled with the code words of h."""
    elems = list(group.elements())
    return EpVector(group, *(tuple(elems[c] for c in word) for word in h.key()))


def test_shared_frame_never_leaks_between_inputs():
    g1, g2 = FinAbGroup((2, 4)), FinAbGroup((2, 4))
    spec = "L=1:3,0:2|(1:1,0:1);R=0:1|(1:0,1:2,0:3)"
    h1, h2 = parse_vector(g1, spec), parse_vector(g2, spec)
    rng = random.Random(17)
    z4 = random_vector(Z4, rng)
    calls = []
    # Equal but distinct vectors, interleaved.
    for act in P_LETTERS:
        calls += [(act, h1), (act, h2)]
    # Equal code words over two groups of the same order.
    for small, other in ((z4, V4), (h1, parse_group("Z8"))):
        twin = same_codes(other, small)
        assert twin.key() == small.key() and twin != small
        for act in P_LETTERS:
            calls += [(act, small), (act, twin)]
    # H^n, then P1, on the same vector.
    h = random_vector(Z3, rng)
    calls += [
        (act_h, h),
        (act_p1, h),
        (lambda v: act_h_pow(v, 3), h),
        (act_p1, h),
        (lambda v: act_h_pow(v, -2), h),
        (act_p1_inv, h),
        (act_p2, h),
    ]
    results = [act(v) for act, v in calls]
    for (act, v), got in zip(calls, results):
        _frame.cache_clear()
        assert got == act(v) and got.group is v.group


# Every letter with its exponents, as one-argument functions of a vector.
SPAN_LETTERS = [act for act, _ in ACTIONS] + [
    (lambda v, n=n: act_h_pow(v, n)) for n in (2, -2, 3)
]
SPAN_GROUPS = [
    parse_group(g) for g in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ4", "Z3xZ3")
]


def span_corpus(per_group=12, seed=4242):
    """Raw vectors over SPAN_GROUPS, many of whose letters do not generate."""
    rng = random.Random(seed)
    return [raw_vector(group, rng) for group in SPAN_GROUPS for _ in range(per_group)]


def test_letters_keep_the_span_of_the_letters():
    # Every letter is Z-linear with a Z-linear inverse, so the output letters
    # span exactly the subgroup the input letters span.  Spans are compared
    # directly: `generates` reads the answer a letter image inherits.
    kinds = set()
    for h in span_corpus():
        before = span(h.group, h.letters()).elements
        kinds.add(len(before) == h.group.order)
        for act in SPAN_LETTERS:
            assert span(h.group, act(h).letters()).elements == before, format_vector(h)
    assert kinds == {False, True}


def test_letter_images_and_reflections_inherit_generation():
    for h in span_corpus(per_group=6, seed=99):
        assert h._gen is None
        for act in SPAN_LETTERS + [_reflect]:
            # An input whose answer is not yet known passes that on.
            assert act(h)._gen is None
        gen = generates(h)
        for act in SPAN_LETTERS + [_reflect]:
            out = act(h)
            assert out._gen is gen == generates(public_copy(out)), format_vector(h)


def test_four_periodic_vector_fixed_by_h_squared_not_h():
    h01 = parse_vector(Z2, "L=(1,1,0,0);R=(0,1,1,0)")
    assert act_h(h01) != h01
    assert act_h_pow(h01, 2) == h01


def test_actions_commute_with_automorphisms():
    from chamcovers import apply_aut, automorphisms

    rng = random.Random(808)
    for group in (Z3, Z4, V4):
        for _ in range(10):
            h = random_vector(group, rng)
            for phi in automorphisms(group):
                for act, _ in ACTIONS:
                    assert act(normalize(apply_aut(phi, h))) == normalize(
                        apply_aut(phi, act(h))
                    )


def test_class_level_action_well_defined():
    # Vectors in one class stay in one class after any letter.
    a = parse_vector(Z3, "L=(0);R=1|(0)")
    b = parse_vector(Z3, "L=(0);R=2|(0)")
    assert canonical_class(a) == canonical_class(b)
    for act, _ in ACTIONS:
        assert canonical_class(act(a)) == canonical_class(act(b))


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_actions_match_oracle_random(data):
    group = data.draw(st.sampled_from(WIDE_GROUPS))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    h = random_vector(group, random.Random(seed))
    act, oracle = data.draw(st.sampled_from(ACTIONS))
    assert entries_agree(act(h), lambda k: oracle(h, k), radius=40)


# --- words and matrices ---


def test_parse_word_examples():
    w = parse_word("P1^-2,H^3,P2")
    assert w.letters == (
        (GeneratorLetter.P1, -2),
        (GeneratorLetter.H, 3),
        (GeneratorLetter.P2, 1),
    )
    assert format_word(w) == "P1^-2,H^3,P2"
    assert parse_word("") == Word(())
    assert parse_word("H").letters == ((GeneratorLetter.H, 1),)
    assert parse_word("-I^3").letters == ((GeneratorLetter.NEG_ID, 3),)
    assert parse_word("H^-1,P2^-2").letters == (
        (GeneratorLetter.H, -1),
        (GeneratorLetter.P2, -2),
    )
    for text in ("-I^3", "H^-1,P2^-2"):
        assert format_word(parse_word(text)) == text


def test_parse_word_simplifies():
    assert parse_word("P1,P1").letters == ((GeneratorLetter.P1, 2),)
    assert parse_word("P1,P1^-1").letters == ()
    assert parse_word("P1^0").letters == ()
    assert parse_word("H^2,H^-1").letters == ((GeneratorLetter.H, 1),)


@pytest.mark.parametrize("bad", ["P3", "p1", "P1 ,P2", "P1^", "P1^^2", "Q", "P1,"])
def test_parse_word_rejects(bad):
    with pytest.raises(WordParseError):
        parse_word(bad)


def test_parse_word_bounds_total_exponent():
    assert parse_word(f"P1^{MAX_WORD_EXPONENT}").letters == (
        (GeneratorLetter.P1, MAX_WORD_EXPONENT),
    )
    assert parse_word("P1^6000,P1^-6000").letters == ()
    # The bound applies after merging, so a split spelling is refused too.
    for text in ("P1^1000000000", "P1^6000,P1^6000", f"H^-{MAX_WORD_EXPONENT + 1}"):
        with pytest.raises(WordParseError, match="bound"):
            parse_word(text)
    with pytest.raises(WordParseError, match="digits"):
        parse_word("P1^" + "1" * 5000)


# Z3 periods 997 and 991 with drift of order 3: P1's output period would be
# 997 * 991 * 3, so 5 928 164 entries per side.
COPRIME_Z3 = "L=(1,1" + ",0" * 989 + ");R=(1" + ",0" * 996 + ")"


def test_letter_refuses_an_output_side_above_the_bound(monkeypatch):
    h = parse_vector(Z3, COPRIME_Z3)
    assert (len(h.right_period), len(h.left_period)) == (997, 991)

    def no_window(*args):
        raise AssertionError("the frame was built")

    monkeypatch.setattr(action, "code_window", no_window)
    _frame.cache_clear()
    for act in P_LETTERS:
        with pytest.raises(ValueError, match="needs 5928164 entries per side"):
            act(h)


def test_letter_side_bound_edge(monkeypatch):
    # P1 at this vector: prefix 2, period 3 (drift 1 of order 3), so 8 entries.
    h = parse_vector(Z3, "L=(1);R=(0)")
    _frame.cache_clear()
    monkeypatch.setattr(action, "MAX_LETTER_SIDE", 7)
    with pytest.raises(ValueError, match="needs 8 entries per side, more than the bound 7"):
        act_p1(h)
    monkeypatch.setattr(action, "MAX_LETTER_SIDE", 8)
    assert entries_agree(act_p1(h), lambda k: oracle_p1(h, k))


def test_letters_without_s_build_each_side_to_its_own_shape(monkeypatch):
    # Over Z2 no P letter reads S, so each output side keeps the period of
    # the input side it reads (the opposite one), and H^n never reads S and
    # keeps the period of the same side: about 2 000 entries per side where
    # one shared period would ask for 997 * 991.
    monkeypatch.setattr(action, "MAX_LETTER_SIDE", 2100)
    _frame.cache_clear()
    h = parse_vector(Z2, COPRIME_Z3)
    oracles = (oracle_p1, oracle_p1_inv, oracle_p2, oracle_p2_inv)
    for act, oracle in zip(P_LETTERS, oracles):
        out = act(h)
        assert (len(out.right_period), len(out.left_period)) == (991, 997), act.__name__
        assert entries_agree(out, lambda k: oracle(h, k), radius=2100), act.__name__
    h = parse_vector(Z3, COPRIME_Z3)
    for act, oracle in ((act_h, oracle_h), (act_h_inv, oracle_h_inv)):
        out = act(h)
        assert (len(out.right_period), len(out.left_period)) == (997, 991), act.__name__
        assert entries_agree(out, lambda k: oracle(h, k), radius=2100), act.__name__


def test_p_letters_over_exponent_two_groups_are_involutions():
    # Where 2x = 0 every doubled term vanishes: P1 = P1^-1 = R and P2 = P2^-1.
    # R h is built from the swapped element words by the public constructor.
    rng = random.Random(2222)
    for group in (Z2, V4, PRODUCT_GROUPS[2]):
        for _ in range(30):
            h = random_vector(group, rng, max_prefix=4, max_period=7)
            rpre, rper, lpre, lper = element_words(h)
            rh = EpVector(group, lpre, lper, rpre, rper)
            assert act_p1(h) == act_p1_inv(h) == rh, format_vector(h)
            out = act_p2(h)
            assert act_p2_inv(h) == out, format_vector(h)
            assert entries_agree(out, lambda k: oracle_p2(h, k), radius=24)


def test_word_inverse_round_trip():
    rng = random.Random(606)
    w = parse_word("P1^-2,H^3,P2,-I")
    for group in (Z2, Z3):
        for _ in range(5):
            h = random_vector(group, rng)
            assert act_word(act_word(h, w), w.inverse()) == h


def test_letter_matrices():
    m1 = word_matrix(parse_word("P1"))
    assert (m1.a, m1.b, m1.c, m1.d) == (4, -3, 3, -2)
    m2 = word_matrix(parse_word("P2"))
    assert (m2.a, m2.b, m2.c, m2.d) == (4, Fraction(-3, 2), 6, -2)
    mh = word_matrix(parse_word("H"))
    assert (mh.a, mh.b, mh.c, mh.d) == (2, 0, 0, Fraction(1, 2))
    for tok in ("P1", "P2", "H", "-I"):
        assert word_matrix(parse_word(tok)).det() == 1


def test_word_matrix_relation():
    m = word_matrix(parse_word("-I,P1,P2"))
    assert (m.a, m.b, m.c, m.d) == (2, 0, 0, Fraction(1, 2))


def test_word_matrix_inverse_exponents():
    m = word_matrix(parse_word("P1,P1^-1"))
    assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 1)
    m = word_matrix(parse_word("H^-2"))
    assert (m.a, m.d) == (Fraction(1, 4), 4)


def test_act_word_matches_letter_composition():
    rng = random.Random(909)
    h = random_vector(Z3, rng)
    w = parse_word("P1,H^2,-I,P2^-1")
    expected = act_p2_inv(h)
    expected = act_neg(expected)
    expected = act_h_pow(expected, 2)
    expected = act_p1(expected)
    assert act_word(h, w) == expected
