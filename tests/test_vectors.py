import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from chamcovers import (
    EpVector,
    FinAbGroup,
    VectorParseError,
    apply_aut,
    automorphisms,
    canonical_class,
    format_vector,
    from_entries,
    generates,
    is_periodic,
    normalize,
    orbit_bfs,
    parse_group,
    parse_vector,
    span,
)
from chamcovers.action import _reflect
from chamcovers.groups import element_index
from chamcovers.vectors import drift, window
from conftest import (
    oracle_canonical_class,
    oracle_span_order,
    oracle_word_entry,
    public_copy,
    random_vector,
    raw_vector,
    s_sum,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
V4 = parse_group("Z2xZ2")

# The differential corpus: vectors built from raw (often not normal) seeded
# words, which the constructor normalizes.
ORACLE_GROUPS = ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2")


def oracle_corpus(per_group=60, seed=2019):
    rng = random.Random(seed)
    return [
        raw_vector(group, rng)
        for group in map(parse_group, ORACLE_GROUPS)
        for _ in range(per_group)
    ]


def z2v(spec):
    return parse_vector(Z2, spec)


def test_entry_indexing_both_sides():
    h = parse_vector(Z2, "L=(0);R=1,1|(0)")
    assert str(h.entry(1)) == "1"
    assert str(h.entry(2)) == "1"
    assert str(h.entry(3)) == "0"
    assert str(h.entry(100)) == "0"
    assert str(h.entry(-1)) == "0"
    with pytest.raises(ValueError):
        h.entry(0)


def test_entry_left_side_reads_outward():
    # Left word lists h_{-1}, h_{-2}, ... moving away from the origin.
    h = parse_vector(Z3, "L=1,2|(0);R=(0)")
    assert str(h.entry(-1)) == "1"
    assert str(h.entry(-2)) == "2"
    assert str(h.entry(-3)) == "0"


def test_entry_parity_vector():
    h = z2v("L=(1,0);R=(1,0)")
    for k in range(-9, 10):
        if k == 0:
            continue
        assert h.entry(k) == Z2.elem(k % 2)
    assert h.entry(-5) == Z2.elem(1)


def test_window_matches_entries():
    # w[m + k] == h_k on the differential corpus, h_0 pinned to zero.
    for h in oracle_corpus(per_group=20):
        for m in range(13):
            w = window(h, m)
            assert len(w) == 2 * m + 1
            assert w[m] == h.group.zero()
            assert all(w[m + k] == h.entry(k) for k in range(-m, m + 1) if k != 0)


def test_drift_is_the_gain_of_s_over_a_period():
    for h in oracle_corpus(per_group=20):
        k0 = max(len(h.right_prefix), len(h.left_prefix))
        lcm = math.lcm(len(h.right_period), len(h.left_period))
        for p in (lcm, 2 * lcm):
            for t in range(k0, k0 + lcm + 1):
                assert drift(h, p) == s_sum(h, t + p) - s_sum(h, t)


def test_normalize_absorbs_prefix_into_period():
    h = normalize(
        EpVector(
            Z2,
            (Z2.elem(0), Z2.elem(1)),
            (Z2.elem(0), Z2.elem(1)),
            (Z2.elem(0),),
            (Z2.elem(0),),
        )
    )
    assert h.right_prefix == ()
    assert h.right_period == (Z2.elem(0), Z2.elem(1))


def test_normalize_contracts_period_to_primitive_root():
    h = normalize(
        EpVector(
            Z2,
            (),
            (Z2.elem(1), Z2.elem(0), Z2.elem(1), Z2.elem(0)),
            (),
            (Z2.elem(0),),
        )
    )
    assert h.right_period == (Z2.elem(1), Z2.elem(0))


def test_normalize_keeps_genuine_prefix():
    h = z2v("L=(0);R=1|(0)")
    assert h.right_prefix == (Z2.elem(1),)
    assert h.right_period == (Z2.elem(0),)


def test_normalize_idempotent_and_entry_preserving():
    # The constructor stores the normal form: the entries the raw words
    # spell, primitive periods, and no prefix letter the period would absorb.
    rng = random.Random(7)
    for _ in range(200):
        group = rng.choice([Z2, Z3, Z4, V4])
        elems = list(group.elements())
        words = tuple(
            tuple(rng.choice(elems) for _ in range(rng.randint(lo, hi)))
            for lo, hi in ((0, 3), (1, 4), (0, 3), (1, 4))
        )
        h = EpVector(group, *words)
        assert normalize(h) is h
        stored = (h.right_prefix, h.right_period, h.left_prefix, h.left_period)
        assert EpVector(group, *stored) == h
        for k in range(-15, 16):
            if k != 0:
                assert h.entry(k) == oracle_word_entry(words, k)
        for prefix, period in zip(stored[::2], stored[1::2]):
            n = len(period)
            roots = (period[:d] for d in range(1, n) if n % d == 0)
            assert all(period != root * (n // len(root)) for root in roots)
            assert not prefix or prefix[-1] != period[-1]


def test_spellings_of_one_vector_compare_and_hash_equal():
    zero, one = Z2.elem(0), Z2.elem(1)
    spelled = EpVector(Z2, (one,), (zero, one), (), (one, zero))
    parsed = parse_vector(Z2, "L=(1,0);R=(1,0)")
    assert spelled == parsed and hash(spelled) == hash(parsed)
    assert format_vector(spelled) == "L=(1,0);R=(1,0)"


def test_format_parse_round_trip_examples():
    for spec in ("L=(0);R=1,1|(0)", "L=(1,0);R=(1,0)", "L=1,2|(0,2);R=(1)"):
        h = parse_vector(Z3, spec) if "2" in spec else parse_vector(Z2, spec)
        assert parse_vector(h.group, format_vector(h)) == h


def test_parse_accepts_prefix_without_separator():
    assert z2v("L=(0);R=1,1(0)") == z2v("L=(0);R=1,1|(0)")


@pytest.mark.parametrize(
    "bad",
    [
        "L=(0);R=|()",
        "L=();R=(0)",
        "L=(0);R=(0",
        "L=(0)R=(0)",
        "R=(0);L=(0)",
        "L=(0); R=(0)",
        "L=(0);R=2|(0)",
        "L=(0);R=(3)",
        "L=(0)",
        "",
        # A residue with more digits than int() converts.
        pytest.param("L=(0);R=(" + "1" * 5000 + ")", id="R-5000-digits"),
    ],
)
def test_parse_vector_rejects(bad):
    with pytest.raises(VectorParseError):
        parse_vector(Z2, bad)


def test_parse_vector_rejects_wrong_arity():
    with pytest.raises(VectorParseError):
        parse_vector(V4, "L=(0);R=(1)")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_format_parse_round_trip_random(data):
    group = data.draw(st.sampled_from([Z2, Z3, Z4, V4]))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    h = random_vector(group, random.Random(seed))
    assert parse_vector(group, format_vector(h)) == h


def test_is_periodic_parity_vector():
    assert is_periodic(z2v("L=(1,0);R=(1,0)")) == 2
    # The same vector spelled with a prefix that normalization absorbs.
    one, zero = Z2.elem(1), Z2.elem(0)
    assert is_periodic(EpVector(Z2, (one,), (zero, one), (), (one, zero))) == 2


def test_is_periodic_four_periodic_example():
    # Entries 0,1,1,0 repeating rightward; 1,1,0,0 repeating leftward.
    h = z2v("L=(1,1,0,0);R=(0,1,1,0)")
    assert is_periodic(h) == 4


def test_is_periodic_absent_cases():
    assert is_periodic(z2v("L=(0);R=1|(0)")) is None
    # One-sided periods match but the seam at the origin breaks the shift.
    assert is_periodic(parse_vector(Z3, "L=(1,0,2);R=(2,0,1)")) is None
    # Same period length on both sides but misaligned letters.
    assert is_periodic(parse_vector(Z3, "L=(1,2);R=(1,2)")) is None
    # Aligned letters across the seam give the genuine period.
    assert is_periodic(parse_vector(Z3, "L=(1,0);R=(1,0)")) == 2


def test_generates():
    assert generates(z2v("L=(0);R=1|(0)"))
    assert not generates(parse_vector(Z4, "L=(0);R=2|(0)"))
    assert generates(parse_vector(Z4, "L=(0);R=2,3|(0)"))
    assert not generates(parse_vector(V4, "L=(0:0);R=1:0|(0:0)"))
    assert generates(parse_vector(V4, "L=0:1|(0:0);R=1:0|(0:0)"))


def test_canonical_class_merges_automorphic_vectors():
    a = parse_vector(Z3, "L=(0);R=1|(0)")
    b = parse_vector(Z3, "L=(0);R=2|(0)")
    assert canonical_class(a) == canonical_class(b)
    assert canonical_class(a).representative in (a, b)


def test_canonical_class_distinguishes_genuinely_different_vectors():
    a = parse_vector(Z3, "L=(0);R=1|(0)")
    b = parse_vector(Z3, "L=1|(0);R=(0)")
    assert canonical_class(a) != canonical_class(b)


def test_canonical_class_requires_generating_letters():
    with pytest.raises(ValueError):
        canonical_class(parse_vector(Z4, "L=(0);R=2|(0)"))


def test_canonical_class_stable_under_automorphism_of_input():
    from chamcovers import apply_aut, automorphisms

    rng = random.Random(11)
    for group in (Z3, Z4, V4):
        for _ in range(25):
            h = random_vector(group, rng)
            for phi in automorphisms(group):
                assert canonical_class(apply_aut(phi, h)) == canonical_class(h)


def test_from_entries():
    h = from_entries(Z2, {1: Z2.elem(1), 2: Z2.elem(1)})
    assert format_vector(h) == "L=(0);R=1,1|(0)"
    with pytest.raises(ValueError):
        from_entries(Z2, {0: Z2.elem(1)})


def test_canonical_class_matches_brute_force_oracle():
    checked = 0
    for h in oracle_corpus():
        if not generates(h):
            continue
        assert canonical_class(h) == oracle_canonical_class(h), format_vector(h)
        checked += 1
    assert checked > 300


def test_canonical_class_returns_a_least_representative_itself():
    # A vector that is already the least image is its own representative, not
    # a copy; any other input gets the oracle's representative and keeps its
    # remembered generation answer.
    starts = (
        (Z3, "L=(1,0);R=(1,0)"),
        (Z4, "L=(0);R=1,1|(0)"),
        (parse_group("Z2xZ4"), "L=1:3,0:2|(1:1,0:1);R=0:1|(1:0,1:2,0:3)"),
    )
    moved = 0
    for group, spec in starts:
        graph = orbit_bfs(parse_vector(group, spec), cap=12)
        for cls in graph.vertices:
            rep = cls.representative
            assert canonical_class(rep).representative is rep
            for phi in automorphisms(group):
                img = apply_aut(phi, rep)
                if img == rep:
                    continue
                got = canonical_class(img)
                assert got == oracle_canonical_class(img) == cls
                assert got.representative._gen is img._gen is True
                moved += 1
    assert moved > 20


def test_generates_matches_span_and_element_closure():
    verdicts = set()
    for h in oracle_corpus():
        letters = set(h.letters())
        full = oracle_span_order(h.group, letters) == h.group.order
        assert generates(h) == full == (span(h.group, letters).index == 1)
        verdicts.add(full)
    assert verdicts == {False, True}


def test_generation_answer_is_kept_once_known_and_is_not_part_of_equality():
    h = parse_vector(Z4, "L=(0);R=2,3|(0)")
    twins = (
        h,
        parse_vector(Z4, format_vector(h)),
        public_copy(h),
        pickle.loads(pickle.dumps(h)),
        copy.deepcopy(h),
    )
    assert all(t._gen is None for t in twins)
    assert generates(h) and h._gen is True
    assert all(t._gen is None for t in twins[1:])
    assert all(t == h and hash(t) == hash(h) and t.key() == h.key() for t in twins)
    low = parse_vector(Z4, "L=(0);R=2|(0)")
    assert not generates(low) and low._gen is False


def test_automorphism_images_and_reflections_store_the_normal_form():
    # A letterwise bijection keeps which letters are equal and the reflection
    # swaps two normal sides, so neither renormalizes; both equal the
    # normalizing path on the same words.  An automorphism image inherits
    # whether the letters generate G, as phi maps G onto G.
    for h in oracle_corpus(per_group=30):
        group = h.group
        gen = generates(h)
        rpre, rper, lpre, lper = h.key()
        flipped = _reflect(h)
        swapped = EpVector._from_codes(group, lpre, lper, rpre, rper)
        assert flipped.key() == swapped.key()
        assert flipped._gen is gen
        for phi in automorphisms(group):
            img = apply_aut(phi, h)
            words = (tuple(phi.codes[c] for c in w) for w in h.key())
            assert img.key() == EpVector._from_codes(group, *words).key()
            assert img._gen is gen == generates(public_copy(img))


# --- storage: words are kept as element codes ---


def test_public_constructor_rejects_foreign_letters_and_empty_periods():
    zero = Z2.elem(0)
    for words in (
        ((Z3.elem(1),), (zero,), (), (zero,)),
        ((), (zero,), (), (zero, Z4.elem(0))),
        ((), (V4.elem(1, 0),), (), (zero,)),
    ):
        with pytest.raises(ValueError, match="different group"):
            EpVector(Z2, *words)
    for words in (((), (), (), (zero,)), ((zero,), (zero,), (), ())):
        with pytest.raises(ValueError, match="nonempty"):
            EpVector(Z2, *words)


def test_words_and_entries_are_interned_elements():
    for h in oracle_corpus(per_group=10):
        elems, index = element_index(h.group)
        interned = lambda e: e is elems[index[e.residues]]
        words = (h.right_prefix, h.right_period, h.left_prefix, h.left_period)
        assert [len(w) for w in words] == [len(w) for w in h.key()]
        assert all(interned(e) for w in words for e in w)
        assert all(interned(e) for e in h.letters())
        assert all(interned(h.entry(k)) for k in range(-9, 10) if k != 0)


def test_vectors_over_equal_distinct_groups_compare_and_hash_equal():
    g1, g2 = FinAbGroup((2, 4)), FinAbGroup((2, 4))
    assert g1 is not g2
    spec = "L=1:3,0:2|(1:1,0:1);R=0:1|(1:0,1:2,0:3)"
    h1, h2 = parse_vector(g1, spec), parse_vector(g2, spec)
    assert h1 == h2 and hash(h1) == hash(h2) and len({h1, h2}) == 1
    # Letters of an equal group are accepted by the public constructor.
    assert EpVector(g2, h1.right_prefix, h1.right_period, (), (g1.zero(),)) in {
        EpVector(g1, h2.right_prefix, h2.right_period, (), (g2.zero(),))
    }
    # Equal codes over a different group of the same order are unequal.
    z8 = FinAbGroup((8,))
    spelled = tuple(tuple(z8.elem(c) for c in word) for word in h1.key())
    assert EpVector(z8, *spelled).key() == h1.key()
    assert EpVector(z8, *spelled) != h1


def test_vectors_are_immutable_and_picklable():
    h = parse_vector(Z3, "L=1,2|(0,2);R=(1)")
    before = (format_vector(h), hash(h))
    for name in ("group", "rpre", "lper", "right_prefix", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(h, name, ())
    with pytest.raises(AttributeError):
        del h.rper
    assert (format_vector(h), hash(h)) == before
    for twin in (pickle.loads(pickle.dumps(h)), copy.deepcopy(h)):
        assert twin == h and format_vector(twin) == before[0]


@pytest.mark.parametrize("spec", ["Z2xZ4", "Z3xZ3"])
def test_format_parse_round_trip_over_product_groups(spec):
    group = parse_group(spec)
    rng = random.Random(77)
    for _ in range(60):
        h = raw_vector(group, rng)
        text = format_vector(h)
        back = parse_vector(group, text)
        assert back == h and back.key() == h.key()
        assert format_vector(back) == text
