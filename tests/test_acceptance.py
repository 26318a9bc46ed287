"""End-to-end acceptance checks, one numbered test per guarantee.

Each test exercises one headline capability at full scale and prints a PASS
line on success.  Run with `pytest tests/test_acceptance.py -v` (add -s to
see the PASS lines directly).
"""

import itertools
import random
import time
from fractions import Fraction

from chamcovers import (
    Mat2Q,
    SurfaceKind,
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
    classify_d2,
    classify_type,
    construct_max_ends,
    count_closed_forms,
    decide_finite_index,
    end_subgroup,
    enumerate_wn,
    enumerate_wn_star,
    expand,
    from_entries,
    generates,
    in_cn,
    is_fixed_by_h_pow,
    is_periodic,
    kranz_orbits,
    minimal_n,
    num_ends,
    orbit_bfs,
    orbit_census,
    p1_bits,
    p2_bits,
    parse_group,
    parse_vector,
    parse_word,
    projective_rank,
    realize_rank,
    word_matrix,
)
from conftest import code_of, h_pow_fixed, oracle_end_subgroup, random_vector

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
V4 = parse_group("Z2xZ2")
GROUPS = (Z2, Z3, Z4, V4)

_CORPUS = {}


def seeded_corpus(group, count=200):
    key = (group, count)
    if key not in _CORPUS:
        rng = random.Random(20260819)
        _CORPUS[key] = [random_vector(group, rng) for _ in range(count)]
    return _CORPUS[key]


def fixed_param_vectors(group, max_len):
    """Generating fixed-point constructions for all parameter tuples of
    length up to max_len over the given group."""
    out = []
    for n in range(1, max_len + 1):
        for params in itertools.product(group.elements(), repeat=n):
            h = h_pow_fixed(group, params)
            if generates(h):
                out.append((n, h))
    return out


def zero_tail_corpus():
    """Every two-element-group vector supported inside [-6, 6], the zero
    vector first."""
    one = Z2.elem([1])
    positions = [k for k in range(-6, 7) if k != 0]
    vectors = []
    for mask in range(2**12):
        entries = {k: one for i, k in enumerate(positions) if mask >> i & 1}
        vectors.append(from_entries(Z2, entries))
    return vectors


def test_01_star_family_counts():
    started = time.monotonic()
    observed = [len(enumerate_wn_star(n)) for n in range(1, 17)]
    assert observed[:5] == [1, 2, 6, 12, 30]
    for n in range(1, 17):
        assert observed[n - 1] == count_closed_forms(n)["wn_star"]
    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS 01 star-family counts 1..16 exact ({elapsed:.1f}s)")


def test_02_fixed_point_tables():
    a1, a2, b1, b2 = [], [], [], []
    for n in range(1, 6):
        counts = count_closed_forms(n)
        a1.append(counts["fixed_p1"])
        a2.append(counts["fixed_p2"])
        star = [code_of(e.bits) for e in enumerate_wn_star(n)]
        b1.append(sum(1 for c in star if p1_bits(c) == c))
        b2.append(sum(1 for c in star if p2_bits(c) == c))
    assert a1 == [1, 1, 3, 3, 7]
    assert b1 == [1, 0, 2, 2, 6]
    assert a2 == [1, 3, 3, 7, 7]
    assert b2 == [1, 2, 2, 4, 6]
    print("PASS 02 fixed-point tables n=1..5 exact")


def test_03_example_orbit_diagrams():
    def code(s):  # the code of the bit tuple spelled by s
        return int("1" + s, 2)

    # One vertex, loops for both letters.
    assert p1_bits(code("1")) == code("1")
    assert p2_bits(code("1")) == code("1")
    assert [o["members"] for o in orbit_census(1)["orbits"]] == [["1"]]

    # Size-2 path: second letter loops at both vertices, first letter swaps.
    c2 = orbit_census(2)
    assert [o["members"] for o in c2["orbits"]] == [["01", "11"]]
    assert p2_bits(code("01")) == code("01") and p2_bits(code("11")) == code("11")
    assert p1_bits(code("01")) == code("11")
    graph = orbit_bfs(expand(enumerate_wn(2)[0]))
    assert graph.order == 2
    assert graph.p1_edges == (1, 0) and graph.p2_edges == (0, 1)

    # Two size-3 paths.
    c3 = orbit_census(3)
    assert [o["members"] for o in c3["orbits"]] == [
        ["001", "011", "111"],
        ["010", "100", "110"],
    ]
    assert all(o["type"] == "Striezel" for o in c3["orbits"])
    assert p1_bits(code("011")) == code("011")
    assert p2_bits(code("011")) == code("111")
    assert p1_bits(code("111")) == code("001")
    assert p2_bits(code("001")) == code("001")
    assert p1_bits(code("110")) == code("110")
    assert p2_bits(code("110")) == code("010")
    assert p1_bits(code("010")) == code("100")
    assert p2_bits(code("100")) == code("100")

    # Three size-4 paths.
    c4 = orbit_census(4)
    assert [o["members"] for o in c4["orbits"]] == [
        ["0001", "0011", "0111", "1111"],
        ["0010", "0100", "1000", "1110"],
        ["0101", "1001", "1011", "1101"],
    ]
    assert p1_bits(code("0100")) == code("0100")
    assert p2_bits(code("0100")) == code("1000")
    assert p1_bits(code("1000")) == code("0010")
    assert p2_bits(code("0010")) == code("1110")
    assert p1_bits(code("1110")) == code("1110")
    assert p2_bits(code("0001")) == code("0001")
    assert p1_bits(code("0001")) == code("1111")
    assert p2_bits(code("1111")) == code("0011")
    assert p1_bits(code("0011")) == code("0111")
    assert p2_bits(code("0111")) == code("0111")
    assert p2_bits(code("1011")) == code("1011")
    assert p1_bits(code("1011")) == code("0101")
    assert p2_bits(code("0101")) == code("1001")
    assert p1_bits(code("1001")) == code("1101")
    assert p2_bits(code("1101")) == code("1101")
    print("PASS 03 example orbit diagrams exact with bit labels")


def test_04_cycle_orbit_boundary_and_counts():
    for n in range(1, 6):
        assert kranz_orbits(n) == 0
    for n in range(6, 11):
        assert kranz_orbits(n) > 0
    assert kranz_orbits(7) == 2
    for n in (3, 5, 7, 11, 13):
        closed = (2 ** (n - 1) - 1) // n - 2 ** ((n - 1) // 2) + 1
        assert kranz_orbits(n) == closed
    print("PASS 04 cycle-orbit boundary at 6 and prime counts exact")


def test_05_generator_relations():
    for group in GROUPS:
        for h in seeded_corpus(group):
            assert act_h(h) == act_neg(act_p1(act_p2(h)))
    assert word_matrix(parse_word("-I,P1,P2")) == Mat2Q(
        Fraction(2), Fraction(0), Fraction(0), Fraction(1, 2)
    )
    for group in GROUPS:
        for h in seeded_corpus(group)[:20]:
            iterated = h
            for n in range(1, 9):
                iterated = act_h(iterated)
                assert act_h_pow(h, n) == iterated
    print("PASS 05 hyperbolic relation, matrix identity, power law")


def test_06_inverse_round_trips():
    pairs = ((act_p1, act_p1_inv), (act_p2, act_p2_inv), (act_h, act_h_inv))
    for group in GROUPS:
        for h in seeded_corpus(group):
            for fwd, bwd in pairs:
                assert bwd(fwd(h)) == h
                assert fwd(bwd(h)) == h
    print("PASS 06 inverse round trips exact on 800 vectors")


def test_07_invariant_set_membership_and_closure():
    corpus = []
    for n in range(1, 9):
        for e in enumerate_wn(n):
            corpus.append((n, expand(e)))
    corpus.extend(fixed_param_vectors(Z3, 3))
    assert len(corpus) == 538
    for n, h in corpus:
        assert is_fixed_by_h_pow(h, n)
        assert in_cn(h, n)
        for move in (act_p1, act_p2, act_neg):
            assert in_cn(move(h), n)
    print(f"PASS 07 invariant-set membership and closure on {len(corpus)} vectors")


def test_08_finite_index_decision():
    # Ground truth one: full periodicity over the two-element group.
    for i, h in enumerate(zero_tail_corpus()):
        verdict = decide_finite_index(h)
        assert verdict.finite == (is_periodic(h) is not None) == (i == 0)
    # Ground truth two: orbit search termination on a mixed 500-vector corpus.
    finite_members = [expand(e) for n in range(1, 9) for e in enumerate_wn(n)]
    fixed = [h for _, h in fixed_param_vectors(Z3, 2)] + [
        h for _, h in fixed_param_vectors(Z4, 2)
    ]
    probes = [
        parse_vector(Z3, "L=(0);R=1|(0)"),
        parse_vector(Z3, "L=(1,0);R=(1,0)"),
        parse_vector(Z4, "L=1|(0);R=2,3|(0)"),
        parse_vector(Z4, "L=(0);R=1,1|(0)"),
    ]
    mixed = finite_members[: 496 - len(fixed)] + fixed + probes
    assert len(mixed) == 500
    disagreements = 0
    for h in mixed:
        predicted = decide_finite_index(h).finite
        graph = orbit_bfs(h, cap=100000)
        if graph.complete != predicted:
            disagreements += 1
    assert disagreements == 0
    print("PASS 08 finite-index decision: 4096 periodicity + 500 orbit checks")


def test_09_rank_realization():
    started = time.monotonic()
    for r in range(2, 9):
        h = realize_rank(r)
        graph = orbit_bfs(h)
        assert graph.complete and graph.order == r - 1
        assert classify_type(graph).value == "Striezel"
        assert projective_rank(h) == r
    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"PASS 09 ranks 2..8 realized by path orbits ({elapsed:.1f}s)")


def test_10_generator_powers_fix_classes():
    for group in GROUPS:
        d = group.order
        p1_pow = parse_word(f"P1^{d}")
        p2_pow = parse_word(f"P2^{d}")
        for h in seeded_corpus(group):
            base = canonical_class(h)
            assert canonical_class(act_word(h, p1_pow)) == base
            assert canonical_class(act_word(h, p2_pow)) == base
    print("PASS 10 generator powers act trivially on classes (800 vectors)")


def test_11_topological_ends():
    assert num_ends(parse_vector(Z2, "L=(0);R=1,1|(0)")) == 2
    assert num_ends(parse_vector(Z2, "L=(0);R=1|(0)")) == 1
    for n in range(1, 7):
        for e in enumerate_wn(n):
            assert num_ends(expand(e)) == 1
    checked = 0
    for h in zero_tail_corpus():
        if not h.right_prefix and not h.left_prefix:
            continue
        expected = 2 if classify_d2(h) == SurfaceKind.JACOBS_LADDER else 1
        assert num_ends(h) == expected
        checked += 1
    assert checked == 4095
    for spec in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2"):
        group = parse_group(spec)
        assert num_ends(construct_max_ends(group)) == group.order
    rng = random.Random(424242)
    for _ in range(500):
        group = GROUPS[rng.randrange(len(GROUPS))]
        h = random_vector(group, rng)
        for extra in (1, 3):
            n = minimal_n(h) + extra
            assert end_subgroup(h).elements == oracle_end_subgroup(h, n)
    print("PASS 11 end counts, two-type split, max-end constructions")
