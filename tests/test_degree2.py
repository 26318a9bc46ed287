import hashlib
import itertools
import json
import random

import pytest
from sympy import mobius

from chamcovers import (
    WnElement,
    act_p1,
    act_p2,
    canonical_class,
    classify_type,
    count_closed_forms,
    enumerate_wn,
    enumerate_wn_star,
    expand,
    format_vector,
    is_fixed_by_h_pow,
    is_periodic,
    is_weakly_n_periodic,
    kranz_orbits,
    orbit_bfs,
    orbit_census,
    p1_bits,
    p2_bits,
    parse_group,
    parse_vector,
    realize_rank,
    striezel_orbits,
    veech_index,
)
from chamcovers import degree2
from chamcovers.degree2 import MAX_COUNTS_N, _orbit_of, _u_orbit
from conftest import (
    bits_of,
    code_of,
    oracle_has_loop,
    oracle_orbit,
    oracle_p1_bits,
    oracle_p2_bits,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")


def test_expand_parity_vector():
    h = expand(WnElement(1, (1,)))
    assert format_vector(h) == "L=(1,0);R=(1,0)"


def test_expand_four_periodic_vector():
    h = expand(WnElement(2, (0, 1)))
    assert format_vector(h) == "L=(1,1,0,0);R=(0,1,1,0)"
    # Entries around the origin: ...0,0,1,1,[0],0,1,1,0,...
    assert [int(str(h.entry(k))) for k in (-4, -3, -2, -1, 1, 2, 3, 4)] == [
        0, 0, 1, 1, 0, 1, 1, 0,
    ]


def test_expand_injective_and_fully_periodic():
    for n in (1, 2, 3, 4, 5):
        expanded = [expand(e) for e in enumerate_wn(n)]
        assert len(set(expanded)) == 2**n - 1
        for h in expanded:
            p = is_periodic(h)
            assert p is not None and 2 * n % p == 0
    # Minimal weak period makes expansions distinct across lengths too.
    across = [expand(e) for n in (1, 2, 3, 4, 5) for e in enumerate_wn_star(n)]
    assert len(set(across)) == len(across)


def test_weak_periodicity_definition():
    h = expand(WnElement(2, (0, 1)))
    assert is_weakly_n_periodic(h, 2)
    assert not is_weakly_n_periodic(h, 1)
    assert is_weakly_n_periodic(h, 4)
    single = parse_vector(Z2, "L=(0);R=1|(0)")
    assert not any(is_weakly_n_periodic(single, n) for n in range(1, 7))
    with pytest.raises(ValueError):
        is_weakly_n_periodic(parse_vector(Z3, "L=(1);R=(1)"), 1)


def test_weak_periodicity_equals_hyperbolic_fixing():
    for n in range(1, 7):
        for e in enumerate_wn(n):
            h = expand(e)
            for m in range(1, 7):
                assert is_weakly_n_periodic(h, m) == is_fixed_by_h_pow(h, m)


def test_enumerate_wn_counts_and_order():
    for n in range(1, 9):
        members = enumerate_wn(n)
        assert len(members) == 2**n - 1
    assert [e.bits for e in enumerate_wn(2)] == [(0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        enumerate_wn(21)


def test_enumerate_wn_star_small():
    assert [e.bits for e in enumerate_wn_star(1)] == [(1,)]
    assert [e.bits for e in enumerate_wn_star(2)] == [(0, 1), (1, 1)]
    assert len(enumerate_wn_star(3)) == 6
    # (1, 0) in the two-bit family restricts to the one-bit vector.
    assert (1, 0) not in {e.bits for e in enumerate_wn_star(2)}


def test_enumerate_wn_star_matches_weak_periodicity():
    for n in range(1, 13):
        divisors = [m for m in range(1, n) if n % m == 0]
        expected = [
            e
            for e in enumerate_wn(n)
            if not any(is_weakly_n_periodic(expand(e), m) for m in divisors)
        ]
        assert enumerate_wn_star(n) == expected


def test_star_counts_match_enumeration():
    for n in range(1, 13):
        assert count_closed_forms(n)["wn_star"] == len(enumerate_wn_star(n))


def test_count_closed_forms_bound():
    assert count_closed_forms(10_000)["fixed_both"] == 1
    for n in (10_001, 100_000_000):
        with pytest.raises(ValueError, match="bound"):
            count_closed_forms(n)


def test_star_recursion_matches_mobius_sum_for_n_at_least_2():
    for n in range(2, 17):
        total = sum(
            mobius(m) * 2 ** (n // m) for m in range(1, n + 1) if n % m == 0
        )
        assert count_closed_forms(n)["wn_star"] == total


def test_fixed_point_counts_match_enumeration():
    for n in range(1, 11):
        counts = count_closed_forms(n)
        codes = [code_of(e.bits) for e in enumerate_wn(n)]
        fixed1 = sum(1 for c in codes if p1_bits(c) == c)
        fixed2 = sum(1 for c in codes if p2_bits(c) == c)
        both = sum(1 for c in codes if p1_bits(c) == c and p2_bits(c) == c)
        assert counts["fixed_p1"] == fixed1
        assert counts["fixed_p2"] == fixed2
        assert counts["fixed_both"] == both == 1


def test_striezel_count_matches_census():
    for n in range(1, 11):
        divisors = [m for m in range(1, n + 1) if n % m == 0]
        for m in divisors:
            assert striezel_orbits(m) == orbit_census(m)["striezel"]
        total = sum(orbit_census(m)["striezel"] for m in divisors)
        assert count_closed_forms(n)["striezel_wn"] == total


def test_bit_actions_are_involutions():
    for n in range(1, 9):
        for e in enumerate_wn(n):
            c = code_of(e.bits)
            assert p1_bits(p1_bits(c)) == c
            assert p2_bits(p2_bits(c)) == c


def test_bit_moves_match_extension_oracle():
    # The code moves against the entry walk over the weak extension, on every
    # n-bit tuple (the zero tuple too), converted to codes and back.
    for n in range(1, 13):
        for bits in itertools.product((0, 1), repeat=n):
            code = code_of(bits)
            assert bits_of(code) == bits
            assert p1_bits(code) == code_of(oracle_p1_bits(bits))
            assert p2_bits(code) == code_of(oracle_p2_bits(bits))
            assert bits_of(p1_bits(code)) == oracle_p1_bits(bits)
            assert bits_of(p2_bits(code)) == oracle_p2_bits(bits)


def test_bit_moves_match_oracle_up_to_the_enumeration_bound():
    # P1 reads two ten-bit entries of its reversal table and P2 is P1 one
    # bit down, so both match the oracle up to n = 20; past it they name the
    # bound of every degree-two enumeration.
    rng = random.Random(20)
    for n in range(13, 21):
        edges = [(1,) * n, (0,) * (n - 1) + (1,), (1,) + (0,) * (n - 1), (0,) * n]
        for bits in edges + [tuple(rng.choices((0, 1), k=n)) for _ in range(100)]:
            code = code_of(bits)
            assert p1_bits(code) == code_of(oracle_p1_bits(bits))
            assert p2_bits(code) == code_of(oracle_p2_bits(bits))
    for n in (21, 25):
        for code in ((1 << n) | 1, (1 << n) | 2, (2 << n) - 1):
            for move in (p1_bits, p2_bits):
                with pytest.raises(ValueError, match=rf"^n={n} exceeds the enumeration bound 20$"):
                    move(code)


def test_census_matches_oracle_census():
    for n in range(1, 13):
        star = enumerate_wn_star(n)
        orbits, placed = [], set()
        for e in star:
            if e.bits not in placed:
                orb = oracle_orbit(e.bits)
                placed |= orb
                shape = "Striezel" if oracle_has_loop(orb) else "Kranz"
                members = sorted("".join(map(str, b)) for b in orb)
                orbits.append({"size": len(orb), "type": shape, "members": members})
        assert orbit_census(n) == {
            "n": n,
            "wn_star": len(star),
            "striezel": sum(o["type"] == "Striezel" for o in orbits),
            "kranz": sum(o["type"] == "Kranz" for o in orbits),
            "orbits": orbits,
        }


def test_orbit_walk_matches_oracle_from_every_seed(monkeypatch):
    # The walk steps by U inline and makes one bit move, P1 of the seed,
    # whichever member of the orbit seeds it.
    calls = {"p1": 0, "p2": 0}

    def counted(name, move):
        def wrapper(code):
            calls[name] += 1
            return move(code)

        return wrapper

    monkeypatch.setattr(degree2, "p1_bits", counted("p1", p1_bits))
    monkeypatch.setattr(degree2, "p2_bits", counted("p2", p2_bits))
    for n in range(1, 13):
        oracle = {}
        for e in enumerate_wn_star(n):
            if e.bits not in oracle:
                orb = frozenset(oracle_orbit(e.bits))
                for b in orb:
                    oracle[b] = (orb, oracle_has_loop(orb))
            calls.update(p1=0, p2=0)
            orb, has_loop = _orbit_of(code_of(e.bits))
            assert len(orb) == len(set(orb))
            assert ({bits_of(c) for c in orb}, has_loop) == oracle[e.bits]
            assert calls == {"p1": 1, "p2": 0}


def test_u_is_p2_after_p1_on_every_code():
    # One U step against the two bit moves on every n-bit code, the zero
    # tuple and W_n minus W_n* included; every U-orbit closes after n steps.
    for n in range(1, 17):
        for code in range(1 << n, 2 << n):
            assert _u_orbit(code, n)[0] == p2_bits(p1_bits(code))


def test_u_orbit_matches_composed_oracle_past_the_table_bounds():
    # U has no bound, where p1_bits and p2_bits refuse codes past n = 20;
    # each step must be the extension oracle's P1 then P2.
    rng = random.Random(1724)
    for n in range(17, 25):
        edges = [(1,) * n, (0,) * (n - 1) + (1,), (1,) + (0,) * (n - 1)]
        for bits in edges + [tuple(rng.choices((0, 1), k=n)) for _ in range(6)]:
            walk, b = [], bits
            for _ in range(n):
                b = oracle_p2_bits(oracle_p1_bits(b))
                walk.append(code_of(b))
            assert _u_orbit(code_of(bits), n) == walk


def test_orbit_walk_refuses_an_orbit_that_does_not_close(monkeypatch):
    # A P1 that leaves the n-bit codes starts a U walk that never comes back.
    monkeypatch.setattr(degree2, "p1_bits", lambda code: code << 1)
    with pytest.raises(RuntimeError, match=r"^a U-orbit did not close after n = 3 steps$"):
        _orbit_of(code_of((0, 0, 1)))


def test_census_refuses_a_member_met_twice(monkeypatch):
    # 1010 has weak period 2, and U fixes it.  Left out of the outside set,
    # it seeds an orbit whose walk lists it four times.
    code = code_of((1, 0, 1, 0))
    assert _u_orbit(code, 4) == [code] * 4
    outside = degree2._outside_star
    monkeypatch.setattr(degree2, "_outside_star", lambda n: outside(n) - {code})
    with pytest.raises(RuntimeError, match=r"^an orbit left W_n\*"):
        orbit_census(4)


def test_census_refuses_an_orbit_that_leaves_the_star_family(monkeypatch):
    # P1 swaps 01 and 10 and fixes 00 and 11; P2 fixes everything.  The orbit
    # of 01 then holds 10, whose minimal weak period is 1, so it is not in W_2*.
    swap = {code_of((0, 1)): code_of((1, 0)), code_of((1, 0)): code_of((0, 1))}
    monkeypatch.setattr(degree2, "p1_bits", lambda code: swap.get(code, code))
    monkeypatch.setattr(degree2, "p2_bits", lambda code: code)
    with pytest.raises(RuntimeError, match=r"^an orbit left W_n\*"):
        orbit_census(2)


def test_star_bits_stream_from_the_least_tuple():
    codes = degree2.wn_bits(20, True)
    assert iter(codes) is codes
    first = next(codes)
    assert first == (1 << 20) | 1
    assert bits_of(first) == (0,) * 19 + (1,)


# SHA-256 of json.dumps(orbit_census(n), sort_keys=True) for n = 1..16, as
# computed by the census that listed W_n* before walking it.
CENSUS_DIGESTS = {
    1: "ed163033254f98fc9b4c4e3d2594e7e91b137af520ef7ce557a7d33e6d7050f7",
    2: "b33c599d0bb7c0c416aea4e224723ed0f879947422f29e26f24396f5ebd71a9c",
    3: "a324fb542a4a6c572571c3aeb5dfd091e8c7dd3eecec94068bc23c90740e4a18",
    4: "fc2c1dc68bda99a07e965c3e05acb688ed76d5758629340df4012db9ea94dcb1",
    5: "b02774cfa74360cd84c37f507debd9bf0d540b6f9895e16787fdefc447871ee9",
    6: "73e9cf69ed32246d448e7eeabd5716779c0808b58c0d39d66aae9296336ac1be",
    7: "53ee0add210f0684a122634a0bf9991a7fefaed4e8fba78dc195cc48af84fa28",
    8: "0effb79a1b9a6b6f9b42360f0f6604cf70bfa87789689ef26d143142bb7ebc8e",
    9: "25c4574921f0af1afd6e7815ed951d4dc6c085a3277733f407b90563d13300a5",
    10: "3484107da9c19abcd072be3cfcb3f6ecaf85d4ddc4c905e94626a3a5d68fb736",
    11: "a50d8f4cee2acb7bf64f494b0154da68a0d083e06d1b48e1958ec34742d2385c",
    12: "e530f9a7c7cacfa6f842d6a2948440405bc03fbcc63ea7110b7a309e6bf1b3e9",
    13: "ddcc2148e18746572101ed1f7f159ad7dd503cbf35113fc8b6e674662332ece6",
    14: "76b0ed17edcc076ad1351a6c7e34d4ad9faf8b63523f68edb28463f853dd35ff",
    15: "76df08a50049ed4452cdf8d7ef6931e5901e1b3967311a488fc34e2f1e8f1beb",
    16: "fe458caadc983a543f3887d0ca560a31b0370879b57682e46e2064526943dd5f",
}


@pytest.mark.parametrize("n", sorted(CENSUS_DIGESTS))
def test_census_matches_its_pinned_digest(n):
    text = json.dumps(orbit_census(n), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_DIGESTS[n]


def test_census_and_star_family_refuse_out_of_range_n():
    for n in (0, -3):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            orbit_census(n)
    with pytest.raises(ValueError, match=r"^n=21 exceeds the enumeration bound 20$"):
        orbit_census(21)
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        enumerate_wn_star(0)
    with pytest.raises(ValueError, match=r"^n=21 exceeds the enumeration bound 20$"):
        enumerate_wn_star(21)


def test_census_beyond_sixteen_matches_closed_form_and_search():
    # Past the pinned digests: the orbits partition W_n*, keep the shape law,
    # and the least orbit of each shape has the size the general search finds.
    for n in range(17, 21):
        census = orbit_census(n)
        orbits = census["orbits"]
        assert sum(o["size"] for o in orbits) == census["wn_star"]
        assert census["wn_star"] == count_closed_forms(n)["wn_star"]
        for o in orbits:
            assert o["size"] == (n if o["type"] == "Striezel" else 2 * n)
        for shape in ("Striezel", "Kranz"):
            least = next(o for o in orbits if o["type"] == shape)
            bits = tuple(int(ch) for ch in least["members"][0])
            assert orbit_bfs(expand(WnElement(n, bits))).order == least["size"]


def test_bit_actions_match_vector_actions():
    for n in range(1, 7):
        for e in enumerate_wn(n):
            h = expand(e)
            c = code_of(e.bits)
            assert canonical_class(act_p1(h)) == canonical_class(
                expand(WnElement(n, bits_of(p1_bits(c))))
            )
            assert canonical_class(act_p2(h)) == canonical_class(
                expand(WnElement(n, bits_of(p2_bits(c))))
            )


def test_census_small_orbit_structure():
    c3 = orbit_census(3)
    assert c3["wn_star"] == 6
    assert c3["striezel"] == 2 and c3["kranz"] == 0
    assert [o["members"] for o in c3["orbits"]] == [
        ["001", "011", "111"],
        ["010", "100", "110"],
    ]
    c4 = orbit_census(4)
    assert c4["striezel"] == 3 and c4["kranz"] == 0
    assert [o["size"] for o in c4["orbits"]] == [4, 4, 4]


def test_census_orbits_match_general_orbit_search():
    # The least member of each orbit seeds a search over the vector machinery.
    for n in range(1, 8):
        for o in orbit_census(n)["orbits"]:
            bits = tuple(int(ch) for ch in o["members"][0])
            g = orbit_bfs(expand(WnElement(n, bits)))
            assert g.complete and g.order == o["size"]
            assert classify_type(g).value == o["type"]


def test_census_counts_by_orbit_stabilizer():
    # Orbit sizes partition the family.
    for n in range(1, 11):
        c = orbit_census(n)
        assert sum(o["size"] for o in c["orbits"]) == c["wn_star"]
        assert c["striezel"] + c["kranz"] == len(c["orbits"])


def test_cycle_orbits_absent_below_six_present_after():
    for n in range(1, 6):
        assert kranz_orbits(n) == 0
    for n in range(6, 11):
        assert kranz_orbits(n) > 0
    assert kranz_orbits(7) == 2


def test_cycle_count_closed_form_for_primes():
    # For odd prime lengths: (2^(n-1) - 1)/n - 2^((n-1)/2) + 1.
    for n in (3, 5, 7, 11, 13):
        expected = (2 ** (n - 1) - 1) // n - 2 ** ((n - 1) // 2) + 1
        assert kranz_orbits(n) == expected


def test_no_small_degenerate_graphs():
    # No size-2 orbit carries a loop of the first letter at both vertices,
    # and no cycle orbit appears with fewer than six vertices.
    for n in range(1, 9):
        for o in orbit_census(n)["orbits"]:
            if o["type"] == "Kranz":
                assert o["size"] >= 6
            if o["size"] == 2:
                a, b = (int("1" + m, 2) for m in o["members"])
                assert not (p1_bits(a) == a and p1_bits(b) == b)


def test_striezel_orbits_have_size_n():
    # The census shape law: every Striezel orbit has n members and every
    # Kranz orbit 2n.
    for n in range(1, 17):
        for o in orbit_census(n)["orbits"]:
            assert o["size"] == (n if o["type"] == "Striezel" else 2 * n)


def test_realize_rank_small():
    assert format_vector(realize_rank(2)) == "L=(1,0);R=(1,0)"
    h3 = realize_rank(3)
    assert veech_index(h3) == 2
    h4 = realize_rank(4)
    assert veech_index(h4) == 3
    with pytest.raises(ValueError):
        realize_rank(1)
    for r in (22, 30):
        h = realize_rank(r)
        assert h == expand(WnElement(r - 1, (0,) * (r - 2) + (1,)))
        assert veech_index(h) == r - 1
    with pytest.raises(ValueError, match=f"rank {MAX_COUNTS_N + 2} exceeds"):
        realize_rank(MAX_COUNTS_N + 2)


def test_realize_rank_is_least_loop_orbit_member():
    # Brute force: the least member of W_{r-1}* whose orbit has a loop.
    for r in range(2, 13):
        least = next(
            e
            for e in enumerate_wn_star(r - 1)
            if oracle_has_loop(oracle_orbit(e.bits))
        )
        assert realize_rank(r) == expand(least)


def test_wn_element_validation():
    with pytest.raises(ValueError):
        WnElement(2, (0, 0))
    with pytest.raises(ValueError):
        WnElement(2, (1,))
    with pytest.raises(ValueError):
        WnElement(1, (2,))
