"""Shared test helpers: direct-formula oracles, random vectors, constructions.

The oracle functions evaluate the defining entry formulas of each letter
action directly on a window, independently of the prefix/period synthesis in
the package, so the two routes check each other.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

from chamcovers import (
    EpVector,
    FinAbGroup,
    GroupElem,
    automorphisms,
    generates,
    normalize,
)
from chamcovers.groups import element_index


# The vector s_sum last walked, and its partial sums S(0), S(1), ...
_s_walk: tuple[EpVector | None, list] = (None, [])


def s_sum(h: EpVector, t: int) -> GroupElem:
    """S(t) = sum_{j=1..t} (-h_j + h_{-j}).

    One entry-by-entry walk per vector: the partial sums of the last vector
    asked about are kept and extended as far as t needs, and any other
    vector starts a fresh walk, so no answer depends on the call order.
    """
    global _s_walk
    if _s_walk[0] is not h:
        _s_walk = (h, [h.group.zero()])
    sums = _s_walk[1]
    for j in range(len(sums), t + 1):
        sums.append(sums[-1] + (h.entry(-j) - h.entry(j)))
    return sums[t]


def oracle_p1(h: EpVector, k: int) -> GroupElem:
    if k >= 1:
        return h.entry(-k) + s_sum(h, k - 1).scale(2)
    kk = -k
    return h.entry(kk) + s_sum(h, kk).scale(2)


def oracle_p1_inv(h: EpVector, k: int) -> GroupElem:
    if k >= 1:
        return h.entry(k).scale(2) - h.entry(-k) - s_sum(h, k - 1).scale(2)
    kk = -k
    return h.entry(kk) - s_sum(h, kk - 1).scale(2)


def oracle_p2(h: EpVector, k: int) -> GroupElem:
    if k >= 1:
        return (
            h.entry(-1)
            + h.entry(-k - 1)
            + h.entry(-k).scale(2)
            + s_sum(h, k - 1).scale(2)
        )
    if k == -1:
        return h.entry(-1)
    kk = -k
    return (
        h.entry(-1)
        + h.entry(kk - 1)
        + h.entry(-kk).scale(2)
        + s_sum(h, kk - 1).scale(2)
    )


def oracle_p2_inv(h: EpVector, k: int) -> GroupElem:
    if k >= 1:
        return s_sum(h, k).scale(-2) - h.entry(-1) - h.entry(-k - 1)
    if k == -1:
        return h.entry(-1)
    kk = -k
    return s_sum(h, kk - 1).scale(-2) - h.entry(kk - 1) - h.entry(-1)


def oracle_neg(h: EpVector, k: int) -> GroupElem:
    return -h.entry(k)


def oracle_h(h: EpVector, k: int) -> GroupElem:
    if k == 1:
        return -h.entry(-1)
    return h.entry(k - 1) + h.entry(-1)


def oracle_h_inv(h: EpVector, k: int) -> GroupElem:
    if k == -1:
        return -h.entry(1)
    return h.entry(k + 1) + h.entry(1)


@lru_cache(maxsize=64)
def _h_pow_shift(h: EpVector, n: int) -> GroupElem:
    """c = sum_{j=1..n} 2^(n-j) h_{-j}, which every entry of H^n h reads."""
    c = h.group.zero()
    for j in range(1, n + 1):
        c = c + h.entry(-j).scale(2 ** (n - j))
    return c


def oracle_h_pow(h: EpVector, n: int, k: int) -> GroupElem:
    c = _h_pow_shift(h, n)
    if 1 <= k <= n:
        acc = c - h.entry(k - n - 1).scale(2)
        for j in range(1, n - k + 1):
            acc = acc - h.entry(-j).scale(3 * 2 ** (n - k - j))
        return acc
    return h.entry(k - n) + c


def oracle_relations(h: EpVector, window: int) -> str | None:
    """The boundary and corner relations walked over the whole window.

    Returns the first failure in the package's witness wording, or None.
    """
    for k in range(1, window):
        lhs = h.entry(window - k + 1).scale(2) - h.entry(window - k)
        rhs = h.entry(-k - 1).scale(2) - h.entry(-k)
        if lhs != rhs:
            return (
                f"boundary relation failed at k={k}: "
                f"2*h[{window - k + 1}]-h[{window - k}]={lhs} "
                f"but 2*h[{-k - 1}]-h[{-k}]={rhs}"
            )
    if h.entry(window) != h.entry(-1).scale(-2):
        return (
            f"corner relation failed: h[{window}]={h.entry(window)} "
            f"but -2*h[-1]={h.entry(-1).scale(-2)}"
        )
    if h.entry(-window) != h.entry(1).scale(-2):
        return (
            f"corner relation failed: h[{-window}]={h.entry(-window)} "
            f"but -2*h[1]={h.entry(1).scale(-2)}"
        )
    return None


def oracle_one_sided_periodic(h: EpVector, period: int) -> bool:
    """h_{k+period} = h_k and h_{-k-period} = h_{-k} for every k >= 1, by walking
    entries past both prefixes and one lcm of the periods."""
    span = max(len(h.right_prefix), len(h.left_prefix)) + math.lcm(
        len(h.right_period), len(h.left_period)
    )
    return all(
        h.entry(k + period) == h.entry(k) and h.entry(-k - period) == h.entry(-k)
        for k in range(1, span + 1)
    )


def oracle_in_cn(h: EpVector, n: int) -> bool:
    """Membership in C_n from its four requirements, each walked entry by
    entry over the window dn = |G| * n."""
    h = normalize(h)
    dn = h.group.order * n
    if not oracle_one_sided_periodic(h, dn):
        return False
    if not s_sum(h, dn).is_zero():
        return False
    return oracle_relations(h, dn) is None


def entries_agree(out: EpVector, oracle, radius: int = 64) -> bool:
    """Does the materialized vector match the oracle on |k| <= radius?"""
    for k in range(-radius, radius + 1):
        if k == 0:
            continue
        if out.entry(k) != oracle(k):
            return False
    return True


def random_vector(
    group: FinAbGroup,
    rng: random.Random,
    max_prefix: int = 2,
    max_period: int = 3,
) -> EpVector:
    """A seeded random normalized generating vector."""
    elems = list(group.elements())
    for _ in range(200):
        words = []
        for is_period in (False, True, False, True):
            low = 1 if is_period else 0
            length = rng.randint(low, max_period if is_period else max_prefix)
            words.append(tuple(rng.choice(elems) for _ in range(length)))
        h = normalize(EpVector(group, words[0], words[1], words[2], words[3]))
        if generates(h):
            return h
    raise RuntimeError("could not sample a generating vector")


def h_pow_fixed(group: FinAbGroup, params: tuple[GroupElem, ...]) -> EpVector:
    """The vector fixed by the n-th hyperbolic power with h_{-1..-n} = params.

    Both tails follow from the fixed-point recurrences: the left side repeats
    with step -c (c the weighted parameter sum), the first n right entries
    come from the middle-branch formula, and the right side repeats with
    step +c.
    """
    n = len(params)
    c = group.zero()
    for j, a in enumerate(params, start=1):
        c = c + a.scale(2 ** (n - j))
    reps = n * c.order()
    left = list(params)
    while len(left) < reps:
        left.append(left[-n] - c)
    right = []
    for k in range(1, n + 1):
        acc = c - params[n - k].scale(2)
        for j in range(1, n - k + 1):
            acc = acc - params[j - 1].scale(3 * 2 ** (n - k - j))
        right.append(acc)
    while len(right) < reps:
        right.append(right[-n] + c)
    return normalize(EpVector(group, (), tuple(right), (), tuple(left)))


def element_words(h: EpVector) -> tuple:
    """The four words of h as group elements."""
    return h.right_prefix, h.right_period, h.left_prefix, h.left_period


def oracle_format_vector(h: EpVector) -> str:
    """The serialization of h, from its element words joined with `str`."""
    rpre, rper, lpre, lper = element_words(h)

    def tail(prefix, period):
        body = "(" + ",".join(str(e) for e in period) + ")"
        return ",".join(str(e) for e in prefix) + "|" + body if prefix else body

    return f"L={tail(lpre, lper)};R={tail(rpre, rper)}"


def public_copy(h: EpVector) -> EpVector:
    """h rebuilt from its element words through the public constructor, so
    the copy remembers nothing about its letters."""
    return EpVector(h.group, *element_words(h))


def oracle_canonical_class(h: EpVector) -> EpVector:
    """The image with the least residue words over every automorphism, by
    brute force: each image maps the elements of h's words one by one and
    is normalized by the public constructor.  The least image is the class,
    so it compares equal to `canonical_class(h)`."""
    images = (
        EpVector(h.group, *(tuple(phi(e) for e in w) for w in element_words(h)))
        for phi in automorphisms(h.group)
    )
    key = lambda v: [[e.residues for e in w] for w in element_words(v)]
    return min(images, key=key)


def oracle_image(h: EpVector, oracle) -> EpVector:
    """The vector with entries oracle(k), read off a fixed window.

    A parabolic letter lengthens the prefixes by at most 2 and multiplies
    the period lcm(|L|, |R|) by the order of an element, which divides the
    group's exponent; one further period is checked to repeat.
    """
    exponent = math.lcm(*h.group.moduli)
    k0 = max(len(h.right_prefix), len(h.left_prefix)) + 2
    p = math.lcm(len(h.right_period), len(h.left_period)) * exponent
    words = []
    for sign in (1, -1):
        vals = [oracle(sign * k) for k in range(1, k0 + 2 * p + 1)]
        assert vals[k0 + p :] == vals[k0 : k0 + p]
        words += [tuple(vals[:k0]), tuple(vals[k0 : k0 + p])]
    return EpVector(h.group, *words)


def oracle_orbit_bfs(h: EpVector, cap: int):
    """Breadth-first orbit search run on the window oracles of the four
    parabolic moves and on `oracle_canonical_class`.

    Returns (representatives, p1_edges, p2_edges, cap_hit) in the layout of
    `orbit_bfs`: moves in the order P1, P1^-1, P2, P2^-1, and a vertex that
    was never expanded has None edges.
    """
    moves = (oracle_p1, oracle_p1_inv, oracle_p2, oracle_p2_inv)
    reps = [oracle_canonical_class(h)]
    index = {reps[0]: 0}
    p1, p2 = {}, {}
    cap_hit = False
    i = 0
    while i < len(reps) and not cap_hit:
        rep = reps[i]
        for move, forward in zip(moves, (p1, None, p2, None)):
            img = oracle_image(rep, lambda k: move(rep, k))
            cls = oracle_canonical_class(img)
            j = index.get(cls)
            if j is None:
                if len(reps) >= cap:
                    cap_hit = True
                    break
                j = index[cls] = len(reps)
                reps.append(cls)
            if forward is not None:
                forward[i] = j
        i += 1
    edges = lambda d: tuple(d.get(v) for v in range(len(reps)))
    return tuple(reps), edges(p1), edges(p2), cap_hit


def oracle_span(group: FinAbGroup, gens) -> frozenset:
    """The subgroup generated by gens, closed with GroupElem arithmetic."""
    elems = {group.zero()}
    frontier = set(elems)
    while frontier:
        frontier = {a + g for a in frontier for g in gens} - elems
        elems |= frontier
    return frozenset(elems)


def oracle_automorphisms(group: FinAbGroup) -> list[tuple[int, ...]]:
    """The code tables of Aut(G), enumerated on residue tuples.

    Factor generator i goes to each element x of order n_i in turn, in
    element order.  The images of the elements of the first i factors are
    kept as residue tuples in code order; choosing x extends them by r * x
    for r < n_i, and x is kept only while those images stay distinct.
    """
    moduli = group.moduli
    elems, index = element_index(group)
    candidates = [[x for x in elems if x.order() == n] for n in moduli]
    found = []

    def rec(i: int, table: list) -> None:
        if i == len(moduli):
            found.append(tuple([index[b] for b in table]))
            return
        for x in candidates[i]:
            grown = [
                tuple([(a + r * b) % m for a, b, m in zip(acc, x.residues, moduli)])
                for acc in table
                for r in range(moduli[i])
            ]
            if len(set(grown)) == len(grown):
                rec(i + 1, grown)

    rec(0, [(0,) * len(moduli)])
    return found


def oracle_span_order(group: FinAbGroup, gens) -> int:
    """Order of the subgroup generated by gens."""
    return len(oracle_span(group, gens))


def oracle_end_subgroup(h: EpVector, n_window: int) -> frozenset:
    """G' by the pairwise rule: the alternating sum sum_{k=-N}^{N-1} (-1)^k h_k
    (N = n_window, h_0 = 0) and every difference a - b of two letters that
    repeat at infinity, closed with GroupElem arithmetic."""
    alt = h.group.zero()
    for k in range(-n_window, n_window):
        if k:
            alt = alt + (h.entry(k) if k % 2 == 0 else -h.entry(k))
    acc = set(h.right_period) | set(h.left_period)
    return oracle_span(h.group, [alt] + [a - b for a in acc for b in acc if a != b])


def raw_vector(group: FinAbGroup, rng: random.Random) -> EpVector:
    """A seeded random vector built from words that often are not the normal
    form: periods may repeat and prefixes may end in letters the period would
    absorb.  The constructor normalizes them."""
    elems = list(group.elements())
    word = lambda lo, hi: tuple(rng.choice(elems) for _ in range(rng.randint(lo, hi)))
    rper, lper = word(1, 3), word(1, 3)
    rpre = word(0, 2) + (rper[-1:] if rng.random() < 0.3 else ())
    lpre = word(0, 2) + (lper[-1:] if rng.random() < 0.3 else ())
    if rng.random() < 0.3:
        rper = rper * 2
    return EpVector(group, rpre, rper, lpre, lper)


def oracle_word_entry(words: tuple[tuple, ...], k: int) -> GroupElem:
    """h_k read straight off the words as spelled (right prefix, right
    period, left prefix, left period), by writing the side out to |k|."""
    rpre, rper, lpre, lper = words
    prefix, period = (rpre, rper) if k > 0 else (lpre, lper)
    return (prefix + period * abs(k))[abs(k) - 1]


def oracle_normal_side(prefix: tuple, period: tuple) -> tuple[tuple, tuple]:
    """The shortest prefix and primitive period spelling the side word
    prefix + period + period + ..., by brute force.

    Every (prefix length a, period length d) pair with a <= len(prefix) and
    d <= len(period) is tried over a window of the word, a ascending and then
    d, and the first pair under which every window entry from a on repeats
    d entries later is returned.  The window runs four periods past the
    prefix, so by Fine and Wilf's theorem a pair that holds on it holds on
    the whole word.
    """
    window = prefix + period * 4
    for a in range(len(prefix) + 1):
        for d in range(1, len(period) + 1):
            if window[a : len(window) - d] == window[a + d :]:
                return window[:a], window[a : a + d]
    raise AssertionError("the given spelling itself always holds")


def weak_entry(bits: tuple[int, ...], j: int) -> int:
    """Entry j (any integer) of the weakly n-periodic Z2 extension of bits."""
    n = len(bits)
    q, r = divmod(j, n)
    base = 0 if r == 0 else bits[r - 1]
    return (base + q * bits[n - 1]) % 2


def code_of(bits: tuple[int, ...]) -> int:
    """The marker-bit code of a bit tuple: (1 << n) | x, h_1 most significant."""
    code = 1
    for b in bits:
        code = 2 * code + b
    return code


def bits_of(code: int) -> tuple[int, ...]:
    """The bit tuple of a marker-bit code."""
    n = code.bit_length() - 1
    return tuple((code >> (n - 1 - i)) & 1 for i in range(n))


def oracle_p1_bits(bits: tuple[int, ...]) -> tuple[int, ...]:
    """P1 on bit tuples by walking the extension: h'_k = h_{n-k} + h_n."""
    n = len(bits)
    hn = bits[n - 1]
    out = []
    for k in range(1, n):
        out.append((weak_entry(bits, n - k) + hn) % 2)
    out.append(hn)
    return tuple(out)


def oracle_p2_bits(bits: tuple[int, ...]) -> tuple[int, ...]:
    """P2 on bit tuples by walking the extension: h'_k = h_{-1} + h_{-k-1}."""
    n = len(bits)
    hm1 = weak_entry(bits, -1)
    return tuple((hm1 + weak_entry(bits, -k - 1)) % 2 for k in range(1, n + 1))


def oracle_orbit(bits: tuple[int, ...]) -> set:
    """The orbit of bits under the oracle moves."""
    seen = {bits}
    frontier = [bits]
    while frontier:
        frontier = [
            img
            for b in frontier
            for img in (oracle_p1_bits(b), oracle_p2_bits(b))
            if img not in seen
        ]
        seen.update(frontier)
    return seen


def oracle_has_loop(orbit) -> bool:
    """Does one of the oracle moves fix some member?"""
    return any(oracle_p1_bits(b) == b or oracle_p2_bits(b) == b for b in orbit)
