"""Shared test helpers: direct-formula oracles, random vectors, constructions.

The oracle functions evaluate the defining entry formulas of each letter
action directly on a window, independently of the prefix/period synthesis in
the package, so the two routes check each other.
"""

from __future__ import annotations

import random

from chamcovers import (
    EpVector,
    FinAbGroup,
    GroupElem,
    VectorClass,
    apply_aut,
    automorphisms,
    generates,
    normalize,
)


def s_sum(h: EpVector, t: int) -> GroupElem:
    """S(t) = sum_{j=1..t} (-h_j + h_{-j})."""
    total = h.group.zero()
    for j in range(1, t + 1):
        total = total + (h.entry(-j) - h.entry(j))
    return total


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


def oracle_h_pow(h: EpVector, n: int, k: int) -> GroupElem:
    c = h.group.zero()
    for j in range(1, n + 1):
        c = c + h.entry(-j).scale(2 ** (n - j))
    if 1 <= k <= n:
        acc = c - h.entry(k - n - 1).scale(2)
        for j in range(1, n - k + 1):
            acc = acc - h.entry(-j).scale(3 * 2 ** (n - k - j))
        return acc
    return h.entry(k - n) + c


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


def oracle_canonical_class(h: EpVector) -> VectorClass:
    """The least key() over every normalized automorphism image, by brute force."""
    images = (normalize(apply_aut(phi, h)) for phi in automorphisms(h.group))
    return VectorClass(min(images, key=EpVector.key))


def oracle_span_order(group: FinAbGroup, gens) -> int:
    """Order of the subgroup generated by gens, closed with GroupElem arithmetic."""
    elems = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        frontier = [a + g for a in frontier for g in gens if a + g not in elems]
        elems.update(frontier)
    return len(elems)


def raw_vector(group: FinAbGroup, rng: random.Random) -> EpVector:
    """A seeded random vector, often not normalized: periods may repeat and
    prefixes may end in letters the period would absorb."""
    elems = list(group.elements())
    word = lambda lo, hi: tuple(rng.choice(elems) for _ in range(rng.randint(lo, hi)))
    rper, lper = word(1, 3), word(1, 3)
    rpre = word(0, 2) + (rper[-1:] if rng.random() < 0.3 else ())
    lpre = word(0, 2) + (lper[-1:] if rng.random() < 0.3 else ())
    if rng.random() < 0.3:
        rper = rper * 2
    return EpVector(group, rpre, rper, lpre, lper)


def weak_entry(bits: tuple[int, ...], j: int) -> int:
    """Entry j (any integer) of the weakly n-periodic Z2 extension of bits."""
    n = len(bits)
    q, r = divmod(j, n)
    base = 0 if r == 0 else bits[r - 1]
    return (base + q * bits[n - 1]) % 2


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
