"""Degree-two covers: weakly periodic bit vectors and their orbit census.

Over the two-element group, vectors fixed by the n-th hyperbolic power are
exactly the weakly n-periodic ones (h_{k+n} - h_k = h_n for all k), and each
is determined by its first n entries b = (h_1, ..., h_n) with b != 0.  The
whole bi-infinite vector follows from the closed form
h_{q*n+r} = h_r + q * h_n (indices taken over the integers, h_0 = 0), which
also makes every such vector fully 2n-periodic.  W_n is the set of these bit
tuples; W_n* keeps those whose minimal weak period is exactly n.

Inside this module a bit tuple is one int, its marker-bit code
(1 << n) | x, where x holds h_1 as its most significant of n bits and h_n as
its least.  The code alone gives n (code.bit_length() - 1), and numeric
order on the codes of one n is the lexicographic order of the tuples.
`wn_bits`, `p1_bits` and `p2_bits` take and give codes; `WnElement` keeps a
tuple, and `enumerate_wn` and `enumerate_wn_star` convert at that edge.

The parabolic letters act on codes in closed form (a bit reversal and a
shear), so censuses never need the general vector machinery (tests
cross-check the two routes).

The census shape law: on W_n* every Striezel orbit has exactly n members and
every Kranz orbit 2n.  Over Z2, -I is trivial and H = -P1 P2, so H acts as
T = P1 o P2 (P2 first).  P1 and P2 are involutions, so P1 T P1 = P2 T P2 =
T^-1, and as H^d fixes exactly the weakly d-periodic vectors, T, P1 and P2
keep every weak period, and so W_n*.  The d >= 1 with T^d x = x, for x in
W_n*, are the multiples of the least one d0 and include n, so d0 <= n; x is
weakly d0-periodic, so d0 >= n: every T-orbit in W_n* has n members.  An
orbit of the two involutions is a path with a loop (a member that P1 or P2
fixes) at each end, a Striezel, or a cycle whose edges alternate between
them, a Kranz.  T moves a member two steps along it, turning at a loop, so
it cycles all k members of a path (k = n) and splits a cycle of 2k members
into two T-orbits of k (k = n).  The tests check the law for every n up to
the enumeration bound.

The census walks U = P2 o P1 (P1 first), which is T^-1 and has T's orbits.
P1 sends h_k to h_{n-k} + h_n for k < n and keeps h_n; P2 sends h_k to
h_{n-1-k} + h_{n-1} for k <= n - 2 and keeps h_{n-1} and h_n (`p1_bits`,
`p2_bits`).  Composed, the h_n terms cancel: U_k = h_{k+1} + h_1 for
k <= n - 2, U_{n-1} = h_n + h_1 and U_n = h_n.  On the n value bits v of a
code, with low = 2^n - 1, that is a shift and a conditional complement,

    U(v) = ((v << 1) & low) ^ ((low ^ 1) if h_1 else 0) | h_n,

a few int operations with no table and no bound on n.  P2 = U o P1, so the
two moves generate U and P1, and the orbit of x is the U-orbit of x together
with the U-orbit of P1(x); P1 T P1 = T^-1 makes P1 map U-orbits onto
U-orbits.  A Striezel is one T-orbit, so P1(x) lies in the U-orbit of x.  A
Kranz is two, and P1, which moves a member one step along the cycle where U
moves it two, swaps them.  So `_orbit_of` walks the n members of the U-orbit
of x, makes one P1 move, and walks the U-orbit of P1(x) only for a Kranz.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from functools import lru_cache

from .groups import Record, parse_group
from .vectors import EpVector, code_window

_Z2 = parse_group("Z2")

# Largest n of `wn_bits`, `orbit_census`, `p1_bits` and `p2_bits`.
DEFAULT_ENUM_BOUND = 20
# Largest n `count_closed_forms` accepts (its counts have about 0.3 n digits),
# and largest r - 1 `realize_rank` accepts (its vector has about 4 r entries).
MAX_COUNTS_N = 10_000


def _reversals(width: int) -> tuple[int, ...]:
    """t[b] is the width-bit b reversed, built by doubling: a k + 1 bit
    number with leading bit c reverses to its other k bits reversed, shifted
    up one, with c as the last bit."""
    t = [0]
    for _ in range(width):
        t = [r << 1 for r in t] + [r << 1 | 1 for r in t]
    return tuple(t)


# _REV[b] is the ten-bit b reversed; two lookups reverse p1_bits' <= 19 bits.
_REV = _reversals(10)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_ENUM_BOUND:
        raise ValueError(f"n={n} exceeds the enumeration bound {DEFAULT_ENUM_BOUND}")


def _bits(code: int) -> tuple[int, ...]:
    return tuple(map(int, f"{code:b}"[1:]))


class WnElement(Record):
    """A weakly n-periodic degree-two cover, keyed by bits (h_1, ..., h_n)."""

    __slots__ = _fields = ("n", "bits")

    def __init__(self, n: int, bits: tuple[int, ...]) -> None:
        if n < 1 or len(bits) != n:
            raise ValueError("bits must have length n >= 1")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        if not any(bits):
            raise ValueError("the zero tuple does not generate the group")
        self._store(n, bits)

    def bitstring(self) -> str:
        return "".join(map(str, self.bits))


def _entry(bits: tuple[int, ...], j: int) -> int:
    """Entry j of the weakly n-periodic extension of bits, any integer j."""
    n = len(bits)
    q, r = divmod(j, n)
    base = 0 if r == 0 else bits[r - 1]
    return (base + q * bits[n - 1]) % 2


def expand(e: WnElement) -> EpVector:
    """The vector of e: right period (h_1..h_2n), left period (h_-1..h_-2n),
    spelled in Z2's element codes, which are its residues."""
    n = e.n
    right = tuple([_entry(e.bits, j) for j in range(1, 2 * n + 1)])
    left = tuple([_entry(e.bits, -j) for j in range(1, 2 * n + 1)])
    return EpVector._from_codes(_Z2, (), right, (), left)


def is_weakly_n_periodic(h: EpVector, n: int) -> bool:
    """Does h_{k+n} - h_k = h_n hold for every integer k?  (|G| must be 2.)

    The only group of order 2 is Z2, whose element codes are its residues,
    so the test runs on the code window mod 2.
    """
    if h.group.order != 2:
        raise ValueError("weak periodicity is defined over two-element groups")
    if n < 1:
        raise ValueError("n must be >= 1")
    m = max(len(h.rpre), len(h.lpre))
    m += 2 * max(len(h.rper), len(h.lper)) + 3 * n
    w = code_window(h, m)
    step = w[m + n]
    return all((b - a) % 2 == step for a, b in zip(w, w[n:]))


def wn_bits(n: int, star: bool) -> Iterator[int]:
    """The codes of W_n, or of W_n* when `star`, lazily in increasing order
    (the lexicographic order of the bit tuples)."""
    _check_n(n)
    codes = range(1 << n, 2 << n)
    if star:
        return itertools.filterfalse(_outside_star(n).__contains__, codes)
    return iter(codes[1:])


def enumerate_wn(n: int) -> list[WnElement]:
    """All of W_n in lexicographic bit order."""
    return [WnElement(n, _bits(code)) for code in wn_bits(n, star=False)]


def _outside_star(n: int) -> set[int]:
    """The codes of the n-bit tuples outside W_n*: the zero tuple and the
    members of W_n whose minimal weak period is less than n.

    A member of W_n has minimal weak period m < n exactly when it is the
    weakly m-periodic extension of its first m bits, for a proper divisor m
    of n (that extension is weakly n-periodic too).  The extension obeys
    h_j = h_{j-m} + h_m, so each block of m bits is the one before it,
    complemented when h_m is 1.  There are 2^m extensions per divisor m, the
    zero tuple among them.
    """
    outside = {1 << n}
    for m in range(1, n):
        if n % m == 0:
            ones = (1 << m) - 1
            for head in range(1 << m):
                flip = ones if head & 1 else 0
                code, block = 1, head
                for _ in range(n // m):
                    code = code << m | block
                    block ^= flip
                outside.add(code)
    return outside


def enumerate_wn_star(n: int) -> list[WnElement]:
    """Members of W_n whose minimal weak period is exactly n, in bit order."""
    return [WnElement(n, _bits(code)) for code in wn_bits(n, star=True)]


@lru_cache(maxsize=None)
def _wn_star_count(n: int) -> int:
    total = 2**n - 1
    for m in range(1, n):
        if n % m == 0:
            total -= _wn_star_count(m)
    return total


def p1_bits(code: int) -> int:
    """The P1 move on codes: reverse h_1..h_{n-1} and shear them by h_n.

    Over Z2 the 2*S term of P1's formula vanishes, so h'_k = h_{-k}, and
    weak n-periodicity gives h_{-k} = h_{n-k} + h_n (so h'_n = h_n).  The
    reversed field is the m = n - 1 bits above bit 0, read through two
    lookups in the ten-bit table, so n is at most 20 (ValueError beyond it).
    """
    m = code.bit_length() - 2
    if m >= DEFAULT_ENUM_BOUND:
        _check_n(m + 1)
    v = code >> 1 & (1 << m) - 1
    r = (_REV[v & 1023] << 10 | _REV[v >> 10]) >> 20 - m
    if code & 1:
        r ^= (1 << m) - 1
    return (1 << m | r) << 1 | code & 1


def p2_bits(code: int) -> int:
    """The P2 move on codes, via h'_k = h_{-1} + h_{-k-1}.

    That is P2's formula over Z2, where its 2x terms vanish.  Put
    h_{-j} = h_{n-j} + h_n: the h_n terms cancel for k < n - 1, and
    h'_{n-1} = h_{n-1}, h'_n = h_n.  So P2 is P1 on the n - 1 bits above
    bit 0, with h_n kept; n is at most 20, and at n = 1 P2 is the identity.
    """
    n = code.bit_length() - 1
    _check_n(n)
    return p1_bits(code >> 1) << 1 | code & 1 if n > 1 else code


def _u_orbit(start: int, n: int) -> list[int]:
    """The U-orbit of the n-bit code start: U(start), ..., U^n(start), which
    must be start again (RuntimeError if it is not).

    U sends the code (1 << n) | v to (1 << n) | U(v) (module docstring).
    The code shifted left holds its marker at bit n + 1 and h_1 at bit n,
    and U keeps h_n.  So one XOR with `plain` (h_1 = 0) or `sheared`
    (h_1 = 1) moves the marker down to bit n, complements bits 1..n-1 when
    h_1 is 1, and writes h_n back to bit 0.
    """
    low = (1 << n) - 1
    h1 = 1 << n - 1
    hn = start & 1
    plain = 3 << n | hn
    sheared = (2 << n) ^ (low ^ 1) | hn
    code = start
    members = []
    for _ in range(n):
        code = (code << 1) ^ (sheared if code & h1 else plain)
        members.append(code)
    if code != start:
        raise RuntimeError(f"a U-orbit did not close after n = {n} steps")
    return members


def _orbit_of(seed: int) -> tuple[list[int], bool]:
    """The orbit of seed under both moves, and whether a move fixes a member.

    The orbit is the U-orbit of seed together with the U-orbit of P1(seed)
    (module docstring): one U-orbit of n members for a Striezel, which P1
    maps onto itself, and two for a Kranz.  Each U-orbit is walked once, and
    the only bit move is one P1.
    """
    n = seed.bit_length() - 1
    members = _u_orbit(seed, n)
    mirror = p1_bits(seed)
    if mirror in members:
        return members, True
    return members + _u_orbit(mirror, n), False


def count_closed_forms(n: int) -> dict:
    """Closed-form counts for W_n: census sizes and fixed-point counts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_COUNTS_N:
        raise ValueError(f"n={n} exceeds the counts bound {MAX_COUNTS_N}")
    if n % 2 == 0:
        striezel = 3 * 2 ** (n // 2 - 1) - 1
    else:
        striezel = 2 ** ((n + 1) // 2) - 1
    return {
        "wn_star": _wn_star_count(n),
        "fixed_p1": 2 ** ((n + 1) // 2) - 1,
        "fixed_p2": 2 ** (n // 2 + 1) - 1,
        "fixed_both": 1,
        "striezel_wn": striezel,
    }


def orbit_census(n: int) -> dict:
    """Orbit decomposition of W_n* under the two parabolic moves.

    Each orbit carries its size, its shape and its members as bitstrings in
    lexicographic order.  One pass over the n-bit codes in increasing order
    skips those already placed (outside W_n* or in an earlier orbit) and
    seeds every orbit with its least member, so the orbits come out sorted
    by it.  An orbit is a Striezel path or a Kranz cycle (module docstring).
    W_n* is move-invariant, so a walk that meets a placed code, or one code
    twice, is a fault (RuntimeError).
    """
    _check_n(n)
    outside = _outside_star(n)
    wn_star = 2**n - len(outside)
    # placed[code] is 1 for the codes outside W_n* and in the orbits so far.
    placed = bytearray(2 << n)
    for code in outside:
        placed[code] = 1
    orbits = []
    seed = placed.find(0, 1 << n)
    while seed >= 0:
        orb, has_loop = _orbit_of(seed)
        for code in orb:
            if placed[code]:
                raise RuntimeError("an orbit left W_n*, which is move-invariant")
            placed[code] = 1
        orb.sort()
        orbits.append(
            {
                "size": len(orb),
                "type": "Striezel" if has_loop else "Kranz",
                "members": [bin(code)[3:] for code in orb],
            }
        )
        seed = placed.find(0, seed + 1)
    return {
        "n": n,
        "wn_star": wn_star,
        "striezel": sum(1 for o in orbits if o["type"] == "Striezel"),
        "kranz": sum(1 for o in orbits if o["type"] == "Kranz"),
        "orbits": orbits,
    }


def striezel_orbits(n: int) -> int:
    return orbit_census(n)["striezel"]


def kranz_orbits(n: int) -> int:
    return orbit_census(n)["kranz"]


def realize_rank(r: int) -> EpVector:
    """A vector whose projective symmetry group is free of rank exactly r.

    Returns the expansion of the least member of W_{r-1}* lying in an orbit
    with a parabolic loop; that orbit has r - 1 vertices, so the stabilizer
    is free of rank r.  With n = r - 1 that member is e = (0, ..., 0, 1):
    it is the least nonzero tuple, it lies in W_n* because the first m < n
    bits extend to zeros only, and P2 fixes it, which is a loop.
    """
    if r < 2:
        raise ValueError("rank must be >= 2")
    n = r - 1
    if n > MAX_COUNTS_N:
        raise ValueError(f"rank {r} exceeds the rank bound {MAX_COUNTS_N + 1}")
    return expand(WnElement(n, (0,) * (n - 1) + (1,)))
