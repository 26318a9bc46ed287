"""Eventually periodic bi-infinite vectors over a finite abelian group.

A vector assigns a group element h_k to every nonzero integer k (h_0 is
pinned to zero and never stored).  Each side is a finite prefix followed by a
repeating period; the left side is indexed outward, so left_prefix[0] is
h_{-1} and the left period repeats toward -infinity.  Entry k = 0 is not a
legal index for `entry`.

Every vector is stored in normal form: on each side, the shortest prefix and
the primitive period that spell its word.  The constructor computes it, so
`==` and `hash` are equality of bi-infinite vectors, and a vector is
one-sided periodic exactly when both stored prefixes are empty.

Serialization: ``L=<tail>;R=<tail>`` with ``tail := [word ["|"]] "(" word ")"``
and ``word := elem ("," elem)*``; an element is colon-joined residues.
Whitespace is forbidden.  Example: ``L=(0);R=1,1|(0)`` is the vector with
h_1 = h_2 = 1 and every other entry zero.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .groups import (
    FinAbGroup,
    GroupElem,
    automorphisms,
    element_index,
    parse_elem,
    span,
)


class VectorParseError(ValueError):
    """Raised for a malformed vector spec string."""


@dataclass(frozen=True)
class EpVector:
    """One eventually periodic bi-infinite vector; any spelling is stored in
    normal form, so two spellings of one vector compare and hash equal."""

    group: FinAbGroup
    right_prefix: tuple[GroupElem, ...]
    right_period: tuple[GroupElem, ...]
    left_prefix: tuple[GroupElem, ...]
    left_period: tuple[GroupElem, ...]

    def __post_init__(self) -> None:
        if not self.right_period or not self.left_period:
            raise ValueError("periods must be nonempty")
        if any(e.group != self.group for e in self.letters()):
            raise ValueError("vector letter lives in a different group")
        rpre, rper = _normal_side(self.right_prefix, self.right_period)
        lpre, lper = _normal_side(self.left_prefix, self.left_period)
        object.__setattr__(self, "right_prefix", rpre)
        object.__setattr__(self, "right_period", rper)
        object.__setattr__(self, "left_prefix", lpre)
        object.__setattr__(self, "left_period", lper)

    def entry(self, k: int) -> GroupElem:
        """h_k for nonzero integer k."""
        if k == 0:
            raise ValueError("entry index 0 is pinned to zero and not stored")
        if k > 0:
            prefix, period = self.right_prefix, self.right_period
            pos = k
        else:
            prefix, period = self.left_prefix, self.left_period
            pos = -k
        if pos <= len(prefix):
            return prefix[pos - 1]
        return period[(pos - len(prefix) - 1) % len(period)]

    def letters(self) -> tuple[GroupElem, ...]:
        return (
            self.right_prefix + self.right_period + self.left_prefix + self.left_period
        )

    def key(self):
        """Total-order key: residue tuples of the four words."""
        return (
            tuple(e.residues for e in self.right_prefix),
            tuple(e.residues for e in self.right_period),
            tuple(e.residues for e in self.left_prefix),
            tuple(e.residues for e in self.left_period),
        )

    def __str__(self) -> str:
        return format_vector(self)


def _normal_side(prefix, period) -> tuple[tuple, tuple]:
    """The shortest prefix and primitive period spelling one side's word."""
    n, d = len(period), 1
    while n % d or period != period[:d] * (n // d):
        d += 1
    period = period[:d]
    # Pull the tail of the prefix into the repeating part while each letter is
    # the one the period would place there; every pulled letter rotates the
    # period right by one.
    j = 0
    while j < len(prefix) and prefix[-1 - j] == period[-1 - j % d]:
        j += 1
    r = d - j % d
    return prefix[: len(prefix) - j], period[r:] + period[:r]


def normalize(h: EpVector) -> EpVector:
    """h itself, as every `EpVector` is stored in normal form.

    Kept in the public API: callers such as the tests and the benchmark
    workloads still spell the step out.
    """
    return h


def generates(h: EpVector) -> bool:
    """Do the letters of h generate the whole group?"""
    return span(h.group, h.letters()).index == 1


def window(h: EpVector, m: int) -> tuple[GroupElem, ...]:
    """h_{-m..m} as a tuple w with w[m + k] == h_k (w[m] is h_0 = 0)."""

    def side(prefix, period):
        return (prefix + period * -(-m // len(period)))[:m]

    left = side(h.left_prefix, h.left_period)
    return left[::-1] + (h.group.zero(),) + side(h.right_prefix, h.right_period)


def drift(h: EpVector, p: int) -> GroupElem:
    """(p/|L|) * sum(L) - (p/|R|) * sum(R) for the period words L and R.

    For p a multiple of lcm(|L|, |R|) this is what the running sum
    S(t) = sum_{j=1..t} (h_{-j} - h_j) gains over any p indexes past both
    prefixes: S(t + p) - S(t).
    """
    zero = h.group.zero()
    left, right = sum(h.left_period, zero), sum(h.right_period, zero)
    return left.scale(p // len(h.left_period)) - right.scale(p // len(h.right_period))


def is_periodic(h: EpVector) -> int | None:
    """Least p with h_{k+p} = h_k for every integer k, or None.

    Full bi-infinite periodicity forces both prefixes of the normal form to
    be empty; each side is then p-periodic for p = lcm(|L|, |R|), so only the
    seam at zero is left: h_{-p..0} must equal h_{0..p}.
    """
    if h.right_prefix or h.left_prefix:
        return None
    p = math.lcm(len(h.right_period), len(h.left_period))
    w = window(h, p)
    return p if w[:-p] == w[p:] else None


def apply_aut(phi, h: EpVector) -> EpVector:
    """Apply a group automorphism letterwise."""
    mapw = lambda w: tuple(phi(e) for e in w)
    return EpVector(
        h.group,
        mapw(h.right_prefix),
        mapw(h.right_period),
        mapw(h.left_prefix),
        mapw(h.left_period),
    )


@dataclass(frozen=True)
class VectorClass:
    """An orbit of vectors under letterwise group automorphisms.

    Stored as the lexicographically least representative, so equality and
    hashing are representative equality.
    """

    representative: EpVector

    @property
    def group(self) -> FinAbGroup:
        return self.representative.group


def canonical_class(h: EpVector) -> VectorClass:
    """The automorphism class of h (requires generating letters).

    The representative is the least `key()` among the images phi(h) over all
    automorphisms phi.  A letterwise automorphism is a bijection on letters,
    so it preserves which letters are equal: it commutes with the normal
    form, and every image of h has the same four word lengths.  Comparing
    keys is then comparing the flattened letter sequences (right prefix,
    right period, left prefix, left period) lexicographically, so the
    minimum is found letter by letter: keep the automorphisms whose image of
    the next letter is least, until one is left.  Automorphisms that tie on
    every letter give the same image.  Letters already seen (and zero, which
    every automorphism fixes) cannot split the survivors and are skipped.
    """
    if not generates(h):
        raise ValueError("vector letters do not generate the group")
    survivors = automorphisms(h.group)
    _, index = element_index(h.group)
    codes = [index[e.residues] for e in h.letters()]
    seen = {0}
    for c in codes:
        if len(survivors) == 1:
            break
        if c in seen:
            continue
        seen.add(c)
        least = min(phi.codes[c] for phi in survivors)
        survivors = [phi for phi in survivors if phi.codes[c] == least]
    return VectorClass(apply_aut(survivors[0], h))


_TAIL_RE = re.compile(r"([0-9:,]*)(\|?)\(([0-9:,]*)\)")


def _parse_word(group: FinAbGroup, text: str, what: str) -> tuple[GroupElem, ...]:
    if text == "":
        return ()
    parts = text.split(",")
    try:
        return tuple(parse_elem(group, part) for part in parts)
    except ValueError as exc:
        raise VectorParseError(f"bad {what} in vector spec: {exc}") from exc


def _parse_tail(group: FinAbGroup, text: str, side: str):
    m = _TAIL_RE.fullmatch(text)
    if m is None:
        raise VectorParseError(f"malformed {side} tail: {text!r}")
    prefix_txt, _, period_txt = m.groups()
    if period_txt == "":
        raise VectorParseError(f"empty period in {side} tail: {text!r}")
    prefix = _parse_word(group, prefix_txt, f"{side} prefix")
    period = _parse_word(group, period_txt, f"{side} period")
    return prefix, period


def parse_vector(group: FinAbGroup, spec: str) -> EpVector:
    """Parse a vector spec like ``L=(0);R=1,1|(0)``."""
    m = re.fullmatch(r"L=([^;]*);R=(.*)", spec)
    if m is None:
        raise VectorParseError(f"malformed vector spec: {spec!r}")
    left_txt, right_txt = m.groups()
    lpre, lper = _parse_tail(group, left_txt, "left")
    rpre, rper = _parse_tail(group, right_txt, "right")
    return EpVector(group, rpre, rper, lpre, lper)


def _format_word(word: tuple[GroupElem, ...]) -> str:
    return ",".join(str(e) for e in word)


def _format_tail(prefix, period) -> str:
    if prefix:
        return f"{_format_word(prefix)}|({_format_word(period)})"
    return f"({_format_word(period)})"


def format_vector(h: EpVector) -> str:
    """Serialize h; parse_vector(h.group, format_vector(h)) == h."""
    return (
        f"L={_format_tail(h.left_prefix, h.left_period)};"
        f"R={_format_tail(h.right_prefix, h.right_period)}"
    )


def from_entries(group: FinAbGroup, entries: dict[int, GroupElem]) -> EpVector:
    """The vector with the given nonzero-index entries and zero tails."""
    zero = group.zero()
    if 0 in entries:
        raise ValueError("index 0 is pinned to zero")
    hi = max((k for k in entries if k > 0), default=0)
    lo = max((-k for k in entries if k < 0), default=0)
    rpre = tuple(entries.get(k, zero) for k in range(1, hi + 1))
    lpre = tuple(entries.get(-k, zero) for k in range(1, lo + 1))
    return EpVector(group, rpre, (zero,), lpre, (zero,))
