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

The words are stored as tuples of element codes, the positions of
`groups.element_index`, and the letter actions read and write code words
directly.  Codes are assigned in lexicographic residue order, so comparing
two code words compares the residue words they stand for: the normal form,
`key()` order and therefore every canonical representative are the same as
for words of group elements.  Group elements appear only at the public
boundary: the constructor, the word properties, `entry`, `window`, `drift`
and parsing; formatting reads `groups.element_labels`.

A vector also remembers, once known, whether its letters generate G
(`generates`).  Vectors made from another one pass the answer on: every
letter action is Z-linear with a Z-linear inverse, so each output letter is
a Z-combination of input letters and back, and the two letter sets span the
same subgroup; an automorphism maps G onto G.  The remembered answer is not
part of `==`, `hash` or `key()`.

Serialization: ``L=<tail>;R=<tail>`` with ``tail := [word ["|"]] "(" word ")"``
and ``word := elem ("," elem)*``; an element is colon-joined residues.
Whitespace is forbidden.  Example: ``L=(0);R=1,1|(0)`` is the vector with
h_1 = h_2 = 1 and every other entry zero.
"""

from __future__ import annotations

import math
import re

from .groups import (
    Automorphism,
    FinAbGroup,
    GroupElem,
    element_index,
    element_labels,
    parse_elem,
    span,
)


class VectorParseError(ValueError):
    """Raised for a malformed vector spec string."""


_new = object.__new__


def _build(cls, group: FinAbGroup, rpre, rper, lpre, lper, gen) -> "EpVector":
    """The one maker of stored vectors: a new cls object (`EpVector` or
    `VectorClass`) holding the group, four code words in range and in
    normal form, and the generation answer `gen` (True, False or None)."""
    h = _new(cls)
    _put_group(h, group)
    _put_rpre(h, rpre)
    _put_rper(h, rper)
    _put_lpre(h, lpre)
    _put_lper(h, lper)
    _put_gen(h, gen)
    return h


class EpVector:
    """One eventually periodic bi-infinite vector; any spelling is stored in
    normal form, so two spellings of one vector compare and hash equal.

    The constructor takes the four words as group elements.  They are stored
    as code words `rpre`, `rper`, `lpre` and `lper` (right prefix and period,
    left prefix and period); the properties `right_prefix` ... `left_period`
    and `entry` give them back as the interned elements of `element_index`.

    `_gen` records whether the letters generate G, or is None while not yet
    known.  The public constructor, parsing and unpickling start at None;
    the letter kernel, reflections and `apply_aut` copy the value of the
    vector they read, as their outputs span what their inputs span.
    """

    __slots__ = ("group", "rpre", "rper", "lpre", "lper", "_gen")

    def __new__(
        cls,
        group: FinAbGroup,
        right_prefix: tuple[GroupElem, ...],
        right_period: tuple[GroupElem, ...],
        left_prefix: tuple[GroupElem, ...],
        left_period: tuple[GroupElem, ...],
    ) -> "EpVector":
        if not right_period or not left_period:
            raise ValueError("periods must be nonempty")
        _, index = element_index(group)
        words = []
        for word in (right_prefix, right_period, left_prefix, left_period):
            if any(e.group is not group and e.group != group for e in word):
                raise ValueError("vector letter lives in a different group")
            words.append(tuple([index[e.residues] for e in word]))
        return _build(cls, group, *_normal_form(*words), None)

    @classmethod
    def _from_codes(
        cls, group: FinAbGroup, rpre, rper, lpre, lper, gen: bool | None = None
    ) -> "EpVector":
        """The vector spelled by code words already known to be in range.

        `gen` is whether the letters generate G, when the caller knows it.
        """
        rpre, rper = _normal_side(rpre, rper)
        lpre, lper = _normal_side(lpre, lper)
        return _build(cls, group, rpre, rper, lpre, lper, gen)

    # The vector whose code words are in range and already in normal form.
    _from_normal_codes = classmethod(_build)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an EpVector")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an EpVector")

    def __reduce__(self):
        return type(self)._from_codes, (self.group, *self.key())

    @property
    def right_prefix(self) -> tuple[GroupElem, ...]:
        return _decode(self.group, self.rpre)

    @property
    def right_period(self) -> tuple[GroupElem, ...]:
        return _decode(self.group, self.rper)

    @property
    def left_prefix(self) -> tuple[GroupElem, ...]:
        return _decode(self.group, self.lpre)

    @property
    def left_period(self) -> tuple[GroupElem, ...]:
        return _decode(self.group, self.lper)

    def entry(self, k: int) -> GroupElem:
        """h_k for nonzero integer k."""
        return element_index(self.group)[0][self.code(k)]

    def code(self, k: int) -> int:
        """The code of h_k for nonzero integer k."""
        if k == 0:
            raise ValueError("entry index 0 is pinned to zero and not stored")
        if k > 0:
            prefix, period = self.rpre, self.rper
            pos = k
        else:
            prefix, period = self.lpre, self.lper
            pos = -k
        if pos <= len(prefix):
            return prefix[pos - 1]
        return period[(pos - len(prefix) - 1) % len(period)]

    def letter_codes(self) -> tuple[int, ...]:
        """Codes of the four words in key order."""
        return self.rpre + self.rper + self.lpre + self.lper

    def letters(self) -> tuple[GroupElem, ...]:
        return _decode(self.group, self.letter_codes())

    def key(self):
        """Total-order key: the four code words, which order like the
        words' residue tuples."""
        return (self.rpre, self.rper, self.lpre, self.lper)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EpVector):
            return NotImplemented
        return self.key() == other.key() and (
            self.group is other.group or self.group == other.group
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.rpre, self.rper, self.lpre, self.lper))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.group}, {format_vector(self)!r})"

    def __str__(self) -> str:
        return format_vector(self)


# The slots' own setters: they store a field past the refusing __setattr__,
# and cost less than object.__setattr__, which looks the field up by name.
# `_build` is their one caller that makes vectors.
_put_group, _put_rpre, _put_rper, _put_lpre, _put_lper, _put_gen = [
    EpVector.__dict__[name].__set__ for name in EpVector.__slots__
]


def _decode(group: FinAbGroup, word) -> tuple[GroupElem, ...]:
    """The interned elements with the given codes."""
    elems, _ = element_index(group)
    return tuple([elems[c] for c in word])


def _normal_form(rpre, rper, lpre, lper) -> tuple[tuple, tuple, tuple, tuple]:
    """The normal form of the four words: each side normalized on its own."""
    return (*_normal_side(rpre, rper), *_normal_side(lpre, lper))


def _normal_side(prefix, period) -> tuple[tuple, tuple]:
    """The shortest prefix and primitive period spelling one side's word.

    The primitive period is the least d dividing n = len(period) at which
    the period equals itself shifted by d.  Then the tail of the prefix is
    pulled into the repeating part while each letter is the one the period
    would place there, in one backwards scan that stops at the first
    mismatch; every pulled letter rotates the period right by one.
    """
    n, d = len(period), 1
    while n % d or period[d:] != period[:-d]:
        d += 1
    period = period[:d]
    if not prefix or prefix[-1] != period[-1]:
        return prefix, period
    m, j = len(prefix), 1
    while j < m and prefix[-1 - j] == period[-1 - j % d]:
        j += 1
    r = d - j % d
    return prefix[: m - j], period[r:] + period[:r]


def normalize(h: EpVector) -> EpVector:
    """h itself, as every `EpVector` is stored in normal form; kept in the
    public API for the tests and the benchmark workloads, which call it."""
    return h


def generates(h: EpVector) -> bool:
    """Do the letters of h generate the whole group?

    The first call on a vector sends each distinct nonzero letter to `span`
    once and keeps the answer on that vector.  A letter image, reflection or
    automorphism image starts with the answer of the vector it came from
    (see `EpVector`), so an orbit search calls `span` at most once, for
    its start.
    """
    if h._gen is None:
        distinct = dict.fromkeys(h.letter_codes())
        distinct.pop(0, None)
        gen = span(h.group, _decode(h.group, distinct)).index == 1
        _put_gen(h, gen)
    return h._gen


def require_generating(h: EpVector) -> EpVector:
    """h, if its letters generate the group; otherwise the ValueError that
    every command and function reading a cover raises."""
    if not generates(h):
        raise ValueError("vector letters do not generate the group")
    return h


def side_codes(prefix, period, m: int) -> tuple[int, ...]:
    """The first m codes of one side read outward: h_1 .. h_m from the right
    words, h_-1 .. h_-m from the left ones."""
    return (prefix + period * -(-m // len(period)))[:m]


def code_window(h: EpVector, m: int) -> tuple[int, ...]:
    """Codes of h_{-m..m} as a tuple w with w[m + k] the code of h_k
    (w[m] = 0, the code of h_0 = 0)."""
    return side_codes(h.lpre, h.lper, m)[::-1] + (0,) + side_codes(h.rpre, h.rper, m)


def window(h: EpVector, m: int) -> tuple[GroupElem, ...]:
    """h_{-m..m} as a tuple w with w[m + k] == h_k (w[m] is h_0 = 0)."""
    return _decode(h.group, code_window(h, m))


def drift(h: EpVector, p: int) -> GroupElem:
    """(p/|L|) * sum(L) - (p/|R|) * sum(R) for the period words L and R.

    For p a multiple of lcm(|L|, |R|) this is what the running sum
    S(t) = sum_{j=1..t} (h_{-j} - h_j) gains over any p indexes past both
    prefixes: S(t + p) - S(t).  Each factor's residue is summed, scaled and
    reduced on plain ints, and one element is built from the results; over
    a one-factor group the codes are summed as they are.
    """
    a, b = p // len(h.lper), p // len(h.rper)
    group = h.group
    if len(group.moduli) == 1:  # a code is its residue (`FinAbGroup.residue_columns`)
        (n,) = group.moduli
        return GroupElem(group, ((a * sum(h.lper) - b * sum(h.rper)) % n,))
    return GroupElem(
        group,
        tuple([
            (a * sum([col[c] for c in h.lper]) - b * sum([col[c] for c in h.rper])) % n
            for col, n in zip(group.residue_columns, group.moduli)
        ]),
    )


def _one_sided_period(h: EpVector) -> int | None:
    """Least simultaneous one-sided period of h, or None.

    h is stored with the shortest prefixes and primitive periods, so it has
    one-sided periods exactly when both prefixes are empty, and they are the
    multiples of lcm(|R|, |L|).
    """
    if h.rpre or h.lpre:
        return None
    return math.lcm(len(h.rper), len(h.lper))


def is_periodic(h: EpVector) -> int | None:
    """Least p with h_{k+p} = h_k for every integer k, or None.

    Full bi-infinite periodicity forces both prefixes of the normal form to
    be empty; each side is then p-periodic for p = lcm(|L|, |R|), so only the
    seam at zero is left: h_{-p..0} must equal h_{0..p}.
    """
    p = _one_sided_period(h)
    if p is None:
        return None
    w = code_window(h, p)
    return p if w[:-p] == w[p:] else None


def apply_aut(phi: Automorphism, h: EpVector) -> EpVector:
    """Apply a group automorphism letterwise, through its code table.

    A letterwise bijection keeps which letters are equal, so the image of a
    normal form is a normal form; and phi maps G onto G, so the image
    generates G exactly when h does.
    """
    image = phi.codes.__getitem__
    return _build(
        EpVector,
        h.group,
        tuple(map(image, h.rpre)),
        tuple(map(image, h.rper)),
        tuple(map(image, h.lpre)),
        tuple(map(image, h.lper)),
        h._gen,
    )


class VectorClass(EpVector):
    """An orbit of vectors under letterwise group automorphisms, stored as
    its least vector; only `canonical_class` makes one."""

    __slots__ = ()

    def __new__(cls, *args):
        raise TypeError("a VectorClass is made only by canonical_class")

    @property
    def representative(self) -> "VectorClass":
        return self


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
    every letter give the same image.

    Which automorphisms survive depends only on the group and the letters
    read so far, so the filtering steps are kept in a tree per group object
    (`FinAbGroup.refinement_tree`, nodes `groups.Refinement`), grown on
    demand.  Each letter is one dict step down the tree, and only a code met
    for the first time at a node runs the filter.  The walk stops at a leaf,
    or at the end of the letters with several survivors left, which then
    give the same image.  The tree's size depends on the group alone: fully
    grown it has 218 nodes over Z2xZ2xZ2, 1 954 over Z4xZ4 and 22 906,
    holding 100 800 survivor entries, over Z2^4.

    When the identity survives, h is its own least image: a class h is
    returned itself, and a plain h lends the new class its words.  Otherwise
    the image is read off the surviving automorphism's code table as a key
    and stored as it is, as a letterwise image of a normal form is a normal
    form (see `apply_aut`).  That image differs from h: an automorphism
    fixing every letter of h fixes their span, which is G.  The generating
    check runs only while `generates` has no answer on h.
    """
    if h._gen is not True:
        require_generating(h)
    group, rpre, rper, lpre, lper = h.group, h.rpre, h.rper, h.lpre, h.lper
    node = group.refinement_tree
    for c in rpre + rper + lpre + lper:
        if node.table is not None:
            break
        node = node[c]
    if node.fixes:
        if type(h) is VectorClass:
            return h
        return _build(VectorClass, group, rpre, rper, lpre, lper, h._gen)
    image = node.survivors[0].codes.__getitem__
    return _build(
        VectorClass,
        group,
        tuple(map(image, rpre)),
        tuple(map(image, rper)),
        tuple(map(image, lpre)),
        tuple(map(image, lper)),
        h._gen,
    )


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


def format_vector(h: EpVector) -> str:
    """Serialize h via the label table: parse_vector(h.group, format_vector(h)) == h."""
    labels = element_labels(h.group)
    tails = []
    for prefix, period in ((h.lpre, h.lper), (h.rpre, h.rper)):
        tail = f"({','.join([labels[c] for c in period])})"
        tails.append(f"{','.join([labels[c] for c in prefix])}|{tail}" if prefix else tail)
    return f"L={tails[0]};R={tails[1]}"


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
