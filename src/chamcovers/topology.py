"""Topological ends of the covers encoded by eventually periodic vectors.

The number of ends equals the index of a subgroup G' generated by one
alternating sum over a window that contains both prefixes, together with the
differences of the letters that repeat infinitely often on either side.
Over a two-element group the two possible outcomes split the covers into the
one-ended and two-ended homeomorphism types.
"""

from __future__ import annotations

import enum

from .groups import FinAbGroup, GroupElem, Record, Subgroup, span
from .vectors import EpVector, from_entries, require_generating, window


class SurfaceKind(enum.Enum):
    LOCH_NESS = "LochNess"
    JACOBS_LADDER = "JacobsLadder"


class EndsReport(Record):
    """Accumulation data and the resulting end count for one vector."""

    __slots__ = _fields = (
        "right_acc", "left_acc", "n_window", "alt_sum", "g_prime", "d2_type"
    )

    def __init__(
        self,
        right_acc: frozenset[GroupElem],
        left_acc: frozenset[GroupElem],
        n_window: int,
        alt_sum: GroupElem,
        g_prime: Subgroup,
        d2_type: SurfaceKind | None,
    ) -> None:
        self._store(right_acc, left_acc, n_window, alt_sum, g_prime, d2_type)

    @property
    def ends(self) -> int:
        return self.g_prime.index


def accumulation_points(h: EpVector) -> tuple[frozenset, frozenset]:
    """Letters occurring infinitely often on the right and on the left."""
    return frozenset(h.right_period), frozenset(h.left_period)


def minimal_n(h: EpVector) -> int:
    """The least window bound N that clears both prefixes (always >= 1)."""
    return max(len(h.rpre), len(h.lpre)) + 1


def alt_sum(h: EpVector, n_window: int) -> GroupElem:
    """sum_{k=-N}^{N-1} (-1)^k h_k for N = n_window (h_0 contributes zero)."""
    w = window(h, n_window)
    signed = (x if (i - n_window) % 2 == 0 else -x for i, x in enumerate(w[:-1]))
    return sum(signed, h.group.zero())


def end_subgroup(h: EpVector) -> Subgroup:
    """G': generated by the alternating sum over minimal_n(h) and the
    accumulation differences.

    The differences to the least accumulation letter a0 (by residues) span
    all of them, as a - b = (a - a0) - (b - a0).  Any window that clears
    both prefixes gives the same G'.
    """
    return _end_subgroup(h, alt_sum(h, minimal_n(h)))


def _end_subgroup(h: EpVector, total: GroupElem) -> Subgroup:
    """G' from the alternating sum over minimal_n(h), already computed."""
    racc, lacc = accumulation_points(h)
    acc = racc | lacc
    a0 = min(acc, key=lambda e: e.residues)
    return span(h.group, [total, *(a - a0 for a in acc)])


def num_ends(h: EpVector) -> int:
    """The number of topological ends of the cover encoded by h."""
    return end_subgroup(require_generating(h)).index


def classify_d2(h: EpVector) -> SurfaceKind:
    """One-ended vs. two-ended type over a two-element group.

    Two ends occur exactly when both tails stabilize on the same letter and
    the finitely many exceptional entries (h_0 counts as an entry) sum to
    zero; everything else is one-ended.  The only group of order 2 is Z2,
    whose element codes are its residues, so the words are compared as codes.
    """
    if h.group.order != 2:
        raise ValueError("the two-type classification needs a two-element group")
    prefixes = h.lpre + h.rpre
    if h.rper == (0,) and h.lper == (0,):
        ones = prefixes.count(1)
        return SurfaceKind.JACOBS_LADDER if ones % 2 == 0 else SurfaceKind.LOCH_NESS
    if h.rper == (1,) and h.lper == (1,):
        zeros = prefixes.count(0) + 1  # h_0 is zero
        return SurfaceKind.JACOBS_LADDER if zeros % 2 == 0 else SurfaceKind.LOCH_NESS
    return SurfaceKind.LOCH_NESS


def ends_report(h: EpVector) -> EndsReport:
    """The full end computation for one vector."""
    require_generating(h)
    n_window = minimal_n(h)
    total = alt_sum(h, n_window)
    racc, lacc = accumulation_points(h)
    kind = classify_d2(h) if h.group.order == 2 else None
    return EndsReport(
        right_acc=racc,
        left_acc=lacc,
        n_window=n_window,
        alt_sum=total,
        g_prime=_end_subgroup(h, total),
        d2_type=kind,
    )


def construct_max_ends(group: FinAbGroup) -> EpVector:
    """A generating vector with the maximal end count |G|.

    Factor generators are planted at consecutive negative indices and one
    positive entry balances the alternating sum, so G' is trivial.  The
    construction is deterministic and verified before returning.
    """
    gens = group.factor_generators()
    entries: dict[int, GroupElem] = {}
    h1 = group.zero()
    for i, g in enumerate(gens, start=1):
        entries[-(i + 1)] = g
        h1 = h1 + (g if i % 2 == 1 else -g)
    if not h1.is_zero():
        entries[1] = h1
    h = from_entries(group, entries)
    if num_ends(h) != group.order:
        raise RuntimeError("constructed vector missed |G| ends")
    return h
