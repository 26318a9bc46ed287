"""Deciding whether a cover's symmetry group has finite index.

A vector has finite-index symmetry group exactly when some power of the
hyperbolic letter fixes it, and such fixed vectors satisfy a short list of
boundary relations over one window whose length is a common multiple of the
group order and the vector's one-sided period.  The decision procedure is:
a vector whose normalized form carries a nonempty prefix on either side is
not one-sided periodic and the index is infinite; otherwise the two boundary
relation families are checked over the window W = lcm(m, d), where m is the
minimal simultaneous one-sided period and d the group order.  Both families
are m-periodic in their index, so the walk covers one period, not the window
(which can be about 10^8 entries long).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .action import act_h_pow
from .vectors import EpVector, _one_sided_period


@dataclass(frozen=True)
class IndexVerdict:
    """Outcome of the finite-index decision.

    minimal_period is the minimal simultaneous one-sided period (present
    exactly when the verdict is finite); checked_window is the relation
    window that was verified (0 when the vector is not one-sided periodic);
    witness, the first failed requirement, is None on finite verdicts.
    """

    minimal_period: int | None
    checked_window: int
    witness: str | None

    @property
    def finite(self) -> bool:
        return self.witness is None


def _relations_hold(h: EpVector, window: int) -> str | None:
    """Check the boundary relations over `window`; return a witness or None.

    h is normalized with one-sided period m dividing `window`.  Then both
    relation sequences A_k = 2h_{W-k+1} - h_{W-k} and B_k = 2h_{-k-1} - h_{-k}
    (W = window) are m-periodic in k, so checking k <= min(W - 1, m) decides
    every k in 1..W-1 and finds the same first failing k.  The relations
    are compared on each factor's int residues of the entries.
    """
    factors = tuple(zip(h.group.residue_columns, h.group.moduli))

    def combo(*terms):
        """Residues of the sum of c * h_k over the (c, k) terms."""
        codes = [(c, h.code(k)) for c, k in terms]
        return tuple(sum(c * col[x] for c, x in codes) % n for col, n in factors)

    show = lambda residues: ":".join(map(str, residues))
    for k in range(1, min(window, _one_sided_period(h) + 1)):
        lhs = combo((2, window - k + 1), (-1, window - k))
        rhs = combo((2, -k - 1), (-1, -k))
        if lhs != rhs:
            return (
                f"boundary relation failed at k={k}: "
                f"2*h[{window - k + 1}]-h[{window - k}]={show(lhs)} "
                f"but 2*h[{-k - 1}]-h[{-k}]={show(rhs)}"
            )
    for far, near in ((window, -1), (-window, 1)):
        lhs, rhs = combo((1, far)), combo((-2, near))
        if lhs != rhs:
            return (
                f"corner relation failed: h[{far}]={show(lhs)} "
                f"but -2*h[{near}]={show(rhs)}"
            )
    return None


def decide_finite_index(h: EpVector) -> IndexVerdict:
    """Decide finite vs. infinite index for the cover encoded by h."""
    m = _one_sided_period(h)
    if m is None:
        side = "right" if h.rpre else "left"
        return IndexVerdict(
            minimal_period=None,
            checked_window=0,
            witness=f"not one-sided periodic: nonempty {side} prefix after normalization",
        )
    window = math.lcm(m, h.group.order)
    witness = _relations_hold(h, window)
    return IndexVerdict(
        minimal_period=m if witness is None else None,
        checked_window=window,
        witness=witness,
    )


def in_cn(h: EpVector, n: int) -> bool:
    """Membership in the n-th invariant family containing all H^n-fixed vectors.

    The four requirements, over the window W = dn = |G| * n: one-sided
    W-periodicity on both sides, vanishing signed sum
    sum_{j=1..W} (h_{-j} - h_j), the boundary relations A_k = B_k
    (k = 1..W-1, see `_relations_hold`), and the corner relations
    h_W = -2h_{-1}, h_{-W} = -2h_1.  The relations imply the signed sum, so
    it is not checked: summing A_k = B_k over k = 1..W-1 gives
    h_W - 2h_1 + sum_{j<=W} h_j = h_{-W} - 2h_{-1} + sum_{j<=W} h_{-j}, and
    by the corner relations h_W - 2h_1 = -2h_{-1} - 2h_1 = h_{-W} - 2h_{-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dn = h.group.order * n
    m = _one_sided_period(h)
    if m is None or dn % m != 0:
        return False
    return _relations_hold(h, dn) is None


def is_fixed_by_h_pow(h: EpVector, n: int) -> bool:
    """Is h fixed by the n-th power of the hyperbolic letter?"""
    if n < 1:
        raise ValueError("n must be >= 1")
    return act_h_pow(h, n) == h
