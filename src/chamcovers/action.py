"""Closed-form actions of the lattice-surface symmetry letters on vectors.

The two parabolic letters P1 and P2, the central letter -I, the hyperbolic
letter H = -P1*P2, and their inverses act on eventually periodic vectors entry
by entry.  -I negates each letter (`vectors.apply_aut`).  One kernel runs
every other letter, save the P letters over a group whose moduli are all 2
(below), and synthesizes the output directly as prefix + period: the output
entries are Z-linear in input entries and in the running sums
S(t) = sum_{j=1..t} (-h_j + h_{-j}).  The kernel reads each side
of the input outward, as the vector stores its words (`vectors.side_codes`:
h_1, h_2, ... and h_-1, h_-2, ...); for each cyclic factor Z_{n_i} of G it
evaluates the formulas on that factor's plain int residues, summing S only
where a letter reads it, reduces each output mod n_i, and folds the residues
back into output codes.  This is exact, as a Z-linear formula commutes with
projecting to a factor and with reducing mod its modulus.  A kernel letter's
formula is one list comprehension that zips forward slices of the residue
and running-sum columns, laid out in output order, so no Python call is made
per entry.

Only the parabolic letters read S, and every term they read from it is
doubled, so on a factor of modulus 2 they read none: there
(P1 h)_k = (P1^-1 h)_k = h_{-k} and (P2 h)_k = (P2^-1 h)_k = h_{-1} + h_{-k-1}
(h_{-1} at k = -1).  Where some factor reads S, the two output sides share
one period: with L and R the left and right period words and
p = lcm(|L|, |R|), S gains the constant drift delta = `vectors.drift`(h, p)
over any p indexes past both prefixes, so the output has period
p * order(2 * delta).  H^n reads no S, and each of its output sides reads
the same input side and keeps its period.  Each output side's first period
is checked against the next before the result is trusted.

Over a group of exponent 2 (`FinAbGroup.exponent`, every modulus 2) the
P letters skip the kernel.  Codes are mixed-radix numbers over the moduli,
so there each code is the binary number of its residues, and adding two
elements, factor by factor mod 2, is XOR on their codes.  P1 = P1^-1 is
the reflection R below.  P2 = P2^-1 is one XOR pass with c the code of
h_{-1}: the right output side is the left input side read from h_{-2}
outward, and the left output side is c followed by the right input side,
every code XOR c.  XOR with c is a bijection on codes and a reflection
swaps two normal sides, so each output side is in normal form as written,
save one case: when the right prefix is empty and the right period ends in
code 0, the left output's one-entry prefix equals its period's last entry
and is pulled into the period.  These outputs are stored with no frame, no
residue column and no normal-form search, and are at most one entry longer
than their input.

The output shape (each side's prefix length and period, and the number of
entries synthesized per side), the sides' residue columns and the running
sums depend only on the input and on the letter's kind (how far it
reaches, whether it is parabolic), not on its formula.  They form one
frame, an explicit value that records the vector it was built for.  P1,
P1^-1, P2 and P2^-1 read the same frame (`parabolic_frame`, which over a
group whose moduli are all 2 records only the vector) and take it as an
optional second argument: an orbit search builds it once per vertex and
hands it to the letters it runs there, and a letter called without one
builds its own and drops it.  No frame outlives its caller.
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

P1 and P2 are transvections: P = I + D with D^2 = 0.  For P1 put
D = P1 - I; as S(t) - S(t - 1) = h_{-t} - h_t, the P1 formula reads

    (D h)_k = S(|k|) + S(|k| - 1),

which is symmetric in k, so S_{Dh}(t) = sum_{j=1..t} ((Dh)_{-j} - (Dh)_j)
is 0: S is P1-invariant.  D reads h only through S, so D(D h) = 0.  For
P2 put v = P2 h - h.  The same sums give v_{-1} = 0 and, for t >= 1,

    S_v(t) = -2 S(t) - h_t - h_{-t-1} - h_{-1}.

Put into the P2 formula, these leave (P2 v - v)_{-1} = 0 and, up to
sign, (P2 v - v)_k = 2 (h_t - h_{-t} + S(t) - S(t - 1)) = 0, with t = k
for k >= 1 and t = -k - 1 for k <= -2.  So P^n = I + n D for every
integer n (P^-1 = I - D is a transvection too), and over a group of
exponent e, where e D h = 0, P1^e and P2^e fix every vector: each P1- and
P2-cycle of vectors, and so of classes, has a length dividing e.
`orbit.orbit_bfs` closes such cycles by that law, and
`test_p_letters_are_transvections` checks D^2 = 0 on the window oracles.
Over exponent 2 it gives P1 = P1^-1 and P2 = P2^-1, as the modulus-2
formulas above do.

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
from itertools import accumulate
from operator import sub

from .groups import negation
from .vectors import EpVector, apply_aut, drift, side_codes


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
# P^k runs at most min(|k|, e/2) letters over a group of exponent e, and H^k
# reads side columns of about 2k entries, so a longer word is refused.
MAX_WORD_EXPONENT = 10_000

# Largest side_len of `_frame`: where a letter reads S, both output sides take
# the period lcm(|L|, |R|) * order(2 * delta), so long coprime periods in a
# few KB of input can ask for millions of entries per side.  P1 on Z3 periods
# 997 and 991 with zero drift (1 976 056) runs; with a drift of order 3
# (5 928 164) it is refused.  H^n, which reads no S, writes at most its
# longer input side's prefix plus grow plus two periods.  A P letter over a
# group of exponent 2 builds no frame: it writes at most one entry
# more than its input and is never refused.
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


def _frame(h: EpVector, grow: int, drifts: bool):
    """The shape and input columns every letter of one kind reads at h.

    Returns (h, right, left, side_len, columns): h itself, each output
    side's shape (prefix length, period), the number side_len of output
    entries synthesized on each side, and per cyclic factor Z_n a column
    (r, l, s, n).
    With m = side_len + grow, r[i] and l[i] are the residues of h_{i+1} and
    h_{-i-1} for i < m, each side read outward, and s[t] is that of S(t) for
    t <= m, or s is None where the letters do not read S.  An output prefix
    is at most `grow` longer than the input prefix it reads, and an output
    entry reads input entries at most `grow` indexes further out.

    The parabolic letters (`drifts`) double every term they read from S, so
    on a factor of modulus 2 they read no S; they build a frame only over a
    group with a modulus above 2 (see `parabolic_frame`), and read S on
    those factors.  Both output sides then share the prefix length
    k0 = longest input prefix + grow and the period
    lcm(|L|, |R|) * order(2 * delta).  That order is taken on a `GroupElem`,
    the one element operator left on the orbit search path, because the
    benchmark counts those operators there and predicts a nonzero count.
    `drift` sums its words on ints, so the round trip builds two elements
    and costs about 2.5 us of a frame's 5.2 us on a Z3 vector with 10
    entries a side (timeit minimum, Python 3.11, 2-core x86_64).
    H^n reads no S: each output side reads the same input side and takes
    its prefix length plus grow and its period.  side_len = max(k0 + 2
    period) over the two sides.

    Nothing is kept between calls: whoever builds a frame owns it, and its
    tuples are never written, so letters that run at h may share it.
    """
    rpre, rper, lpre, lper = h.rpre, h.rper, h.lpre, h.lper
    if drifts:
        k0 = max(len(rpre), len(lpre)) + grow
        p = math.lcm(len(rper), len(lper))
        # Becomes int arithmetic, like `drift`, once the benchmark's
        # groups.elem_ops prediction for orbit-grow is 0 (ROADMAP item 1).
        p *= drift(h, p).scale(2).order()
        right = left = (k0, p)
        side_len = k0 + 2 * p
    else:
        right = (len(rpre) + grow, len(rper))
        left = (len(lpre) + grow, len(lper))
        side_len = max(right[0] + 2 * right[1], left[0] + 2 * left[1])
    if side_len > MAX_LETTER_SIDE:
        raise ValueError(
            f"letter output needs {side_len} entries per side, "
            f"more than the bound {MAX_LETTER_SIDE}"
        )
    m = side_len + grow
    sides = side_codes(rpre, rper, m), side_codes(lpre, lper, m)
    moduli = h.group.moduli
    if len(moduli) == 1:  # a code is its residue (`FinAbGroup.residue_columns`)
        residues = [sides]
    else:
        residues = [
            [tuple([col[c] for c in side]) for side in sides]
            for col in h.group.residue_columns
        ]
    columns = []
    for (r, l), n in zip(residues, moduli):
        s = tuple(accumulate(map(sub, l, r), initial=0)) if drifts and n > 2 else None
        columns.append((r, l, s, n))
    return h, right, left, side_len, tuple(columns)


def _act(h: EpVector, residues, frame) -> EpVector:
    """The kernel behind every letter: one frame, one pass per factor.

    `residues(r, l, s, n, side_len)` returns one cyclic factor's output
    residues mod n, h'_1 .. h'_side_len then h'_-1 .. h'_-side_len, from
    the int columns of `frame`, built for h itself.
    The formulas are Z-linear, so their values mod n are exactly that
    factor's residues of the group-element results; the output codes are
    built factor by factor as code * n + residue.  Each side's first period
    is checked against the next one.
    """
    _, (k0, p), (k1, q), side_len, columns = frame
    r, l, s, n = columns[0]
    codes = residues(r, l, s, n, side_len)  # over one factor, the codes
    for r, l, s, n in columns[1:]:
        codes = [c * n + x for c, x in zip(codes, residues(r, l, s, n, side_len))]
    codes = tuple(codes)
    j = side_len + k1  # the left side's first period starts at codes[j]
    rper, lper = codes[k0 : k0 + p], codes[j : j + q]
    if codes[k0 + p : k0 + 2 * p] != rper or codes[j + q : j + 2 * q] != lper:
        raise RuntimeError("synthesized tail failed its window check")
    return EpVector._from_codes(h.group, codes[:k0], rper, codes[side_len:j], lper, h._gen)


def _reflect(h: EpVector) -> EpVector:
    """R: swap the left and right words, so (R h)_k = h_{-k}.

    Each side of h is already in normal form, so the swap is stored as is.
    """
    return EpVector._from_normal_codes(
        h.group, h.lpre, h.lper, h.rpre, h.rper, h._gen
    )


def _p2_xor(h: EpVector) -> EpVector:
    """P2 = P2^-1 over a group whose moduli are all 2, as one XOR pass.

    With c the code of h_{-1}: (P2 h)_k = c ^ h_{-k-1} for k >= 1, and the
    left side reads c, c ^ h_1, c ^ h_2, ... outward.  Both sides are
    stored as written (module docstring), after the one pull that an empty
    right prefix before a period ending in code 0 asks for.
    """
    if h.lpre:
        c, rpre, rper = h.lpre[0], h.lpre[1:], h.lper
    else:
        c, rpre, rper = h.lper[0], (), h.lper[1:] + h.lper[:1]
    if h.rpre or h.rper[-1]:
        lpre, lper = (0,) + h.rpre, h.rper
    else:
        lpre, lper = (), h.rper[-1:] + h.rper[:-1]
    return EpVector._from_normal_codes(
        h.group,
        tuple([c ^ x for x in rpre]),
        tuple([c ^ x for x in rper]),
        tuple([c ^ x for x in lpre]),
        tuple([c ^ x for x in lper]),
        h._gen,
    )


# The parabolic letters over groups with a modulus above 2, each as one
# comprehension over forward slices of a frame column laid out in output
# order: an index column that reads h_{-k} at k = 1..L and h_k at
# k = -1..-L is l[:L] + r[:L].  On a factor of modulus 2 (s is None) of
# such a group every doubled term vanishes: P1 and P1^-1 both give the
# reflected column, and P2 and P2^-1 both give h_{-1} + h_{-k-1}.


def _p1_residues(r, l, s, n, L):
    if s is None:
        return l[:L] + r[:L]
    return [(x + 2 * y) % n for x, y in zip(l[:L] + r[:L], s[:L] + s[1 : L + 1])]


def _p1_inv_residues(r, l, s, n, L):
    if s is None:
        return _p1_residues(r, l, s, n, L)
    return [(x - 2 * y) % n for x, y in zip(l[:L] + r[:L], s[1 : L + 1] + s[:L])]


def _p2_residues(r, l, s, n, L):
    # (P2 h)_k = h_{-1} + h_{-k-1} + 2 h_{-|k|} + 2 S(|k| - 1), but h_{-1} at k = -1
    # (output position L, where `far` reads h_0); c = l[0] is a residue already.
    c = l[0]
    far = l[1 : L + 1] + (0,) + r[: L - 1]
    if s is None:
        out = [c ^ x for x in far]
    else:
        out = [(c + x + 2 * (y + z)) % n for x, y, z in zip(far, l[:L] * 2, s[:L] * 2)]
    out[L] = c
    return out


def _p2_inv_residues(r, l, s, n, L):
    # (P2^-1 h)_k = -2 S(k if k > 0 else -k - 1) - h_{-1} - h_{-k-1}, but h_{-1}
    # at k = -1 (output position L).
    if s is None:
        return _p2_residues(r, l, s, n, L)
    c = l[0]
    far = l[1 : L + 1] + (0,) + r[: L - 1]
    out = [(-c - x - 2 * y) % n for x, y in zip(far, s[1 : L + 1] + s[:L])]
    out[L] = c
    return out


def _h_pow(h: EpVector, n: int) -> EpVector:
    if n == 0:
        return h
    if n < 0:
        return _reflect(_h_pow(_reflect(h), -n))

    def residues(r, l, s, mod, L):
        # H^n (n >= 1): h'_k = h_{k-n} + c outside 1..n, c = sum 2^(n-j) h_{-j}.
        # The head h'_k = c - 2 h_{k-n-1} - T_k (1 <= k <= n) uses the running
        # term T_n = 0, T_{k-1} = 2 T_k + 3 h_{k-n-1}.  c (by Horner) and T both
        # read h_{-1} .. h_{-n} and are kept mod `mod`, as they would otherwise
        # grow to about 2^n; the head is built from k = n down to 1.
        near = l[:n]
        c = 0
        for x in near:
            c = (2 * c + x) % mod
        head = []
        t = 0
        for x in near:
            head.append((c - 2 * x - t) % mod)
            t = (2 * t + 3 * x) % mod
        tail = r[: L - n] + l[n : L + n]
        return head[::-1] + [(x + c) % mod for x in tail]

    return _act(h, residues, _frame(h, n + 2, False))


def parabolic_frame(h: EpVector):
    """The frame that P1, P1^-1, P2 and P2^-1 read at h (`_frame`); over a
    group whose moduli are all 2, where they read only the stored words, a
    frame that records h alone.

    Pass it to each of those letters at h to build it once; a frame built
    for any other vector, even an equal one, makes the letter raise
    ValueError.
    """
    return (h,) if h.group.exponent == 2 else _frame(h, 2, True)


def _parabolic(h: EpVector, frame, residues, involution) -> EpVector:
    """One P letter at h: `involution` of the stored words over a group
    whose moduli are all 2, the kernel with `residues` over any other."""
    if frame is not None and frame[0] is not h:
        raise ValueError("the letter frame was built for another vector")
    if h.group.exponent == 2:
        return involution(h)
    return _act(h, residues, _frame(h, 2, True) if frame is None else frame)


def act_p1(h: EpVector, frame=None) -> EpVector:
    return _parabolic(h, frame, _p1_residues, _reflect)


def act_p1_inv(h: EpVector, frame=None) -> EpVector:
    return _parabolic(h, frame, _p1_inv_residues, _reflect)


def act_p2(h: EpVector, frame=None) -> EpVector:
    return _parabolic(h, frame, _p2_residues, _p2_xor)


def act_p2_inv(h: EpVector, frame=None) -> EpVector:
    return _parabolic(h, frame, _p2_inv_residues, _p2_xor)


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
        # P^e = I over a group of exponent e (module docstring): k = exp mod e
        # runs as k letters, or as e - k inverse letters when that is fewer.
        e = h.group.exponent
        k = exp % e
        if 2 * k > e:
            k -= e
        fwd = act_p1 if ltr is GeneratorLetter.P1 else act_p2
        bwd = act_p1_inv if ltr is GeneratorLetter.P1 else act_p2_inv
        step = fwd if k > 0 else bwd
        for _ in range(abs(k)):
            h = step(h)
    return h
