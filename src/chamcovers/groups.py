"""Exact arithmetic in finite abelian groups given as products of cyclic factors.

A group is a product Z_{n_1} x ... x Z_{n_r} with every n_i >= 2.  Elements
are residue tuples; there is no canonicalization across presentations, so
Z2xZ3 and Z6 are distinct artifacts even though they are isomorphic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cache, cached_property


class GroupParseError(ValueError):
    """Raised for a malformed group spec string."""


class AutomorphismBoundError(ValueError):
    """Raised when a group is too large for automorphism enumeration."""


_GROUP_SPEC_RE = re.compile(r"Z[0-9]+(?:xZ[0-9]+)*")

# Largest group order `parse_group` accepts: the relation windows are
# lcm(m, |G|) entries long and `span` closes over all of G.
MAX_GROUP_ORDER = 10_000


@dataclass(frozen=True)
class FinAbGroup:
    """A finite abelian group presented as a product of cyclic factors."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli:
            raise GroupParseError("a group needs at least one cyclic factor")
        if any(not isinstance(n, int) or n < 2 for n in self.moduli):
            raise GroupParseError(f"factor moduli must be integers >= 2: {self.moduli}")

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @cached_property
    def exponent(self) -> int:
        """The least e >= 1 with e x = 0 for every element: the lcm of the moduli.

        P1 and P2 have order dividing e on vectors (`action` docstring), which
        `orbit.orbit_bfs` reads to close their cycles; over exponent 2, codes
        are the binary numbers of the residue tuples (`residue_columns`), so
        adding two elements is XOR on their codes, which the letters read.
        Computed once per group object, as the letters read it per call.
        """
        return math.lcm(*self.moduli)

    @cached_property
    def residue_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column i lists factor i's residue of every element, indexed by code.

        Codes are mixed-radix numbers over `moduli`, first factor most
        significant: the code of (r_1, ..., r_r) is (...(r_1 n_2 + r_2) n_3 ...) + r_r.
        Over a cyclic group the code is the residue itself.  Kept on the group
        object, so the letters read it per frame as an attribute, without
        hashing the group.
        """
        elems, _ = element_index(self)
        return tuple(zip(*(e.residues for e in elems)))

    @cached_property
    def refinement_tree(self) -> "Refinement":
        """The root of the group's refinement tree (`Refinement`), holding
        all of Aut(G).  Built at its first read and grown on demand by
        `vectors.canonical_class`; kept on the group object, so every image
        reads it as an attribute, without hashing the group."""
        return Refinement(automorphisms(self), True)

    def __reduce__(self):
        # The tables kept on the object are rebuilt on demand, not pickled.
        return type(self), (self.moduli,)

    def spec(self) -> str:
        return "x".join(f"Z{n}" for n in self.moduli)

    def zero(self) -> "GroupElem":
        return GroupElem(self, (0,) * len(self.moduli))

    def elem(self, *residues: int) -> "GroupElem":
        """Build an element, reducing each residue mod its factor."""
        if len(residues) == 1 and not isinstance(residues[0], int):
            residues = tuple(residues[0])
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        if any(not isinstance(r, int) for r in residues):
            raise ValueError(f"residues must be integers: {residues}")
        return GroupElem(self, tuple(r % n for r, n in zip(residues, self.moduli)))

    def elements(self):
        """All elements, in lexicographic residue order."""
        for residues in itertools.product(*(range(n) for n in self.moduli)):
            yield GroupElem(self, residues)

    def factor_generators(self) -> tuple["GroupElem", ...]:
        gens = []
        for i in range(len(self.moduli)):
            residues = [0] * len(self.moduli)
            residues[i] = 1
            gens.append(GroupElem(self, tuple(residues)))
        return tuple(gens)

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class GroupElem:
    """An element of a FinAbGroup, stored as a reduced residue tuple.

    Arithmetic always produces reduced residues, so validation lives in the
    public constructors (FinAbGroup.elem, parse_elem), keeping the operators
    cheap on hot paths.
    """

    group: FinAbGroup
    residues: tuple[int, ...]

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self._check_same_group(other)
        return GroupElem(
            self.group,
            tuple([
                (a + b) % n
                for a, b, n in zip(self.residues, other.residues, self.group.moduli)
            ]),
        )

    def __neg__(self) -> "GroupElem":
        return GroupElem(
            self.group,
            tuple([-a % n for a, n in zip(self.residues, self.group.moduli)]),
        )

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        return self + (-other)

    def scale(self, k: int) -> "GroupElem":
        """k-fold sum of self (k may be any integer)."""
        return GroupElem(
            self.group,
            tuple([k * a % n for a, n in zip(self.residues, self.group.moduli)]),
        )

    def order(self) -> int:
        """Least t >= 1 with t * self = 0."""
        return math.lcm(
            *[n // math.gcd(a, n) for a, n in zip(self.residues, self.group.moduli)]
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.residues)

    def _check_same_group(self, other: "GroupElem") -> None:
        if self.group != other.group:
            raise ValueError("elements live in different groups")

    def __str__(self) -> str:
        return ":".join(str(a) for a in self.residues)


def parse_group(spec: str) -> FinAbGroup:
    """Parse a spec like "Z2" or "Z2xZ4"; whitespace is not allowed."""
    if not _GROUP_SPEC_RE.fullmatch(spec):
        raise GroupParseError(f"malformed group spec: {spec!r}")
    try:
        moduli = tuple(int(part[1:]) for part in spec.split("x"))
    except ValueError as exc:  # more digits than int() converts
        raise GroupParseError("group spec has a modulus with too many digits") from exc
    if any(n < 2 for n in moduli):
        raise GroupParseError(f"factor moduli must be >= 2: {spec!r}")
    if math.prod(moduli) > MAX_GROUP_ORDER:
        raise GroupParseError(
            f"group {spec} has order above the bound {MAX_GROUP_ORDER}"
        )
    return FinAbGroup(moduli)


def parse_elem(group: FinAbGroup, text: str) -> GroupElem:
    """Parse an element serialized as colon-joined residues, e.g. "1:3"."""
    parts = text.split(":")
    if len(parts) != group.rank:
        raise ValueError(
            f"expected {group.rank} residues for {group}, got {text!r}"
        )
    residues = []
    for part, n in zip(parts, group.moduli):
        if not re.fullmatch(r"[0-9]+", part):
            raise ValueError(f"malformed residue {part!r} in {text!r}")
        try:
            r = int(part)
        except ValueError as exc:  # more digits than int() converts
            raise ValueError(
                f"residue of {len(part)} digits out of range for modulus {n}"
            ) from exc
        if r >= n:
            raise ValueError(f"residue {r} out of range for modulus {n}")
        residues.append(r)
    return GroupElem(group, tuple(residues))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its full element set."""

    group: FinAbGroup
    elements: frozenset[GroupElem]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // len(self.elements)

    def __contains__(self, elem: GroupElem) -> bool:
        return elem in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def span(group: FinAbGroup, gens=()) -> Subgroup:
    """The subgroup generated by gens (the trivial subgroup for empty gens).

    Starting from S = {0}, each generator g extends S to <S, g>, the union
    of the cosets S + k*g (`_extend_span`); once S is all of G, later
    generators are only checked.
    """
    order = group.order
    elems = frozenset({(0,) * group.rank})
    for g in gens:
        if g.group is not group and g.group != group:
            raise ValueError("generator lives in a different group")
        if len(elems) < order:
            elems = _extend_span(group.moduli, elems, g.residues)
    interned, index = element_index(group)
    return Subgroup(group, frozenset(interned[index[r]] for r in elems))


@cache
def element_index(group: FinAbGroup):
    """The elements in lexicographic residue order, and each one's position.

    A position ("code") orders like its residue tuple, so comparing codes
    compares elements in the order `EpVector.key` uses.
    """
    elems = tuple(group.elements())
    return elems, {e.residues: i for i, e in enumerate(elems)}


@cache
def element_labels(group: FinAbGroup) -> tuple[str, ...]:
    """The text of every element (`GroupElem.__str__`), indexed by code."""
    return tuple([str(e) for e in element_index(group)[0]])


@dataclass(frozen=True, slots=True)
class Automorphism:
    """An additive bijection of a FinAbGroup, tabulated for fast application.

    codes[c] is the code (see `element_index`) of the image of the element
    with code c, and images[i] is the image of factor generator i, read off
    that table.  Built by `automorphisms` and `negation`.
    """

    group: FinAbGroup
    codes: tuple[int, ...]

    @property
    def images(self) -> tuple[GroupElem, ...]:
        return tuple([self(g) for g in self.group.factor_generators()])

    def __call__(self, a: GroupElem) -> GroupElem:
        elems, index = element_index(self.group)
        return elems[self.codes[index[a.residues]]]

    def __repr__(self) -> str:
        return f"Automorphism({self.group}, {[str(x) for x in self.images]})"


@cache
def negation(group: FinAbGroup) -> Automorphism:
    """x -> -x, an automorphism of every abelian group, tabulated straight
    from `element_index`: unlike `automorphisms`, it has no size bound."""
    elems, index = element_index(group)
    codes = tuple([
        index[tuple([-r % n for r, n in zip(x.residues, group.moduli)])] for x in elems
    ])
    return Automorphism(group, codes)


# Largest automorphism group that `automorphisms` enumerates: |Aut(Z2^4)|.
MAX_AUTOMORPHISMS = 20160
MAX_AUT_GROUP_ORDER = 64


def _prime_powers(n: int):
    """(p, e) for each prime power p^e exactly dividing n."""
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            yield p, e
        p += 1
    if n > 1:
        yield n, 1


def automorphism_count(group: FinAbGroup) -> int:
    """|Aut(G)| in closed form, without enumerating anything.

    G is the product of its p-parts, and so is Aut(G).  For a p-part
    Z_{p^e_1} x ... x Z_{p^e_k} with e_1 <= ... <= e_k, put
    d_i = max{l : e_l = e_i} and c_i = min{l : e_l = e_i}; then (Hillar and
    Rhea, "Automorphisms of finite abelian groups", 2007)

        |Aut| = prod_i (p^d_i - p^(i-1))
                     * p^(e_i (k - d_i)) * p^((e_i - 1)(k - c_i + 1)).
    """
    exponents: dict[int, list[int]] = {}
    for n in group.moduli:
        for p, e in _prime_powers(n):
            exponents.setdefault(p, []).append(e)
    count = 1
    for p, es in exponents.items():
        es.sort()
        k = len(es)
        for i, e in enumerate(es, start=1):
            d = k - es[::-1].index(e)
            c = es.index(e) + 1
            count *= p**d - p ** (i - 1)
            count *= p ** (e * (k - d) + (e - 1) * (k - c + 1))
    return count


def _extend_span(moduli: tuple[int, ...], base: frozenset, g: tuple) -> frozenset:
    """Residue tuples of <base u {g}> when base is already a subgroup."""
    out = set(base)
    step = g
    while step not in base:
        for b in base:
            out.add(tuple([(x + y) % n for x, y, n in zip(b, step, moduli)]))
        step = tuple([(x + y) % n for x, y, n in zip(step, g, moduli)])
    return frozenset(out)


@cache
def automorphisms(group: FinAbGroup) -> tuple[Automorphism, ...]:
    """All automorphisms of the group, in a deterministic order.

    Groups of order above MAX_AUT_GROUP_ORDER, or with more than MAX_AUTOMORPHISMS
    automorphisms (counted in closed form first), are refused with
    AutomorphismBoundError.  The search sends factor generator i to each
    element x of the same exact order n_i in turn.  At depth i it holds the
    images of the elements of the first i factors, in code order; choosing x
    extends that list by r * x for r < n_i, and x is kept only if the
    extended list has no repeats, i.e. the partial map stays injective.  At
    a leaf the list is the automorphism's code table.  The tuple is computed
    once per group; a refusal raises afresh each time.
    """
    if group.order > MAX_AUT_GROUP_ORDER:
        raise AutomorphismBoundError(
            f"group order {group.order} exceeds the automorphism bound "
            f"{MAX_AUT_GROUP_ORDER}"
        )
    count = automorphism_count(group)
    if count > MAX_AUTOMORPHISMS:
        raise AutomorphismBoundError(
            f"{group} has {count} automorphisms, "
            f"more than the bound {MAX_AUTOMORPHISMS}"
        )
    moduli = group.moduli
    elems, index = element_index(group)
    candidates = [[x for x in elems if x.order() == n] for n in moduli]
    found: list[Automorphism] = []

    def rec(i: int, table: list) -> None:
        if i == len(moduli):
            codes = tuple([index[b] for b in table])
            found.append(Automorphism(group, codes))
            return
        for x in candidates[i]:
            grown = [
                tuple([(a + r * b) % m for a, b, m in zip(acc, x.residues, moduli)])
                for acc in table
                for r in range(moduli[i])
            ]
            if len(set(grown)) < len(grown):
                continue
            rec(i + 1, grown)

    rec(0, [(0,) * len(moduli)])
    return tuple(found)


class Refinement(dict):
    """One node of a group's refinement tree: the automorphisms that survive
    the letters on the path from the root, and a dict from a letter's code
    to the node the walk moves to next.

    A child is made when its code is first looked up (`__missing__`): the
    survivors whose image of the code is least.  A code that splits nothing
    (zero, or any code whose image the path already fixes) maps back to
    the node itself.  A node with one survivor is a leaf; `table` is that
    automorphism's code table, and None at every other node.  `fixes` says
    whether the identity survives: it does at the root, and at a child
    exactly when it does at the parent and the least image of the code is
    the code itself.
    """

    __slots__ = ("survivors", "table", "fixes")

    def __init__(self, survivors, fixes: bool) -> None:
        super().__init__()
        self.survivors = survivors
        self.table = survivors[0].codes if len(survivors) == 1 else None
        self.fixes = fixes

    def __missing__(self, c: int) -> "Refinement":
        least = min([phi.codes[c] for phi in self.survivors])
        kept = [phi for phi in self.survivors if phi.codes[c] == least]
        if len(kept) == len(self.survivors):
            child = self
        else:
            child = Refinement(kept, self.fixes and least == c)
        self[c] = child
        return child
