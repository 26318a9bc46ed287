"""Coset (Schreier) graphs of vector classes under the two parabolic letters.

Vertices are automorphism classes of vectors; vertex 0 is the input class.
Edges record the forward P1 and P2 moves; breadth-first closure also follows
the inverse moves so the vertex set is the full orbit.  The central letter
acts trivially on classes and is omitted.  A cap bounds the number of
vertices: hitting it is a verdict ("did not close within cap"), not an error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .action import (
    GeneratorLetter,
    Word,
    act_p1,
    act_p1_inv,
    act_p2,
    act_p2_inv,
    parabolic_frame,
    simplify_word,
)
from .finite_index import IndexVerdict, decide_finite_index
from .vectors import EpVector, VectorClass, canonical_class, format_vector


class GraphType(enum.Enum):
    STRIEZEL = "Striezel"
    KRANZ = "Kranz"
    OTHER = "Other"


@dataclass(frozen=True)
class SchreierGraph:
    """A (possibly truncated) coset graph.

    p1_edges[i] / p2_edges[i] give the forward-move targets of vertex i, or
    None when a cap hit stopped the search before that move.
    """

    vertices: tuple[VectorClass, ...]
    p1_edges: tuple[int | None, ...]
    p2_edges: tuple[int | None, ...]
    complete: bool

    @property
    def cap_hit(self) -> bool:
        return not self.complete

    @property
    def order(self) -> int:
        return len(self.vertices)


# The default vertex cap of `orbit_bfs` and of `chamcovers orbit --cap`.
DEFAULT_CAP = 10_000


def orbit_bfs(h: EpVector, cap: int = DEFAULT_CAP) -> SchreierGraph:
    """Breadth-first closure of the class of h under both parabolic moves.

    Vertex 0 is `canonical_class(h)`.

    Each vertex is expanded by P1, P1^-1, P2 and P2^-1 in turn.  The letter
    formulas are Z-linear and an automorphism acts letterwise and
    additively, so the letters commute with automorphisms and act on
    classes, where P1^-1 and P2^-1 are the inverses of P1 and P2.  For each
    of P1 and P2 the search keeps the edges known so far as a partial
    permutation (the target and source lists of `_record`).  A computed move
    P(i) = j, or P^-1(j) = i, is one edge i -> j, and with it P^-1 at j and
    P at i are known.  Each letter is a transvection of order dividing the
    group's exponent e (`action` docstring), so every P-cycle of classes has
    a length dividing e.  When the edges known form a path of e - 1 edges
    through e classes, its cycle has length e, and the edge from the last
    class back to the first is known too.  At e = 2 that is the involution
    rule: a computed m(i) = j also gives m(j) = i.  A complete orbit then
    runs, per P1- and P2-cycle of length n, n - 1 letters when n = e and n
    letters otherwise.  Recording an edge walks the path or cycle it joins,
    at most e steps, and e is at most 64 where classes are canonical
    (`groups.MAX_AUT_GROUP_ORDER`).

    A known move is taken without acting or canonicalizing.  It never finds
    a new class, so the cap falls on the same move as when every move is
    computed.  Vertices are expanded in the order they are found, so the
    vertex list is the queue.  The reported edges are those of the moves
    taken: a move the cap stopped has a None edge, even when the edge is
    known from the other end.

    The letters at one vertex read one frame (`action.parabolic_frame`).
    It is built at the vertex's first computed move, handed to each letter
    run there and dropped when the vertex is done, so a vertex whose four
    moves are all known builds none.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    start = canonical_class(h)
    e = start.group.exponent
    index: dict[VectorClass, int] = {start: 0}
    vertices: list[VectorClass] = [start]
    # p1[i] = P1(i) and p1_inv[i] = P1^-1(i) where known, else None; p2 and
    # p2_inv likewise.  Each move reads its own list and records the edge
    # it finds in both lists of its letter.
    p1: list[int | None] = [None]
    p1_inv: list[int | None] = [None]
    p2: list[int | None] = [None]
    p2_inv: list[int | None] = [None]
    tables = (p1, p1_inv, p2, p2_inv)
    moves = ((act_p1, p1, p1_inv), (act_p1_inv, p1_inv, p1))
    moves += ((act_p2, p2, p2_inv), (act_p2_inv, p2_inv, p2))
    cap_hit = False
    i = 0
    while i < len(vertices) and not cap_hit:
        frame = None
        for m, (act, targets, sources) in enumerate(moves):
            if targets[i] is not None:
                continue
            if frame is None:
                frame = parabolic_frame(vertices[i])
            cls = canonical_class(act(vertices[i], frame))
            j = index.setdefault(cls, len(vertices))
            if j == len(vertices):
                if j >= cap:
                    cap_hit = True
                    break
                vertices.append(cls)
                for table in tables:
                    table.append(None)
            _record(targets, sources, i, j, e)
        else:
            i += 1
    # Vertex i was cut at move m: it took P1 when m > 0 and P2 when m > 2.
    taken_p1 = i + (m > 0) if cap_hit else i
    taken_p2 = i + (m > 2) if cap_hit else i
    pad = [None] * len(vertices)
    return SchreierGraph(
        vertices=tuple(vertices),
        p1_edges=tuple(p1[:taken_p1] + pad[taken_p1:]),
        p2_edges=tuple(p2[:taken_p2] + pad[taken_p2:]),
        complete=not cap_hit,
    )


def _record(targets: list, sources: list, a: int, b: int, e: int) -> None:
    """Record the edge a -> b of a letter whose cycles have lengths dividing
    e: targets[a] = b and sources[b] = a, where both were unknown.

    When the edge joins a path of e - 1 edges through e classes, its cycle
    has length e, so the edge from the path's last class to its first is
    recorded too.  `targets` and `sources` may be the lists of P or of
    P^-1: a path of one is a path of the other, read backwards.
    """
    targets[a] = b
    sources[b] = a
    edges = 1
    last = b
    while targets[last] is not None:
        last = targets[last]
        if last == b:  # the edge closed its cycle
            return
        edges += 1
    first = a
    while sources[first] is not None:
        first = sources[first]
        edges += 1
    if edges == e - 1:
        targets[last] = first
        sources[first] = last


_HARD_CAP = 2**21


def veech_index(h: EpVector, verdict: IndexVerdict | None = None) -> int | None:
    """The index of the cover's symmetry group, or None when infinite.

    The relation decision gives the verdict (pass it when already made).  A
    finite one is then measured by one orbit search capped at _HARD_CAP
    vertices: the index is the order of the closed orbit.  An orbit that
    does not close within the cap raises RuntimeError; a capped search only
    shows that the orbit is larger than the cap, not that the two routes
    disagree.
    """
    if verdict is None:
        verdict = decide_finite_index(h)
    if not verdict.finite:
        return None
    graph = orbit_bfs(h, _HARD_CAP)
    if not graph.complete:
        raise RuntimeError(
            "finite-index verdict, but the orbit did not close within "
            f"{_HARD_CAP} vertices"
        )
    return graph.order


def projective_rank(h: EpVector) -> int | None:
    """Free rank of the cover's projective symmetry group (index + 1), or None."""
    idx = veech_index(h)
    return None if idx is None else idx + 1


def _inverse_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for i, j in enumerate(perm):
        out[j] = i
    return tuple(out)


def classify_with_reason(graph: SchreierGraph) -> tuple[GraphType, str | None]:
    """Striezel, Kranz or Other, with the diagnostic for Other verdicts.

    With P1 and P2 involutions the graph is a Schreier graph of the infinite
    dihedral group <P1, P2>.  A connected one is an alternating path with a
    loop at each end (Striezel) or an even alternating cycle (Kranz), and it
    is a path exactly when some vertex has a loop.
    """
    if not graph.complete:
        raise ValueError("cannot classify a truncated orbit graph")
    n = graph.order
    p1, p2 = graph.p1_edges, graph.p2_edges
    for perm, name in ((p1, "P1"), (p2, "P2")):
        if sorted(x for x in perm if x is not None) != list(range(n)):
            return GraphType.OTHER, f"{name} edges are not a permutation"
        if any(perm[perm[i]] != i for i in range(n)):
            return GraphType.OTHER, f"{name} edges are not an involution"
    seen = {0}
    reached = [0]
    for v in reached:
        for w in (p1[v], p2[v]):
            if w not in seen:
                seen.add(w)
                reached.append(w)
    if len(seen) != n:
        return GraphType.OTHER, "graph is not connected"
    if any(p1[i] == i or p2[i] == i for i in range(n)):
        return GraphType.STRIEZEL, None
    return GraphType.KRANZ, None


def classify_type(graph: SchreierGraph) -> GraphType:
    """Striezel (path with two loop ends), Kranz (even alternating cycle), or Other.

    Requires a complete graph over a two-element group.
    """
    if graph.vertices and graph.vertices[0].group.order != 2:
        raise ValueError("graph classification applies to two-element groups only")
    kind, _ = classify_with_reason(graph)
    return kind


def stabilizer_generators(graph: SchreierGraph) -> tuple[Word, ...]:
    """Words generating the stabilizer of vertex 0, from a spanning tree.

    One word per non-tree forward edge; for a complete graph of order n the
    count is n + 1 (the free rank of the stabilizer).
    """
    if not graph.complete:
        raise ValueError("stabilizer generators need a complete orbit graph")
    n = graph.order
    p1, p2 = graph.p1_edges, graph.p2_edges
    moves = (
        (GeneratorLetter.P1, 1, p1),
        (GeneratorLetter.P1, -1, _inverse_perm(p1)),
        (GeneratorLetter.P2, 1, p2),
        (GeneratorLetter.P2, -1, _inverse_perm(p2)),
    )
    transversal: list[tuple | None] = [None] * n
    transversal[0] = ()
    reached = [0]
    for v in reached:
        for ltr, exp, perm in moves:
            w = perm[v]
            if transversal[w] is None:
                transversal[w] = ((ltr, exp),) + transversal[v]
                reached.append(w)
    gens: list[Word] = []
    for v in range(n):
        for ltr, perm in ((GeneratorLetter.P1, p1), (GeneratorLetter.P2, p2)):
            w = perm[v]
            inverse_tw = tuple((l, -e) for l, e in reversed(transversal[w]))
            reduced = simplify_word(inverse_tw + ((ltr, 1),) + transversal[v])
            if reduced.letters:
                gens.append(reduced)
    return tuple(gens)


def orbit_report(graph: SchreierGraph) -> dict:
    """A JSON-ready summary: order, vertex serializations, edge arrays, type."""
    if graph.vertices and graph.vertices[0].group.order == 2 and graph.complete:
        kind = classify_type(graph).value
    else:
        kind = None
    return {
        "order": graph.order,
        "vertices": [format_vector(c) for c in graph.vertices],
        "p1_edges": list(graph.p1_edges),
        "p2_edges": list(graph.p2_edges),
        "type": kind,
    }


def dot_from_report(report: dict) -> str:
    """Deterministic DOT rendering of an orbit report."""
    lines = ["digraph schreier {", "  rankdir=LR;"]
    for i, label in enumerate(report["vertices"]):
        lines.append(f'  {i} [label="{label}"];')
    for i, j in enumerate(report["p1_edges"]):
        if j is not None:
            lines.append(f'  {i} -> {j} [label="P1"];')
    for i, j in enumerate(report["p2_edges"]):
        if j is not None:
            lines.append(f'  {i} -> {j} [label="P2"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def schreier_dot(graph: SchreierGraph) -> str:
    """DOT text for the graph; byte-stable across runs for the same input."""
    return dot_from_report(orbit_report(graph))
