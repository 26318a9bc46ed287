"""Coset (Schreier) graphs of vector classes under the two parabolic letters.

Vertices are automorphism classes of vectors; vertex 0 is the input class.
Edges record the forward P1 and P2 moves; breadth-first closure also follows
the inverse moves so the vertex set is the full orbit.  The central letter
acts trivially on classes and is omitted.  A cap bounds the number of
vertices: hitting it is a verdict ("did not close within cap"), not an error.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from .action import (
    GeneratorLetter,
    Word,
    act_p1,
    act_p1_inv,
    act_p2,
    act_p2_inv,
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
    None when the vertex was never expanded (only possible after a cap hit).
    """

    vertices: tuple[VectorClass, ...]
    p1_edges: tuple[int | None, ...]
    p2_edges: tuple[int | None, ...]
    complete: bool
    cap_hit: bool

    @property
    def order(self) -> int:
        return len(self.vertices)


def orbit_bfs(h: EpVector | VectorClass, cap: int = 10000) -> SchreierGraph:
    """Breadth-first closure of the class of h under both parabolic moves.

    h is a vector, or its class as `canonical_class` returned it, which is
    then vertex 0 as it is: a caller that already holds the class does not
    canonicalize the start a second time.

    Each vertex is expanded by P1, P1^-1, P2 and P2^-1 in turn, and each
    undirected edge is computed once.  The letter formulas are Z-linear and
    an automorphism acts letterwise and additively, so the letters commute
    with automorphisms and act on classes, where P1^-1 and P2^-1 are the
    inverses of P1 and P2.  A computed move P1(i) = j thus also gives
    P1^-1(j) = i (and P1^-1(i) = j gives P1(j) = i, likewise for P2); that
    known move is taken without acting or canonicalizing.  A known move
    never finds a new class, so the cap falls on the same move as when every
    move is computed.  The edge arrays record the moves made while expanding
    a vertex: an unexpanded vertex has None edges, even when its edge is
    known from the other end.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    start = h if isinstance(h, VectorClass) else canonical_class(h)
    index: dict[VectorClass, int] = {start: 0}
    vertices: list[VectorClass] = [start]
    p1_map: dict[int, int] = {}
    p2_map: dict[int, int] = {}
    # known[m][i] is the target of move m at vertex i when the inverse move
    # already computed it; the moves are numbered so that m ^ 1 is m's inverse.
    known: tuple[dict[int, int], ...] = ({}, {}, {}, {})
    moves = ((act_p1, p1_map), (act_p1_inv, None), (act_p2, p2_map), (act_p2_inv, None))
    queue: deque[int] = deque([0])
    cap_hit = False
    while queue and not cap_hit:
        i = queue.popleft()
        rep = vertices[i].representative
        for m, (act, forward) in enumerate(moves):
            j = known[m].pop(i, None)
            if j is None:
                cls = canonical_class(act(rep))
                j = index.get(cls)
                if j is None:
                    if len(vertices) >= cap:
                        cap_hit = True
                        break
                    j = len(vertices)
                    index[cls] = j
                    vertices.append(cls)
                    queue.append(j)
                known[m ^ 1][j] = i
            if forward is not None:
                forward[i] = j
    complete = not cap_hit
    return SchreierGraph(
        vertices=tuple(vertices),
        p1_edges=tuple(p1_map.get(i) for i in range(len(vertices))),
        p2_edges=tuple(p2_map.get(i) for i in range(len(vertices))),
        complete=complete,
        cap_hit=cap_hit,
    )


_HARD_CAP = 2**21


def veech_index(h: EpVector, verdict: IndexVerdict | None = None) -> int | None:
    """The index of the cover's symmetry group, or None when infinite.

    The relation decision gives the verdict (pass it when already made).  A
    finite one is then checked by one orbit search capped at _HARD_CAP
    vertices: the index is the order of the closed orbit, and an orbit that
    does not close means the two routes disagree.
    """
    if verdict is None:
        verdict = decide_finite_index(h)
    if not verdict.finite:
        return None
    graph = orbit_bfs(h, _HARD_CAP)
    if not graph.complete:
        raise RuntimeError(
            "finite-index verdict but the orbit did not close below "
            f"{_HARD_CAP} vertices; the two decision routes disagree"
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
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for ltr, exp, perm in moves:
            w = perm[v]
            if transversal[w] is None:
                transversal[w] = ((ltr, exp),) + transversal[v]
                queue.append(w)
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
        "vertices": [
            format_vector(c.representative) for c in graph.vertices
        ],
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
