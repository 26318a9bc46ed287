import itertools
import random

import pytest

from chamcovers import (
    GraphType,
    VectorClass,
    WnElement,
    act_word,
    canonical_class,
    classify_type,
    classify_with_reason,
    enumerate_wn_star,
    expand,
    format_vector,
    format_word,
    generates,
    orbit_bfs,
    orbit_report,
    parse_group,
    parse_vector,
    projective_rank,
    schreier_dot,
    stabilizer_generators,
    veech_index,
)
from chamcovers import orbit
from chamcovers.action import parabolic_frame
from chamcovers.orbit import SchreierGraph
from conftest import code_of, h_pow_fixed, oracle_orbit_bfs, public_copy, random_vector

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")

PARITY = parse_vector(Z2, "L=(1,0);R=(1,0)")
FOURP = expand(WnElement(2, (0, 1)))
SINGLE = parse_vector(Z2, "L=(0);R=1|(0)")


def test_orbit_of_parity_vector_is_one_vertex_with_both_loops():
    g = orbit_bfs(PARITY)
    assert g.order == 1
    assert g.complete and not g.cap_hit
    assert g.p1_edges == (0,)
    assert g.p2_edges == (0,)
    assert classify_type(g) is GraphType.STRIEZEL


def test_orbit_of_four_periodic_vector():
    g = orbit_bfs(FOURP)
    assert g.order == 2
    assert g.complete
    assert g.p1_edges == (1, 0)
    assert g.p2_edges == (0, 1)
    assert classify_type(g) is GraphType.STRIEZEL
    labels = {format_vector(c.representative) for c in g.vertices}
    assert labels == {"L=(1,1,0,0);R=(0,1,1,0)", "L=(0,1,1,0);R=(1,1,0,0)"}


def test_orbit_vertex_zero_is_the_input_class():
    g = orbit_bfs(FOURP)
    assert g.vertices[0] == canonical_class(FOURP)


def test_orbit_closed_under_inverse_moves():
    from chamcovers import act_p1_inv, act_p2_inv

    h = h_pow_fixed(Z3, (Z3.elem(1), Z3.elem(1)))
    g = orbit_bfs(h)
    assert g.complete
    classes = set(g.vertices)
    for c in g.vertices:
        rep = c.representative
        assert canonical_class(act_p1_inv(rep)) in classes
        assert canonical_class(act_p2_inv(rep)) in classes


def test_cap_hit_is_a_verdict_not_an_error():
    g = orbit_bfs(SINGLE, cap=120)
    assert g.cap_hit and not g.complete
    assert g.order == 120
    with pytest.raises(ValueError):
        classify_type(g)


def test_veech_index_values():
    assert veech_index(PARITY) == 1
    assert veech_index(FOURP) == 2
    assert veech_index(SINGLE) is None
    for e in (WnElement(3, (0, 1, 1)), WnElement(3, (1, 1, 0))):
        assert veech_index(expand(e)) == 3


# Fixed by H^8 over Z3 (`h_pow_fixed` with parameters 1,2,0,1,2,0,1,1): a
# finite-index vector whose orbit has 640 classes.
Z3_H8 = "L=(1,2,0,1,2,0,1,1);R=(1,1,0,2,1,0,2,1)"


def test_veech_index_cap_hit_says_the_orbit_did_not_close(monkeypatch):
    h = parse_vector(Z3, Z3_H8)
    assert h == h_pow_fixed(Z3, tuple(Z3.elem(r) for r in (1, 2, 0, 1, 2, 0, 1, 1)))
    assert veech_index(h) == 640
    monkeypatch.setattr(orbit, "_HARD_CAP", 100)
    with pytest.raises(RuntimeError) as info:
        veech_index(h)
    assert str(info.value) == (
        "finite-index verdict, but the orbit did not close within 100 vertices"
    )


def test_projective_rank_values():
    assert projective_rank(PARITY) == 2
    assert projective_rank(FOURP) == 3
    assert projective_rank(SINGLE) is None
    assert projective_rank(expand(WnElement(3, (0, 1, 1)))) == 4
    assert projective_rank(expand(WnElement(4, (0, 1, 0, 0)))) == 5


def test_classify_both_three_letter_orbits_as_paths():
    for bits in ((0, 1, 1), (1, 1, 0)):
        g = orbit_bfs(expand(WnElement(3, bits)))
        assert classify_type(g) is GraphType.STRIEZEL


def test_classify_cycle_orbit():
    # The first cycle-shaped orbit appears among the six-bit vectors.
    from chamcovers import enumerate_wn_star, p1_bits, p2_bits

    seed = None
    for e in enumerate_wn_star(6):
        orbit = {code_of(e.bits)}
        frontier = list(orbit)
        while frontier:
            b = frontier.pop()
            for img in (p1_bits(b), p2_bits(b)):
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        if all(p1_bits(b) != b and p2_bits(b) != b for b in orbit):
            seed = e
            break
    assert seed is not None
    g = orbit_bfs(expand(seed))
    assert g.complete
    assert g.order % 2 == 0
    assert classify_type(g) is GraphType.KRANZ


def test_classify_rejects_non_degree_two():
    h = parse_vector(Z3, "L=(1);R=(1)")
    g = orbit_bfs(h)
    with pytest.raises(ValueError):
        classify_type(g)


def _graph(p1, p2):
    c = canonical_class(PARITY)
    return SchreierGraph(
        vertices=(c,) * len(p1), p1_edges=p1, p2_edges=p2, complete=True
    )


def test_classify_with_reason_flags_malformed_graph():
    kind, reason = classify_with_reason(_graph((1, 0), (1, 1)))
    assert kind is GraphType.OTHER
    assert reason


def _involutions(n):
    """Every involution of range(n), as a tuple of images."""
    if n == 0:
        yield ()
        return
    # Vertex n - 1 is fixed or swapped with some earlier vertex j.
    for rest in _involutions(n - 1):
        yield rest + (n - 1,)
        for j in range(n - 1):
            if rest[j] == j:
                yield rest[:j] + (n - 1,) + rest[j + 1 :] + (j,)


def test_classify_matches_edge_count_oracle_on_all_involution_pairs():
    # A connected graph on n vertices with n - 1 edges is a tree, and with n
    # edges it has exactly one cycle; an edge is one swapped pair of a letter.
    for n in range(1, 7):
        invs = list(_involutions(n))
        for p1 in invs:
            for p2 in invs:
                root = list(range(n))

                def find(v):
                    while root[v] != v:
                        v = root[v]
                    return v

                for perm in (p1, p2):
                    for i, j in enumerate(perm):
                        root[find(i)] = find(j)
                connected = len({find(v) for v in range(n)}) == 1
                edges = sum(i < j for perm in (p1, p2) for i, j in enumerate(perm))
                kind, reason = classify_with_reason(_graph(p1, p2))
                assert (kind is GraphType.STRIEZEL) == (connected and edges == n - 1)
                assert (kind is GraphType.KRANZ) == (connected and edges == n)
                assert (kind is GraphType.OTHER) == (reason is not None)


def test_classify_two_components_is_other():
    # Vertex 0 carries both loops; vertices 1 and 2 form a 2-cycle.
    kind, reason = classify_with_reason(_graph((0, 2, 1), (0, 2, 1)))
    assert kind is GraphType.OTHER
    assert reason == "graph is not connected"


def test_stabilizer_generators_index_one():
    gens = stabilizer_generators(orbit_bfs(PARITY))
    assert [format_word(w) for w in gens] == ["P1", "P2"]


def test_stabilizer_generators_index_two():
    g = orbit_bfs(FOURP)
    gens = stabilizer_generators(g)
    assert len(gens) == 3
    words = {format_word(w) for w in gens}
    assert "P2" in words
    assert "P1^2" in words
    base = canonical_class(FOURP)
    for w in gens:
        assert canonical_class(act_word(FOURP, w)) == base


def test_stabilizer_generator_count_is_index_plus_one():
    for e in itertools.chain(
        (WnElement(3, b) for b in ((0, 1, 1), (1, 1, 0))),
        (WnElement(4, b) for b in ((0, 1, 0, 0), (0, 0, 0, 1))),
    ):
        h = expand(e)
        g = orbit_bfs(h)
        gens = stabilizer_generators(g)
        assert len(gens) == g.order + 1
        base = canonical_class(h)
        for w in gens:
            assert canonical_class(act_word(h, w)) == base


def test_stabilizer_needs_complete_graph():
    g = orbit_bfs(SINGLE, cap=10)
    with pytest.raises(ValueError):
        stabilizer_generators(g)


def test_schreier_dot_golden_one_vertex():
    expected = (
        "digraph schreier {\n"
        '  rankdir=LR;\n'
        '  0 [label="L=(1,0);R=(1,0)"];\n'
        '  0 -> 0 [label="P1"];\n'
        '  0 -> 0 [label="P2"];\n'
        "}\n"
    )
    assert schreier_dot(orbit_bfs(PARITY)) == expected


def test_schreier_dot_two_vertices_deterministic():
    g1 = schreier_dot(orbit_bfs(FOURP))
    g2 = schreier_dot(orbit_bfs(expand(WnElement(2, (0, 1)))))
    assert g1 == g2
    assert 'label="P1"' in g1 and 'label="P2"' in g1
    assert g1.count("->") == 4


def test_orbit_report_shape():
    rep = orbit_report(orbit_bfs(FOURP))
    assert rep["order"] == 2
    assert rep["type"] == "Striezel"
    assert rep["vertices"] == [
        "L=(1,1,0,0);R=(0,1,1,0)",
        "L=(0,1,1,0);R=(1,1,0,0)",
    ]
    assert rep["p1_edges"] == [1, 0]
    assert rep["p2_edges"] == [0, 1]


def test_orbit_terminates_on_seamed_hyperbolic_fixed_vector():
    h = parse_vector(Z3, "L=(1,0,2);R=(2,0,1)")
    g = orbit_bfs(h)
    assert g.complete
    assert veech_index(h) == g.order


def test_adaptive_index_matches_direct_bfs():
    rng = random.Random(21)
    elems = [e for e in Z3.elements() if not e.is_zero()]
    for a in elems:
        h = h_pow_fixed(Z3, (a,))
        idx = veech_index(h)
        g = orbit_bfs(h, cap=100000)
        assert g.complete and idx == g.order


def test_orbit_vertices_generate_the_group():
    # Each letter is Z-linear with a Z-linear inverse, so an image's letters
    # span what the input's letters span, and an automorphism maps G onto G:
    # every vertex generates G, and each representative inherits that answer
    # from the start.  A copy rebuilt through the public constructor
    # remembers nothing, so `generates` computes the answer afresh on it.
    rng = random.Random(17)
    graphs = [orbit_bfs(FOURP)]
    for spec in ("Z2", "Z3", "Z4", "Z6", "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2"):
        group = parse_group(spec)
        graphs += [orbit_bfs(random_vector(group, rng), cap=20) for _ in range(3)]
    for graph in graphs:
        for cls in graph.vertices:
            assert cls.representative._gen is True
            assert generates(public_copy(cls.representative))


def test_orbit_vertices_are_their_own_least_vectors():
    # One object per class: each vertex is the class's least vector itself,
    # with no wrapper and no per-instance dict, and is canonical as it is.
    starts = (
        FOURP,
        parse_vector(Z3, "L=(1,0);R=(1,0)"),
        parse_vector(parse_group("Z2xZ4"), "L=1:3,0:2|(1:1,0:1);R=0:1|(1:0,1:2,0:3)"),
    )
    for h in starts:
        graph = orbit_bfs(h, cap=40)
        assert graph.order > 1
        for v in graph.vertices:
            assert type(v) is VectorClass
            assert v.representative is v
            assert not hasattr(v, "__dict__")
            assert canonical_class(v) is v


def test_orbit_bfs_refuses_a_non_generating_start():
    with pytest.raises(ValueError, match="do not generate"):
        orbit_bfs(parse_vector(Z4, "L=(0);R=2|(0)"))


# The four infinite-index probes of acceptance test 08.
PROBES = (
    parse_vector(Z3, "L=(0);R=1|(0)"),
    parse_vector(Z3, "L=(1,0);R=(1,0)"),
    parse_vector(Z4, "L=1|(0);R=2,3|(0)"),
    parse_vector(Z4, "L=(0);R=1,1|(0)"),
)


CUT_CAPS = range(1, 33)


@pytest.mark.parametrize("cap", CUT_CAPS)
def test_orbit_bfs_matches_oracle_search_on_probes_cut_mid_vertex(cap):
    # These caps stop the search while it expands a vertex.  At the larger
    # caps many moves were taken as known from their other end, and the cut
    # must still fall on the same move as in the oracle, which computes every
    # move, with the same None edges after it.
    for h in PROBES:
        graph = orbit_bfs(h, cap=cap)
        reps, p1, p2, cap_hit = oracle_orbit_bfs(h, cap=cap)
        assert tuple(c.representative for c in graph.vertices) == reps
        assert (graph.p1_edges, graph.p2_edges, graph.cap_hit) == (p1, p2, cap_hit)
        assert cap_hit and graph.order == cap


def test_probe_cuts_fall_on_every_move(monkeypatch):
    # The move that finds the class over the cap is the last letter run.
    # Across CUT_CAPS it is each of the four, so the oracle comparison above
    # checks the None edges left by a cut at every position in a vertex.
    ran = []
    for name in ("act_p1", "act_p1_inv", "act_p2", "act_p2_inv"):
        letter = getattr(orbit, name)
        monkeypatch.setattr(
            orbit,
            name,
            lambda h, *rest, name=name, letter=letter: ran.append(name) or letter(h, *rest),
        )
    cut_moves = set()
    for cap in CUT_CAPS:
        for h in PROBES:
            ran.clear()
            assert orbit_bfs(h, cap=cap).cap_hit
            cut_moves.add(ran[-1])
    assert cut_moves == {"act_p1", "act_p1_inv", "act_p2", "act_p2_inv"}


def _cycle_lengths(perm):
    """The lengths of the cycles of a permutation given as a target list."""
    lengths, seen = [], set()
    for i in range(len(perm)):
        n, j = 0, i
        while j not in seen:
            seen.add(j)
            j = perm[j]
            n += 1
        if n:
            lengths.append(n)
    return lengths


def test_complete_orbit_computes_each_edge_once(monkeypatch):
    # Each of the 4n moves of a complete orbit of order n pairs with the
    # inverse move at its target, and exactly one move of each pair runs.
    # P1 and P2 are transvections, so their cycles have lengths dividing the
    # group's exponent e, and the last edge of a cycle of length e is known
    # once its other e - 1 edges are: such a cycle runs e - 1 letters and
    # any other cycle one per edge.  At e = 2 that is one letter per cycle.
    calls = []
    for name in ("act_p1", "act_p1_inv", "act_p2", "act_p2_inv"):
        letter = getattr(orbit, name)
        monkeypatch.setattr(
            orbit, name, lambda h, *rest, letter=letter: calls.append(h) or letter(h, *rest)
        )
    z2xz2 = parse_group("Z2xZ2")
    zero, a, b = z2xz2.zero(), *z2xz2.factor_generators()
    starts = [PARITY, FOURP]
    # Over Z2xZ2 a path of 4 classes and a cycle of 8.
    starts += [h_pow_fixed(z2xz2, (zero, zero, a, b)), h_pow_fixed(z2xz2, (zero, a, zero, a + b))]
    starts += [expand(e) for e in enumerate_wn_star(5)]
    # H^2-fixed orbits whose letter counts are pinned below.
    pinned = {"Z3": 12, "Z5": 40, "Z4": 7, "Z6": 30}
    params = {"Z3": (1, 2), "Z5": (1, 2), "Z4": (1, 3), "Z6": (1, 5)}
    for spec, (x, y) in params.items():
        group = parse_group(spec)
        starts.append(h_pow_fixed(group, (group.elem(x), group.elem(y))))
    seen = set()
    for h in starts:
        calls.clear()
        graph = orbit_bfs(h)
        assert graph.complete
        e = h.group.exponent
        expected = sum(
            n - 1 if n == e else n
            for perm in (graph.p1_edges, graph.p2_edges)
            for n in _cycle_lengths(perm)
        )
        assert len(calls) == expected, format_vector(h)
        if h.group.spec() in pinned:
            assert len(calls) == pinned[h.group.spec()], h.group.spec()
        if e == 2:
            assert len(calls) == sum(
                p[i] >= i for p in (graph.p1_edges, graph.p2_edges) for i in range(graph.order)
            )
        seen.add((h.group.moduli, graph.order))
    assert {((2, 2), 4), ((2, 2), 8)} <= seen
    assert {(3,), (4,), (5,), (6,)} <= {moduli for moduli, _ in seen}


def test_orbit_bfs_builds_one_frame_per_vertex_that_runs_a_letter(monkeypatch):
    # The letters at a vertex share the frame built there; a vertex whose four
    # moves are all known from their other ends builds none.
    built, received = [], []

    def frame_of(h):
        built.append(parabolic_frame(h))
        return built[-1]

    monkeypatch.setattr(orbit, "parabolic_frame", frame_of)
    for name in ("act_p1", "act_p1_inv", "act_p2", "act_p2_inv"):
        letter = getattr(orbit, name)
        monkeypatch.setattr(
            orbit,
            name,
            lambda h, frame, letter=letter: received.append((h, frame)) or letter(h, frame),
        )
    # The Z4 orbits (4 and 16 classes) each have one vertex whose four moves
    # are all known; the probes stop at a cap.
    starts = [FOURP, h_pow_fixed(Z3, (Z3.elem(1), Z3.elem(2)))]
    starts += [
        parse_vector(Z4, "L=(3,1,0,2,1,3,2,0);R=(0,1,3,0,2,3,1,2)"),
        parse_vector(Z4, "L=(0,1,2,0);R=(0,1,2,0)"),
    ]
    starts = [(h, 10_000) for h in starts] + [(h, 9) for h in PROBES]
    skipped = 0
    for h, cap in starts:
        built.clear()
        received.clear()
        graph = orbit_bfs(h, cap=cap)
        ran_at = list(dict.fromkeys(id(v) for v, _ in received))
        assert [id(frame[0]) for frame in built] == ran_at
        frame_at = {id(frame[0]): frame for frame in built}
        assert all(frame is frame_at[id(v)] for v, frame in received)
        if graph.complete:
            skipped += graph.order - len(built)
    assert skipped > 0


def _closed_against_oracle(group, rng, caps) -> int:
    """Compare `orbit_bfs` with the oracle search from three random starts
    and an H^5-fixed one at each cap; return how many searches closed."""
    gens = tuple(group.factor_generators())
    starts = [random_vector(group, rng) for _ in range(3)]
    starts.append(h_pow_fixed(group, (group.zero(),) * (5 - len(gens)) + gens))
    closed = 0
    for h in starts:
        for cap in caps:
            graph = orbit_bfs(h, cap=cap)
            reps, p1, p2, cap_hit = oracle_orbit_bfs(h, cap=cap)
            assert tuple(c.representative for c in graph.vertices) == reps
            assert (graph.p1_edges, graph.p2_edges, graph.cap_hit) == (p1, p2, cap_hit)
            closed += graph.complete
    return closed


@pytest.mark.parametrize("spec", ["Z2", "Z2xZ2", "Z2xZ2xZ2"])
def test_orbit_bfs_matches_oracle_search_over_exponent_two_groups(spec):
    # Here a computed move also gives its inverse and the move back from its
    # target; the oracle computes all four moves at every vertex.  The caps
    # cut the searches after different moves.  The H^5-fixed orbit is a path
    # of 5 classes.
    group, caps = parse_group(spec), (1, 2, 3, 5, 8, 16)
    assert _closed_against_oracle(group, random.Random(27), caps) >= 3


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z5", "Z6", "Z8", "Z2xZ3"])
def test_orbit_bfs_matches_oracle_search_where_cycles_close(spec):
    # A path of e - 1 known edges gives its cycle's last edge (e the group's
    # exponent).  At every cap from 1 to 16 a cut can fall between the move
    # that closes a cycle and the vertex that takes the closing edge.  Over
    # Z2xZ3 the largest modulus is not the exponent.
    _closed_against_oracle(parse_group(spec), random.Random(30), range(1, 17))


def test_orbit_bfs_matches_oracle_search_over_product_groups():
    # The letter kernel and the refined canonical images against the window
    # oracles and the brute-force minimum, at the level of a whole search.
    rng = random.Random(88)
    closed = 0
    for spec in ("Z2xZ4", "Z3xZ3"):
        group = parse_group(spec)
        starts = [random_vector(group, rng) for _ in range(3)]
        starts.append(h_pow_fixed(group, tuple(group.factor_generators())))
        for h in starts:
            graph = orbit_bfs(h, cap=16)
            reps, p1, p2, cap_hit = oracle_orbit_bfs(h, cap=16)
            assert tuple(c.representative for c in graph.vertices) == reps
            assert (graph.p1_edges, graph.p2_edges, graph.cap_hit) == (p1, p2, cap_hit)
            closed += graph.complete
    assert closed >= 1
