#!/usr/bin/env python3
"""Mutation smoke check: every fast path's tests must catch a planted slip.

    python3 tests/mutants.py [NAME ...]

Each mutant is an exact source snippet, which must occur exactly once in its
file under ``src/chamcovers``, its replacement, and the test node ids that
must fail with the replacement in place.  The script first runs every named
test on an unchanged copy of ``src/`` (they must pass there), then, for each
mutant, applies it to a fresh temporary copy of ``src/`` and runs
``python -m pytest -q -x`` on its tests with that copy first on PYTHONPATH.
The mutants run `WORKERS` at a time, each in its own copy, and their
results print in `MUTANTS` order.
A surviving mutant fails the run (exit status 1), and so does a snippet that
is missing or occurs more than once: a refactor has to re-aim its mutants
rather than drop them.  Give mutant names to run only those.

Standard library only; pytest does not collect this file (it is not named
``test_*.py``).  Mutation analysis as in DeMillo, Lipton and Sayward, "Hints
on test data selection: help for the practicing programmer", IEEE Computer
11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A mutant that makes its tests run this long counts as killed (they did not pass).
TIMEOUT_S = 120
# Mutants whose tests run at once, each in its own pytest process.
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/chamcovers
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "star divisors from 2",
        "degree2.py",
        "    outside = {1 << n}\n    for m in range(1, n):\n",
        "    outside = {1 << n}\n    for m in range(2, n):\n",
        ("tests/test_degree2.py::test_enumerate_wn_star_small",),
    ),
    Mutant(
        "zero tuple inside W_n*",
        "degree2.py",
        "    outside = {1 << n}\n",
        "    outside = set()\n",
        ("tests/test_degree2.py::test_enumerate_wn_star_small",),
    ),
    Mutant(
        "P2 is P1 two bits down instead of one",
        "degree2.py",
        "p1_bits(code >> 1) << 1",
        "p1_bits(code >> 2) << 1",
        ("tests/test_degree2.py::test_bit_moves_match_extension_oracle",),
    ),
    Mutant(
        "Kranz walk skips the U-orbit of P1(seed)",
        "degree2.py",
        "    return members + _u_orbit(mirror, n), False\n",
        "    return members, False\n",
        ("tests/test_degree2.py::test_orbit_walk_matches_oracle_from_every_seed",),
    ),
    Mutant(
        "census forgets placed orbits",
        "degree2.py",
        "            placed[code] = 1\n",
        "",
        ("tests/test_degree2.py::test_census_matches_its_pinned_digest",),
    ),
    Mutant(
        "walk mirrors the seed by P2, not P1",
        "degree2.py",
        "    mirror = p1_bits(seed)\n",
        "    mirror = p2_bits(seed)\n",
        ("tests/test_degree2.py::test_orbit_walk_matches_oracle_from_every_seed",),
    ),
    Mutant(
        "census walk flags every cycle as a path",
        "degree2.py",
        "    return members + _u_orbit(mirror, n), False\n",
        "    return members + _u_orbit(mirror, n), True\n",
        ("tests/test_degree2.py::test_census_matches_oracle_census",),
    ),
    Mutant(
        "U drops its h_n term",
        "degree2.py",
        "    hn = start & 1\n",
        "    hn = 0\n",
        ("tests/test_degree2.py::test_u_is_p2_after_p1_on_every_code",),
    ),
    Mutant(
        "U shears by h_n instead of h_1",
        "degree2.py",
        "(sheared if code & h1 else plain)",
        "(sheared if code & 1 else plain)",
        ("tests/test_degree2.py::test_u_is_p2_after_p1_on_every_code",),
    ),
    Mutant(
        "U walk never checks that it closed",
        "degree2.py",
        "    if code != start:\n",
        "    if False:\n",
        ("tests/test_degree2.py::test_orbit_walk_refuses_an_orbit_that_does_not_close",),
    ),
    Mutant(
        "known move stored for the move itself",
        "orbit.py",
        "    sources[b] = a\n",
        "    targets[b] = a\n",
        ("tests/test_orbit.py::test_orbit_bfs_matches_oracle_search_over_product_groups",),
    ),
    Mutant(
        "one frame for the whole search",
        "orbit.py",
        "    while i < len(vertices) and not cap_hit:\n        frame = None\n",
        "    frame = None\n    while i < len(vertices) and not cap_hit:\n",
        ("tests/test_orbit.py::test_orbit_bfs_matches_oracle_search_over_product_groups",),
    ),
    Mutant(
        "involution record dropped",
        "orbit.py",
        "        targets[last] = first\n",
        "        pass\n",
        ("tests/test_orbit.py::test_complete_orbit_computes_each_edge_once",),
    ),
    Mutant(
        "chain closes after e edges",
        "orbit.py",
        "    if edges == e - 1:\n",
        "    if edges == e:\n",
        ("tests/test_orbit.py::test_complete_orbit_computes_each_edge_once",),
    ),
    Mutant(
        "exponent read as the largest modulus",
        "groups.py",
        "        return math.lcm(*self.moduli)\n",
        "        return max(self.moduli)\n",
        ("tests/test_orbit.py::test_orbit_bfs_matches_oracle_search_where_cycles_close",),
    ),
    Mutant(
        "involution flag on even moduli",
        "action.py",
        "    if h.group.exponent == 2:\n        return involution(h)\n",
        "    if h.group.exponent % 2 == 0:\n        return involution(h)\n",
        ("tests/test_orbit.py::test_orbit_bfs_matches_oracle_search_over_product_groups",),
    ),
    Mutant(
        "P exponent reduced mod e + 1",
        "action.py",
        "        k = exp % e\n",
        "        k = exp % (e + 1)\n",
        ("tests/test_action.py::test_p_powers_match_repeated_letters",),
    ),
    Mutant(
        "codes read as residues over every group",
        "action.py",
        "    if len(moduli) == 1:",
        "    if True:",
        ("tests/test_orbit.py::test_orbit_bfs_matches_oracle_search_over_product_groups",),
    ),
    Mutant(
        "P2 keeps h_{-1} + h_0 at k = -1",
        "action.py",
        "    out[L] = c\n    return out\n\n\ndef _p2_inv_residues",
        "    return out\n\n\ndef _p2_inv_residues",
        (
            "tests/test_action.py::"
            "test_p2_near_entries_match_window_oracle_on_product_and_cyclic_groups",
        ),
    ),
    Mutant(
        "P2 reads h_{-k} for h_{-k-1} where it reads S",
        "action.py",
        "zip(far, l[:L] * 2, s[:L] * 2)",
        "zip(l[:L] + (0,) + r[: L - 1], l[:L] * 2, s[:L] * 2)",
        ("tests/test_action.py::test_actions_match_window_oracle_on_seeded_corpus",),
    ),
    Mutant(
        "Z3 factors skip S like Z2 factors",
        "action.py",
        " if drifts and n > 2 else None\n",
        " if drifts and n > 3 else None\n",
        ("tests/test_action.py::test_actions_match_window_oracle_on_seeded_corpus",),
    ),
    Mutant(
        "H^n tail reads one left entry too far out",
        "action.py",
        "        tail = r[: L - n] + l[n : L + n]\n",
        "        tail = r[: L - n] + l[n + 1 : L + n + 1]\n",
        ("tests/test_action.py::test_h_pow_matches_window_oracle",),
    ),
    Mutant(
        "P2 never pulls its left side's first code",
        "action.py",
        "    if h.rpre or h.rper[-1]:\n",
        "    if True:\n",
        (
            "tests/test_action.py::"
            "test_exponent_two_letters_match_window_oracle_and_are_stored_normal",
        ),
    ),
    Mutant(
        "P2 reads an empty left prefix's period from h_{-1}",
        "action.py",
        "h.lper[1:] + h.lper[:1]",
        "h.lper",
        (
            "tests/test_action.py::"
            "test_exponent_two_letters_match_window_oracle_and_are_stored_normal",
        ),
    ),
    Mutant(
        "normal side does not rotate its period",
        "vectors.py",
        "    return prefix[: m - j], period[r:] + period[:r]\n",
        "    return prefix[: m - j], period\n",
        ("tests/test_vectors.py::test_normalize_idempotent_and_entry_preserving",),
    ),
    Mutant(
        "primitive period compared at the wrong shift",
        "vectors.py",
        "period[d:] != period[:-d]",
        "period[d + 1 :] != period[: -d - 1]",
        ("tests/test_vectors.py::test_normal_side_matches_brute_force_oracle",),
    ),
    Mutant(
        "non-identity canonical image leaves one word unmapped",
        "vectors.py",
        "        tuple(map(image, lper)),\n",
        "        lper,\n",
        ("tests/test_vectors.py::test_canonical_class_matches_brute_force_oracle",),
    ),
    Mutant(
        "multiples of a generator image start at the image, not at 0",
        "groups.py",
        "                multiples = [0]\n",
        "                multiples = [x]\n",
        ("tests/test_groups.py::test_automorphism_tables_match_residue_oracle_in_order",),
    ),
    Mutant(
        "refinement keeps the greatest image",
        "groups.py",
        "        least = min([phi.codes[c] for phi in self.survivors])\n",
        "        least = max([phi.codes[c] for phi in self.survivors])\n",
        ("tests/test_vectors.py::test_canonical_class_matches_brute_force_oracle",),
    ),
    Mutant(
        "identity survives every split",
        "groups.py",
        "            child = Refinement(kept, self.fixes and least == c)\n",
        "            child = Refinement(kept, self.fixes)\n",
        ("tests/test_vectors.py::test_canonical_class_matches_brute_force_oracle",),
    ),
    Mutant(
        "any least input is returned as its own class",
        "vectors.py",
        "        if type(h) is VectorClass:\n",
        "        if True:\n",
        ("tests/test_orbit.py::test_orbit_vertices_are_their_own_least_vectors",),
    ),
    Mutant(
        "corner relation never fails",
        "finite_index.py",
        "        lhs, rhs = combo((1, far)), combo((-2, near))\n",
        "        lhs, rhs = combo((1, far)), combo((1, far))\n",
        ("tests/test_finite_index.py::test_long_relation_windows_finish_fast",),
    ),
    Mutant(
        "orbit cache skips its digest check",
        "cli.py",
        "        if hashlib.sha256(body.encode()).hexdigest() != digest:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_orbit_cache_corrupted_entry",),
    ),
)


def _pytest(src: Path, tests) -> tuple[int | None, str, float]:
    """Run the tests against the package in src: pytest's exit status (None
    after a timeout), its first FAILED line, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, "timed out", time.perf_counter() - start
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, (failed or [""])[0], time.perf_counter() - start


def _copy(tmp: Path, mutant: Mutant | None) -> Path:
    """A copy of src/ under tmp with the mutant applied; ValueError if its
    snippet does not occur exactly once."""
    src = tmp / ("src" if mutant is None else f"src-{MUTANTS.index(mutant)}")
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "chamcovers" / mutant.path
        text = target.read_text()
        found = text.count(mutant.snippet)
        if found != 1:
            raise ValueError(f"snippet occurs {found} times in {mutant.path}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
    return src


def _outcome(tmp: Path, mutant: Mutant) -> tuple[str, bool]:
    """The report line of one mutant, and whether it was killed."""
    try:
        src = _copy(tmp, mutant)
    except ValueError as exc:
        return f"STALE     {mutant.name}: {exc}", False
    status, failed, seconds = _pytest(src, mutant.tests)
    # Only failing tests kill a mutant (status 1, or a hang); a
    # collection or usage error (2 to 5) says nothing about them.
    if status in (1, None):
        return f"killed    {mutant.name}  {seconds:.1f} s  {failed}", True
    word = "SURVIVED" if status == 0 else "BROKEN  "
    return f"{word}  {mutant.name}  (pytest exit status {status})", False


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    failures = 0
    with tempfile.TemporaryDirectory(prefix="chamcovers-mutants-") as tmp:
        tests = sorted({t for m in chosen for t in m.tests})
        status, _, seconds = _pytest(_copy(Path(tmp), None), tests)
        print(f"{'pass' if status == 0 else 'FAIL'}  unchanged source  {seconds:.1f} s")
        if status != 0:
            print("the named tests must pass on the unchanged source", file=sys.stderr)
            return 1
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for line, killed in pool.map(partial(_outcome, Path(tmp)), chosen):
                print(line, flush=True)
                failures += not killed
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
