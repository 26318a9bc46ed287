#!/usr/bin/env python3
"""Mutation smoke check: every fast path's tests must catch a planted slip.

    python3 tests/mutants.py [NAME ...]

Each mutant is an exact source snippet, which must occur exactly once in its
file under ``src/chamcovers``, its replacement, and the test node ids that
must fail with the replacement in place.  The script first runs every named
test on an unchanged copy of ``src/`` (they must pass there), then, for each
mutant, applies it to a fresh temporary copy of ``src/`` and runs
``python -m pytest -q -x`` on its tests with that copy first on PYTHONPATH.
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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A mutant that makes its tests run this long counts as killed (they did not pass).
TIMEOUT_S = 120


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
        "P2 shears by h_n instead of h_{n-1}",
        "degree2.py",
        "    if code & 2:\n",
        "    if code & 1:\n",
        ("tests/test_degree2.py::test_bit_moves_match_extension_oracle",),
    ),
    Mutant(
        "orbit walk never leaves the seed by P2",
        "degree2.py",
        "    for first in (0, 1):\n",
        "    for first in (0,):\n",
        ("tests/test_degree2.py::test_orbit_walk_matches_oracle_from_every_seed",),
    ),
    Mutant(
        "census forgets placed orbits",
        "degree2.py",
        "        placed |= orb\n",
        "",
        ("tests/test_degree2.py::test_census_matches_its_pinned_digest",),
    ),
    Mutant(
        "walk does not alternate",
        "degree2.py",
        "            b, i = img, 1 - i\n",
        "            b, i = img, i\n",
        ("tests/test_degree2.py::test_orbit_walk_matches_oracle_from_every_seed",),
    ),
    Mutant(
        "known move stored for the move itself",
        "orbit.py",
        "                known[m ^ 1][j] = i\n",
        "                known[m][j] = i\n",
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
        "Z3 factors skip S like Z2 factors",
        "action.py",
        "        if drifts and n > 2:\n",
        "        if drifts and n > 3:\n",
        ("tests/test_action.py::test_actions_match_window_oracle_on_seeded_corpus",),
    ),
    Mutant(
        "P letters without S keep each input side's shape",
        "action.py",
        "(h.lpre, h.lper, h.rpre, h.rper) if drifts else h.key()",
        "h.key()",
        ("tests/test_action.py::test_p_letters_over_exponent_two_groups_are_involutions",),
    ),
    Mutant(
        "normal side does not rotate its period",
        "vectors.py",
        "    return prefix[: len(prefix) - j], period[r:] + period[:r]\n",
        "    return prefix[: len(prefix) - j], period\n",
        ("tests/test_vectors.py::test_normalize_idempotent_and_entry_preserving",),
    ),
    Mutant(
        "refinement keeps the greatest image",
        "vectors.py",
        "        least = min([phi.codes[c] for phi in self.survivors])\n",
        "        least = max([phi.codes[c] for phi in self.survivors])\n",
        ("tests/test_vectors.py::test_canonical_class_matches_brute_force_oracle",),
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
        for mutant in chosen:
            try:
                src = _copy(Path(tmp), mutant)
            except ValueError as exc:
                print(f"STALE     {mutant.name}: {exc}")
                failures += 1
                continue
            status, failed, seconds = _pytest(src, mutant.tests)
            # Only failing tests kill a mutant (status 1, or a hang); a
            # collection or usage error (2 to 5) says nothing about them.
            if status in (1, None):
                print(f"killed    {mutant.name}  {seconds:.1f} s  {failed}")
            else:
                word = "SURVIVED" if status == 0 else "BROKEN  "
                print(f"{word}  {mutant.name}  (pytest exit status {status})")
                failures += 1
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
