#!/usr/bin/env python3
"""Identity corpora: two SHA-256 digests over seeded outputs of the program.

    python3 tests/identity_corpus.py

A change that is meant to keep every output as it is (a speed-up, a
refactor) must leave both digests as they are.  The script prints each
digest next to the one pinned below and exits with status 1 when either
differs.  A change that moves a corpus on purpose re-pins its digest here
and says why in CHANGES.md.

- orbit: the `repr` of the vertices, the P1 and P2 edges and `complete` of
  `orbit_bfs` searches, each at a cap of 7 and of 1000, from seeded random
  generating vectors (random.Random(2701), ORBIT_STARTS per group) over
  Z2, Z2xZ2, Z2xZ2xZ2, Z3 and Z2xZ4, and from the expansion of every
  element of W_n* for n = 1..8.
- letters: 200 seeded vectors (random.Random(2501)) per group over
  LETTER_GROUPS, built by the public constructor with prefixes of up to 4
  and periods of up to 5 entries, every other one with its generation
  answer computed first; each is sent through the nine LETTERS, and one
  image of every third input (the letters take turns) through the nine
  again.  One line per output holds the group, the letters,
  `format_vector` and the output's generation answer (28 836 lines).

Standard library only; it imports the package from src/ next to tests/, and
pytest does not collect it (it is not named ``test_*.py``).
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chamcovers import (  # noqa: E402
    EpVector,
    act_h,
    act_h_inv,
    act_h_pow,
    act_neg,
    act_p1,
    act_p1_inv,
    act_p2,
    act_p2_inv,
    enumerate_wn_star,
    expand,
    format_vector,
    generates,
    orbit_bfs,
    parse_group,
)

PINNED = {
    "orbit": "eef09c0a36ea4f9110c7a9d2ffe69c3fdfac2a525cb7ed79e3daf6eae2d31b36",
    "letters": "babc3ff21010c3c9e40e203d3cdbd36358b4b46d36c4761c511f9af3b95a8990",
}

ORBIT_GROUPS = ("Z2", "Z2xZ2", "Z2xZ2xZ2", "Z3", "Z2xZ4")
ORBIT_STARTS = 24
ORBIT_CAPS = (7, 1000)
LETTER_GROUPS = (
    "Z2", "Z3", "Z4", "Z5", "Z6", "Z8",
    "Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z4xZ4", "Z10xZ12",
)
LETTERS = (
    ("P1", act_p1),
    ("P1^-1", act_p1_inv),
    ("P2", act_p2),
    ("P2^-1", act_p2_inv),
    ("H", act_h),
    ("H^-1", act_h_inv),
    ("H^3", lambda h: act_h_pow(h, 3)),
    ("H^-2", lambda h: act_h_pow(h, -2)),
    ("-I", act_neg),
)


def _vector(group, rng: random.Random, max_prefix: int, max_period: int) -> EpVector:
    """A vector with random words: prefixes of 0..max_prefix entries and
    periods of 1..max_period."""
    elems = list(group.elements())
    words = [
        tuple(rng.choice(elems) for _ in range(rng.randint(low, high)))
        for low, high in ((0, max_prefix), (1, max_period)) * 2
    ]
    return EpVector(group, *words)


def _generating_vector(group, rng: random.Random) -> EpVector:
    while True:
        h = _vector(group, rng, 2, 3)
        if generates(h):
            return h


def orbit_lines():
    rng = random.Random(2701)
    starts = []
    for spec in ORBIT_GROUPS:
        group = parse_group(spec)
        starts += [_generating_vector(group, rng) for _ in range(ORBIT_STARTS)]
    starts += [expand(e) for n in range(1, 9) for e in enumerate_wn_star(n)]
    for h in starts:
        for cap in ORBIT_CAPS:
            graph = orbit_bfs(h, cap)
            yield repr((graph.vertices, graph.p1_edges, graph.p2_edges, graph.complete))


def letter_lines():
    rng = random.Random(2501)
    for spec in LETTER_GROUPS:
        group = parse_group(spec)
        for t in range(200):
            h = _vector(group, rng, 4, 5)
            if t % 2:
                generates(h)
            images = [(name, letter(h)) for name, letter in LETTERS]
            if t % 3 == 0:
                first, image = images[t // 3 % len(LETTERS)]
                images += [(f"{first},{name}", letter(image)) for name, letter in LETTERS]
            for name, out in images:
                yield f"{spec} {name} {format_vector(out)} {generates(out)}"


def digest(lines) -> tuple[str, int]:
    sha = hashlib.sha256()
    count = 0
    for line in lines:
        sha.update(line.encode() + b"\n")
        count += 1
    return sha.hexdigest(), count


def main() -> int:
    failures = 0
    for name, lines in (("orbit", orbit_lines()), ("letters", letter_lines())):
        start = time.perf_counter()
        got, count = digest(lines)
        ok = got == PINNED[name]
        failures += not ok
        print(
            f"{'ok      ' if ok else 'MISMATCH'}  {name:7}  {got}  "
            f"{count} lines  {time.perf_counter() - start:.1f} s"
        )
        if not ok:
            print(f"          pinned   {PINNED[name]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
