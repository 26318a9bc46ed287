"""Write canonical_z2x4.json: seeded generating vectors over Z2^4 and the
canonical representative `canonical_class` gives each.

    PYTHONPATH=src python3 tests/data/make_canonical_z2x4.py

The file pins the representatives beyond the range where the brute-force
`oracle_canonical_class` is cheap (|Aut(Z2^4)| = 20160 images per vector).
The committed file was written by the scan of Aut(G) that preceded the
refinement tree, so rerunning the script must leave it unchanged.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from chamcovers import canonical_class, format_vector, parse_group  # noqa: E402
from conftest import random_vector  # noqa: E402

GROUP = "Z2xZ2xZ2xZ2"
SEED = 1604
COUNT = 50


def main() -> None:
    group = parse_group(GROUP)
    rng = random.Random(SEED)
    cases = []
    for _ in range(COUNT):
        h = random_vector(group, rng, max_prefix=3, max_period=4)
        rep = canonical_class(h).representative
        cases.append({"vector": format_vector(h), "representative": format_vector(rep)})
    record = {"group": GROUP, "seed": SEED, "cases": cases}
    (HERE / "canonical_z2x4.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
