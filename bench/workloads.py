"""The benchmark workloads: inputs made from a seed, timed operations, checks.

Each workload builds its inputs from the package's public API only.  A fixed
base seed (`BASE_SEED`) draws the base corpora, so every base input has a
golden digest in ``golden.json``; the run seed then picks automorphism
images of the inputs (which leave every orbit search's result unchanged) and
the order of every round.  The work done, and so the cost, is therefore the
same for every seed, while the inputs the program receives differ.

An operation is one ``orbit_bfs`` search, one ``orbit_census(n)`` or one CLI
command.  `Workload.run` times each operation on its own and checks its
output afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

BASE_SEED = 20261017


@dataclass
class Op:
    seconds: float
    vertices: int
    ok: bool
    # Speed scale factor of the moment the operation ran (see run.Calibration).
    factor: float = 1.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


class Workload:
    """Inputs for one workload plus the code that runs and checks them."""

    name = ""
    # Rounds in the fixed work list of a traced run.
    trace_rounds = 1

    def __init__(self, pkg, seed: int, golden: dict, out_dir: Path):
        self.pkg = pkg
        self.rng = random.Random(seed)
        self.golden = golden.get(self.name, {})
        self.out_dir = out_dir
        self.inputs: list[str] = []
        self.units: list = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute what the checks compare against (not part of set-up)."""

    def round(self) -> list:
        """One pass over every input, in a seeded order."""
        units = list(self.units)
        self.rng.shuffle(units)
        return units

    def begin_round(self) -> None:
        pass

    def run(self, unit) -> list[Op]:
        raise NotImplementedError

    def expect(self, key: str, value: str) -> bool:
        return self.golden.get(key) == value

    def inputs_digest(self) -> str:
        return digest("\n".join(self.inputs))

    def reset_stats(self) -> None:
        pass

    def trace_extra(self) -> dict:
        return {}

    def close(self) -> None:
        pass

    def warm(self, group) -> list:
        """Fill the group's automorphism table (part of set-up)."""
        return list(self.pkg.automorphisms(group))

    def image(self, h):
        """A seeded automorphism image of h: same class, so same orbit."""
        phi = self.rng.choice(self.warm(h.group))
        return self.pkg.normalize(self.pkg.apply_aut(phi, h))

    def graph_digest(self, graph) -> str:
        fmt = self.pkg.format_vector
        lines = [fmt(v.representative) for v in graph.vertices]
        lines.append(json.dumps([list(graph.p1_edges), list(graph.p2_edges)]))
        return digest("\n".join(lines))


class OrbitSearch(Workload):
    """`orbit_bfs` at a fixed cap over (key, vector) units."""

    cap = 0

    def prepare_checks(self) -> None:
        self.finite = {
            key: self.pkg.decide_finite_index(h).finite for key, h in self.units
        }

    def run(self, unit) -> list[Op]:
        key, h = unit
        graph, seconds = timed(self.pkg.orbit_bfs, h, self.cap)
        # The relation decision and the capped search must agree, as in the
        # acceptance test of the finite-index decision.
        ok = graph.complete == self.finite[key]
        if not self.finite[key]:
            # An infinite orbit can only stop at the cap, with cap vertices.
            ok = ok and graph.cap_hit and graph.order == self.cap
        ok = ok and self.expect(key, self.graph_digest(graph))
        return [Op(seconds, graph.order, ok)]


class OrbitGrow(OrbitSearch):
    name = "orbit-grow"
    cap = 128
    trace_rounds = 2
    PROBES = (
        ("Z3", "L=(0);R=1|(0)"),
        ("Z3", "L=(1,0);R=(1,0)"),
        ("Z4", "L=1|(0);R=2,3|(0)"),
        ("Z4", "L=(0);R=1,1|(0)"),
    )

    def build(self) -> None:
        pkg = self.pkg
        for spec, text in self.PROBES:
            group = pkg.parse_group(spec)
            self.warm(group)
            h = self.image(pkg.parse_vector(group, text))
            self.units.append((f"{spec} {text}", h))
            self.inputs.append(f"{spec} {pkg.format_vector(h)}")


class OrbitWide(OrbitSearch):
    name = "orbit-wide"
    cap = 4
    # (group, count) of random infinite-index vectors with a nonempty prefix.
    RANDOM = (("Z2xZ2xZ2", 22), ("Z2xZ4", 4))
    # W_n sizes whose coordinate triples give finite-index Z2xZ2xZ2 vectors;
    # their orbits have at most 4 classes, so they close within the cap.
    FINITE_N = (3, 4)

    def build(self) -> None:
        pkg = self.pkg
        base = random.Random(BASE_SEED)
        corpus = []
        for spec, count in self.RANDOM:
            group = pkg.parse_group(spec)
            corpus += [random_vector(pkg, group, base) for _ in range(count)]
        cube = pkg.parse_group("Z2xZ2xZ2")
        corpus += [coordinate_vector(pkg, cube, n, base) for n in self.FINITE_N]
        for h in corpus:
            self.warm(h.group)
            img = self.image(h)
            self.units.append((f"{h.group.spec()} {pkg.format_vector(h)}", img))
            self.inputs.append(f"{h.group.spec()} {pkg.format_vector(img)}")


class Census(Workload):
    name = "census"
    # n = 11 twice, so that the median and the 90th percentile each fall inside
    # the latencies of one n rather than between two.
    NS = (10, 11, 11, 12)

    def build(self) -> None:
        self.units = list(self.NS)
        self.inputs = [str(n) for n in self.NS]

    def prepare_checks(self) -> None:
        self.closed = {n: self.pkg.count_closed_forms(n) for n in self.NS}

    def run(self, n) -> list[Op]:
        census, seconds = timed(self.pkg.orbit_census, n)
        star = census["wn_star"]
        ok = (
            star == self.closed[n]["wn_star"]
            and sum(o["size"] for o in census["orbits"]) == star
            and self.expect(str(n), digest(json.dumps(census, sort_keys=True)))
        )
        return [Op(seconds, star, ok)]


class CliCache(Workload):
    name = "cli-cache"
    # W_n* expansions drawn per n, all of finite index.
    STAR = {3: 6, 4: 12, 5: 22, 6: 22, 7: 18}
    # Groups of the random infinite-index vectors, each used this many times.
    INFINITE = (("Z2", 5), ("Z3", 5), ("Z2xZ2", 5), ("Z4", 5))
    WORDS = ("P1", "P2", "P1^-1", "P2^-1", "H", "H^-1", "-I,P1", "P2,P1", "H^2", "P1^2,P2^-1")

    def build(self) -> None:
        pkg = self.pkg
        base = random.Random(BASE_SEED)
        z2 = pkg.parse_group("Z2")
        pool = []
        for n, count in self.STAR.items():
            for e in base.sample(pkg.enumerate_wn_star(n), count):
                pool.append((z2, pkg.expand(e), (n, e.bitstring())))
        for spec, count in self.INFINITE:
            group = pkg.parse_group(spec)
            pool += [(group, random_vector(pkg, group, base), None) for _ in range(count)]
        for group, h, star in pool:
            self.warm(group)
            text = pkg.format_vector(h)
            self.units.append((group.spec(), text, base.choice(self.WORDS), star))
            self.inputs.append(f"{group.spec()} {text}")
        self.cache_root = self.out_dir / f"cache-{os.getpid()}-{id(self):x}"
        self.rounds = 0
        self.orbit_commands = 0

    def prepare_checks(self) -> None:
        self.orbit_size = {}
        for n in self.STAR:
            for orbit in self.pkg.orbit_census(n)["orbits"]:
                for member in orbit["members"]:
                    self.orbit_size[(n, member)] = orbit["size"]

    def begin_round(self) -> None:
        # A fresh directory per round, so every cold orbit command misses.
        self.rounds += 1
        self.cache_dir = self.cache_root / f"round-{self.rounds}"

    def cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc, seconds = timed(self.pkg.cli.main, argv)
        return rc, out.getvalue(), seconds

    def run(self, unit) -> list[Op]:
        spec, text, word, star = unit
        key = f"{spec} {text}"
        vec = ["--group", spec, "--vector", text, "--format", "json"]
        orbit = ["orbit", *vec, "--cache", str(self.cache_dir)]
        runs = [
            self.cli(["index", *vec]),
            self.cli(["topology", *vec]),
            # "=" keeps argparse from reading a word such as "-I,P1" as an option.
            self.cli(["act", *vec, f"--word={word}"]),
            self.cli(orbit),
            self.cli(orbit),
        ]
        ok = [rc == 0 for rc, _, _ in runs]
        outs = [out for _, out, _ in runs]
        for i, cmd in enumerate(("index", "topology", "act", "orbit")):
            ok[i] = ok[i] and self.expect(f"{key}|{cmd}", digest(outs[i]))
        ok[4] = ok[4] and outs[4] == outs[3]

        index = _json_or_none(outs[0]) or {}
        cold = _json_or_none(outs[3]) or {}
        if star is not None:
            # The general orbit search must agree with the degree-two census.
            size = self.orbit_size.get(star)
            ok[0] = ok[0] and index.get("index") == size
            ok[3] = ok[3] and cold.get("order") == size
        ok[1] = ok[1] and self.ends_consistent(spec, outs[1])
        ok[2] = ok[2] and self.act_round_trips(spec, text, word, outs[2])
        if "order" in cold:
            self.orbit_commands += 2
        vertices = [index.get("index") or 0, 0, 0, cold.get("order", 0), 0]
        return [Op(s, v, good) for (_, _, s), v, good in zip(runs, vertices, ok)]

    def ends_consistent(self, spec: str, out: str) -> bool:
        """Over Z2 the end count and the two-type classification agree."""
        report = _json_or_none(out)
        if report is None:
            return False
        if spec != "Z2":
            return report["d2_type"] is None
        return (report["ends"] == 2) == (report["d2_type"] == "JacobsLadder")

    def act_round_trips(self, spec: str, text: str, word: str, out: str) -> bool:
        """Acting with the inverse word gives the input back."""
        pkg = self.pkg
        result = _json_or_none(out)
        if result is None:
            return False
        group = pkg.parse_group(spec)
        back = pkg.act_word(
            pkg.parse_vector(group, result["vector"]), pkg.parse_word(word).inverse()
        )
        return back == pkg.parse_vector(group, text)

    def reset_stats(self) -> None:
        self.orbit_commands = 0
        shutil.rmtree(self.cache_root, ignore_errors=True)

    def trace_extra(self) -> dict:
        files = self.cache_root.rglob("*") if self.cache_root.exists() else ()
        return {
            "orbit_commands": self.orbit_commands,
            "cache_bytes": sum(p.stat().st_size for p in files if p.is_file()),
        }

    def close(self) -> None:
        shutil.rmtree(self.cache_root, ignore_errors=True)


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def random_vector(pkg, group, rng: random.Random):
    """A generating vector whose normalized right prefix is nonempty.

    A nonempty prefix makes the vector not one-sided periodic, so its index
    is infinite and no capped search of it can close.
    """
    elems = list(group.elements())
    while True:
        lengths = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 3))
        words = [tuple(rng.choice(elems) for _ in range(n)) for n in lengths]
        h = pkg.normalize(pkg.EpVector(group, *words))
        if h.right_prefix and pkg.generates(h):
            return h


def coordinate_vector(pkg, group, n: int, rng: random.Random):
    """A generating vector whose coordinates are expansions of W_n members.

    The letter actions commute with the coordinate projections, so each
    coordinate, and hence the vector, is fixed by the n-th hyperbolic power:
    the index is finite.
    """
    members = pkg.enumerate_wn(n)
    while True:
        coords = [pkg.expand(e) for e in rng.sample(members, group.rank)]
        period = math.lcm(*(len(w) for c in coords for w in (c.right_period, c.left_period)))
        side = lambda sign: tuple(
            group.elem(*(c.entry(sign * k).residues[0] for c in coords))
            for k in range(1, period + 1)
        )
        h = pkg.normalize(pkg.EpVector(group, (), side(1), (), side(-1)))
        if pkg.generates(h):
            return h


WORKLOADS = {cls.name: cls for cls in (OrbitGrow, OrbitWide, Census, CliCache)}
