"""Layer tracing from outside the package.

Every layer is observed by wrapping its public functions.  The package
modules bind their imports by name (``orbit`` does ``from .action import
act_p1``, ``cli`` imports ``orbit_bfs`` and ``canonical_class``), so a wrapper
put only on the defining module would miss those callers.  `Tracer.install`
therefore replaces the function in *every* ``chamcovers`` module namespace
that binds it, the package ``__init__`` included, and `uninstall` restores
the originals.

Spans (name, start, end, parent, info) are kept in memory; a layer's self
time is a span's duration minus the durations of its child spans.  Hot
functions whose per-call work is tiny (``normalize``, the degree-two bit
moves) are only counted, and the ``GroupElem`` operators are counted in a
separate pass (`ElemCounter`) so that their wrappers do not inflate any span.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (defining module, function name) -> span name.  Every span name starts with
# its layer, which is the package module the function lives in.
SPAN_TARGETS = {
    ("groups", "automorphisms"): "groups.automorphisms",
    ("groups", "span"): "groups.span",
    ("vectors", "canonical_class"): "vectors.canonical_class",
    ("vectors", "generates"): "vectors.generates",
    ("action", "act_p1"): "action.act_p1",
    ("action", "act_p1_inv"): "action.act_p1_inv",
    ("action", "act_p2"): "action.act_p2",
    ("action", "act_p2_inv"): "action.act_p2_inv",
    ("action", "act_neg"): "action.act_neg",
    ("action", "act_h"): "action.act_h",
    ("action", "act_h_inv"): "action.act_h_inv",
    ("action", "act_h_pow"): "action.act_h_pow",
    ("finite_index", "decide_finite_index"): "finite_index.decide_finite_index",
    ("orbit", "orbit_bfs"): "orbit.orbit_bfs",
    ("orbit", "veech_index"): "orbit.veech_index",
    ("topology", "ends_report"): "topology.ends_report",
    ("degree2", "orbit_census"): "degree2.orbit_census",
    ("degree2", "_orbit_of"): "degree2.orbit_of",
    ("cli", "main"): "cli.main",
}

# Functions that are counted but get no span.
COUNT_TARGETS = {
    ("vectors", "normalize"): "vectors.normalize",
    ("degree2", "p1_bits"): "degree2.bit_moves",
    ("degree2", "p2_bits"): "degree2.bit_moves",
}

ELEM_OPS = ("__add__", "__neg__", "__sub__", "scale")

LETTER_SPANS = frozenset(
    name for name in SPAN_TARGETS.values() if name.startswith("action.")
)


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "chamcovers" or name.startswith("chamcovers."))
    ]


def _span_info(name, args, result):
    """The few facts a span keeps about its call, for the derived metrics."""
    if name in LETTER_SPANS:
        h = args[0]
        return max(
            len(h.right_prefix) + len(h.right_period),
            len(h.left_prefix) + len(h.left_period),
        )
    if name == "orbit.orbit_bfs":
        return (result.order, result.cap_hit)
    if name == "orbit.veech_index":
        return result
    return None


class Tracer:
    """Installs span and count wrappers over the loaded package."""

    def __init__(self):
        # Each span is [name, start_ns, end_ns, parent_index, info].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if result is not None:
                    span[4] = _span_info(name, args, result)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, pkg) -> None:
        modules = _package_modules()
        self.missing = []
        for targets, make in (
            (SPAN_TARGETS, self._span_wrapper),
            (COUNT_TARGETS, self._count_wrapper),
        ):
            for (mod_name, attr), name in targets.items():
                home = getattr(pkg, mod_name, None)
                orig = getattr(home, attr, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class ElemCounter:
    """Counts GroupElem operator calls by patching the class for one pass."""

    def __init__(self, pkg):
        self.cls = pkg.groups.GroupElem
        self.calls = 0
        self._orig = {}

    def __enter__(self):
        for attr in ELEM_OPS:
            orig = self.cls.__dict__.get(attr)
            if orig is None:
                continue
            self._orig[attr] = orig
            setattr(self.cls, attr, self._wrap(orig))
        return self

    def _wrap(self, fn):
        def wrapper(*args):
            self.calls += 1
            return fn(*args)

        return wrapper

    def __exit__(self, *exc):
        for attr, orig in self._orig.items():
            setattr(self.cls, attr, orig)
        return False


def self_times(spans) -> list[int]:
    """Self time in ns of each span: its duration minus its children's."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans, counts, elem_ops, extra) -> dict:
    """The per-layer metrics (value, unit) derived from one traced run.

    `extra` carries what only the benchmark sees from outside:
    ``orbit_commands`` (orbit CLI commands on finite-index vectors, which are
    the ones that consult the cache), ``cache_bytes`` and
    ``trace_overhead_ratio``.
    """
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _, _), s in zip(spans, selfs):
        total[name] += end - start
        own[name] += s
        calls[name] += 1

    letter_calls = sum(calls[n] for n in LETTER_SPANS)
    # Letter time counts outermost letter spans only, so a letter that calls
    # another letter (negative H powers) is not timed twice.
    letter_ns = sum(
        end - start
        for name, start, end, parent, _ in spans
        if name in LETTER_SPANS and (parent < 0 or spans[parent][0] not in LETTER_SPANS)
    )
    max_input_len = max(
        (info for name, _, _, _, info in spans if name in LETTER_SPANS and info), default=0
    )

    bfs_vertices = cap_hits = bfs_canon = 0
    veech_rounds = veech_built = veech_final = 0
    cli_bfs = 0
    for i, (name, _, _, parent, info) in enumerate(spans):
        pname = spans[parent][0] if parent >= 0 else None
        if name == "orbit.orbit_bfs" and info is not None:
            order, hit = info
            bfs_vertices += order
            cap_hits += bool(hit)
            if pname == "orbit.veech_index":
                veech_rounds += 1
                veech_built += order
            elif pname == "cli.main":
                cli_bfs += 1
        elif name == "vectors.canonical_class" and pname == "orbit.orbit_bfs":
            bfs_canon += 1
        elif name == "orbit.veech_index" and info is not None:
            veech_final += info

    orbit_cmds = extra.get("orbit_commands", 0)
    ratio = lambda a, b: a / b if b else 0.0
    sec = lambda ns: ns / 1e9
    m = {
        "groups.elem_ops": (elem_ops, "count"),
        "groups.automorphisms_s": (sec(total["groups.automorphisms"]), "s"),
        "groups.span_s": (sec(total["groups.span"]), "s"),
        "action.letter_calls": (letter_calls, "count"),
        "action.letter_s": (sec(letter_ns), "s"),
        "action.letter_us_per_call": (ratio(letter_ns / 1e3, letter_calls), "us"),
        "action.max_input_len": (max_input_len, "count"),
        "vectors.canonical_class_calls": (calls["vectors.canonical_class"], "count"),
        "vectors.canonical_class_self_s": (sec(own["vectors.canonical_class"]), "s"),
        "vectors.generates_s": (sec(total["vectors.generates"]), "s"),
        "vectors.normalize_calls": (counts["vectors.normalize"], "count"),
        "orbit.bfs_self_s": (sec(own["orbit.orbit_bfs"]), "s"),
        "orbit.vertices": (bfs_vertices, "count"),
        "orbit.cap_hits": (cap_hits, "count"),
        "orbit.new_vertex_ratio": (ratio(bfs_vertices, bfs_canon), "ratio"),
        "orbit.veech_rounds": (veech_rounds, "count"),
        "orbit.veech_useful_ratio": (ratio(veech_final, veech_built), "ratio"),
        "finite_index.decide_calls": (calls["finite_index.decide_finite_index"], "count"),
        "finite_index.decide_s": (sec(total["finite_index.decide_finite_index"]), "s"),
        "topology.ends_report_s": (sec(total["topology.ends_report"]), "s"),
        "degree2.census_self_s": (sec(own["degree2.orbit_census"]), "s"),
        "degree2.bit_moves": (counts["degree2.bit_moves"], "count"),
        "degree2.orbit_of_calls": (calls["degree2.orbit_of"], "count"),
        "cli.main_self_s": (sec(own["cli.main"]), "s"),
        "cli.cache_hit_ratio": (ratio(orbit_cmds - cli_bfs, orbit_cmds), "ratio"),
        "cli.cache_bytes_written": (extra.get("cache_bytes", 0), "bytes"),
        "trace_overhead_ratio": (extra["trace_overhead_ratio"], "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def self_shares(spans, first: int, pass_ns: int) -> dict:
    """Share of one traced pass spent in each layer's own code.

    The pass is ``spans[first:]`` and took ``pass_ns`` of timed operations;
    ``untraced`` is the part of that time no span covers.
    """
    shares: Counter = Counter()
    top = 0
    selfs = self_times(spans)
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        shares[name.split(".")[0]] += selfs[i]
        if parent < 0:
            top += end - start
    out = {layer: ns / pass_ns for layer, ns in sorted(shares.items())}
    out["untraced"] = max(pass_ns - top, 0) / pass_ns
    return out
