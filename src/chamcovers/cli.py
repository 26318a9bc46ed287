"""Command-line interface.

Subcommands: act, orbit, index, wn, counts, topology, construct-ends,
realize-rank.  Exit codes: 0 success, 1 a refused input (any ValueError: a
usage or parse error, or an input over a work bound), 2 an orbit command could
not reach a verdict within its cap, 3 an internal error (any RuntimeError),
such as a finite-index verdict whose orbit did not close within the index
search's hard cap.  Each error is one ``error: ...`` line on stderr
(``error: internal error: ...`` for status 3), with no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

from .action import act_word, parse_word
from .degree2 import count_closed_forms, orbit_census, realize_rank, wn_bits
from .finite_index import decide_finite_index
from .groups import parse_group
from .orbit import (
    DEFAULT_CAP,
    GraphType,
    dot_from_report,
    orbit_bfs,
    orbit_report,
    veech_index,
)
from .topology import construct_max_ends, ends_report
from .vectors import canonical_class, format_vector, parse_vector, require_generating


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise CliUsageError(message)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _vector(args):
    return parse_vector(parse_group(args.group), args.vector)


def _cover(args):
    """The vector of a cover, whose letters must generate the group."""
    return require_generating(_vector(args))


def _render(args, report, text: str) -> int:
    _emit(_json(report) if args.format == "json" else text)
    return 0


def _cmd_act(args) -> int:
    h = _vector(args)
    out = format_vector(act_word(h, parse_word(args.word)))
    return _render(args, {"group": h.group.spec(), "vector": out}, out)


def _cmd_index(args) -> int:
    h = _cover(args)
    verdict = decide_finite_index(h)
    idx = veech_index(h, verdict)
    report = {
        "finite": verdict.finite,
        "index": idx,
        "minimal_period": verdict.minimal_period,
        "checked_window": verdict.checked_window,
        "witness": verdict.witness,
    }
    return _render(args, report, str(idx) if verdict.finite else "infinite")


# Part of every cache key: the entry layout and the canonical form of the
# class that names the entry (least key() over normalized automorphism
# images).  Change it whenever either changes, so old entries are not reused.
_CACHE_VERSION = "orbit-report 2; canonical lexmin-aut-image 1"


def _cache_path(cache_dir: str, group_spec: str, canonical: str) -> Path:
    text = f"{_CACHE_VERSION}\n{group_spec}\n{canonical}"
    key = hashlib.sha256(text.encode()).hexdigest()
    return Path(cache_dir) / f"{key}.json"


_REPORT_KEYS = {"order", "vertices", "p1_edges", "p2_edges", "type"}
_REPORT_TYPES = (None, *(kind.value for kind in GraphType))


def _load_cached_report(path: Path, canonical: str):
    """The entry at path if its report matches the digest on its first line
    and is well formed with vertex 0 `canonical`; None, with a warning for a
    bad entry, otherwise.  A forgery signed with a fresh digest is only
    checked for its shape."""
    if not path.is_file():
        return None
    try:
        digest, _, body = path.read_text().partition("\n")
        if hashlib.sha256(body.encode()).hexdigest() != digest:
            raise ValueError("the report does not match its digest")
        report = json.loads(body)
        if not isinstance(report, dict) or not _REPORT_KEYS <= set(report):
            raise ValueError("missing keys")
        order = report["order"]
        if type(order) is not int or order < 1 or any(
            not isinstance(report[k], list) or len(report[k]) != order
            for k in ("vertices", "p1_edges", "p2_edges")
        ):
            raise ValueError("vertex or edge arrays do not match the order")
        if any(not isinstance(v, str) for v in report["vertices"]):
            raise ValueError("vertex labels are not strings")
        if report["vertices"][0] != canonical:
            raise ValueError("vertex 0 is not this vector's class")
        if any(
            type(j) is not int or not 0 <= j < order
            for k in ("p1_edges", "p2_edges")
            for j in report[k]
        ):
            raise ValueError("edge targets are not vertex numbers")
        if report["type"] not in _REPORT_TYPES:
            raise ValueError("unknown graph type")
        return report
    except (ValueError, OSError) as exc:
        print(f"warning: ignoring corrupted cache entry {path}: {exc}", file=sys.stderr)
        return None


def _render_orbit(args, report: dict) -> int:
    if args.format == "dot":
        sys.stdout.write(dot_from_report(report))
        return 0
    lines = [f"order {report['order']}"]
    if report["type"] is not None:
        lines.append(f"type {report['type']}")
    for i, label in enumerate(report["vertices"]):
        p1 = report["p1_edges"][i]
        p2 = report["p2_edges"][i]
        lines.append(f"{i} {label} P1->{p1} P2->{p2}")
    return _render(args, report, "\n".join(lines))


def _cmd_orbit(args) -> int:
    if args.cap < 1:
        raise CliUsageError("cap must be >= 1")
    h = _cover(args)
    verdict = decide_finite_index(h)
    if not verdict.finite:
        return _render(args, {"finite": False, "witness": verdict.witness}, "infinite")
    cache_file = None
    if args.cache is not None:
        h = canonical_class(h)
        canonical = format_vector(h)
        cache_file = _cache_path(args.cache, h.group.spec(), canonical)
        report = _load_cached_report(cache_file, canonical)
        # An orbit larger than the cap gets the verdict of a fresh search.
        if report is not None and report["order"] <= args.cap:
            return _render_orbit(args, report)
    graph = orbit_bfs(h, cap=args.cap)
    if not graph.complete:
        print(
            f"orbit did not close within cap {args.cap}; raise --cap",
            file=sys.stderr,
        )
        return 2
    report = orbit_report(graph)
    if cache_file is not None:
        # Write through a temp file so no reader ever sees a partial entry;
        # an unusable cache directory costs a warning, not the report.
        tmp = cache_file.with_name(f"{cache_file.name}.{os.getpid()}.tmp")
        try:
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            body = _json(report)
            digest = hashlib.sha256(body.encode()).hexdigest()
            tmp.write_text(f"{digest}\n{body}")
            os.replace(tmp, cache_file)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink()
            print(f"warning: cannot write cache entry {cache_file}: {exc}", file=sys.stderr)
    return _render_orbit(args, report)


def _cmd_wn(args) -> int:
    if args.star and args.format == "json":  # only the JSON form runs the census
        return _render(args, orbit_census(args.n), "")
    # Each member is written as wn_bits yields its code: the bits after the
    # marker bit.  members is the last key of the JSON listing of W_n, whose
    # 2^n - 1 members are counted in advance, so that form streams too.
    members = (f"{code:b}"[1:] for code in wn_bits(args.n, args.star))
    if args.format == "text":
        sys.stdout.writelines(f"{m}\n" for m in members)
        return 0
    head = _json({"n": args.n, "count": 2**args.n - 1, "members": []})[:-2]
    sys.stdout.write(f'{head}"{next(members)}"')
    sys.stdout.writelines(f',"{m}"' for m in members)
    sys.stdout.write("]}\n")
    return 0


def _cmd_counts(args) -> int:
    counts = count_closed_forms(args.n)
    text = "\n".join(f"{key} {value}" for key, value in counts.items())
    return _render(args, counts, text)


def _cmd_topology(args) -> int:
    report = ends_report(_vector(args))
    d2_type = report.d2_type.value if report.d2_type else None
    data = {
        "right_acc": sorted(str(e) for e in report.right_acc),
        "left_acc": sorted(str(e) for e in report.left_acc),
        "N": report.n_window,
        "alt_sum": str(report.alt_sum),
        "g_prime": sorted(str(e) for e in report.g_prime.elements),
        "ends": report.ends,
        "d2_type": d2_type,
    }
    text = f"ends {report.ends}" + ("" if d2_type is None else f"\ntype {d2_type}")
    return _render(args, data, text)


def _cmd_construct_ends(args) -> int:
    group = parse_group(args.group)
    vector = format_vector(construct_max_ends(group))
    report = {"group": group.spec(), "vector": vector, "ends": group.order}
    return _render(args, report, f"{vector}\nends {group.order}")


def _cmd_realize_rank(args) -> int:
    vector = format_vector(realize_rank(args.n))
    return _render(args, {"rank": args.n, "vector": vector}, vector)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chamcovers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *, group=False, vector=False, word=False, n=False):
        p = sub.add_parser(name)
        if group:
            p.add_argument("--group", required=True)
        if vector:
            p.add_argument("--vector", required=True)
        if word:
            p.add_argument("--word", required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        formats = ("text", "json", "dot") if name == "orbit" else ("text", "json")
        p.add_argument("--format", choices=formats, default="text")
        p.set_defaults(fn=fn)
        return p

    add("act", _cmd_act, group=True, vector=True, word=True)
    orbit_p = add("orbit", _cmd_orbit, group=True, vector=True)
    orbit_p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    orbit_p.add_argument("--cache", default=None, metavar="DIR")
    add("index", _cmd_index, group=True, vector=True)
    wn_p = add("wn", _cmd_wn, n=True)
    wn_p.add_argument("--star", action="store_true")
    add("counts", _cmd_counts, n=True)
    add("topology", _cmd_topology, group=True, vector=True)
    add("construct-ends", _cmd_construct_ends, group=True)
    add("realize-rank", _cmd_realize_rank, n=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
