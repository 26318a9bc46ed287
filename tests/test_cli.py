import hashlib
import inspect
import io
import json
import subprocess
import sys
import time

import pytest

from chamcovers import (
    WnElement,
    canonical_class,
    cli,
    degree2,
    ends_report,
    enumerate_wn,
    enumerate_wn_star,
    num_ends,
    orbit_bfs,
    parse_group,
    parse_vector,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "chamcovers", *args],
        capture_output=True,
        text=True,
    )


PARITY = "L=(1,0);R=(1,0)"
FOURP = "L=(1,1,0,0);R=(0,1,1,0)"
# Fixed by H over Z3 (`h_pow_fixed` with parameter 1): an orbit of four classes.
SEAMED = "L=(1,0,2);R=(2,0,1)"
# Fixed by H^8 over Z3: a finite-index vector whose orbit has 640 classes.
Z3_H8 = "L=(1,2,0,1,2,0,1,1);R=(1,1,0,2,1,0,2,1)"


def test_act_fixed_point_exact_bytes():
    r = run_cli("act", "--group", "Z2", "--word", "H", "--vector", PARITY)
    assert r.returncode == 0
    assert r.stdout == "L=(1,0);R=(1,0)\n"
    assert r.stderr == ""


def test_act_json():
    r = run_cli(
        "act", "--group", "Z2", "--word", "P1,P2^-1", "--vector", PARITY,
        "--format", "json",
    )
    assert r.returncode == 0
    assert r.stdout == '{"group":"Z2","vector":"L=(1,0);R=(1,0)"}\n'


def test_index_infinite_exact_bytes():
    r = run_cli("index", "--group", "Z3", "--vector", PARITY)
    assert r.returncode == 0
    assert r.stdout == "infinite\n"


def test_index_finite_value_and_json():
    r = run_cli("index", "--group", "Z2", "--vector", FOURP)
    assert (r.returncode, r.stdout) == (0, "2\n")
    r = run_cli(
        "index", "--group", "Z3", "--vector", PARITY, "--format", "json",
    )
    assert r.stdout == (
        '{"finite":false,"index":null,"minimal_period":null,"checked_window":6,'
        '"witness":"corner relation failed: h[6]=0 but -2*h[-1]=1"}\n'
    )
    # W = lcm(2, 5) = 10 exceeds the one-sided period m = 2: the relation walk
    # covers one period and still reports the first failing k.
    r = run_cli(
        "index", "--group", "Z5", "--vector", "L=(0);R=(1,3)", "--format", "json",
    )
    assert r.stdout == (
        '{"finite":false,"index":null,"minimal_period":null,"checked_window":10,'
        '"witness":"boundary relation failed at k=2: 2*h[9]-h[8]=4 '
        'but 2*h[-3]-h[-2]=0"}\n'
    )


def test_counts_json_exact_bytes():
    r = run_cli("counts", "--n", "5", "--format", "json")
    assert r.returncode == 0
    assert (
        r.stdout
        == '{"wn_star":30,"fixed_p1":7,"fixed_p2":7,"fixed_both":1,"striezel_wn":7}\n'
    )


def test_counts_text():
    r = run_cli("counts", "--n", "2")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "wn_star 2",
        "fixed_p1 1",
        "fixed_p2 3",
        "fixed_both 1",
        "striezel_wn 2",
    ]


def test_orbit_json_snapshot():
    r = run_cli("orbit", "--group", "Z2", "--vector", PARITY, "--format", "json")
    assert r.returncode == 0
    assert r.stdout == (
        '{"order":1,"vertices":["L=(1,0);R=(1,0)"],'
        '"p1_edges":[0],"p2_edges":[0],"type":"Striezel"}\n'
    )
    # A finite-index orbit over a group other than Z2 has type null.
    r = run_cli("orbit", "--group", "Z3", "--vector", SEAMED, "--format", "json")
    assert r.stdout == (
        '{"order":4,"vertices":["L=(2,0,1);R=(1,0,2)","L=(0,1,1);R=(1,1,0)",'
        '"L=(1,1,0);R=(0,1,1)","L=(1,2,1);R=(1,2,1)"],'
        '"p1_edges":[1,2,0,3],"p2_edges":[2,1,3,0],"type":null}\n'
    )


def test_orbit_text_and_infinite():
    r = run_cli("orbit", "--group", "Z2", "--vector", FOURP)
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "order 2"
    assert lines[1] == "type Striezel"
    r = run_cli("orbit", "--group", "Z3", "--vector", PARITY)
    assert (r.returncode, r.stdout) == (0, "infinite\n")
    # Over Z3 the type is null and the text has no type line.
    r = run_cli("orbit", "--group", "Z3", "--vector", SEAMED)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == (
        "order 4\n"
        "0 L=(2,0,1);R=(1,0,2) P1->1 P2->2\n"
        "1 L=(0,1,1);R=(1,1,0) P1->2 P2->1\n"
        "2 L=(1,1,0);R=(0,1,1) P1->0 P2->3\n"
        "3 L=(1,2,1);R=(1,2,1) P1->3 P2->0\n"
    )


def test_orbit_dot_deterministic():
    first = run_cli("orbit", "--group", "Z2", "--vector", FOURP, "--format", "dot")
    second = run_cli("orbit", "--group", "Z2", "--vector", FOURP, "--format", "dot")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("digraph schreier {")
    assert '[label="P1"]' in first.stdout


def test_orbit_cache_roundtrip(tmp_path):
    cache = str(tmp_path / "cache")
    args = ("orbit", "--group", "Z2", "--vector", FOURP, "--format", "json",
            "--cache", cache)
    first = run_cli(*args)
    assert first.returncode == 0 and first.stderr == ""
    entries = list((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 1
    second = run_cli(*args)
    assert second.returncode == 0
    assert second.stdout == first.stdout
    # A different spelling of the same vector reuses the entry.
    moved = run_cli("orbit", "--group", "Z2", "--vector",
                    "L=1|(1,0,0,1);R=0|(1,1,0,0)",
                    "--format", "json", "--cache", cache)
    assert moved.stdout == first.stdout
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


def _signed(body):
    """A cache entry: the body's SHA-256 hex digest, a newline, the body."""
    return f"{hashlib.sha256(body.encode()).hexdigest()}\n{body}"


def test_orbit_cache_corrupted_entry(tmp_path):
    cache = str(tmp_path / "cache")
    args = ("orbit", "--group", "Z2", "--vector", FOURP, "--cache", cache)
    first = run_cli(*args)
    (entry,) = (tmp_path / "cache").glob("*.json")
    good = entry.read_text()
    digest, _, body = good.partition("\n")
    assert _signed(body) == good
    report = json.loads(body)
    truncated = json.dumps(dict(report, p1_edges=report["p1_edges"][:1]))
    mistyped = json.dumps(dict(report, p1_edges=["x", 7]))
    one_vertex = dict(report, vertices=report["vertices"][:1], p1_edges=[0], p2_edges=[0])
    bool_order = json.dumps(dict(one_vertex, order=True))
    empty = json.dumps(
        dict(report, order=0, vertices=[], p1_edges=[], p2_edges=[], type="banana")
    )
    bad_type = json.dumps(dict(report, type="banana"))
    # Well-typed, but vertex 0 is the other class of the orbit.
    other_start = json.dumps(dict(report, vertices=report["vertices"][::-1]))
    # Each malformed body is signed, so it reaches the check it was made for.
    signed = [
        _signed(bad)
        for bad in ("{not json", truncated, mistyped, bool_order, empty, bad_type, other_start)
    ]
    # Well-formed, with vertex 0 intact, but a later label edited and the
    # digest left as it was: only the digest tells it from a true report.
    relabeled = dict(report, vertices=[report["vertices"][0], "L=(5);R=(7)"])
    unsigned = f"{digest}\n{json.dumps(relabeled, separators=(',', ':'))}"
    for bad in (*signed, unsigned):
        entry.write_text(bad)
        again = run_cli(*args)
        assert again.returncode == 0
        assert again.stdout == first.stdout
        assert "corrupted cache" in again.stderr
        assert ("digest" in again.stderr) == (bad is unsigned)
        # The recomputed report replaced the bad entry.
        assert entry.read_text() == good


def test_orbit_cache_unusable_directory(tmp_path):
    # A regular file where the cache directory, or its parent, should be.
    blocker = tmp_path / "file"
    blocker.write_text("")
    plain = run_cli("orbit", "--group", "Z2", "--vector", PARITY)
    for cache in (blocker, blocker / "sub"):
        r = run_cli("orbit", "--group", "Z2", "--vector", PARITY, "--cache", str(cache))
        assert (r.returncode, r.stdout) == (0, plain.stdout)
        assert r.stderr.startswith("warning: cannot write cache entry ")
        assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert blocker.read_text() == ""


def test_orbit_cache_miss_prints_the_uncached_report(tmp_path, capsys):
    # A cold --cache run prints what a run without --cache prints, in
    # process, and writes one entry.
    from chamcovers import cli

    args = ["orbit", "--group", "Z2", "--vector", PARITY]
    outputs = []
    for extra in ([], ["--cache", str(tmp_path / "cache")]):
        assert cli.main(args + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1


def test_orbit_cache_hit_obeys_cap(tmp_path):
    cache = str(tmp_path / "cache")
    args = ("orbit", "--group", "Z2", "--vector", FOURP, "--cache", cache)
    cold = run_cli(*args, "--cap", "1")
    assert cold.returncode == 2
    assert run_cli(*args).returncode == 0
    warm = run_cli(*args, "--cap", "1")
    assert (warm.returncode, warm.stdout, warm.stderr) == (2, "", cold.stderr)
    assert run_cli(*args, "--cap", "2").returncode == 0


def test_orbit_cap_checked_before_finite_index_decision():
    # One finite-index and one infinite-index vector: both are refused.
    for group, vector in (("Z2", FOURP), ("Z3", "L=(0);R=1|(0)")):
        r = run_cli("orbit", "--group", group, "--vector", vector, "--cap", "0")
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == "error: cap must be >= 1\n"


def test_automorphism_bound_exits_one():
    # A finite-index vector over Z67: the orbit needs Aut(Z67), which the
    # order bound of the automorphism enumeration refuses.
    r = run_cli("orbit", "--group", "Z67", "--vector", "L=(1,65);R=(1,65)")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


def test_every_refusal_is_a_value_error():
    # cli.main exits 1 on a ValueError and 3 on a RuntimeError; the package's
    # own refusal classes are ValueErrors, so no clause names them.
    from chamcovers.cli import CliUsageError
    from chamcovers.groups import AutomorphismBoundError

    assert issubclass(AutomorphismBoundError, ValueError)
    assert issubclass(CliUsageError, ValueError)
    assert not issubclass(AutomorphismBoundError, RuntimeError)


def test_huge_group_exits_one_fast(capsys):
    # Refused at parse time: lcm(m, |G|) windows would be about 10^9 steps.
    # A modulus or residue with more digits than int() converts is a parse
    # error of its own, not the interpreter's digit-limit message.
    from chamcovers.cli import main

    digits = "1" * 5000
    argvs = [
        [cmd, "--group", "Z1000000007", "--vector", "L=(1);R=(1)"]
        for cmd in ("index", "topology")
    ] + [
        ["index", "--group", "Z" + digits, "--vector", "L=(1);R=(1)"],
        ["index", "--group", "Z2", "--vector", f"L=(1);R=({digits})"],
    ]
    for argv in argvs:
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert captured.err.startswith("error: ")
        assert "set_int_max_str_digits" not in captured.err
        assert elapsed < 1.0


def test_counts_bound_exits_one_fast(capsys):
    # count_closed_forms refuses n above its bound before building 2^n.
    from chamcovers.cli import main

    start = time.perf_counter()
    rc = main(["counts", "--n", "100000000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (rc, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and "bound" in captured.err
    assert elapsed < 1.0


def test_dot_format_only_for_orbit():
    r = run_cli(
        "act", "--group", "Z2", "--word", "H", "--vector", PARITY, "--format", "dot"
    )
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("error: ")


def test_act_word_bound_exits_one():
    for word in ("P1^1000000000", "P1^6000,P1^6000"):
        r = run_cli("act", "--group", "Z2", "--word", word, "--vector", PARITY)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr.startswith("error: ") and "bound" in r.stderr


def test_orbit_cap_exhausted_exit_code():
    r = run_cli("orbit", "--group", "Z2", "--vector", FOURP, "--cap", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "raise --cap" in r.stderr


def test_act_refuses_a_letter_output_above_the_side_bound(capsys):
    # Z3 periods 997 and 991: P1 would write 997 * 991 * 3 entries per side.
    from chamcovers.cli import main

    vector = "L=(1,1" + ",0" * 989 + ");R=(1" + ",0" * 996 + ")"
    rc = main(["act", "--group", "Z3", "--word", "P1", "--vector", vector])
    assert (rc, capsys.readouterr()) == (
        1,
        ("", "error: letter output needs 5928164 entries per side, more than the bound 2097152\n"),
    )


def test_internal_error_exits_three_without_traceback(monkeypatch, capsys):
    from chamcovers import cli

    def broken(h, verdict=None):
        raise RuntimeError("the orbit search broke")

    monkeypatch.setattr(cli, "veech_index", broken)
    assert cli.main(["index", "--group", "Z2", "--vector", FOURP]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: internal error: the orbit search broke\n")


def test_index_cap_hit_exits_three(monkeypatch, capsys):
    from chamcovers import cli, orbit

    args = ["index", "--group", "Z3", "--vector", Z3_H8]
    assert cli.main(args) == 0
    assert capsys.readouterr() == ("640\n", "")
    monkeypatch.setattr(orbit, "_HARD_CAP", 100)
    assert cli.main(args) == 3
    assert capsys.readouterr() == (
        "",
        "error: internal error: finite-index verdict, but the orbit did not "
        "close within 100 vertices\n",
    )


def test_parse_errors_exit_one():
    bad_vector = run_cli("index", "--group", "Z2", "--vector", "L=(2);R=(0)")
    assert bad_vector.returncode == 1
    assert bad_vector.stderr.startswith("error:")
    empty_period = run_cli("index", "--group", "Z2", "--vector", "L=(0);R=|()")
    assert empty_period.returncode == 1
    assert "period" in empty_period.stderr
    bad_group = run_cli("index", "--group", "Q8", "--vector", PARITY)
    assert bad_group.returncode == 1
    bad_word = run_cli("act", "--group", "Z2", "--word", "P3", "--vector", PARITY)
    assert bad_word.returncode == 1
    unknown = run_cli("frobnicate")
    assert unknown.returncode == 1
    assert unknown.stderr.startswith("error:")


def test_wn_listings():
    r = run_cli("wn", "--n", "3")
    assert r.stdout.splitlines() == [
        "001", "010", "011", "100", "101", "110", "111",
    ]
    # 101 restricts to the one-bit vector, so it drops out of the star family.
    star = run_cli("wn", "--n", "3", "--star")
    assert star.stdout == "001\n010\n011\n100\n110\n111\n"
    census = run_cli("wn", "--n", "2", "--star", "--format", "json")
    assert json.loads(census.stdout) == {
        "n": 2,
        "wn_star": 2,
        "striezel": 1,
        "kranz": 0,
        "orbits": [{"size": 2, "type": "Striezel", "members": ["01", "11"]}],
    }
    plain = run_cli("wn", "--n", "2", "--format", "json")
    assert json.loads(plain.stdout) == {
        "n": 2,
        "count": 3,
        "members": ["01", "10", "11"],
    }


@pytest.mark.parametrize("star", [False, True])
def test_wn_lists_exactly_the_enumerated_members(star, capsys):
    enumerate_ = enumerate_wn_star if star else enumerate_wn
    flag = ["--star"] if star else []
    for n in range(1, 13):
        members = [e.bitstring() for e in enumerate_(n)]
        assert cli.main(["wn", "--n", str(n), *flag]) == 0
        assert capsys.readouterr().out == "\n".join(members) + "\n"
        assert cli.main(["wn", "--n", str(n), *flag, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        if star:  # the JSON form of --star is the census, which covers W_n*
            assert sorted(m for o in report["orbits"] for m in o["members"]) == members
        else:
            assert report == {"n": n, "count": len(members), "members": members}


# The JSON form of --star is the census report, which is not a listing.
@pytest.mark.parametrize("fmt, star", [("text", False), ("text", True), ("json", False)])
def test_wn_writes_each_member_as_its_code_arrives(fmt, star, monkeypatch):
    out = io.StringIO()
    written = []  # characters on stdout as each code is handed out

    def codes(n, star):
        for code in degree2.wn_bits(n, star):
            written.append(len(out.getvalue()))
            yield code

    monkeypatch.setattr(cli, "wn_bits", codes)
    monkeypatch.setattr(sys, "stdout", out)
    flag = ["--star"] if star else []
    assert cli.main(["wn", "--n", "8", *flag, "--format", fmt]) == 0
    text = out.getvalue()
    monkeypatch.undo()
    members = [e.bitstring() for e in (enumerate_wn_star if star else enumerate_wn)(8)]
    if fmt == "text":
        assert text == "\n".join(members) + "\n"
        # Every line before a code is already written when the code arrives.
        assert written == [9 * k for k in range(len(members))]
    else:
        assert text == json.dumps(
            {"n": 8, "count": len(members), "members": members}, separators=(",", ":")
        ) + "\n"
        head = len('{"n":8,"count":255,"members":[')
        assert written == [0] + [head + 11 * k - 1 for k in range(1, len(members))]


@pytest.mark.parametrize("star", [False, True])
def test_wn_builds_no_member_objects(star, monkeypatch, capsys):
    built = []
    init = WnElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WnElement, "__init__", counting_init)
    assert cli.main(["wn", "--n", "10", *(["--star"] if star else [])]) == 0
    assert capsys.readouterr().out.count("\n") == (990 if star else 1023)
    assert built == []
    enumerate_wn(2)  # the patch does count the public enumerator's members
    assert len(built) == 3


# The JSON form of --star runs the census, which shares the listing's bounds.
@pytest.mark.parametrize("star", [[], ["--star"], ["--star", "--format", "json"]])
@pytest.mark.parametrize(
    "n, message",
    [("0", "n must be >= 1"), ("21", "n=21 exceeds the enumeration bound 20")],
)
def test_wn_bound_messages(star, n, message, capsys):
    assert cli.main(["wn", "--n", n, *star]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "group, vector", [("Z4", "L=(2);R=(2)"), ("Z2", "L=(0);R=(0)")]
)
def test_index_and_orbit_refuse_a_non_generating_vector(group, vector, capsys):
    # Z4 "L=(2);R=(2)" has an infinite-index verdict and Z2 "L=(0);R=(0)" a
    # finite one: both are refused before the verdict.  act acts on any vector.
    for fmt in ("text", "json"):
        for cmd in ("index", "orbit"):
            argv = [cmd, "--group", group, "--vector", vector, "--format", fmt]
            assert cli.main(argv) == 1
            assert capsys.readouterr() == (
                "", "error: vector letters do not generate the group\n"
            )
        argv = ["act", "--group", group, "--word", "P1", "--vector", vector]
        assert cli.main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().err == ""


def test_every_refusal_of_a_non_generating_vector_says_the_same(capsys):
    message = "vector letters do not generate the group"
    h = parse_vector(parse_group("Z4"), "L=(2);R=(2)")
    for refuse in (canonical_class, num_ends, ends_report, orbit_bfs):
        with pytest.raises(ValueError) as info:
            refuse(h)
        assert str(info.value) == message
    for cmd in ("index", "orbit", "topology"):
        assert cli.main([cmd, "--group", "Z4", "--vector", "L=(2);R=(2)"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_orbit_cap_default_is_the_search_default():
    args = cli._build_parser().parse_args(["orbit", "--group", "Z2", "--vector", PARITY])
    assert args.cap == inspect.signature(orbit_bfs).parameters["cap"].default


def test_wn_census_refuses_n_below_one():
    r = run_cli("wn", "--n", "0", "--star", "--format", "json")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: n must be >= 1\n"


def test_topology_output():
    r = run_cli("topology", "--group", "Z2", "--vector", "L=(0);R=1,1|(0)")
    assert r.stdout == "ends 2\ntype JacobsLadder\n"
    j = run_cli(
        "topology", "--group", "Z2", "--vector", "L=(0);R=1,1|(0)",
        "--format", "json",
    )
    assert j.stdout == (
        '{"right_acc":["0"],"left_acc":["0"],"N":3,"alt_sum":"0","g_prime":["0"],'
        '"ends":2,"d2_type":"JacobsLadder"}\n'
    )
    nond2 = run_cli("topology", "--group", "Z3", "--vector", "L=(0);R=1|(0)")
    assert nond2.stdout == "ends 1\n"


def test_construct_ends():
    r = run_cli("construct-ends", "--group", "Z2xZ2")
    assert r.returncode == 0
    assert r.stdout == "L=0:0,1:0,0:1|(0:0);R=1:1|(0:0)\nends 4\n"
    j = run_cli("construct-ends", "--group", "Z5", "--format", "json")
    assert j.stdout == '{"group":"Z5","vector":"L=0,1|(0);R=1|(0)","ends":5}\n'


def test_realize_rank():
    r = run_cli("realize-rank", "--n", "4")
    assert r.returncode == 0
    assert r.stdout == "L=(1,1,1,0,0,0);R=(0,0,1,1,1,0)\n"
    j = run_cli("realize-rank", "--n", "2", "--format", "json")
    assert json.loads(j.stdout) == {"rank": 2, "vector": "L=(1,0);R=(1,0)"}
