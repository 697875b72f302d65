"""End-to-end tests for the command-line interface."""

import ast
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys

import pytest

from conftest import family_from, system_from
from golden import BICUBIC, CIRCLE_LINE, MONOMIAL_SURFACE, SYLVESTER
from reference import ref_gen_random, ref_lattice

import resnewt
from resnewt import cli
from resnewt.cayley import family_to_json, family_to_text
from resnewt.cli import main
from resnewt.errors import InvariantViolation, ParseError, ResnewtError
from resnewt.geometry import hull_volume
from resnewt.reconstruct import compute_pi

SYLVESTER_TEXT = """\
1
2; 1; 0
2; 0
projection: full
"""

SURFACE_TEXT = """\
2
0 0; 1 1
0 0; 1 2
0 0; 2 0
projection: implicitization
"""

CIRCLE_LINE_TEXT = """\
2
0 0; 1 0; 0 1
0 0; 2 0; 0 2
0 0; 1 0; 0 1
projection: u-resultant
"""

NOT_ESSENTIAL_TEXT = """\
2
0 0; 0 1
0 0; 0 2
0 0; 1 0; 0 1
projection: full
"""


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- compute: plain output -----------------------------------------------------


def test_compute_plain_golden_vertices(tmp_path, capsys):
    path = _write(tmp_path, "sylvester.txt", SYLVESTER_TEXT)
    code, out, err = _run(["compute", path], capsys)
    assert code == 0
    vlines = [l for l in out.splitlines() if l.startswith("v ")]
    got = {tuple(int(x) for x in l[2:].split()) for l in vlines}
    assert got == SYLVESTER["vertices"]
    assert "mode: exact" in out
    assert "dim: 2" in out
    assert err == ""


def test_compute_plain_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "surface.txt", SURFACE_TEXT)
    code1, out1, _ = _run(["compute", path, "--seed", "4"], capsys)
    code2, out2, _ = _run(["compute", path, "--seed", "4"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_vertices_sorted_lexicographically(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", CIRCLE_LINE_TEXT)
    code, out, err = _run(["compute", path], capsys)
    assert code == 0
    vlines = [
        tuple(int(x) for x in l[2:].split())
        for l in out.splitlines()
        if l.startswith("v ")
    ]
    assert vlines == sorted(vlines)
    assert set(vlines) == CIRCLE_LINE["vertices"]


def test_compute_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(SYLVESTER_TEXT))
    code, out, err = _run(["compute"], capsys)
    assert code == 0
    assert "v 0 0 2 2 0" in out


def test_compute_equations_reported_for_lower_dim(tmp_path, capsys):
    path = _write(tmp_path, "surface.txt", SURFACE_TEXT)
    code, out, err = _run(["compute", path], capsys)
    assert code == 0
    elines = [l for l in out.splitlines() if l.startswith("e ")]
    assert len(elines) == 2  # dim 1 in ambient 3
    verts = [
        tuple(int(x) for x in l[2:].split())
        for l in out.splitlines()
        if l.startswith("v ")
    ]
    for line in elines:
        body = line[2:]
        lhs, rhs = body.split(" = ")
        coeffs = [int(x) for x in lhs.split()]
        for v in verts:
            assert sum(c * x for c, x in zip(coeffs, v)) == int(rhs)


# -- compute: json output ------------------------------------------------------------


def test_compute_json_structure(tmp_path, capsys):
    path = _write(tmp_path, "surface.txt", SURFACE_TEXT)
    code, out, err = _run(
        ["compute", path, "--format", "json", "--f-vector"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "exact"
    assert doc["dim"] == 1
    assert doc["ambient"] == 3
    assert {tuple(v) for v in doc["vertices"]} == MONOMIAL_SURFACE[
        "mode_implicit_vertices"
    ]
    assert doc["f_vector"] == [2]
    # Emitted with sorted keys: byte-stable across runs.
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_compute_json_matches_plain_content(tmp_path, capsys):
    path = _write(tmp_path, "sylvester.txt", SYLVESTER_TEXT)
    _, out_plain, _ = _run(["compute", path], capsys)
    _, out_json, _ = _run(["compute", path, "--format", "json"], capsys)
    doc = json.loads(out_json)
    plain_verts = {
        tuple(int(x) for x in l[2:].split())
        for l in out_plain.splitlines()
        if l.startswith("v ")
    }
    assert {tuple(v) for v in doc["vertices"]} == plain_verts


# -- compute: option surface --------------------------------------------------------


def test_compute_no_hash_same_stdout(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", CIRCLE_LINE_TEXT)
    _, out_hashed, _ = _run(["compute", path], capsys)
    _, out_plainrun, _ = _run(["compute", path, "--no-hash"], capsys)
    assert out_hashed == out_plainrun


def test_compute_stats_on_stderr_only(tmp_path, capsys):
    path = _write(tmp_path, "sylvester.txt", SYLVESTER_TEXT)
    _, out_quiet, err_quiet = _run(["compute", path], capsys)
    _, out_stats, err_stats = _run(["compute", path, "--stats"], capsys)
    assert out_quiet == out_stats  # stdout unaffected
    assert err_quiet == ""
    assert "oracle calls" in err_stats
    assert "predicate time" in err_stats
    assert "backend" in err_stats


def test_compute_unproject_lines(tmp_path, capsys):
    path = _write(tmp_path, "surface.txt", SURFACE_TEXT)
    code, out, err = _run(["compute", path, "--unproject"], capsys)
    assert code == 0
    ulines = {
        tuple(int(x) for x in l[2:].split())
        for l in out.splitlines()
        if l.startswith("u ")
    }
    assert ulines == MONOMIAL_SURFACE["mode_full_vertices"]


def test_compute_projection_override(tmp_path, capsys):
    # The same supports computed in full mode via --projection.
    path = _write(tmp_path, "surface.txt", SURFACE_TEXT)
    code, out, err = _run(["compute", path, "--projection", "full"], capsys)
    assert code == 0
    verts = {
        tuple(int(x) for x in l[2:].split())
        for l in out.splitlines()
        if l.startswith("v ")
    }
    assert verts == MONOMIAL_SURFACE["mode_full_vertices"]


def test_custom_projection_reads_alike_on_the_line_and_the_flag(tmp_path, capsys):
    # One tokenizer: "custom i j, k l" means the same pairs in either place.
    supports = "1\n0; 1; 2\n0; 1\n"
    on_line = _write(tmp_path, "line.txt", supports + "projection: custom 0 1, 1 0\n")
    code, out_line, err = _run(["compute", on_line], capsys)
    assert code == 0, err
    plain = _write(tmp_path, "full.txt", supports + "projection: full\n")
    code, out_flag, err = _run(["compute", plain, "--projection", "custom 0 1, 1 0"], capsys)
    assert code == 0, err
    assert out_flag == out_line
    assert "v 0 2" in out_line.splitlines()


def test_compute_approx_mode(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", CIRCLE_LINE_TEXT)
    code, out, err = _run(
        ["compute", path, "--mode", "approx", "--threshold", "0.9"], capsys
    )
    assert code == 0
    assert "ratio: " in out
    assert "reached: yes" in out
    assert "threshold: 9/10" in out


def test_compute_random_mode(tmp_path, capsys):
    path = _write(tmp_path, "circle.txt", CIRCLE_LINE_TEXT)
    code, out, err = _run(
        ["compute", path, "--mode", "random", "--directions", "400"], capsys
    )
    assert code == 0
    pts = {
        tuple(int(x) for x in l[2:].split())
        for l in out.splitlines()
        if l.startswith("v ")
    }
    assert pts == CIRCLE_LINE["vertices"]
    assert "directions: 400" in out


def test_compute_random_mode_lower_dimensional_f_vector(tmp_path, capsys):
    # With the full projection the Sylvester target is a triangle of dim 2
    # in ambient 5, so the f-vector and the volume are taken over the
    # intrinsic lattice of its affine hull.
    path = _write(tmp_path, "sylvester.txt", SYLVESTER_TEXT)
    code, out, err = _run(
        ["compute", path, "--mode", "random", "--directions", "300", "--f-vector"],
        capsys,
    )
    assert code == 0
    assert "dim: 2\nambient: 5\n" in out
    assert "f-vector: 3 3\n" in out
    assert "volume: 1\n" in out
    code, exact, err = _run(["compute", path, "--f-vector"], capsys)
    assert code == 0
    assert "f-vector: 3 3\n" in exact


def test_compute_random_mode_full_dimensional_matches_exact(tmp_path, capsys):
    # The bicubic target is full-dimensional in ambient 3, so random mode
    # takes the f-vector from its own hull's facet table; that and its
    # volume must be exact mode's (a saturated basis of Z^3 is unimodular,
    # so Q's intrinsic volume is the ambient one).
    supports = BICUBIC["supports"]
    text = family_to_text(family_from(BICUBIC["n"], supports, "implicitization"))
    path = _write(tmp_path, "bicubic.txt", text)
    code, out, err = _run(
        ["compute", path, "--mode", "random", "--directions", "60", "--f-vector"],
        capsys,
    )
    assert code == 0
    assert "dim: 3\nambient: 3\n" in out
    code, exact, err = _run(["compute", path, "--f-vector"], capsys)
    assert code == 0
    assert "f-vector: 6 9 5\n" in exact and "f-vector: 6 9 5\n" in out
    state = compute_pi(system_from(BICUBIC["n"], supports, "implicitization"))
    assert "volume: %s\n" % hull_volume(state.hull) in out


# -- compute: failure modes ---------------------------------------------------------


def test_compute_errors_exit_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "not a support family\n")
    assert _run(["compute", bad], capsys)[0] == 2
    assert _run(["compute", str(tmp_path / "missing.txt")], capsys)[0] == 2
    good = _write(tmp_path, "good.txt", SYLVESTER_TEXT)
    code, out, err = _run(
        ["compute", good, "--mode", "approx", "--threshold", "1.5"], capsys
    )
    assert code == 2 and "threshold" in err
    code, out, err = _run(
        ["compute", good, "--mode", "approx", "--threshold", "zebra"], capsys
    )
    assert code == 2
    code, out, err = _run(
        ["compute", good, "--mode", "random", "--directions", "2"], capsys
    )
    assert code == 2
    # An empty override is refused as a blank one is, not read as no override.
    for blank in (" ", ""):
        code, out, err = _run(["compute", good, "--projection", blank], capsys)
        assert (code, out, err) == (2, "", "error: projection names no mode\n")
    # The projection line ends the input, and its key is "projection" alone.
    for text in (
        "1\n0; 1\n0; 2\nprojection: full\ngarbage line here\n",
        "1\n0; 1\n0; 2\nprojections_xyz: full\n",
    ):
        code, out, err = _run(["compute", _write(tmp_path, "tail.txt", text)], capsys)
        assert code == 2 and not out and "projection line" in err, text
    typo = _write(tmp_path, "typo.txt", "1\n2;;1\n2; 0\nprojection: full\n")
    code, out, err = _run(["compute", typo], capsys)
    assert code == 2 and "empty point" in err and not out
    # n below 1 is refused before any line is read by it.
    for text in ("-5\nprojection: full\n", "-5\n", "0\n1\n1\n", "-1\n1; 0\n", "-2\n"):
        path = _write(tmp_path, "small.txt", text)
        code, out, err = _run(["compute", path], capsys)
        assert (code, out, err) == (2, "", "error: n must be at least 1\n"), text
    # A coordinate past Python's int-string limit is named as such, and the
    # point is echoed cut short.
    huge = _write(tmp_path, "huge.txt", "1\n%s; 0\n2; 0\nprojection: full\n" % ("7" * 5000))
    code, out, err = _run(["compute", huge], capsys)
    assert code == 2 and not out
    assert err == "error: coordinate with too many digits in point '%s...'\n" % ("7" * 37)
    # So is an n line or a custom index past it, by the same integer reader.
    huge_n = _write(tmp_path, "huge_n.txt", "%s\n0; 1\n0; 1\nprojection: full\n" % ("7" * 5000))
    code, out, err = _run(["compute", huge_n], capsys)
    assert (code, out, err) == (2, "", "error: n with too many digits on the first line\n")
    code, out, err = _run(["compute", good, "--projection", "custom 0 %s" % ("7" * 5000)], capsys)
    assert (code, out, err) == (2, "", "error: index with too many digits in custom projection\n")


NOT_UTF8 = b"\xff\xfe\x00\x01"
NOT_UTF8_ERROR = (
    "error: cannot read input: 'utf-8' codec can't decode byte 0xff in position 0: "
    "invalid start byte\n"
)


def test_compute_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.txt"
    path.write_bytes(NOT_UTF8)
    assert _run(["compute", str(path)], capsys) == (2, "", NOT_UTF8_ERROR)


def test_compute_non_utf8_stdin_exits_2():
    # Python decodes stdin strictly under a UTF-8 locale other than C; the
    # encoding variable forces that here.
    src = os.path.dirname(os.path.dirname(os.path.abspath(resnewt.__file__)))
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "resnewt", "compute", "-"],
        input=NOT_UTF8,
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert (result.returncode, result.stdout, result.stderr.decode()) == (2, b"", NOT_UTF8_ERROR)


def _readme_examples():
    # (command, output shown) for each README ``sh`` block that opens with a
    # "$ " line: the command after the "$ ", then the block's other lines.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        blocks = re.findall(r"^```sh\n(.*?)^```$", f.read(), re.M | re.S)
    return [tuple(b[2:].split("\n", 1)) for b in blocks if b.startswith("$ ")]


def test_readme_examples_print_what_they_show():
    # Each example runs in a shell whose ``resnewt`` is this interpreter's
    # module, so no console script is needed, and prints the block shown.
    examples = _readme_examples()
    assert [command.split("|")[-1].split()[:2] for command, _ in examples] == [
        ["resnewt", "compute"],
        ["resnewt", "generate"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(resnewt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    shell_function = 'resnewt() { %s -m resnewt "$@"; }\n' % shlex.quote(sys.executable)
    for command, shown in examples:
        result = subprocess.run(
            ["sh", "-c", shell_function + command],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (result.returncode, result.stderr) == (0, ""), command
        assert result.stdout == shown, command


def test_compute_ambiguous_unprojection_exit_2(tmp_path, capsys):
    # Valid implicit instance whose non-symbolic coordinates are not pinned
    # by the block invariant: unprojection must fail cleanly, not traceback.
    text = (
        "2\n0 0; 1 1\n0 0; 2 0; 0 2\n0 0; 1 0; 0 1\nprojection: implicit\n"
    )
    path = _write(tmp_path, "ambiguous.txt", text)
    code, out, err = _run(["compute", path, "--unproject"], capsys)
    assert code == 2
    assert "unproject" in err
    assert out == ""
    # Without --unproject the same instance computes fine.
    code, out, err = _run(["compute", path], capsys)
    assert code == 0


def test_compute_random_ambiguous_unprojection_exit_2(tmp_path, capsys):
    # Random mode builds the same document as exact mode, so its
    # --unproject fails as cleanly on the same instance.
    text = (
        "2\n0 0; 1 1\n0 0; 2 0; 0 2\n0 0; 1 0; 0 1\nprojection: implicit\n"
    )
    path = _write(tmp_path, "ambiguous.txt", text)
    code, out, err = _run(
        ["compute", path, "--mode", "random", "--directions", "10", "--unproject"],
        capsys,
    )
    assert code == 2
    assert "unproject" in err
    assert out == ""


SYLVESTER_SUPPORTS = [[[2], [1], [0]], [[2], [0]]]
FULL_WITH_PAIRS = {"mode": "full", "symbolic": [[0, 1]]}


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 1.5, "supports": SYLVESTER_SUPPORTS},
        {"n": True, "supports": SYLVESTER_SUPPORTS},
        {"n": 1, "supports": 5},
        {"n": 1, "supports": [5, 6]},
        {"n": 1, "supports": [[[2], [0], [True]], [[2], [0]]]},
        {"n": 1, "supports": [[[2], [1], [0]], [[2], [False]]]},
        {"n": 1, "supports": SYLVESTER_SUPPORTS, "projection": 3},
        {"n": 1, "supports": SYLVESTER_SUPPORTS, "projection": {"mode": "custom", "symbolic": 7}},
        {"n": 1, "supports": SYLVESTER_SUPPORTS, "projection": {"mode": "custom", "symbolic": [5]}},
        {"n": -5, "supports": SYLVESTER_SUPPORTS},
        {"n": 1, "supports": SYLVESTER_SUPPORTS, "projection": FULL_WITH_PAIRS},
        # Raw text: a number past Python's int-string limit, and nesting
        # deeper than the decoder's recursion.
        pytest.param(
            '{"n": 1, "supports": [[[%s], [0]], [[2], [0]]]}' % ("7" * 5000), id="huge-number"
        ),
        pytest.param('{"n": 1, "supports": %s%s}' % ("[" * 10**5, "]" * 10**5), id="deep-nesting"),
    ],
)
def test_compute_malformed_json_exit_2(tmp_path, capsys, doc):
    # Wrongly shaped JSON input ends with an error line and exit 2, not a
    # traceback or a guess; a JSON true or false is no integer.
    path = _write(tmp_path, "bad.json", doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = _run(["compute", path], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: ")
    if isinstance(doc, str):
        what = "a number with too many digits" if "7" * 5000 in doc else "nested too deeply"
        assert err == "error: invalid JSON: %s\n" % what
        return
    if doc["n"] == -5:
        assert err == "error: n must be at least 1\n"
    if doc.get("projection") == FULL_WITH_PAIRS:
        # Symbolic points are for custom mode only, in either format.
        text = _write(tmp_path, "bad.txt", SYLVESTER_TEXT.replace("full", "full 0 1"))
        assert _run(["compute", text], capsys)[2] == err
        assert err == "error: mode 'full' takes no extra arguments\n"


def test_compute_not_essential_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "degenerate.txt", NOT_ESSENTIAL_TEXT)
    code, out, err = _run(["compute", path], capsys)
    assert code == 3 and not out
    assert err == "error: family is not essential; violating blocks [0, 1]\n"
    # Every point on one line: the union does not span.
    flat = _write(tmp_path, "flat.txt", "2\n0 0; 1 0\n0 0; 2 0\n0 0; 3 0\nprojection: full\n")
    code, out, err = _run(["compute", flat], capsys)
    assert (code, out, err) == (3, "", "error: family is not essential; supports do not span\n")


def test_compute_invariant_violation_exit_4(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantViolation("oracle answer fell below a facet of Q")

    monkeypatch.setattr(cli, "compute_pi", broken)
    path = _write(tmp_path, "sylvester.txt", SYLVESTER_TEXT)
    code, out, err = _run(["compute", path], capsys)
    assert code == 4
    assert out == ""
    assert err == "error: internal invariant violated: oracle answer fell below a facet of Q\n"


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_broken_call_bound_exits_4_before_any_output(tmp_path, capsys, monkeypatch, mode):
    # One oracle call more than vertices + facets allow, with no --stats:
    # the bound is checked on every run, before the result is printed.
    name = "compute_pi" if mode == "exact" else "compute_pi_approx"
    real = getattr(cli, name)

    def over_budget(*args, **kwargs):
        result = real(*args, **kwargs)
        state = result[0] if isinstance(result, tuple) else result
        hull = state.hull
        budget = len(hull.points) + len(hull.facet_map())
        state.oracle.pipeline_runs = state.init_calls + budget + 1
        return result

    monkeypatch.setattr(cli, name, over_budget)
    path = _write(tmp_path, "sylvester.txt", SYLVESTER_TEXT)
    code, out, err = _run(["compute", path, "--mode", mode], capsys)
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal invariant violated: oracle call bound violated")


# -- compute: mutated input ----------------------------------------------------------

FUZZ_WORDS = ["true", "1.5", "1e3", "0", "-1", "-7", "10" * 12, "x", ";", ","]
FUZZ_PROJECTIONS = [
    "", "hybrid", "custom", "custom 0", "custom 9 9", "custom -1 0",
    "custom 0 0, 0 0", "custom a b", "full 0 1", "implicit 1",
]
FUZZ_VALUES = [True, 1.5, 10**24, -3, 0, "x", None, []]
FUZZ_JSON_PROJECTIONS = [
    "hybrid", {"mode": 7}, {"mode": "full", "symbolic": [[0, 1]]},
    {"mode": "custom", "symbolic": [[9, 9]]}, {"mode": "custom", "symbolic": [[-1, 0]]},
    {"mode": "custom", "symbolic": [[0, 0], [0, 0]]},
]
# Runs each input of a JSON list read from stdin as ``cli.run`` does in the
# test; prints the [exit code, stdout, stderr] of each as one JSON list.
FUZZ_RUNNER = """
import io, json, sys
from resnewt import cli
results = []
for text in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(cli.RunConfig(), stdin=text, stdout=out, stderr=err)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _fuzz_sources():
    # S, the small goldens (one in custom mode) and small generated families.
    fams = [
        cli.gen_random(1, 4, "dense", [4, 4], 1),
        family_from(SYLVESTER["n"], SYLVESTER["supports"], "full"),
        family_from(SYLVESTER["n"], SYLVESTER["supports"], "custom", [(0, 1), (1, 0)]),
        family_from(MONOMIAL_SURFACE["n"], MONOMIAL_SURFACE["supports"], "implicitization"),
        family_from(CIRCLE_LINE["n"], CIRCLE_LINE["supports"], "u-resultant"),
    ]
    fams += [
        cli.gen_random(1, 4, kind, [2, 3], seed, mode)
        for seed in (1, 2)
        for kind in ("dense", "sparse")
        for mode in ("full", "implicitization", "u-resultant")
    ]
    return fams


def _mutate_text(text, rng):
    lines = text.splitlines()
    op = rng.randrange(8)
    if op == 0:  # n below 1 on an input of 1 to 3 lines
        lines = [rng.choice(["0", "-1", "-2", "-5"])] + lines[1 : rng.randint(1, 3)]
    elif op == 1:
        lines.insert(rng.randint(0, len(lines)), "")
    elif op == 2:  # an empty point on a support line
        i = rng.randrange(1, len(lines) - 1)
        pieces = lines[i].split(";")
        pieces.insert(rng.randint(0, len(pieces)), " ")
        lines[i] = ";".join(pieces)
    elif op == 3:
        lines[-1] = "projection: " + rng.choice(FUZZ_PROJECTIONS)
    else:  # drop, duplicate, swap or replace a word
        tokens = re.split(r"(\s+|[;,:])", text)
        words = [k for k in range(0, len(tokens), 2) if tokens[k]]
        i, j = rng.choice(words), rng.choice(words)
        if op == 4:
            tokens[i] = ""
        elif op == 5:
            tokens[i] += " " + tokens[i]
        elif op == 6:
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = rng.choice(FUZZ_WORDS)
        return "".join(tokens)
    return "\n".join(lines) + "\n"


def _mutate_json(text, rng):
    doc = json.loads(text)
    op = rng.randrange(8)
    if op == 0:
        doc["n"] = rng.choice([0, -1, -2, -5] + FUZZ_VALUES)
    elif op == 1:  # an empty point
        block = rng.choice(doc["supports"])
        block.insert(rng.randint(0, len(block)), [])
    elif op == 2:
        doc["projection"] = rng.choice(FUZZ_JSON_PROJECTIONS)
    elif op == 3:  # drop a token of the JSON text
        tokens = re.split(r"([\s\[\]{},:])", text)
        tokens[rng.randrange(len(tokens))] = ""
        return "".join(tokens)
    else:  # drop, duplicate, swap or replace an entry of some list
        lists, todo = [], list(doc.values())
        while todo:
            value = todo.pop()
            if isinstance(value, dict):
                todo += value.values()
            elif isinstance(value, list) and value:
                lists.append(value)
                todo += value
        entries = rng.choice(lists)
        i, j = rng.randrange(len(entries)), rng.randrange(len(entries))
        if op == 4:
            del entries[i]
        elif op == 5:
            entries.insert(i, entries[i])
        elif op == 6:
            entries[i], entries[j] = entries[j], entries[i]
        else:
            entries[i] = rng.choice(FUZZ_VALUES)
    return json.dumps(doc)


def fuzz_corpus(per_source=100):
    """One seeded mutation each of ``per_source`` copies of the text and the
    JSON form of every family of ``_fuzz_sources``."""
    corpus = []
    for k, fam in enumerate(_fuzz_sources()):
        for form, mutate in ((family_to_text, _mutate_text), (family_to_json, _mutate_json)):
            rng = random.Random("fuzz|%d|%s" % (k, form.__name__))
            corpus += [mutate(form(fam), rng) for _ in range(per_source)]
    return corpus


def test_mutated_inputs_exit_0_2_or_3():
    # Every mutated input ends in a result (0), one error line and nothing
    # on stdout (2, or 3 for a family that is not essential), never a
    # traceback.  A fixed slice run under python -O gives the same bytes.
    corpus = fuzz_corpus()
    results = []
    for text in corpus:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = cli.run(cli.RunConfig(), stdin=text, stdout=out, stderr=err)
        except Exception as exc:  # reported with its input below
            code = repr(exc)
        results.append([code, out.getvalue(), err.getvalue()])
    bad = [
        (text, code, err)
        for text, (code, out, err) in zip(corpus, results)
        if code not in (0, 2, 3) or code and (out or not re.fullmatch(r"error: .*\n", err))
    ]
    assert bad == []
    assert {code for code, _, _ in results} == {0, 2, 3}

    src = os.path.dirname(os.path.dirname(os.path.abspath(resnewt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    sliced = slice(None, None, 8)
    result = subprocess.run(
        [sys.executable, "-O", "-c", FUZZ_RUNNER],
        input=json.dumps(corpus[sliced]),
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == results[sliced]


@pytest.mark.parametrize(
    "golden, mode, args",
    [
        (SYLVESTER, "full", []),
        (CIRCLE_LINE, "u-resultant", []),
        (CIRCLE_LINE, "u-resultant", ["--mode", "random", "--directions", "30"]),
    ],
    ids=["sylvester-full", "circle-line-ures", "circle-line-ures-random"],
)
def test_compute_json_identical_under_python_O(golden, mode, args):
    # Typed invariants, not asserts, guard the exact paths, so stripping
    # asserts must not change a single byte of the output.
    text = family_to_text(family_from(golden["n"], golden["supports"], mode))
    src = os.path.dirname(os.path.dirname(os.path.abspath(resnewt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for flags in ([], ["-O"]):
        result = subprocess.run(
            [sys.executable, *flags, "-m", "resnewt", "compute", "-", "--format", "json"]
            + args,
            input=text,
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    doc = json.loads(outs[0])
    assert doc["points" if args else "vertices"]
    assert outs[0] == outs[1]


def _package_nodes():
    # (file name, AST node) for every node of every module of the package.
    pkg = os.path.dirname(os.path.abspath(resnewt.__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            for node in ast.walk(tree):
                yield name, node


def test_package_has_no_assert_statements():
    # python -O strips assert, so every invariant in the package is a typed
    # error instead.
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node in _package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_private_definition_is_referenced():
    # A private function or class that no name, attribute or import in the
    # package refers to is dead code, such as a wrapper nothing calls.
    defined, used = [], set()
    for name, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                defined.append("%s:%d %s" % (name, node.lineno, node.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    assert defined  # the scan found the package's private helpers
    assert [d for d in defined if d.split()[-1] not in used] == []


def test_public_names_resolve():
    # Every name a module exports, the package's included, must exist there.
    pkg = os.path.dirname(os.path.abspath(resnewt.__file__))
    modules = [resnewt] + [
        importlib.import_module("resnewt." + name[:-3])
        for name in sorted(os.listdir(pkg))
        if name.endswith(".py") and name not in ("__init__.py", "__main__.py")
    ]
    missing = [
        "%s.%s" % (mod.__name__, name)
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


# -- generate ---------------------------------------------------------------------


def test_generate_deterministic_and_parseable(tmp_path, capsys):
    code1, out1, _ = _run(
        ["generate", "2", "4", "--sizes", "3,3,3", "--seed", "11"], capsys
    )
    code2, out2, _ = _run(
        ["generate", "2", "4", "--sizes", "3,3,3", "--seed", "11"], capsys
    )
    assert code1 == code2 == 0
    assert out1 == out2
    from resnewt.cayley import check_essential, parse_text

    fam = parse_text(out1)
    assert fam.n == 2
    assert [len(s) for s in fam.supports] == [3, 3, 3]
    check_essential(fam)  # generated instances are always essential


def test_generate_json_format(capsys):
    code, out, _ = _run(
        ["generate", "1", "3", "--sizes", "2,2", "--format", "json"], capsys
    )
    assert code == 0
    from resnewt.cayley import parse_json

    fam = parse_json(out)
    assert fam.n == 1


def test_generate_modes_and_validation(capsys):
    code, out, _ = _run(
        ["generate", "2", "3", "--sizes", "3,2,2", "--projection", "u-res"], capsys
    )
    assert code == 0
    from resnewt.cayley import parse_text

    fam = parse_text(out)
    assert fam.mode == "u-resultant"
    assert set(fam.supports[0]) == {(0, 0), (1, 0), (0, 1)}

    code, out, _ = _run(
        ["generate", "2", "3", "--sizes", "2,2", "--seed", "1"], capsys
    )
    assert code == 2  # wrong number of sizes
    code, out, _ = _run(
        ["generate", "2", "3", "--sizes", "0,2,2", "--seed", "1"], capsys
    )
    assert code == 2  # empty support requested


@pytest.mark.parametrize("sizes", ["3,,3,3", "3,3,3,", ",3,3,3", "3, ,3,3"])
def test_generate_rejects_an_empty_size(capsys, sizes):
    code, out, err = _run(["generate", "2", "3", "--sizes", sizes], capsys)
    assert code == 2
    assert out == "" and err == "error: --sizes has an empty entry\n"


def test_generate_takes_sizes_apart_by_commas_or_spaces(capsys):
    outs = {
        sizes: _run(["generate", "2", "3", "--sizes", sizes, "--seed", "4"], capsys)
        for sizes in ("3,3,3", "3 3 3", "3, 3, 3")
    }
    assert len(set(outs.values())) == 1
    assert outs["3,3,3"][0] == 0


@pytest.mark.parametrize("argv", [["0", "2", "--sizes", "1"], ["-1", "2", "--sizes", ""]])
def test_generate_rejects_n_below_1(capsys, argv):
    # compute rejects n < 1, so generate must not print such a family.
    code, out, err = _run(["generate", *argv], capsys)
    assert code == 2
    assert out == "" and err == "error: n must be at least 1\n"


def test_generate_pipes_into_compute(tmp_path, capsys):
    code, out, _ = _run(
        ["generate", "2", "4", "--sizes", "3,3,3", "--seed", "5", "--projection", "implicit"],
        capsys,
    )
    assert code == 0
    path = _write(tmp_path, "generated.txt", out)
    code, out, err = _run(["compute", path], capsys)
    assert code == 0
    assert any(l.startswith("v ") for l in out.splitlines())


def _outcome(gen, *args, **kwargs):
    try:
        return gen(*args, **kwargs)
    except ResnewtError as exc:
        return type(exc), str(exc)


def test_gen_random_matches_its_enumerating_form():
    # gen_random draws lattice indices and ranks each one; the reference
    # samples a list of the whole lattice.  random.sample picks the same
    # indices from a range as from a list of its length, so every family and
    # every error agree.  Each lattice point is ranked as the list orders it,
    # and a negative delta has no lattice points.
    for n in (1, 2, 3):
        for delta in (-3, -1, 0, 1, 2, 3, 4, 6):
            for kind in ("dense", "sparse"):
                lattice = ref_lattice(n, delta, kind)
                assert cli._lattice_size(n, delta, kind) == len(lattice)
                ranked = [cli._lattice_point(n, delta, kind, i) for i in range(len(lattice))]
                assert ranked == lattice
    families = 0
    for n in (1, 2, 3):
        for sizes in ([2] * (n + 1), [3] * (n + 1), [n + 2] + [2] * n):
            for delta in (-1, 2, 3, 4, 6):
                for kind in ("dense", "sparse"):
                    for mode in ("full", "implicitization", "u-resultant"):
                        for seed in range(4):
                            args = (n, delta, kind, sizes, seed)
                            got = _outcome(cli.gen_random, *args, mode=mode)
                            assert got == _outcome(ref_gen_random, *args, mode=mode), args
                            families += type(got) is not tuple
    assert families > 700  # of 1,080 draws


def test_gen_random_rejects_an_unknown_kind():
    # A family is dense or sparse; any other kind is a ParseError naming it,
    # as an unknown mode is.
    for kind in ("Dense", "sparse ", "", None):
        with pytest.raises(ParseError, match=re.escape(repr(kind))):
            cli.gen_random(1, 4, kind, [2, 2], 1)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "argv", [["3", "1000000", "--sizes", "2,2,2,2"], ["9", "20", "--sizes", "2," * 9 + "2"]]
)
def test_generate_never_lists_the_lattice(argv):
    # The dense lattices have about 1.7e17 and 1.0e7 points; listing either
    # once ran out of time and memory.  The child alone gets 1 GB of address
    # space.
    src = os.path.dirname(os.path.dirname(os.path.abspath(resnewt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "resnewt", "generate", *argv],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limit_address_space,
        timeout=2,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(argv[0] + "\n")


# sha256 prefixes of the joined input texts of one benchmark run
# (perfbench/workloads.py, instance_texts) per workload and seed.  A change to
# the generator shows in the benchmark only as digests it has not recorded;
# here it fails.
INSTANCE_TEXT_DIGESTS = {
    ("exact-full", 1): "6045dad44c68f73c",
    ("exact-full", 2): "b0eb7a36d23ce126",
    ("implicit", 1): "6bc41691d4b8af45",
    ("implicit", 2): "5aa9853badf48d73",
    ("approx", 1): "004840230f80897d",
    ("approx", 2): "c840c04c37818d3a",
}


@pytest.mark.parametrize("workload, seed", list(INSTANCE_TEXT_DIGESTS))
def test_benchmark_instance_texts_are_pinned(monkeypatch, workload, seed):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    from workloads import WORKLOADS, instance_texts

    texts = "".join(text for _, text in instance_texts(WORKLOADS[workload], seed))
    assert hashlib.sha256(texts.encode()).hexdigest()[:16] == INSTANCE_TEXT_DIGESTS[workload, seed]


# -- reference instances -------------------------------------------------------------

# Reference instances, generated with --seed 1: the sha1 of the whole stdout
# of ``compute`` in exact and approx mode, and of its ``--stats`` block with
# the time values stripped, which pins every counter of a cached run.  The
# roadmap's S and M project onto every coefficient, so their lifted hulls
# have no unlifted base.  I2 and I3 (implicitization) have a base of dimension 2n
# that the first lifted column cones over; U3 (u-resultant) has a lower
# base, so its hulls grow point by point.  The S and M stats digests were
# re-recorded when a query whose head does not span came to place the
# columns that raise the rank first: each such query asks one more cached
# hom_minor, so only "hom hits" and "predicate calls" moved (S exact 3122 ->
# 3190 hits, 1429 -> 1464 calls).  They were re-recorded again when the
# query's copy of the base became its rank pass: such a query asks no
# second hom_minor, and a rank-first head that spans 2n takes its sign from
# the copy's one determinant instead, so those two counters fell back (S exact 3190 -> 3182
# hits, 1464 -> 1456 calls; M exact 41824 -> 41801, 12015 -> 11992).
REFERENCE_INSTANCES = {
    "S": ["1", "4", "--sizes", "4,4"],
    "M": ["2", "3", "--sizes", "4,4,3"],
    "I2": ["2", "4", "--sizes", "6,6,6", "--projection", "implicit"],
    "I3": ["3", "3", "--sizes", "4,4,4,4", "--projection", "implicit"],
    "U3": ["3", "3", "--sizes", "4,4,4,4", "--projection", "u-res"],
}
STATS_TIME = re.compile(r"(time: )[0-9.]+s$", re.M)
REFERENCE_DIGESTS = {
    ("S", "exact"): (
        "2cb48c83b80b09ced099f6922dc49390c3325a1c",
        "baaec05f3729e0af4ee2a4545b6e19cb7bddad66",
    ),
    ("S", "approx"): (
        "9ae705bb65389b6ca32b8869f81e17e41e26fea4",
        "cc1bfedc7240594eb5a9995a581e6dabadd20626",
    ),
    ("M", "exact"): (
        "af31ca5f485d7b2cb0dd3ff8255ce40b655386d9",
        "bdf297c6484f280714e3d448fdf3d70fff1f9186",
    ),
    ("M", "approx"): (
        "ccec0d630412a9c06a6bc9f1ced524c99be77a9c",
        "1200a207758baed29c65acc5c52687b0519b2f61",
    ),
    ("I2", "exact"): (
        "9b20941d378f94c7a85ca9f30992173df1a12665",
        "0199302590faa4f3678299e7327a19be9b38267e",
    ),
    ("I2", "approx"): (
        "bb6f34f0fd4c4149bcedbdea7cd8bf0fd249725d",
        "f8083bab014a9b87854e38f14f962811ef7e0f2b",
    ),
    ("I3", "exact"): (
        "6acfef967328703aae61e526ee5dec8be910ee82",
        "b32211eca0c7e4ef97caa84cbeac01568b80bbaa",
    ),
    ("I3", "approx"): (
        "b48bcd9c7f6414e829b9f0b873c9f91998a82731",
        "2c7576b013e130c0049fc59b71f31f1c8b6ab870",
    ),
    ("U3", "exact"): (
        "ad65964232c5b325da50b369368a21536254a4a0",
        "580459825816613749f09d92c885183a2902455d",
    ),
    ("U3", "approx"): (
        "8103418f8ec40bb955c4dce6622d45648c9e6626",
        "478b84a87a4667487a10551ee6a1d2267357dbf9",
    ),
}


@pytest.mark.parametrize("no_hash", [False, True])
@pytest.mark.parametrize("name, mode", sorted(REFERENCE_DIGESTS))
def test_reference_instance_stdout_digests(tmp_path, capsys, name, mode, no_hash):
    code, text, _ = _run(["generate", *REFERENCE_INSTANCES[name], "--seed", "1"], capsys)
    assert code == 0
    path = _write(tmp_path, name + ".txt", text)
    argv = ["compute", path, "--mode", mode, "--stats"] + (["--no-hash"] if no_hash else [])
    code, out, err = _run(argv, capsys)
    assert code == 0
    stdout_digest, stats_digest = REFERENCE_DIGESTS[name, mode]
    assert hashlib.sha1(out.encode()).hexdigest() == stdout_digest
    if not no_hash:  # without the cache, every minor counts as a miss
        counters = STATS_TIME.sub(r"\1", err)
        assert hashlib.sha1(counters.encode()).hexdigest() == stats_digest


# -- installation -------------------------------------------------------------------


def test_console_entry_point_installed():
    result = subprocess.run(
        ["resnewt", "compute", "-", "--format", "json"],
        input=SYLVESTER_TEXT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert {tuple(v) for v in doc["vertices"]} == SYLVESTER["vertices"]
