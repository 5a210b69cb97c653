"""Command-line interface: outputs, formats, exit codes, round trips."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from pattern_oracle import subset_pattern

from schubcells import cli
from schubcells.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe_plain(capsys):
    code, out, _ = run(capsys, "describe", "--group", "A2", "--w", "213")
    assert code == 0
    assert "zero: p3, p23" in out
    assert "nonzero: p2" in out


def test_describe_json(capsys):
    code, out, _ = run(capsys, "describe", "--group", "A2", "--w", "213", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data["zero"]) == {"3", "23"}
    assert data["nonzero"] == ["2"]


def test_describe_a3_json_is_pinned(capsys):
    # the equalities in the (i, j) order of the explicit type A form
    code, out, _ = run(capsys, "describe", "--group", "A3", "--w", "2143", "--format", "json")
    assert (code, out) == (0, (
        '{"group": "A3", "nonzero": ["2", "124"], "w": "2143 (s1.s3)", '
        '"zero": ["4", "3", "24", "23"]}\n'
    ))


BOUNDS_PINS = [
    (("bounds", "--witness", "3"), (
        "k=3: defining the variety of 6,5,4,3,2,1,12,11,10,9,8,7 in S_12 needs >= 20 "
        "equations (family of 400 witnesses; codimension 36)\n"
    )),
    (("bounds", "--defining", "321654", "6"), (
        "defining the variety of 321654 in S_6: >= 19 equations (universal set has 49)\n"
        "  certificate: p124, p125, p126, p134, p135, p136, p145, p146, p156, p234, "
        "p235, p236, p245, p246, p256, p345, p346, p356, p456\n"
    )),
    (("bounds", "--defining", "2134567", "7", "--format", "json"), (
        '{"certificate": ["13", "23", "124", "134", "234", "1235", "1245", "1345", '
        '"2345", "12346", "12356", "12456", "13456", "23456", "123457", "123467", '
        '"123567", "124567", "134567", "234567"], "lower_bound": 20, "n": 7, '
        '"universal_count": 119, "w": "2134567"}\n'
    )),
    (("bounds", "--feedback-free", "2"), (
        "n=2: minimal feedback-free set has size 1 [exact] (unique)\n"
        "  coordinates: p2\n"
    )),
    (("bounds", "--feedback-free", "2", "--format", "json"), (
        '{"certified": true, "n": 2, "size": 1, "subsets": ["2"], "unique": true}\n'
    )),
    (("bounds", "--feedback-free", "3"), (
        "n=3: minimal feedback-free set has size 4 [exact] (unique)\n"
        "  coordinates: p2, p3, p13, p23\n"
    )),
    (("bounds", "--feedback-free", "3", "--format", "json"), (
        '{"certified": true, "n": 3, "size": 4, "subsets": ["2", "3", "13", "23"], "unique": true}\n'
    )),
    (("bounds", "--feedback-free", "4"), (
        "n=4: minimal feedback-free set has size 11 [exact] (unique)\n"
        "  coordinates: p2, p3, p4, p13, p14, p23, p24, p34, p124, p134, p234\n"
    )),
]


@pytest.mark.parametrize("argv, expected", BOUNDS_PINS, ids=[" ".join(a[1:]) for a, _ in BOUNDS_PINS])
def test_bounds_stdout_is_pinned(capsys, argv, expected):
    # --witness 3 runs in S_12, where no orbit table is built
    assert run(capsys, *argv)[:2] == (0, expected)


# the exact n = 4 set over the A3 base coordinates: 230 realizable patterns,
# one line each, pinned by the first line and a SHA-256 of the whole stdout
PATTERNS_POSET_A3_FIRST = (
    "230 realizable patterns over (p2, p13, p124, p23, p3, p134, p14, p234, p4, p34) [exact]"
)
PATTERNS_POSET_A3_SHA256 = "6a0117749651c5eb3b4f8cd702088b40dafc8bd1d2c4ddf43814367da1c55044"


def test_patterns_poset_a3_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "patterns-poset", "--group", "A3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == PATTERNS_POSET_A3_FIRST and len(lines) == 231
    assert lines[1] == "  0000000000  cell 1234" and lines[-1] == "  1111111111  cell 4321"
    assert hashlib.sha256(out.encode()).hexdigest() == PATTERNS_POSET_A3_SHA256


def test_an_uncertified_candidate_exits_4(capsys, monkeypatch):
    # a draw budget too small to realize every candidate is an internal error
    from schubcells import flags

    flags.realizable_full_patterns.cache_clear()
    monkeypatch.setattr(flags, "MAX_CERTIFY_DRAWS", 10)
    try:
        code, out, err = run(capsys, "patterns-poset", "--group", "A3")
    finally:
        flags.realizable_full_patterns.cache_clear()
    assert (code, out) == (4, "")
    assert err.startswith("internal error: ") and "unrealized after 10 draws" in err


def test_describe_variety(capsys):
    code, out, _ = run(capsys, "describe-variety", "--group", "A2", "--w", "213", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data["zero"]) == {"3", "13", "23"}
    assert data["nonzero"] == []


def test_describe_general_group(capsys):
    code, out, _ = run(capsys, "describe", "--group", "B2", "--w", "s1.s2")
    assert code == 0
    assert "zero:" in out and "nonzero:" in out


def test_recognize_identity_flag(tmp_path, capsys):
    p = tmp_path / "id.json"
    p.write_text('[["1","0","0"],["0","1","0"],["0","0","1"]]')
    code, out, _ = run(capsys, "recognize", "--group", "A2", "--flag", str(p))
    assert code == 0
    assert out.strip() == "w = 123; queries = 3 (p3, p2, p13)"


def test_recognize_sampled_cell(capsys):
    code, out, _ = run(
        capsys, "--seed", "9", "recognize", "--group", "A3", "--cell", "2314",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["w"] == "2314"
    assert data["count"] <= 6


def test_recognize_byte_stable(capsys):
    a = run(capsys, "--seed", "5", "recognize", "--group", "A2", "--cell", "231")
    b = run(capsys, "--seed", "5", "recognize", "--group", "A2", "--cell", "231")
    assert a == b


def test_recognize_a_cell_point_of_a8_is_pinned(capsys):
    # n = 9, the largest flag the CLI takes: the names and order of all 20 queries
    code, out, _ = run(capsys, "--seed", "1", "recognize", "--group", "A8", "--cell", "918273645")
    assert code == 0
    assert out == (
        "w = 918273645; queries = 20 (p9, p89, p79, p69, p59, p49, p39, p29, p189, "
        "p1789, p1689, p1589, p1489, p1389, p12789, p126789, p125789, p124789, "
        "p1236789, p12356789)\n"
    )


def test_recognize_errors(tmp_path, capsys):
    code, _, err = run(capsys, "recognize", "--group", "B2", "--flag", "x.json")
    assert code == 1 and "type A" in err
    code, out, err = run(capsys, "recognize", "--group", "A2")
    assert (code, out, err) == (1, "", "recognize needs --flag FILE or --cell W\n")
    p = tmp_path / "bad.json"
    p.write_text('[["1","0"],["0","1"]]')
    code, _, err = run(capsys, "recognize", "--group", "A2", "--flag", str(p))
    assert code == 1 and "does not match" in err


def test_recognize_takes_a_flag_or_a_cell_not_both(tmp_path, capsys):
    p = tmp_path / "id.json"
    p.write_text("[[1, 0], [0, 1]]")
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "--group", "A1", "--flag", str(p), "--cell", "21"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_recognize_checks_flag_size_before_building_it(tmp_path, monkeypatch, capsys):
    # a flag's minor table costs 2^n: an oversized file must be refused first
    from schubcells import flags

    def boom(self, matrix):
        raise AssertionError("Flag built before the size check")

    monkeypatch.setattr(flags.Flag, "__init__", boom)
    p = tmp_path / "big.csv"
    p.write_text("\n".join(",".join("1" if i == j else "0" for j in range(8)) for i in range(8)))
    code, out, err = run(capsys, "recognize", "--group", "A2", "--flag", str(p))
    assert (code, out, err) == (1, "", "flag size 8 does not match A2\n")


@pytest.mark.parametrize("name, text, out", [
    ("int.json", "[[0, 1, 2, 0], [1, 0, 3, 0], [0, 0, 1, 1], [2, 0, 0, 5]]",
     "w = 4132; queries = 4 (p4, p34, p24, p134)\n"),
    ("int.csv", "0,1,2,0\n1,0,3,0\n0,0,1,1\n2,0,0,5\n",
     "w = 4132; queries = 4 (p4, p34, p24, p134)\n"),
    ("rational.json", '[["1/2", 0, 1, 0], [0, "2/3", 0.5, 0], [1, 1, 0, 0], [0, 0, 0, "7/3"]]',
     "w = 3214; queries = 5 (p4, p3, p34, p23, p234)\n"),
    # decimals are read as exact Fractions; as binary floats this flag would be 4321's
    ("decimal.json", "[[0.7, 0, 0.6, 0.3], [0.6, 0, 0.9, 0.2], [0, 0.1, 0, 0.7], [0.2, 0.2, 0.3, 0.1]]",
     "w = 4312; queries = 3 (p4, p34, p234)\n"),
    ("decimal.csv", "0.7,0,0.6,0.3\n0.6,0,0.9,0.2\n0,0.1,0,0.7\n0.2,0.2,0.3,0.1\n",
     "w = 4312; queries = 3 (p4, p34, p234)\n"),
])
def test_recognize_flag_files_are_pinned(tmp_path, capsys, name, text, out):
    p = tmp_path / name
    p.write_text(text)
    assert run(capsys, "recognize", "--group", "A3", "--flag", str(p)) == (0, out, "")


@pytest.mark.parametrize("name, text", [
    ("flag.csv", "1/0,0\n0,1\n"),
    ("flag.json", '[["1/0", 0], [0, 1]]'),
])
def test_recognize_refuses_a_zero_denominator(tmp_path, capsys, name, text):
    p = tmp_path / name
    p.write_text(text)
    code, out, err = run(capsys, "recognize", "--group", "A1", "--flag", str(p))
    assert (code, out) == (1, "")
    assert err == "error: flag entry '1/0' divides by zero\n"


@pytest.mark.parametrize("text", ["5", "[1, 2]", '{"a": [1]}', "[[null]]", "[[true, 0], [0, 1]]"])
def test_recognize_refuses_json_that_is_not_rows(tmp_path, capsys, text):
    p = tmp_path / "flag.json"
    p.write_text(text)
    code, out, err = run(capsys, "recognize", "--group", "A2", "--flag", str(p))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "flag" in err and err.count("\n") == 1


@pytest.mark.parametrize("spec, depth", [("A4", 10), ("B3", 9), ("C3", 9), ("D4", 13)])
def test_tree_beyond_the_acceptable_vector_cap(capsys, spec, depth):
    code, out, _ = run(capsys, "tree", "--group", spec)
    assert (code, out) == (0, f"algorithmic decision tree for {spec}: depth {depth}\n")


@pytest.mark.parametrize("spec, depth", [("A8", 36), ("B8", 64), ("C8", 64), ("D8", 61)])
def test_tree_over_the_enumeration_cap(capsys, spec, depth):
    # the depth is a sum of orbit sizes, so plain and JSON answer past the cap
    code, out, _ = run(capsys, "tree", "--group", spec)
    assert (code, out) == (0, f"algorithmic decision tree for {spec}: depth {depth}\n")
    code, out, _ = run(capsys, "tree", "--group", spec, "--format", "json")
    assert (code, out) == (0, f'{{"depth": {depth}, "strategy": "algorithmic"}}\n')


@pytest.mark.parametrize("spec, order", [("B8", 10321920), ("D8", 5160960)])
def test_tree_dot_over_the_enumeration_cap(capsys, spec, order):
    # the DOT drawing has |W| leaves, so it keeps the cap
    code, out, err = run(capsys, "tree", "--group", spec, "--format", "dot")
    assert (code, out) == (3, "")
    assert err == f"unsupported group: |W| = {order} exceeds the enumeration cap 1000000\n"


def test_tree_depth_lists_neither_w_nor_a_tree(capsys, monkeypatch):
    from schubcells.recognition import TreeLeaf, TreeNode

    def refuse(*args):
        raise AssertionError("the depth path built a tree")

    for owner in (TreeNode, TreeLeaf):
        monkeypatch.setattr(owner, "__init__", refuse)
    for spec, depth in (("A3", 6), ("B6", 36), ("D8", 61)):
        code, out, _ = run(capsys, "tree", "--group", spec)
        assert (code, out) == (0, f"algorithmic decision tree for {spec}: depth {depth}\n")
        code, out, _ = run(capsys, "tree", "--group", spec, "--format", "json")
        assert json.loads(out) == {"depth": depth, "strategy": "algorithmic"}
    for spec, depth in (("A3", 6), ("B6", 36), ("C8", 64)):
        code, out, _ = run(capsys, "tree", "--group", spec, "--optimal")
        assert (code, out) == (0, f"optimal decision tree for {spec}: depth {depth}\n")


def test_tree_outputs(capsys):
    code, out, _ = run(capsys, "tree", "--group", "A2", "--optimal")
    assert code == 0 and "depth 3" in out
    code, out, _ = run(capsys, "tree", "--group", "A2", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "tree", "--group", "A2", "--optimal", "--format", "json")
    assert json.loads(out)["depth"] == 3


@pytest.mark.parametrize("spec, depth", [
    ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("C2", 4), ("G2", 6), ("B3", 9), ("C3", 9),
    ("C8", 64), ("B8", 64),
])
def test_tree_optimal_is_certified(capsys, spec, depth):
    # the depth under an economical ordering is |positive roots|, with no search
    code, out, _ = run(capsys, "tree", "--group", spec, "--optimal")
    assert (code, out) == (0, f"optimal decision tree for {spec}: depth {depth}\n")
    code, out, _ = run(capsys, "tree", "--group", spec, "--optimal", "--format", "json")
    assert (code, out) == (0, f'{{"depth": {depth}, "strategy": "optimal"}}\n')


@pytest.mark.parametrize("spec", ("A1", "A2", "A3", "B2", "C2", "G2"))
def test_tree_optimal_dot_is_the_algorithmic_tree(capsys, spec):
    optimal = run(capsys, "tree", "--group", spec, "--optimal", "--format", "dot")
    assert optimal == run(capsys, "tree", "--group", spec, "--format", "dot")


@pytest.mark.parametrize("fmt", ("plain", "json", "dot"))
def test_tree_optimal_without_a_certificate_exits_1(capsys, fmt):
    code, out, err = run(capsys, "tree", "--group", "D4", "--optimal", "--format", fmt)
    assert (code, out, err) == (
        1, "", "error: no optimality certificate: the ordering is not economical\n"
    )


def test_a_closed_stdout_exits_141_quietly():
    # 700 KB of DOT outgrows any pipe buffer, so the write after the close fails
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "schubcells.cli", "tree", "--group", "B5", "--format", "dot"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"digraph recognition {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_recognize_trace_is_pinned(capsys):
    code, out, _ = run(capsys, "--seed", "7", "recognize", "--group", "A3", "--cell", "2314",
                       "--trace")
    assert (code, out) == (0, (
        "w = 2314; queries = 6 (p4, p3, p2, p24, p23, p234)\n"
        "  p4 = 0\n  p3 = 0\n  p2 != 0\n  p24 = 0\n  p23 != 0\n  p234 = 0\n"
    ))


def test_base_a3_json_is_pinned(capsys):
    # type A records carry the bigrassmannian triple
    code, out, _ = run(capsys, "base", "--group", "A3", "--format", "json")
    records = [
        ("2134 (s1)", 1, 1, [0, 1, 2], "2"), ("1324 (s2)", 2, 2, [1, 2, 3], "13"),
        ("1243 (s3)", 3, 3, [2, 3, 4], "124"), ("2314 (s1.s2)", 1, 2, [0, 1, 3], "23"),
        ("3124 (s2.s1)", 2, 1, [0, 2, 3], "3"), ("1342 (s2.s3)", 2, 3, [1, 2, 4], "134"),
        ("1423 (s3.s2)", 3, 2, [1, 3, 4], "14"), ("2341 (s1.s2.s3)", 1, 3, [0, 1, 4], "234"),
        ("4123 (s3.s2.s1)", 3, 1, [0, 3, 4], "4"), ("3412 (s2.s1.s3.s2)", 2, 2, [0, 2, 4], "34"),
    ]
    want = json.dumps([
        {"element": e, "left_descent": ld, "right_descent": rd, "triple": t, "weight": pw}
        for e, ld, rd, t, pw in records
    ], sort_keys=True)
    assert (code, out) == (0, want + "\n")


def test_patterns_poset_a2_dot_is_pinned(capsys):
    code, out, _ = run(capsys, "patterns-poset", "--group", "A2", "--format", "dot")
    vertices = [("0000", "123"), ("0100", "132"), ("1000", "213"), ("0011", "321"),
                ("0101", "312"), ("1010", "231"), ("0111", "321"), ("1011", "321"),
                ("1101", "312"), ("1110", "231"), ("1111", "321")]
    covers = ["0000 0100", "0000 1000", "0000 0011", "0100 0101", "0100 1110", "1000 1010",
              "1000 1101", "0011 0111", "0011 1011", "0101 0111", "0101 1101", "1010 1011",
              "1010 1110", "0111 1111", "1011 1111", "1101 1111", "1110 1111"]
    want = ["digraph patterns {"]
    want += [f'  "{v}" [label="{v}\\n{cell}"];' for v, cell in vertices]
    want += ['  "{}" -> "{}";'.format(*c.split()) for c in covers]
    assert (code, out) == (0, "\n".join(want + ["}"]) + "\n")


def test_patterns_poset_needs_type_a(capsys):
    assert run(capsys, "patterns-poset", "--group", "B2") == (
        1, "", "patterns-poset requires a type A group\n"
    )


def test_patterns_poset_refuses_c5_before_any_search(capsys):
    # the realizable set is certified for n <= 4 only, and this check is its one guard
    assert run(capsys, "patterns-poset", "--group", "A4") == (
        1, "", "error: realizable pattern enumeration is implemented for n in 2..4, not 5\n"
    )


def test_base_output(capsys):
    code, out, _ = run(capsys, "base", "--group", "A2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert {line.split()[0] for line in lines} == {"p2", "p3", "p13", "p23"}
    code, out, _ = run(capsys, "base", "--group", "B2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 6


def test_patterns_poset(capsys):
    code, out, _ = run(
        capsys, "patterns-poset", "--group", "A2", "--coords", "p2,p3,p13,p23"
    )
    assert code == 0
    assert "11 realizable patterns" in out
    code, out, _ = run(
        capsys, "patterns-poset", "--group", "A2", "--format", "json"
    )
    assert len(json.loads(out)["vertices"]) == 11


def test_patterns_poset_bad_coordinate(capsys):
    # a subset reaching outside 1..n names no weight: one error line, exit 1
    code, out, err = run(
        capsys, "patterns-poset", "--group", "A2", "--coords", "p15,p2"
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "15" in err


def test_patterns_poset_coordinate_of_the_wrong_size(capsys):
    # p123 in A2 is all of 1..3, which is no Plucker coordinate
    code, out, err = run(capsys, "patterns-poset", "--group", "A2", "--coords", "p123")
    assert (code, out) == (1, "")
    assert err == "error: subset 123 is not of size 1..2 (coordinate 'p123')\n"


def test_patterns_poset_braced_coordinate(capsys):
    # commas inside braces separate entries of one subset, not coordinates
    code, out, _ = run(capsys, "patterns-poset", "--group", "A3", "--coords", "p{1,3},p2")
    assert code == 0
    assert out.splitlines()[0] == "4 realizable patterns over (p13, p2) [exact]"
    assert run(capsys, "patterns-poset", "--group", "A3", "--coords", "p13,p2")[1] == out


@pytest.mark.parametrize(
    "coords, message",
    [
        ("p11", "row 1 repeated in [1, 1] (coordinate 'p11')"),
        ("p112", "row 1 repeated in [1, 1, 2] (coordinate 'p112')"),
        ("p{1,1}", "row 1 repeated in [1, 1] (coordinate 'p{1,1}')"),
        ("p1,p1", "coordinate 'p1' repeated in --coords"),
        ("p2,p{2}", "coordinate 'p{2}' repeated in --coords"),
    ],
)
def test_patterns_poset_rejects_a_repeated_row_or_coordinate(capsys, coords, message):
    # a set of rows would read p11 as p1 and p112 as p12
    code, out, err = run(capsys, "patterns-poset", "--group", "A2", "--coords", coords)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_rank8_descriptions_leave_w_unenumerated(capsys):
    # |W| is over the enumeration cap for both groups; orbit tables suffice
    code, out, _ = run(capsys, "describe", "--group", "D8", "--w", "s1")
    assert code == 0 and "nonzero: p(1:s1)" in out
    code, out, _ = run(capsys, "describe-variety", "--group", "B8", "--w", "s1")
    assert code == 0 and "zero:" in out


def test_bounds_commands(capsys):
    code, out, _ = run(capsys, "bounds", "--witness", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["family_size"] == 4 and data["lower_bound"] == 2
    code, out, _ = run(capsys, "bounds", "--feedback-free", "3", "--format", "json")
    data = json.loads(out)
    assert data["size"] == 4 and data["unique"] and data["certified"] is True
    code, out, _ = run(capsys, "bounds", "--defining", "2143", "4", "--format", "json")
    data = json.loads(out)
    assert data["lower_bound"] == 5 and data["universal_count"] == 9
    code, _, err = run(capsys, "bounds")
    assert code == 1


def test_bounds_witness_one_line_reads_back_past_9(capsys):
    code, out, _ = run(capsys, "bounds", "--witness", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["w"] == "6,5,4,3,2,1,12,11,10,9,8,7"
    parsed = {tuple(map(int, text.split(","))) for text in [data["w"], *data["witnesses"]]}
    assert len(parsed) == 401
    assert all(sorted(p) == list(range(1, 13)) for p in parsed)
    code, out, _ = run(capsys, "bounds", "--witness", "2", "--format", "json")
    assert json.loads(out)["w"] == "43218765"


@pytest.mark.parametrize("argv", [
    ("--defining", "123", "3", "--witness", "1"),
    ("--witness", "1", "--feedback-free", "3"),
    ("--feedback-free", "3", "--defining", "21", "2"),
])
def test_bounds_modes_are_exclusive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("w", ["12", "4321", "113"])
def test_bounds_defining_rejects_non_permutation(capsys, w):
    code, out, err = run(capsys, "bounds", "--defining", w, "3")
    perm = tuple(int(c) for c in w)
    assert (code, out) == (1, "")
    assert err == f"error: {perm} is not a permutation of 1..3\n"


@pytest.mark.parametrize("w, letter", [("s1..s2", "''"), ("x", "'x'"), ("s1.t2", "'t2'")])
def test_describe_rejects_a_malformed_word(capsys, w, letter):
    code, out, err = run(capsys, "describe", "--group", "B2", "--w", w)
    assert (code, out) == (1, "")
    assert err == f"error: cannot parse word {w!r}: {letter} is not a generator s<k>\n"


def test_type_a_digits_are_one_line(capsys):
    # two or more digits are a one-line permutation, one digit a word
    code, out, err = run(capsys, "recognize", "--group", "A2", "--cell", "21")
    assert (code, out) == (1, "")
    assert err == "error: (2, 1) is not a permutation of 1..3\n"
    code, out, _ = run(capsys, "describe", "--group", "A2", "--w", "2")
    assert code == 0 and out.startswith("cell of 132 (s2) in A2:")


def test_single_digit_one_is_s1(capsys):
    # "1" is the word s1, as every other single digit is s<k>
    assert run(capsys, "describe", "--group", "B2", "--w", "1") == run(
        capsys, "describe", "--group", "B2", "--w", "s1"
    )
    code, out, _ = run(capsys, "describe", "--group", "A2", "--w", "1")
    assert code == 0 and out.startswith("cell of 213 (s1) in A2:")
    code, out, _ = run(capsys, "describe", "--group", "A2", "--w", "e")
    assert code == 0 and out.startswith("cell of 123 (e) in A2:")


@pytest.mark.parametrize(
    "argv, token",
    [
        (("patterns-poset", "--group", "A2", "--coords", "p1x,p2"), "'p1x'"),
        (("patterns-poset", "--group", "A2", "--coords", "p,p2"), "'p'"),
        (("bounds", "--defining", "321", "x"), "'x'"),
        (("bounds", "--defining", "3x1", "3"), "'3x1'"),
        (("economical", "--group", "A2", "--ordering", "2,x"), "'x' in --ordering"),
        (("economical", "--group", "A2", "--ordering", ""), "cannot parse '' in --ordering"),
    ],
)
def test_input_errors_quote_the_token(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and token in err


def test_bounds_defining_past_the_search_cap_exits_1(capsys):
    code, out, err = run(capsys, "bounds", "--defining", "53216748", "8")
    assert (code, out, err) == (1, "", "error: exact hitting-set search is capped at n = 7\n")


@pytest.mark.parametrize("spec", ["3A", "Ax", "A"])
def test_an_unparsable_group_spec_exits_3(capsys, spec):
    code, out, err = run(capsys, "describe", "--group", spec, "--w", "e")
    assert (code, out, err) == (3, "", f"unsupported group: cannot parse group spec '{spec}'\n")


@pytest.mark.parametrize("n", ["0", "1", "17"])
def test_bounds_feedback_free_names_its_range(capsys, n):
    # the set is listed with no group built, so no n exits 3 for a rank
    # outside 1..8; past n = 16 the listing is refused
    code, out, err = run(capsys, "bounds", "--feedback-free", n)
    assert (code, out) == (1, "")
    assert err == f"error: the feedback-free set is listed for n in 2..16, not {n}\n"


@pytest.mark.parametrize("n", ["5", "10", "12"])
def test_bounds_feedback_free_answers_past_c4(capsys, n):
    code, out, err = run(capsys, "bounds", "--feedback-free", n)
    size = 2 ** int(n) - int(n) - 1
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"n={n}: minimal feedback-free set has size {size} [exact] (unique)"


@pytest.mark.parametrize("k", ["0", "4"])
def test_bounds_witness_names_its_range(capsys, k):
    code, out, err = run(capsys, "bounds", "--witness", k)
    assert (code, out, err) == (1, "", f"error: witness families are listed for k in 1..3, not {k}\n")


def test_economical_output(capsys):
    code, out, _ = run(capsys, "economical", "--group", "B3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [row["economical"] for row in data["indices"]] == [True, False, False]
    assert data["ordering_economical"]
    code, out, _ = run(capsys, "economical", "--group", "A2", "--ordering", "2,1")
    assert code == 0 and "economical" in out


def test_economical_verdict_is_is_economical_index(capsys, monkeypatch):
    # the printed verdict is plucker's, not a second test on the counts
    real = cli.is_economical_index
    monkeypatch.setattr(cli, "is_economical_index", lambda g, i: real(g, i) != (i == 1))
    code, out, _ = run(capsys, "economical", "--group", "B3")
    assert code == 0
    assert out.splitlines()[:2] == [
        "index 1: 1 + |R(i)| = 6, |W w_i| = 6 -> not economical",
        "index 2: 1 + |R(i)| = 8, |W w_i| = 12 -> not economical",
    ]
    code, out, _ = run(capsys, "economical", "--group", "B3", "--format", "json")
    assert [row["economical"] for row in json.loads(out)["indices"]] == [False, False, False]


def test_unsupported_group_exit_code(capsys):
    code, _, err = run(capsys, "describe", "--group", "E6", "--w", "21")
    assert code == 3
    assert "unsupported" in err


def test_internal_error_exit_code(monkeypatch, capsys):
    # an internal invariant failure exits 4 with one line on stderr
    from schubcells import flags

    def exhausted(w, seed=None):
        raise RuntimeError("failed to sample a generic point of the cell")

    monkeypatch.setattr(flags, "random_cell_point", exhausted)
    code, out, err = run(capsys, "recognize", "--group", "A2", "--cell", "213")
    assert code == 4
    assert out == ""
    assert err == "internal error: failed to sample a generic point of the cell\n"


def test_parse_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["describe"])  # missing required arguments
    assert exc.value.code == 2


def test_round_trip_describe_recognize(tmp_path, capsys):
    # any flag in the cell satisfies the printed description, and recognize
    # recovers the same cell
    from schubcells.flags import random_cell_point
    from schubcells import perms

    for w in perms.all_perms(3) + [(2, 3, 1, 4), (4, 2, 3, 1)]:
        n = len(w)
        group = f"A{n-1}"
        wtext = "".join(map(str, w))
        code, out, _ = run(capsys, "describe", "--group", group, "--w", wtext, "--format", "json")
        assert code == 0
        desc = json.loads(out)
        flag = random_cell_point(w, seed=42)
        fp = tmp_path / "flag.json"
        fp.write_text(json.dumps([[str(e) for e in row] for row in flag.matrix]))
        code, out, _ = run(capsys, "recognize", "--group", group, "--flag", str(fp), "--format", "json")
        assert code == 0
        result = json.loads(out)
        assert result["w"] == wtext
        # the flag satisfies every printed constraint
        pat = subset_pattern(flag)
        to_set = lambda s: frozenset(int(c) for c in s.strip("{}").split(",")) if "{" in s else frozenset(int(c) for c in s)
        for s in desc["zero"]:
            assert pat[to_set(s)] == 0
        for s in desc["nonzero"]:
            assert pat[to_set(s)] == 1


def _bench_cli_commands():
    """The benchmark's fixed CLI commands, read from bench/benchlib.py."""
    spec = importlib.util.spec_from_file_location("bench_cli_commands", BENCH / "benchlib.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_COMMANDS


BENCH_COMMANDS = _bench_cli_commands()


@pytest.mark.parametrize("cid, argv", BENCH_COMMANDS, ids=[cid for cid, _ in BENCH_COMMANDS])
def test_stdout_matches_bench_expected(capsys, cid, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (BENCH / "expected" / f"{cid}.txt").read_bytes()
