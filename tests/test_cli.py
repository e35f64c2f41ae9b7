"""End-to-end command-line behavior, run in-process through main().

Covers the documented command examples, the exit-code contract (0 ok,
2 validation, 3 budget, 4 internal), byte determinism, atomic output, and
the fixture fallback for file resolutions.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from tatejoin import cyclic
from tatejoin.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def factors_of(stdout):
    return [e["invariant_factors"] for e in json.loads(stdout)]


def test_homology_cyclic6(capsys):
    code, out, _ = run(capsys, "homology", "--group", "cyclic:6",
                       "--degrees", "1..4")
    assert code == 0
    assert factors_of(out) == [[6], [], [6], []]


def test_homology_trivial(capsys):
    code, out, _ = run(capsys, "homology", "--group", "trivial",
                       "--degrees", "1..3")
    assert code == 0
    assert factors_of(out) == [[], [], []]


def test_homology_s3_bar(capsys):
    code, out, _ = run(capsys, "homology", "--group", "sym:3",
                       "--resolution", "bar", "--depth", "4",
                       "--degrees", "1..3")
    assert code == 0
    assert factors_of(out) == [[2], [], [6]]


def test_homology_degree_list_and_schema(capsys):
    code, out, _ = run(capsys, "homology", "--group", "cyclic:2",
                       "--degrees", "0,2")
    assert code == 0
    docs = json.loads(out)
    assert [d["degree"] for d in docs] == [0, 2]
    for d in docs:
        assert set(d) == {"group", "degree", "invariant_factors",
                          "generators"}
    assert docs[0]["invariant_factors"] == [0]  # H_0 = Z


def test_tate_command(capsys):
    code, out, _ = run(capsys, "tate", "--group", "cyclic:4",
                       "--degrees", "-4..-1")
    assert code == 0
    docs = json.loads(out)
    assert [(d["degree"], d["invariant_factors"]) for d in docs] == \
        [(-4, [4]), (-3, []), (-2, [4]), (-1, [])]


def test_tate_rejects_nonnegative(capsys):
    code, _, err = run(capsys, "tate", "--group", "cyclic:4",
                       "--degrees", "0..1")
    assert code == 2
    assert "out of scope" in err


def test_product_table_cyclic2(capsys):
    code, out, _ = run(capsys, "product-table", "--group", "cyclic:2",
                       "--pairs", "1x1,1x3,3x3")
    assert code == 0
    doc = json.loads(out)
    assert all(e["agree"] for e in doc["entries"])
    assert all(e["join"] == [1] for e in doc["entries"])


def test_product_table_cyclic3_order(capsys):
    code, out, _ = run(capsys, "product-table", "--group", "cyclic:3",
                       "--pairs", "1x1")
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert entry["join"] == [1] and entry["agree"]


def test_product_table_q8_fixture_fallback(capsys):
    # bare file name resolves against the shipped fixtures directory
    code, out, _ = run(capsys, "product-table", "--group", "q8",
                       "--resolution", "file:q8_periodic.json",
                       "--pairs", "3x3")
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert entry["agree"] and any(entry["join"])


def test_product_table_csv(capsys):
    code, out, _ = run(capsys, "product-table", "--group", "cyclic:2",
                       "--pairs", "1x1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,m,a,b,join,composition,agree"


def test_csv_rejected_elsewhere(capsys):
    code, _, err = run(capsys, "homology", "--group", "cyclic:2",
                       "--degrees", "1..2", "--format", "csv")
    assert code == 2
    assert "product-table" in err


def test_verify_passes(capsys, tmp_path):
    out_path = str(tmp_path / "report.json")
    code, _, _ = run(capsys, "verify", "--group", "cyclic:4", "--depth", "7",
                     "--output", out_path)
    assert code == 0
    doc = json.loads(open(out_path).read())
    assert doc["passed"] is True
    assert doc["pass_count"] == doc["check_count"]


def test_verify_prints_named_lines(capsys):
    code, _, err = run(capsys, "verify", "--group", "cyclic:3",
                       "--depth", "5")
    assert code == 0
    assert "PASS group:associativity" in err
    assert "checks passed" in err


def test_verify_seed_changes_nothing_semantic(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(capsys, "verify", "--group", "cyclic:3", "--depth", "5",
               "--seed", "7", "--output", a)[0] == 0
    assert run(capsys, "verify", "--group", "cyclic:3", "--depth", "5",
               "--seed", "8", "--output", b)[0] == 0
    assert json.load(open(a))["passed"] and json.load(open(b))["passed"]


def test_doctored_resolution_file_exit_2(capsys, tmp_path):
    res_path = str(tmp_path / "c4.json")
    from tatejoin import periodic_cyclic_resolution
    periodic_cyclic_resolution(4, 4).save(res_path)
    doc = json.load(open(res_path))
    doc["differentials"][1][0][0][0] += 1
    bad = str(tmp_path / "doctored.json")
    json.dump(doc, open(bad, "w"))
    code, _, err = run(capsys, "homology", "--group", "cyclic:4",
                       "--resolution", f"file:{bad}", "--degrees", "1..2")
    assert code == 2
    assert "degree" in err


def test_resolution_file_group_mismatch(capsys, tmp_path):
    res_path = str(tmp_path / "c4.json")
    from tatejoin import periodic_cyclic_resolution
    periodic_cyclic_resolution(4, 4).save(res_path)
    code, _, err = run(capsys, "homology", "--group", "cyclic:5",
                       "--resolution", f"file:{res_path}",
                       "--degrees", "1..2")
    assert code == 2
    assert "different group" in err


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "homology", "--group", "sym:3",
                       "--resolution", "bar", "--depth", "6",
                       "--degrees", "1..5", "--max-zrank", "1000")
    assert code == 3
    assert "budget" in err


def test_product_table_budget_counts_the_join_it_reads(capsys):
    # the 1x1 product reads the join of the 1-skeleta of C4's periodic
    # resolution through degree 3, ranks (2, 6, 8, 4), so its largest
    # expanded size is 4 x 8 = 32: that budget suffices, one less does not.
    # Each pair of a table reads its own join: 3x1 and 1x3 both read ranks
    # (2, 6, 9, 9, 8, 4), 4 x 9 = 36, where the bounding box P<=3 * P<=3
    # would need 4 x 16 = 64
    for pairs, budget in (("1x1", 32), ("3x1,1x3", 36)):
        code, out, _ = run(capsys, "product-table", "--group", "cyclic:4",
                           "--pairs", pairs, "--max-zrank", str(budget))
        assert code == 0
        assert all(e["agree"] for e in json.loads(out)["entries"])
        code, _, err = run(capsys, "product-table", "--group", "cyclic:4",
                           "--pairs", pairs, "--max-zrank", str(budget - 1))
        assert code == 3 and "join" in err


def test_env_budget_override(capsys, monkeypatch):
    monkeypatch.setenv("TATEJOIN_MAX_ZRANK", "600")
    code, _, err = run(capsys, "homology", "--group", "q8",
                       "--resolution", "bar", "--depth", "3",
                       "--degrees", "1..2")
    assert code == 3


@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_budget_flag_exit_2(capsys, value):
    code, out, err = run(capsys, "homology", "--group", "cyclic:2",
                         "--degrees", "1", "--max-zrank", value)
    assert code == 2 and out == ""
    assert f"--max-zrank must be a positive integer, got {value}" in err


def test_non_integer_budget_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--group", "cyclic:2", "--degrees", "1",
              "--max-zrank", "abc"])
    assert exc.value.code == 2
    assert "--max-zrank" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_bad_budget_variable_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("TATEJOIN_MAX_ZRANK", value)
    code, out, err = run(capsys, "homology", "--group", "cyclic:2",
                         "--degrees", "1")
    assert code == 2 and out == ""
    assert "TATEJOIN_MAX_ZRANK must be a positive integer" in err
    assert value in err


def test_budget_flag_overrides_variable(capsys, monkeypatch):
    monkeypatch.setenv("TATEJOIN_MAX_ZRANK", "abc")
    code, out, _ = run(capsys, "homology", "--group", "cyclic:2",
                       "--degrees", "1", "--max-zrank", "100")
    assert code == 0 and factors_of(out) == [[2]]


def test_budget_bounds_depth(capsys):
    # degree 40 needs depth 41: |C3| x 42 degrees = 126 integer dimensions
    code, out, err = run(capsys, "homology", "--group", "cyclic:3",
                         "--degrees", "40", "--max-zrank", "100")
    assert code == 3 and out == ""
    assert "depth 41" in err and "126" in err
    code, out, _ = run(capsys, "homology", "--group", "cyclic:3",
                       "--degrees", "40", "--max-zrank", "126")
    assert code == 0 and factors_of(out) == [[]]


@pytest.mark.parametrize("argv", [
    ["homology", "--group", "cyclic:3", "--degrees", "99999999999"],
    ["homology", "--group", "cyclic:3", "--degrees", "1..99999999999"],
    ["tate", "--group", "q8", "--degrees", "-99999999"],
    ["verify", "--group", "cyclic:3", "--depth", "100000"],
])
def test_huge_depth_exit_3_before_any_work(capsys, monkeypatch, argv):
    # refused before a degree range is expanded or a resolution is built
    monkeypatch.delenv("TATEJOIN_MAX_ZRANK", raising=False)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert "budget is 50000" in err
    assert time.perf_counter() - t0 < 2


def test_verify_charges_its_bidegrees_to_the_budget(capsys, monkeypatch):
    # depth 200 has 197 * 198 / 2 = 19503 bidegrees: 3 x 19503 = 58509
    # exceeds the default budget; depth 100 needs 3 x 4753 = 14259
    monkeypatch.delenv("TATEJOIN_MAX_ZRANK", raising=False)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--group", "cyclic:3",
                         "--depth", "200")
    assert time.perf_counter() - t0 < 2
    assert code == 3 and out == ""
    assert "19503 bidegrees" in err and "58509" in err
    code, _, err = run(capsys, "verify", "--group", "cyclic:3",
                       "--depth", "100", "--max-zrank", "14258")
    assert code == 3 and "4753 bidegrees" in err


def test_bad_degree_and_pair_tokens(capsys):
    assert run(capsys, "homology", "--group", "cyclic:2",
               "--degrees", "5..2")[0] == 2
    assert run(capsys, "homology", "--group", "cyclic:2",
               "--degrees", "two")[0] == 2
    assert run(capsys, "product-table", "--group", "cyclic:2",
               "--pairs", "1y1")[0] == 2
    assert run(capsys, "product-table", "--group", "cyclic:2",
               "--pairs", "0x1")[0] == 2


def test_depth_too_shallow_for_degrees(capsys):
    code, _, err = run(capsys, "homology", "--group", "cyclic:2",
                       "--degrees", "1..4", "--depth", "3")
    assert code == 2
    assert "depth" in err


def test_unknown_group_exit_2(capsys):
    code, _, err = run(capsys, "homology", "--group", "frieze:7",
                       "--degrees", "1..2")
    assert code == 2


@pytest.mark.parametrize("spec, order", [("cyclic:30000", 30000),
                                         ("dihedral:15000", 30000)])
def test_huge_group_order_exit_2(capsys, spec, order):
    # refused before the order^2 multiplication table, billions of entries
    # here, is allocated
    t0 = time.perf_counter()
    code, _, err = run(capsys, "homology", "--group", spec, "--degrees", "1")
    assert code == 2
    assert str(order) in err and "table order" in err
    assert time.perf_counter() - t0 < 10


def test_huge_permutation_closure_exit_2(capsys, tmp_path):
    gpath = tmp_path / "s7.json"
    gpath.write_text(json.dumps(
        {"label": "S7", "degree": 7,
         "generators": [[1, 2, 3, 4, 5, 6, 0], [1, 0, 2, 3, 4, 5, 6]]}))
    code, _, err = run(capsys, "homology", "--group", f"file:{gpath}",
                       "--degrees", "1")
    assert code == 2
    assert "'S7'" in err and "table order" in err


def test_byte_determinism(capsys, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        code, _, _ = run(capsys, "product-table", "--group", "cyclic:4",
                         "--pairs", "1x1,1x3", "--output", path)
        assert code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_output_is_atomic_no_partial_file(capsys, tmp_path):
    # a failing run must not leave the output file behind
    target = str(tmp_path / "out.json")
    code, _, _ = run(capsys, "homology", "--group", "sym:3",
                     "--resolution", "bar", "--depth", "6",
                     "--degrees", "1..5", "--max-zrank", "1000",
                     "--output", target)
    assert code == 3
    assert not os.path.exists(target)
    assert not os.path.exists(target + ".tmp")


def test_failed_output_write_leaves_no_temporary_file(capsys, tmp_path):
    target = tmp_path / "out"
    target.mkdir()  # os.replace cannot put a file over a directory
    code, _, err = run(capsys, "homology", "--group", "cyclic:3",
                       "--degrees", "1", "--output", str(target))
    assert code == 2 and "error" in err
    assert not os.path.exists(str(target) + ".tmp")


def test_group_file_input(capsys, tmp_path):
    gpath = str(tmp_path / "c6.json")
    json.dump(cyclic(6).to_json(), open(gpath, "w"))
    code, out, _ = run(capsys, "homology", "--group", f"file:{gpath}",
                       "--degrees", "1..2")
    assert code == 0
    assert factors_of(out) == [[6], []]


def _c4_resolution_doc():
    from tatejoin import periodic_cyclic_resolution
    return periodic_cyclic_resolution(4, 4).to_json()


def _doctor(path, value):
    """A copy of the C4 resolution document with one field replaced."""
    def edit(doc):
        *keys, last = path
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        return doc
    return edit


CORRUPT_GROUP_FILES = [
    ("truncated", '{"table": [[0, 1], [1,', "not valid JSON"),
    ("not utf-8", b'{"table": \xff}', "not valid JSON"),
    ("string entry", {"table": [[0, "1"], [1, 0]]},
     "group table row 0 must be a list of integers"),
    ("bool entry", {"table": [[0, True], [True, 0]]},
     "group table row 0 must be a list of integers"),
    ("table not a list", {"table": 5}, "group 'table' must be a list"),
    ("row not a list", {"table": [[0, 1], 7]},
     "group table row 1 must be a list"),
    ("not a group", {"table": [[0, 1], [0, 1]]}, "invalid group table"),
    ("label not a string", {"label": [1], "table": [[0]]},
     "'label' must be a string"),
    ("degree a string", {"degree": "3", "generators": [[1, 0, 2]]},
     "'degree' must be an integer"),
    ("generator with a string", {"degree": 3, "generators": [[1, 0, "2"]]},
     "generator 0 must be a list of integers"),
    ("top level a list", [[0]], "group JSON must be an object"),
]


OVERSIZED_GROUP_FILES = [
    ("table above the order cap",
     {"table": [[(i + j) % 1030 for j in range(1030)] for i in range(1030)]},
     2, "above the largest supported table order 1024"),
    ("degree beyond the generators", {"generators": [[1, 0]],
                                      "degree": 10 ** 6},
     2, "is not a permutation"),
    ("negative degree", {"generators": [], "degree": -1},
     2, "'degree' must be an integer >= 0"),
    ("no generators of a huge degree", {"generators": [],
                                        "degree": 3 * 10 ** 6}, 0, ""),
]


@pytest.mark.parametrize("name,content,code,message", OVERSIZED_GROUP_FILES,
                         ids=[c[0] for c in OVERSIZED_GROUP_FILES])
def test_oversized_group_file_exits_quickly(capsys, tmp_path, name, content,
                                            code, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(content))
    start = time.perf_counter()
    got, out, err = run(capsys, "homology", "--group", f"file:{path}",
                        "--degrees", "1")
    assert time.perf_counter() - start < 5
    assert got == code
    assert message in err
    if code == 0:  # the trivial group
        assert factors_of(out) == [[]]


@pytest.mark.parametrize("name,content,message", CORRUPT_GROUP_FILES,
                         ids=[c[0] for c in CORRUPT_GROUP_FILES])
def test_corrupted_group_file_exit_2(capsys, tmp_path, name, content,
                                     message):
    path = tmp_path / "group.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content))
    code, out, err = run(capsys, "homology", "--group", f"file:{path}",
                         "--degrees", "1..2")
    assert code == 2
    assert out == ""
    assert message in err


CORRUPT_RESOLUTION_FILES = [
    ("truncated", '{"ranks": [1, 1', "not valid JSON"),
    ("rank a string", _doctor(["ranks", 1], "1"),
     "'ranks' must be a list of integers"),
    ("negative rank", _doctor(["ranks", 1], -1), "must be nonnegative"),
    ("differentials not a list", _doctor(["differentials"], {}),
     "'differentials' must be a list"),
    ("differential not a list", _doctor(["differentials", 0], 3),
     "differential 1 must be a list"),
    ("row not a list", _doctor(["differentials", 0, 0], "x"),
     "differential 1 row 0 must be a list"),
    ("short row", _doctor(["differentials", 1, 0], []),
     "differential 2 row 0 has wrong length"),
    ("string coefficient", _doctor(["differentials", 0, 0, 0, 1], "1"),
     "differential 1 entry (0,0) must be a list of integers"),
    ("float coefficient", _doctor(["differentials", 2, 0, 0, 0], 1.0),
     "differential 3 entry (0,0) must be a list of integers"),
    ("coefficient count", _doctor(["differentials", 0, 0, 0], [1, -1]),
     "has 2 coefficients, expected 4"),
    ("augmentation a string", _doctor(["augmentation"], "1"),
     "'augmentation' must be a list"),
    ("augmentation entry null", _doctor(["augmentation", 0], None),
     "'augmentation' must be a list of integers"),
    ("group null", _doctor(["group"], None), "cannot build a group"),
    # d_2 = 2N still composes to zero, but its image is half of ker d_1
    ("inexact", _doctor(["differentials", 1, 0, 0], [2, 2, 2, 2]),
     "exact at degree 1: nonunit invariant factors 2 of z(d_2)"),
]


@pytest.mark.parametrize("name,content,message", CORRUPT_RESOLUTION_FILES,
                         ids=[c[0] for c in CORRUPT_RESOLUTION_FILES])
def test_corrupted_resolution_file_exit_2(capsys, tmp_path, name, content,
                                          message):
    path = tmp_path / "res.json"
    path.write_text(content if isinstance(content, str)
                    else json.dumps(content(_c4_resolution_doc())))
    code, out, err = run(capsys, "homology", "--group", "cyclic:4",
                         "--resolution", f"file:{path}", "--degrees", "1..2")
    assert code == 2
    assert out == ""
    assert message in err


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["homology", "--group", "cyclic:3", "--degrees", "1..3"]
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "tatejoin", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


# sha256 of main()'s stdout.  verify prints its JSON report there and
# product-table its table, so these pin every check line and every class
# byte for byte.
PINNED_STDOUT = [
    (("verify", "--group", "cyclic:3", "--depth", "7"),
     "fbb0f3e7b235e99df3cf94b538fe992956e3f03eb7dc6e82120b129c10924958"),
    (("verify", "--group", "sym:3", "--depth", "7"),
     "e53bef8d8d09a455d2db977b0e28655eddb717b0cca1b121717255b9188ed8c5"),
    (("verify", "--group", "dihedral:4", "--depth", "7"),
     "2348137a63619b83db38c1ca1a3724b6097ed34bbf446c3454cfc5a3665068de"),
    (("verify", "--group", "q8", "--depth", "7"),
     "b7502209219ba6c7bd5bc6058bde4702babe2aed692826c5f063258cd1087ae5"),
    (("verify", "--group", "q8", "--resolution", "file:q8_periodic.json",
      "--depth", "9"),
     "6f186f7070e5e7ffda61e84c6386422420bd3bff319cb0eb8b00cc97db99f91b"),
    (("product-table", "--group", "cyclic:3", "--pairs", "1x1,1x3,3x3"),
     "be1cd5e2515e35cc4c20b6f836090dc492b5a326aaecca40dc21016ce40dcdf7"),
    (("product-table", "--group", "q8", "--resolution",
      "file:q8_periodic.json", "--pairs", "3x3", "--format", "csv"),
     "b8497125142662d7e64085d4e38cc46ff01f054e5a4890a0100dc81d381debd2"),
    (("product-table", "--group", "dihedral:4", "--depth", "9",
      "--pairs", "3x3,2x5"),
     "a162d4e8b1fe1222c6a4f3dd8ad80224facab6aca2849be45786528d635f2cd6"),
    (("product-table", "--group", "sym:3", "--depth", "10",
      "--pairs", "3x3,3x5,1x7"),
     "47538d30739c6e54fed16f9d8f16e61a8ca2538cd97fc0498169f4291a8da03a"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=[" ".join(a) for a, _ in PINNED_STDOUT])
def test_stdout_is_byte_identical(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
