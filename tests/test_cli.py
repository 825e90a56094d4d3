import csv
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import brute_wreath
from brute_wreath import by_closure, permutation_product
from charcol.cli import main
from charcol.chain import SymmetricChain, get_chain
from charcol.hgroup import builtin_table, load_table, symmetric_group_table, wreath_classes, wreath_column
from charcol.partitions import class_sign, enumerate_partitions, format_partition
from charcol.verify import export_chain, jsonable
from test_hgroup import GROUPLESS_TABLES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_column_printed_vector(capsys):
    code, out, _ = run(
        capsys, "column", "--chain", "sym", "--class", "[3,1,1,1]", "--n", "6",
        "--paper-order", "--format", "csv",
    )
    assert code == 0
    values = [int(line.split(",")[-1]) for line in out.strip().splitlines()]
    assert values == [1, 2, 0, 1, -1, -2, -1, 1, 0, 2, 1]


def test_column_dimension_vector_s5(capsys):
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[1]", "--n", "5",
                       "--format", "csv")
    assert code == 0
    values = [int(line.split(",")[-1]) for line in out.strip().splitlines()]
    assert values == [1, 4, 5, 6, 5, 4, 1]


def test_column_wreath_identity(capsys):
    code, out, _ = run(capsys, "column", "--chain", "z2wreath", "--class", "e", "--n", "2",
                       "--format", "csv")
    assert code == 0
    values = [int(line.split(",")[-1]) for line in out.strip().splitlines()]
    assert sorted(values) == [1, 1, 1, 1, 2]


def test_column_odd_and_oracle_flags(capsys):
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "6",
                       "--odd", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracleMatches"] is True
    assert payload["plusPart"][0] == ["[6]", 1]


def test_column_csv_with_oracle_prints_the_oracle_third(capsys):
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[2,2,1]", "--n", "5",
                       "--format", "csv", "--oracle")
    rows = list(csv.reader(out.splitlines()))  # a label that holds commas is quoted
    assert code == 0 and len(rows) == len(enumerate_partitions(5))
    assert all(len(row) == 3 and row[2] == row[1] for row in rows), rows
    assert [row[0] for row in rows] == [format_partition(p) for p in enumerate_partitions(5)]


def test_column_oracle_on_a_wreath_chain_prints_the_wreath_rule(capsys):
    # --oracle was sym-only, a usage error on every other chain
    code, out, _ = run(capsys, "column", "--chain", "z2wreath", "--class", "1:[2]", "--n", "6", "--oracle")
    payload, chain = json.loads(out), get_chain("z2wreath")
    assert code == 0 and payload["oracleMatches"] is True
    reference = wreath_column(builtin_table("Z2"), ((0, (2, 1, 1, 1, 1)),))
    assert payload["oracle"] == [[chain.format_label(lab), reference.get(lab, 0)] for lab in chain.basis(6)]
    code, out, _ = run(capsys, "column", "--chain", "z2wreath", "--class", "1:[2]", "--n", "6",
                       "--oracle", "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert code == 0 and rows == [[lab, str(v), str(v)] for lab, v in payload["oracle"]]


def test_odd_column_from_n15(capsys):
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "15",
                       "--odd", "--oracle")
    assert code == 0
    assert json.loads(out)["oracleMatches"] is True


def test_column_bad_label_is_usage_error(capsys):
    code, _, err = run(capsys, "column", "--chain", "sym", "--class", "[x]", "--n", "4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("cls, message", [
    ("1[2]", "cannot parse wreath label '1[2]': missing ':' in '1[2]'"),
    ("1:[]", "empty partition in wreath label '1:[]'"),
])
def test_column_bad_wreath_label_is_usage_error(capsys, cls, message):
    code, out, err = run(capsys, "column", "--chain", "z2wreath", "--class", cls, "--n", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("cls, parts", [("[2,0]", "(2, 0)"), ("[0]", "(0,)")])
def test_column_zero_part_is_usage_error(capsys, cls, parts):
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", cls, "--n", "4")
    assert (code, out, err) == (2, "", f"error: partition parts must be positive: {parts}\n")


def test_column_class_without_brackets_prints_the_bracketed_bytes(capsys):
    bare = run(capsys, "column", "--chain", "sym", "--class", "3,1", "--n", "5")
    assert bare == run(capsys, "column", "--chain", "sym", "--class", "[3,1]", "--n", "5")
    assert bare[0] == 0 and bare[1] and not bare[2]


# the last two cores fit at level n, the classes with their fixed points do not
@pytest.mark.parametrize("spec, cls, n", [("sym", "[3,1]", 2), ("z2wreath", "1:[2]", 1),
                                          ("sym", "[2,1,1,1]", 2), ("z2wreath", "1:[1,1,1]", 1)])
def test_column_class_above_level_names_the_class(capsys, spec, cls, n):
    code, out, err = run(capsys, "column", "--chain", spec, "--class", cls, "--n", str(n))
    assert code == 2
    assert out == ""
    assert err == f"error: class '{cls}' does not fit at level {n}\n"


@pytest.mark.parametrize("spec", ["sym", "z2wreath"])
def test_identity_class_below_level_zero_is_named_as_typed(capsys, spec):
    # a level below the chain's lowest is refused before the class is fitted
    code, out, err = run(capsys, "column", "--chain", spec, "--class", "e", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == f"error: chain '{spec}' has no level -1\n"


@pytest.mark.parametrize("odd", [(), ("--odd",)], ids=["plain", "odd"])
def test_column_below_level_zero_names_the_level(capsys, odd):
    # column refuses a level as indres, table, mckay and lift do, an odd column too
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "-1", *odd)
    assert (code, out, err) == (2, "", "error: chain 'sym' has no level -1\n")


@pytest.mark.parametrize("n, message", [
    (6, "is even; odd_column needs an odd permutation"),
    (5, "does not fit at level 5"),
], ids=["even", "above-level"])
def test_odd_column_refusal_names_the_class_as_typed(capsys, n, message):
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", "[3,1,1,1]", "--n", str(n),
                         "--odd")
    assert (code, out) == (2, "")
    assert err == f"error: class '[3,1,1,1]' {message}\n"


@pytest.mark.parametrize("n", [0, 1, 3])
def test_odd_column_names_the_identity_as_typed(capsys, n):
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", "e", "--n", str(n), "--odd")
    assert (code, out) == (2, "")
    assert err == "error: class 'e' is even; odd_column needs an odd permutation\n"


@pytest.mark.parametrize("command, option, extra, printed", [
    ("column", "--class", ("--n", "2"), '"class": "-1:[2]"'),
    ("lift", "--label", ("--k", "2", "--n", "3"), '"-1:[3]": 1'),
], ids=["class", "label"])
def test_a_label_that_starts_with_a_minus_needs_the_equals_form(capsys, command, option, extra, printed):
    # argparse reads "-1:[2]" as an option, so only "--class=-1:[2]" passes it as a value
    with pytest.raises(SystemExit) as exc:
        main([command, "--chain", "z2wreath", option, "-1:[2]", *extra])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {option}: expected one argument\n")
    code, out, _ = run(capsys, command, "--chain", "z2wreath", f"{option}=-1:[2]", *extra)
    assert code == 0 and printed in out


@pytest.mark.parametrize("spec", ["sym", "z2wreath"])
def test_table_at_a_negative_level_names_the_level(capsys, spec):
    code, out, err = run(capsys, "table", "--chain", spec, "--k", "-1")
    assert (code, out) == (2, "")
    assert err == f"error: chain '{spec}' has no level -1\n"


def test_column_bound_exceeded_is_exit_3(capsys):
    code, _, err = run(capsys, "column", "--chain", "sym", "--class", "[6,2]", "--n", "8")
    assert code == 3
    assert "bound" in err


def test_lift_example(capsys):
    code, out, _ = run(capsys, "lift", "--chain", "sym", "--k", "5", "--label", "[3,2]",
                       "--n", "9")
    assert code == 0
    assert json.loads(out) == {"[9]": 10, "[8,1]": -4, "[7,2]": 1}


def test_lift_wrong_k(capsys):
    code, _, err = run(capsys, "lift", "--chain", "sym", "--k", "4", "--label", "[3,2]",
                       "--n", "9")
    assert code == 2


def test_indres_dump_matches_operator(capsys):
    code, out, _ = run(capsys, "indres", "--chain", "sym", "--n", "6", "--dump")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 6 and len(payload["basis"]) == 11
    sym = get_chain("sym")
    expect = [[r, c, v] for (r, c), v in sorted(sym.ind_res(6).data.items())]
    assert payload["entries"] == expect


def test_indres_paper_order(capsys):
    code, out, _ = run(capsys, "indres", "--chain", "sym", "--n", "6", "--paper-order")
    payload = json.loads(out)
    assert payload["basis"][6] == "[2,2,2]" and payload["basis"][7] == "[3,1,1,1]"
    dense = [[0] * 11 for _ in range(11)]
    for r, c, v in payload["entries"]:
        dense[r][c] = v
    from printed_data import PRINTED_X6

    assert dense == PRINTED_X6


def test_paper_order_is_refused_in_one_line_on_a_chain_without_a_sign_character(capsys, tmp_path):
    # the ingested chain lists positions and no class signs, and trivial has no sign character
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(export_chain(SymmetricChain(), 4)))
    for spec, name in ((str(chain_path), "sym"), ("trivial", "wreath:trivial")):
        code, out, err = run(capsys, "indres", "--chain", spec, "--n", "3", "--paper-order")
        assert (code, out) == (2, "")
        assert err == f"error: chain {name!r} has no sign character, so its irreps have no twins\n"


def test_column_paper_order_mirrors_the_wreath_twins(capsys):
    # each label once, its eta-twin mirrored, and an eta-odd column changes sign across the mirror
    code, out, err = run(capsys, "column", "--chain", "z2wreath", "--class=-1:[1]", "--n", "3",
                         "--paper-order", "--format", "csv")
    assert (code, err) == (0, "")
    rows = list(csv.reader(out.splitlines()))
    chain = get_chain("z2wreath")
    assert sorted(chain.parse_label(lab) for lab, _ in rows) == sorted(chain.basis(3))
    values = [int(v) for _, v in rows]
    assert values == [-v for v in reversed(values)]


def test_column_odd_on_a_wreath_chain_is_refused_in_one_line(capsys):
    # plusPart is read off the symmetric chain's reduced operator
    code, out, err = run(capsys, "column", "--odd", "--chain", "z2wreath", "--class=-1:[1]", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: column --odd's plusPart is defined for the symmetric chain only\n"


def test_mckay_dot(capsys):
    code, out, _ = run(capsys, "mckay", "--chain", "sym", "--n", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph mckay {")
    assert out.count("--") == 3


@pytest.mark.parametrize("spec, label", [("sym", "[]"), ("z2wreath", "e")])
def test_level_zero_has_the_zero_operator_and_a_one_vertex_graph(capsys, spec, label):
    # Res at level 0 maps onto the empty lower ring, so X_0 is the 1x1 zero matrix
    code, out, err = run(capsys, "indres", "--chain", spec, "--n", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 0, "basis": [label], "entries": []}
    code, out, err = run(capsys, "mckay", "--chain", spec, "--n", "0")
    assert (code, out, err) == (0, f'graph mckay {{\n  "{label}";\n}}\n', "")
    code, out, err = run(capsys, "mckay", "--chain", spec, "--n", "0", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 0, "vertices": [label], "edges": []}


@pytest.mark.parametrize("spec, label", [("sym", "[2]"), ("z2wreath", "1:[2]")])
def test_lift_to_a_negative_level_names_the_level(capsys, spec, label):
    # the level is checked before its basis is read, as indres, table and mckay do
    code, out, err = run(capsys, "lift", "--chain", spec, "--k", "2", "--label", label, "--n", "-1")
    assert (code, out, err) == (2, "", f"error: chain '{spec}' has no level -1\n")


@pytest.mark.parametrize("spec", ["sym", "z2wreath"])
def test_indres_and_mckay_at_a_negative_level_are_usage_errors(capsys, spec):
    code, out, err = run(capsys, "indres", "--chain", spec, "--n", "-1")
    assert (code, out, err) == (2, "", f"error: chain '{spec}' has no level -1\n")
    code, out, err = run(capsys, "mckay", "--chain", spec, "--n", "-1")
    assert (code, out, err) == (2, "", f"error: chain '{spec}' has no level -1\n")


@pytest.mark.parametrize("n", [0, 1])
def test_reduced_graph_below_level_two_has_no_vertex(capsys, n):
    # every diagram of at most one box is self-conjugate
    code, out, err = run(capsys, "mckay", "--chain", "sym", "--n", str(n), "--reduced")
    assert (code, out, err) == (0, "graph mckay {\n}\n", "")
    code, out, err = run(capsys, "mckay", "--chain", "sym", "--n", str(n), "--reduced",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": n, "vertices": [], "edges": []}


@pytest.mark.parametrize("fmt", ["dot", "json"])
def test_reduced_graph_at_a_negative_level_is_a_usage_error(capsys, fmt):
    code, out, err = run(capsys, "mckay", "--chain", "sym", "--n", "-1", "--reduced",
                         "--format", fmt)
    assert (code, out, err) == (2, "", "error: chain 'sym' has no level -1\n")


def test_mckay_reduced_json(capsys):
    code, out, _ = run(capsys, "mckay", "--chain", "sym", "--n", "6", "--reduced",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["vertices"] == ["[6]", "[5,1]", "[4,2]", "[4,1,1]", "[3,3]"]


def test_table_z2s2(capsys):
    code, out, _ = run(capsys, "table", "--chain", "z2wreath", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 8
    assert len(payload["irreps"]) == 5


def test_table_sym_matches_oracle(capsys):
    from charcol.partitions import mn_character, parse_partition

    code, out, _ = run(capsys, "table", "--chain", "sym", "--k", "5")
    payload = json.loads(out)
    assert len(payload["irreps"]) == 7
    for row in payload["irreps"]:
        lam = parse_partition(row["label"])
        for cls, value in zip(payload["classes"], row["values"]):
            assert value == mn_character(lam, parse_partition(cls["label"]))


def test_verify_pass_and_fail(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--chain", "sym", "--suite", "heisenberg",
                       "--maxN", "5")
    assert code == 0
    assert json.loads(out)["passed"] is True

    bad = {
        "levels": [
            {"n": 0, "order": 2, "basisSize": 2},
            {"n": 1, "order": 4, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
        ]
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "verify", "--chain", str(path), "--maxN", "1")
    assert code == 1
    assert "not a surjective chain" in err


def test_verify_takes_builtin_group_names(capsys):
    code, out, _ = run(capsys, "verify", "--chain", "trivial", "--suite", "all", "--maxN", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == "wreath:trivial" and payload["passed"] is True


def test_verify_oracle_reports_the_level_above_the_order_bound_as_skipped(capsys):
    # S_8 is above the default bound 10000: the report keeps levels 1..7 and passes
    code, out, err = run(capsys, "verify", "--chain", "sym", "--suite", "oracle", "--maxN", "10")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is True and len(payload["checks"]) == 44
    assert [entry["level"] for entry in payload["skipped"]] == [8]
    assert "S_8 has order 40320, above the bound 10000" in payload["skipped"][0]["reason"]
    assert list(payload)[-1] == "skipped"


def test_verify_jeongha_lists_the_levels_above_the_order_bound_as_skipped(capsys):
    # Z2 wr S_6 has order 46080: the class constraints at level 6 are skipped
    # under the default bound, and run under a raised one
    code, out, err = run(capsys, "verify", "--chain", "z2wreath", "--suite", "jeongha", "--maxN", "7")
    assert (code, err) == (0, "")
    bounded = json.loads(out)
    assert bounded["passed"] is True and len(bounded["checks"]) == 229
    assert [(entry["suite"], entry["level"]) for entry in bounded["skipped"]] == [("jeongha", 6)]
    assert "Z2 wr S_6 has order 46080, above the bound 10000" in bounded["skipped"][0]["reason"]
    code, out, err = run(capsys, "verify", "--chain", "z2wreath", "--suite", "jeongha", "--maxN", "7",
                         "--max-order", "100000")
    assert (code, err) == (0, "")
    full = json.loads(out)
    assert full["passed"] is True and "skipped" not in full
    extra = [c["name"].split()[:3] for c in full["checks"] if c not in bounded["checks"]]
    assert len(full["checks"]) == 229 + len(extra) == 294
    assert {(kind, int(n[2:]) - int(l[2:])) for kind, n, l in extra} == {("class-constraint", 6)}


@pytest.mark.parametrize("spec", ["/missing.json", "nope"])
def test_verify_unknown_chain_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "verify", "--chain", spec, "--maxN", "4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert spec in err
    assert err == f"error: unknown chain {spec!r}: no such file, nor one of sym, z2wreath, trivial, Z2\n"


@pytest.mark.parametrize("suite", ["jeongha", "tasyopari"])
@pytest.mark.parametrize("level", range(6))
def test_verify_rejects_an_ingested_order_of_zero(capsys, tmp_path, suite, level):
    # an order of 0 once ended these suites in a ZeroDivisionError traceback
    payload = export_chain(SymmetricChain(), 5)
    payload["levels"][level]["order"] = 0
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--suite", suite,
                         "--maxN", "5")
    assert code == 1 and out == ""
    assert err == (f"error: level {level}: malformed level entry: "
                   "order must be at least 1: every group has its identity\n")


def test_verify_refuses_a_level_far_above_the_others_in_one_line(capsys, tmp_path):
    # testing the levels for gaps once built the range up to 10**30, and ended
    # in an OverflowError traceback
    payload = export_chain(SymmetricChain(), 4)
    payload["levels"].append({"n": 10**30, "order": 1, "basisSize": 1})
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--maxN", "4")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == f"error: levels [0, 1, 2, 3, 4, {10**30}] are not consecutive\n"


def _no_res_column_at_the_top(payload):
    top = payload["levels"][-1]
    top["basisSize"] += 1
    del top["classes"]


def _huge_basis_at_the_top(payload):
    top = payload["levels"][-1]
    top["basisSize"] = top["order"] = 10**30
    del top["classes"]


# the extra irrep passed verify --suite all with exit 0, and the huge size
# ended in an OverflowError traceback as its basis was built; the order is as
# huge and no class rows are listed, so no group-size or class-count rule
# refuses the basis first
@pytest.mark.parametrize("spoil, top, column", [(_no_res_column_at_the_top, 5, 7), (_huge_basis_at_the_top, 4, 5)],
                         ids=["extra-irrep", "huge-basis"])
def test_verify_refuses_a_res_column_that_lists_nothing_in_one_line(capsys, tmp_path, spoil, top, column):
    payload = export_chain(SymmetricChain(), top)
    spoil(payload)
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--suite", "all", "--maxN", str(top))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == (f"error: not a chain of groups: Res at level {top} lists nothing in column {column}, "
                   "but every irrep restricts to something nonzero\n")


# a group has no more irreps than elements; the huge basis at level 0, where
# no Res column is listed, ended in an OverflowError traceback as it was built
@pytest.mark.parametrize("level, top", [(0, 3), (4, 4)], ids=["lowest", "top"])
def test_verify_refuses_a_basis_above_the_order_in_one_line(capsys, tmp_path, level, top):
    payload = export_chain(SymmetricChain(), top)
    payload["levels"][level]["basisSize"] = 10**30
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--maxN", str(top))
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == (f"error: level {level}: malformed level entry: basisSize {10**30} > order "
                   f"{factorial(level)}: a group has no more irreps than elements\n")


# a level's class rows list one class per irrep; level 0's huge basis, declared as
# large as its order, ended in an OverflowError traceback as it was built, and at
# 10**6 it was built before the class sizes refused it
@pytest.mark.parametrize("size", [10**30, 10**6])
def test_verify_refuses_a_basis_that_is_not_one_irrep_per_class_in_one_line(capsys, tmp_path, size):
    payload = export_chain(SymmetricChain(), 3)
    payload["levels"][0]["basisSize"] = payload["levels"][0]["order"] = size
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--maxN", "3")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == f"error: level 0: basisSize {size} but classes 1: one irrep per class\n"


def _ghost_at_level_3(embeds_to=None):
    def spoil(payload):
        payload["levels"][3]["classes"].append({"label": "ghost", "size": 0, "embedsTo": embeds_to})
    return spoil


def _ghost_above_level_2(payload):
    _ghost_at_level_3()(payload)
    next(c for c in payload["levels"][2]["classes"] if c["label"] == "[2]")["embedsTo"] = "ghost"


def _negative_class_balanced(payload):
    classes = payload["levels"][3]["classes"]
    classes[1]["size"] += 2
    classes.append({"label": "neg", "size": -2})


# Each of these got past ingestion: jeongha passed the lone empty class, named
# the wrong class in a usage error for the two that embed to or from one (and
# roots_vs_characters divided by its size 0), and failed its checks on the
# negative size, whose class sizes still summed to the order.
@pytest.mark.parametrize("spoil, label, size", [
    (_ghost_at_level_3(), "ghost", 0),
    (_ghost_at_level_3("[4]"), "ghost", 0),
    (_ghost_above_level_2, "ghost", 0),
    (_negative_class_balanced, "neg", -2),
], ids=["empty-class", "empty-class-embedded-up", "class-embedded-into-empty", "negative-size"])
def test_verify_rejects_a_class_without_members(capsys, tmp_path, spoil, label, size):
    payload = export_chain(SymmetricChain(), 5)
    spoil(payload)
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--suite", "jeongha",
                         "--maxN", "5")
    assert code == 1 and out == ""
    assert err == (f"error: level 3: malformed level entry: class {label!r} has size {size}: "
                   "every class has a member\n")


# the two formats a --chain file may have, as a refusal names them
FORMATS = "a chain JSON ('levels') nor a base-group table JSON ('irreps', 'classes')"
# what fails to decode depends on the locale; how deep JSON may nest, on the interpreter
NOT_JSON = {"text": (b"not json\n", "Expecting value: line 1 column 1 (char 0)"),
            "binary": (b"\xff\xfe\x00", None),
            "nested": (b"[" * 100_000 + b"]" * 100_000, None)}


@pytest.mark.parametrize("content, detail", NOT_JSON.values(), ids=NOT_JSON)
def test_verify_chain_file_that_is_not_json_is_a_rejected_chain(capsys, tmp_path, content, detail):
    # the parse error once ended in exit 2 with no word of what failed to
    # parse, then in exit 1 as a malformed chain; a file that is no JSON is
    # neither format a --chain file may have, so it is a usage error that
    # names both and keeps the parser's detail
    path = tmp_path / "chain.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--chain", str(path), "--maxN", "4")
    assert code == 2 and out == ""
    prefix = f"error: {path} is neither {FORMATS}: "
    assert err.startswith(prefix) and err.count("\n") == 1
    assert detail is None or err == f"{prefix}{detail}\n"


@pytest.mark.parametrize("content, detail", NOT_JSON.values(), ids=NOT_JSON)
def test_column_table_file_that_is_not_json_is_a_usage_error(capsys, tmp_path, content, detail):
    path = tmp_path / "table.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "3",
                         "--table", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed GroupTable JSON: ") and err.count("\n") == 1
    assert detail is None or err == f"error: malformed GroupTable JSON: {detail}\n"


@pytest.mark.parametrize("classes, cls, k, ns", [
    (("[1,1]", "[2]"), "[2]", 2, (2, 3)),
    (("[1,1,1]", "[3]"), "[3]", 3, range(3, 8)),
], ids=["level-2", "level-3"])
def test_a_table_that_does_not_list_the_level_k_irreps_is_a_one_line_usage_error(capsys, tmp_path, classes,
                                                                                 cls, k, ns):
    # a valid order-2 table whose rows are labelled [3] and [2,1]: at level 2 they are
    # the wrong level's labels, at level 3 too few, and either way no column is lifted
    rows = [{"label": "[3]", "dim": 1, "values": [1, 1]}, {"label": "[2,1]", "dim": 1, "values": [1, -1]}]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"name": "S2", "order": 2, "irreps": rows,
                                "classes": [{"label": label, "size": 1} for label in classes]}))
    for n in ns:
        code, out, err = run(capsys, "column", "--chain", "sym", "--class", cls, "--n", str(n),
                             "--table", str(path))
        message = f"error: table S2 does not list the level-{k} irreps of chain 'sym'\n"
        assert (code, out, err) == (2, "", message), n


@pytest.mark.parametrize("name", list(GROUPLESS_TABLES))
@pytest.mark.parametrize("argv", [
    ("table", "--chain", "{}", "--k", "2"),
    ("column", "--chain", "{}", "--class", "e", "--n", "3"),
    ("verify", "--chain", "{}", "--maxN", "3"),
    ("column", "--chain", "sym", "--class", "[2]", "--n", "3", "--table", "{}"),
], ids=["table", "column", "verify", "column-table"])
def test_a_table_no_group_has_is_a_one_line_usage_error(capsys, tmp_path, name, argv):
    table, message = GROUPLESS_TABLES[name]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_json_dict()))
    code, out, err = run(capsys, *(arg.format(path) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_table_file_stays_a_usage_error(capsys, tmp_path):
    path = tmp_path / "missing.json"
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "3",
                         "--table", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def assert_failed_order_fit(capsys, tmp_path, suite, orders):
    """Verify a chain of one-dimensional levels with the given orders: the
    report fails on fit-params only and runs no check that needs f_l."""
    levels = [
        {"n": n, "order": order, "basisSize": 1, **({"res": [[0, 0, 1]]} if n else {})}
        for n, order in enumerate(orders)
    ]
    path = tmp_path / "no-fit.json"
    path.write_text(json.dumps({"levels": levels}))
    code, out, err = run(capsys, "verify", "--chain", str(path), "--suite", suite,
                         "--maxN", "4")
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if not c["passed"]]
    assert failed and all(c["name"] == "fit-params" for c in failed)
    assert "status=violation" in failed[0]["detail"]
    assert not any(c["name"].startswith(("indres-power", "class-constraint", "roots-vs"))
                   for c in payload["checks"])
    return failed


@pytest.mark.parametrize("suite", ["tasyopari", "jeongha", "all"])
def test_verify_reports_a_failed_order_fit(capsys, tmp_path, suite):
    # ratios 2, 3, 2, 4 fit no recursion a_n = B a_{n-1} + C, so f_l is unknown
    assert_failed_order_fit(capsys, tmp_path, suite, [1, 2, 6, 12, 48])


@pytest.mark.parametrize("suite", ["tasyopari", "jeongha", "all"])
def test_verify_reports_an_order_fit_with_b_zero(capsys, tmp_path, suite):
    # ratios 2, 3, 3, 3 give a_n = 0 a_{n-1} + 3; f_l's leading coefficient
    # B^(-l(l-1)/2) is then undefined
    failed = assert_failed_order_fit(capsys, tmp_path, suite, [1, 2, 6, 18, 54])
    assert all("B=0 C=3" in c["detail"] and "B = 0" in c["detail"] for c in failed)


@pytest.mark.parametrize("chain_json, max_n, message", [
    (export_chain(get_chain("sym"), 2), 2, "need at least four consecutive group orders"),
    ({"levels": [{"n": n, "order": order, "basisSize": 1, **({"res": [[0, 0, 1]]} if n else {})}
                 for n, order in enumerate([1, 1, 1, 2])]}, 3,
     "ratios change only at the last step; supply more orders"),
], ids=["three-orders", "last-step-ratios"])
def test_verify_reports_too_few_orders_to_fit(capsys, tmp_path, chain_json, max_n, message):
    # once a usage error (exit 2) with no report
    path = tmp_path / "short.json"
    path.write_text(json.dumps(chain_json))
    code, out, err = run(capsys, "verify", "--chain", str(path), "--suite", "all",
                         "--maxN", str(max_n))
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == ["fit-params"] * 2
    assert all(c["detail"] == f"status=underdetermined B=None C=None {message}"
               for c in checks if not c["passed"])
    code, out, _ = run(capsys, "verify", "--chain", str(path), "--suite", "heisenberg",
                       "--maxN", str(max_n))
    assert code == 0 and json.loads(out)["passed"] is True


HALVING_SCRIPT = """
from charcol import SymmetricChain, character_column, odd_column, symmetric_group_table
from charcol.hgroup import GroupTable
from charcol.lifting import InvariantError


def spoiled(k, irrep, value):
    # chi_irrep([k]) replaced by value: a table that no longer validates
    table = symmetric_group_table(k)
    col = table.class_index(f"[{k}]")
    return GroupTable(table.name, table.order, table.classes, tuple(
        (lab, dim, values[:col] + (value,) + values[col + 1:]) if lab == irrep else (lab, dim, values)
        for lab, dim, values in table.irreps))


for column, cls, k, irrep in ((character_column, (3,), 3, "[1,1,1]"), (odd_column, (2,), 2, "[1,1]")):
    try:
        chain = SymmetricChain()
        args = (chain, cls, 4) if column is character_column else (cls, 4, chain)
        column(*args, table=spoiled(k, irrep, 0))
    except InvariantError as exc:
        print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_the_halving_check_raises_with_and_without_O(flags):
    # f(X) on a sign fold yields twice the column; an even (sign +1) and an odd
    # (sign -1) column from a corrupted table leave an odd entry, which is an
    # InvariantError under -O too
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *flags, "-c", HALVING_SCRIPT],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "odd or non-integral entry at [4]\n" * 2


# SHA-256 over every `column` output of S_0..S_14 (and `--odd` for the odd
# classes) and every `mckay --reduced` output there, exit codes included,
# taken before the columns ran on sign folds
COLUMN_AND_REDUCED_MCKAY_DIGEST = "483ff83d614011c8ada96ff6fe6eedaed673f4e33f1432145b15833003b4b644"


def test_column_and_reduced_mckay_outputs_keep_their_bytes(capsys):
    digest = hashlib.sha256()

    def add(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        digest.update(f"{code}\n{out}{err}".encode())

    for n in range(15):
        for mu in enumerate_partitions(n):
            argv = ("column", "--chain", "sym", "--class", format_partition(mu), "--n", str(n),
                    "--max-order", str(factorial(n)))
            add(*argv)
            if class_sign(mu) == -1:
                add(*argv, "--odd")
        for fmt in ("dot", "json"):
            add("mckay", "--chain", "sym", "--n", str(n), "--reduced", "--format", fmt)
    assert digest.hexdigest() == COLUMN_AND_REDUCED_MCKAY_DIGEST


# SHA-256 of `column --odd` JSON for each odd class of S_1..S_8, with its plusPart,
# taken while odd_column still read the plus part off the reduced operator
ODD_COLUMN_DIGESTS = {
    (2, "[2]"): "4811ecbed5781a765888b26efb8596f6a90df05b153707ac4396611b9f1b02c8",
    (3, "[2,1]"): "7942dbfde9bc43a2948ded7a6de7b94c3bcf2cb949d13ea2c61ed588ca3b5cf4",
    (4, "[4]"): "e0978b7371d5ab89b7c329b2514f6291424844e3eabc070ed03a9b3b7290eb82",
    (4, "[2,1,1]"): "8e1510bdf8215653e8697969a39ab6ceda689e02bbf817f5fc8ac525aa146dd5",
    (5, "[4,1]"): "c1346392ab13aee00477256f68a4fc0f69ae7f2d842b1791d74f868f51c09688",
    (5, "[3,2]"): "ea7d5f18bf3a6cd81d15b4919a1a5192bdf933d6eb28fec85770ed4f5f23fb77",
    (5, "[2,1,1,1]"): "4ece872ed970086d0f16ae3f890231d08db021fbe5730555f77836374f10804d",
    (6, "[6]"): "a62be816fc31b593600b7e734df30080b0260b7f4738ce90553f2d4f5b4df7c6",
    (6, "[4,1,1]"): "7208b9872de42054ea05c2952cc1622fbdd1a8aaaeddee6be6ea9b459e1f8cec",
    (6, "[3,2,1]"): "a92926600f823cd2573f0511bd66582678f9296ab1d736a3fe1bdc532ed6b5e7",
    (6, "[2,2,2]"): "f1b15755fd0f368006c1ca35698aa6c95a254c67fa8446217dfa289d0a47e2d6",
    (6, "[2,1,1,1,1]"): "e6ac5dcf031d6a0569b570f9f494446101ae52ff6002a68d21164f00414d3f99",
    (7, "[6,1]"): "6651a54a7b6f5328d2c9c2fb7b523ec7387c396c2b9eb6666a52f372b7d82e8b",
    (7, "[5,2]"): "57468bf6ea0cd9b4d8244e7e1bc603d2df36035201b06316525e3cb5581eaeef",
    (7, "[4,3]"): "262a040d4e7b8656b0e85f930d59aa3ce1834d6ea8bf208061e67eae5d9427db",
    (7, "[4,1,1,1]"): "42d0f8b7d3c6f13ac05c7fdf1af7dcfecc1615fa18ab4b0c35fa1ced29d4fe7d",
    (7, "[3,2,1,1]"): "69e3fdb35a1358d04260c904945a8a2e40159776d4b0ddc01924bad1787eb485",
    (7, "[2,2,2,1]"): "a7c7560f2d894ffdd2c7931e13523f11118f729ef410a799d8fbf35d2f2f0e86",
    (7, "[2,1,1,1,1,1]"): "fb15f0635a398943cb219ec3f8393af1a6a699954f090cbcd3af34dba88a5eed",
    (8, "[8]"): "244a20d20715da9d8de1fd34731f6a96d4b5e35f3a6d67e075f3426de86476d1",
    (8, "[6,1,1]"): "c8f463b78919356e6dc6946a5becaba69cacac4f1c5815fc0eeb5bf30b3adb34",
    (8, "[5,2,1]"): "be5dab7cf78c397de8652648406e69abcc0f8e78b0ee5f090b686bc58786e4ce",
    (8, "[4,3,1]"): "af7486e7e0ae97c55a1e4babb8767d4ec173f9fdfd5373fbadc93534a1238184",
    (8, "[4,2,2]"): "f85c8863a29b0e7f50d73008fd013e2f68c1f031a677081cad781f81655e591f",
    (8, "[4,1,1,1,1]"): "a8d85be3a9953cc8c4c5ef59d524e23ea64144298473b1b6123fe4dd244e5247",
    (8, "[3,3,2]"): "6299d38e12b61e65240bdd17e078d105e1fc7c7980ea7bbfdfa8caadf868e49a",
    (8, "[3,2,1,1,1]"): "13319b46b82a13a347532931e8b45f610e362fdf0c3b1bbc8d6330ac4304ef03",
    (8, "[2,2,2,1,1]"): "72cc06a244ae2ba8e58a938bafcfe19c433ce505e9499b0e23c948bdc54083a5",
    (8, "[2,1,1,1,1,1,1]"): "cf937b4df0971bf05c0d105627ee1f5c5d1506e2f044e639d63a539456c6e2fa",
}


@pytest.mark.parametrize("n, cls", ODD_COLUMN_DIGESTS, ids=[f"{n}:{cls}" for n, cls in ODD_COLUMN_DIGESTS])
def test_odd_column_output_keeps_its_bytes(capsys, n, cls):
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", cls, "--n", str(n), "--odd",
                         "--max-order", str(factorial(n)))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ODD_COLUMN_DIGESTS[n, cls]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_broken_column_invariant_exits_1_with_one_line(tmp_path, flags):
    # a valid S_2 table with its two irrep labels swapped: the column's trivial
    # entry comes out -1, which once was an assert (and under -O a wrong column)
    table = symmetric_group_table(2).to_json_dict()
    first, second = table["irreps"]
    first["label"], second["label"] = second["label"], first["label"]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(table))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, *flags, "-m", "charcol.cli", "column", "--chain", "sym", "--class", "[2]",
         "--n", "4", "--table", str(path), "--format", "csv"],
        env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: column's trivial-irrep entry is -1, not 1\n"


# Valid tables whose irrep labels are swapped pass validation, and the
# column's own checks catch them: for the odd class [4], chi_[2,2] - chi_[2,1,1]
# = -1 is odd; swapping the conjugates [3,1] and [2,1,1] keeps the input of [4]
# antisymmetric, so halving passes, and [4,1]'s norm is off.
@pytest.mark.parametrize("k, swap, argv, message", [
    (4, ("[3,1]", "[2,2]"), ["--class", "[4]", "--n", "4", "--odd"],
     "odd or non-integral entry at [3,1]"),
    (4, ("[3,1]", "[2,1,1]"), ["--class", "[4]", "--n", "5"],
     "column norm 12 != |G|/|class| = 4"),
], ids=["odd-entry", "norm"])
def test_column_from_a_swapped_table_exits_1_with_one_line(capsys, tmp_path, k, swap, argv,
                                                           message):
    table = symmetric_group_table(k).to_json_dict()
    first, second = (next(r for r in table["irreps"] if r["label"] == lab) for lab in swap)
    first["label"], second["label"] = second["label"], first["label"]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "column", "--chain", "sym", *argv, "--table", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_verify_export_round_trip(capsys, tmp_path):
    out_path = tmp_path / "sym.json"
    code, _, _ = run(capsys, "verify", "--chain", "sym", "--suite", "tasyopari",
                     "--maxN", "4", "--export", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--chain", str(out_path), "--suite", "tasyopari",
                       "--maxN", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_export_of_an_ingested_chain_is_usage_error(capsys, tmp_path):
    chain_path = tmp_path / "sym.json"
    code, _, _ = run(capsys, "verify", "--chain", "sym", "--suite", "heisenberg",
                     "--maxN", "3", "--export", str(chain_path))
    assert code == 0
    code, out, err = run(capsys, "verify", "--chain", str(chain_path), "--suite", "heisenberg",
                         "--maxN", "3", "--export", str(tmp_path / "again.json"))
    assert code == 2 and out == ""
    assert err == "error: --export needs irrep labels, and the ingested chain 'sym' lists positions instead\n"


@pytest.mark.parametrize("suite", ["oracle", "lifts"])
def test_verify_lists_a_suite_an_ingested_chain_cannot_run_as_skipped(capsys, tmp_path, suite):
    chain_path = tmp_path / "sym.json"
    chain_path.write_text(json.dumps(export_chain(SymmetricChain(), 7)))
    code, out, _ = run(capsys, "verify", "--chain", str(chain_path), "--suite", suite,
                       "--maxN", "5")
    payload = json.loads(out)
    assert code == 0 and payload["passed"] is True and payload["checks"] == []
    (entry,) = payload["skipped"]
    assert entry["suite"] == suite and entry["reason"]


@pytest.mark.parametrize("export", [False, True], ids=["report", "export"])
def test_verify_rejects_a_negative_max_n(capsys, tmp_path, export):
    # no level to check is not a pass: a negative maxN is a usage error, and
    # --export writes no file
    target = tmp_path / "chain.json"
    argv = ["verify", "--chain", "sym", "--maxN", "-2"] + (["--export", str(target)] if export else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and not target.exists()
    assert err == "error: maxN must be non-negative, not -2\n"


def test_a_non_integer_max_order_variable_is_named(capsys, monkeypatch):
    monkeypatch.setenv("CHARCOL_MAX_ORDER", "abc")
    code, out, err = run(capsys, "table", "--chain", "sym", "--k", "3")
    assert code == 2 and out == ""
    assert err == "error: CHARCOL_MAX_ORDER must be an integer, not 'abc'\n"


def table_under_bound(capsys, monkeypatch, how, bound, k):
    """``charcol table --chain sym --k k`` with the bound set by the flag or the variable."""
    argv = ["table", "--chain", "sym", "--k", str(k)]
    if how == "flag":
        argv += ["--max-order", bound]
    else:
        monkeypatch.setenv("CHARCOL_MAX_ORDER", bound)
    return run(capsys, *argv)


# a negative bound once refused every table, even S_0's, with exit 3
@pytest.mark.parametrize("how, named", [("flag", "max_order must be non-negative, not -5"),
                                        ("variable", "CHARCOL_MAX_ORDER must be non-negative, not '-5'")],
                         ids=["flag", "variable"])
def test_a_negative_max_order_is_a_usage_error(capsys, monkeypatch, how, named):
    code, out, err = table_under_bound(capsys, monkeypatch, how, "-5", 0)
    assert code == 2 and out == ""
    assert err == f"error: {named}\n"


# commands that build no table or class list once never read the bound, and
# took a negative one without a word
NO_TABLE_COMMANDS = {
    "indres": ["indres", "--chain", "sym", "--n", "3"],
    "lift": ["lift", "--chain", "sym", "--k", "2", "--label", "[2]", "--n", "3"],
    "mckay": ["mckay", "--chain", "sym", "--n", "3"],
}


@pytest.mark.parametrize("how, named", [("flag", "max_order must be non-negative, not -5"),
                                        ("variable", "CHARCOL_MAX_ORDER must be non-negative, not '-5'")],
                         ids=["flag", "variable"])
@pytest.mark.parametrize("command", sorted(NO_TABLE_COMMANDS))
def test_a_negative_max_order_is_refused_by_every_command(capsys, monkeypatch, command, how, named):
    argv = list(NO_TABLE_COMMANDS[command])
    if how == "flag":
        argv += ["--max-order", "-5"]
    else:
        monkeypatch.setenv("CHARCOL_MAX_ORDER", "-5")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("how", ["flag", "variable"])
@pytest.mark.parametrize("command", sorted(NO_TABLE_COMMANDS))
def test_a_zero_max_order_is_legal_where_no_group_is_built(capsys, monkeypatch, command, how):
    argv = list(NO_TABLE_COMMANDS[command])
    if how == "flag":
        argv += ["--max-order", "0"]
    else:
        monkeypatch.setenv("CHARCOL_MAX_ORDER", "0")
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("how", ["flag", "variable"])
def test_a_zero_max_order_is_a_bound(capsys, monkeypatch, how):
    code, out, err = table_under_bound(capsys, monkeypatch, how, "0", 3)
    assert code == 3 and out == ""
    assert err.startswith("error: S_3 has order 6, above the bound 0;") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--chain", "sym", "--suite", "heisenberg", "--maxN", "3", "--export"],
    ["table", "--chain", "sym", "--k", "3", "--out"],
], ids=["export", "out"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, *argv, str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


@pytest.mark.parametrize("chain, cls", [("sym", "[]"), ("z2wreath", "e")])
def test_column_at_level_zero_is_the_trivial_column(capsys, chain, cls):
    code, out, _ = run(capsys, "column", "--chain", chain, "--class", cls, "--n", "0")
    assert code == 0
    assert json.loads(out)["entries"] == [[cls, 1]]


def test_broken_lift_invariant_exits_1_with_one_line(capsys, monkeypatch):
    pad = SymmetricChain.pad_first_row
    monkeypatch.setattr(SymmetricChain, "pad_first_row",
                        lambda self, label, n: (pad(self, label, n)[0], 2))
    monkeypatch.setattr(get_chain("sym"), "lift_memo", {})
    code, out, err = run(capsys, "lift", "--chain", "sym", "--k", "2", "--label", "[2]",
                         "--n", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: padding of (2,) at level 4") and err.count("\n") == 1


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "col.json"
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["class"] == "[2,1,1]"


def test_max_order_flag(capsys):
    code, _, _ = run(capsys, "column", "--chain", "sym", "--class", "[6,2]", "--n", "8",
                     "--max-order", "50000")
    assert code == 0


def test_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CHARCOL_MAX_ORDER", "50000")
    code, _, _ = run(capsys, "table", "--chain", "sym", "--k", "8")
    assert code == 0


def test_column_with_supplied_table(capsys, tmp_path):
    # the JSON escape hatch the size error points at
    from charcol.hgroup import builtin_table, wreath_char_table

    table = wreath_char_table(builtin_table("Z2"), 2)
    path = tmp_path / "z2s2.json"
    path.write_text(json.dumps(table.to_json_dict()))
    code, out, _ = run(capsys, "column", "--chain", "z2wreath", "--class", "1:[2]",
                       "--n", "4", "--table", str(path))
    assert code == 0
    assert json.loads(out)["class"] == "1:[2,1,1]"


def test_column_with_a_coerced_table_value_is_usage_error(capsys, tmp_path):
    table = symmetric_group_table(2).to_json_dict()
    table["irreps"][0]["values"][1] = 1.0
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "4",
                         "--table", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: malformed GroupTable JSON: "
                   "a character value must be an integer, not 1.0\n")


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--chain", "sym", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ',"[1,1]",[2]'
    assert lines[1] == "[2],1,1"
    assert lines[2] == '"[1,1]",1,-1'


@pytest.mark.parametrize("chain_name, k", [("sym", 3), ("z2wreath", 2)])
def test_csv_outputs_read_back_with_a_csv_reader(capsys, chain_name, k):
    # every label that holds a comma is quoted, so each row has one field per column
    table = get_chain(chain_name).small_table(k)
    code, out, _ = run(capsys, "table", "--chain", chain_name, "--k", str(k), "--format", "csv")
    assert code == 0 and out.endswith("\n") and "\r" not in out
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["", *(lab for lab, _ in table.classes)]
    assert rows[1:] == [[lab, *map(str, values)] for lab, _, values in table.irreps]
    for j, (cls, _) in enumerate(table.classes):
        code, out, _ = run(capsys, "column", "--chain", chain_name, f"--class={cls}", "--n", str(k),
                           "--format", "csv")
        column = {lab: values[j] for lab, _, values in table.irreps}
        assert code == 0 and dict(csv.reader(out.splitlines())) == {
            lab: str(v) for lab, v in column.items()}, cls
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[2,1]", "--n", "3",
                       "--format", "csv", "--oracle")
    rows = list(csv.reader(out.splitlines()))
    assert rows == [["[3]", "1", "1"], ["[2,1]", "0", "0"], ["[1,1,1]", "-1", "-1"]]


def test_jsonable_renders_fractions():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(4, 2)) == 2 and type(jsonable(Fraction(4, 2))) is int
    assert jsonable(-7) == -7


def test_full_cli_verify_all_sym_maxn7(capsys):
    code, out, _ = run(capsys, "verify", "--chain", "sym", "--suite", "all", "--maxN", "7")
    assert code == 0
    assert json.loads(out)["passed"] is True


# -- one --chain grammar for every command ---------------------------------------

# each command at a level every chain below has; "e" is the identity class and
# the empty label, at their own level
COMMANDS = {
    "column": ["--class", "e", "--n", "3"],
    "lift": ["--k", "0", "--label", "e", "--n", "3"],
    "indres": ["--n", "3"],
    "mckay": ["--n", "3"],
    "table": ["--k", "2"],
    "verify": ["--maxN", "3"],
}


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    """A file of each kind a --chain spec may name: S_3's table from ``table``,
    the chain ``verify --export`` writes, a file that is no JSON, and JSON of
    neither format: an object with other keys, and a list."""
    root = tmp_path_factory.mktemp("specs")
    files = {kind: str(root / f"{kind}.json") for kind in ("table", "chain", "text", "neither", "list")}
    assert main(["table", "--chain", "sym", "--k", "3", "--out", files["table"]]) == 0
    assert main(["verify", "--chain", "sym", "--maxN", "4", "--export", files["chain"],
                 "--out", os.devnull]) == 0
    Path(files["text"]).write_text("not json\n")
    Path(files["neither"]).write_text(json.dumps({"name": "S3", "order": 6}))
    Path(files["list"]).write_text(json.dumps([{"levels": []}]))
    return files


# S_3 as H is read from its table alone, which the wreath tables need; an
# ingested chain has positions, not irrep labels, so column, lift and table
# refuse it
LOADER_EXITS = {
    "name": dict.fromkeys(COMMANDS, 0),
    "table": dict.fromkeys(COMMANDS, 0),
    "chain": {"column": 2, "lift": 2, "indres": 0, "mckay": 0, "table": 2, "verify": 0},
    "text": dict.fromkeys(COMMANDS, 2),
    "neither": dict.fromkeys(COMMANDS, 2),
    "list": dict.fromkeys(COMMANDS, 2),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("kind", LOADER_EXITS)
def test_every_command_reads_a_chain_spec_the_same_way(capsys, spec_files, kind, command):
    spec = "sym" if kind == "name" else spec_files[kind]
    code, out, err = run(capsys, command, "--chain", spec, *COMMANDS[command])
    assert code == LOADER_EXITS[kind][command]
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    else:
        assert out and err == ""
    if kind in ("text", "neither", "list"):
        assert err.startswith(f"error: {spec} is neither {FORMATS}: ")
    if kind == "list":
        assert err.endswith(": it holds a JSON list\n")
    if kind == "chain" and code:
        assert err == (f"error: {command} needs irrep labels, and the ingested chain 'sym' "
                       "lists positions instead\n")


@pytest.mark.parametrize("n", range(1, 5))
def test_an_exported_chain_has_the_edges_and_entries_of_its_source(capsys, spec_files, n):
    # positions stand in for the labels, in the order of the source's basis
    outputs = {}
    for spec in ("sym", spec_files["chain"]):
        _, mckay_out, _ = run(capsys, "mckay", "--chain", spec, "--n", str(n), "--format", "json")
        _, indres_out, _ = run(capsys, "indres", "--chain", spec, "--n", str(n))
        graph, operator = json.loads(mckay_out), json.loads(indres_out)
        outputs[spec] = (graph["edges"], operator["entries"], len(graph["vertices"]))
        if spec != "sym":
            assert graph["vertices"] == operator["basis"] == [str(i) for i in range(len(operator["basis"]))]
    assert outputs["sym"] == outputs[spec_files["chain"]] and outputs["sym"][0]


@pytest.mark.parametrize("command", ["indres", "mckay"])
@pytest.mark.parametrize("n", [-1, 5])
def test_a_level_outside_an_ingested_chain_is_a_usage_error(capsys, spec_files, command, n):
    # the exported chain has levels 0..4; its level is named as --chain sym names one
    code, out, err = run(capsys, command, "--chain", spec_files["chain"], "--n", str(n))
    assert (code, out, err) == (2, "", f"error: chain 'sym' has no level {n}\n")


def test_an_ingested_chains_lowest_level_has_the_zero_operator(capsys, spec_files):
    # its Res maps onto the empty ring, as a built-in chain's does at level 0
    code, out, err = run(capsys, "indres", "--chain", spec_files["chain"], "--n", "0")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 0, "basis": ["0"], "entries": []}
    code, out, err = run(capsys, "mckay", "--chain", spec_files["chain"], "--n", "0")
    assert (code, out, err) == (0, 'graph mckay {\n  "0";\n}\n', "")


def test_verify_runs_on_a_wreath_chain_over_a_table_file(capsys, spec_files):
    # H = S_3 from a table file: every suite runs, the oracle and jeongha's
    # class checks included, on tables and classes from H's table alone
    code, out, err = run(capsys, "verify", "--chain", spec_files["table"], "--maxN", "3")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["chain"] == "wreath:S3" and report["passed"] is True and "skipped" not in report
    kinds = Counter(c["name"].split()[0] for c in report["checks"])
    assert kinds == {"heisenberg": 3, "indres-power": 6, "class-constraint": 18, "fit-params": 1,
                     "fit-polynomial": 3, "roots-vs-characters": 3, "oracle-column": 34,
                     "lift-exactness": 35}
    # one oracle check per class of S3 wr S_n, n = 1, 2, 3
    h = load_table(spec_files["table"])
    assert kinds["oracle-column"] == sum(len(wreath_classes(h, n)) for n in (1, 2, 3))


def test_table_of_a_wreath_chain_over_a_table_file_equals_brute_force(capsys, spec_files):
    # S_3's table lists its classes as [1,1,1], [3], [2,1]; brute force takes
    # the multiplication from permutations of three points
    code, out, err = run(capsys, "table", "--chain", spec_files["table"], "--k", "2")
    assert (code, err) == (0, "")
    h = load_table(spec_files["table"])
    group = by_closure(h, permutation_product, [(0, 1, 2), (1, 2, 0), (1, 0, 2)])
    assert json.loads(out) == brute_wreath.wreath_char_table(group, 2).to_json_dict()


def test_a_table_file_of_a_built_in_group_is_that_group(capsys, tmp_path):
    # Z2's table in a file is all that the chain Z2 is built from, so every
    # command prints what --chain Z2 prints
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(builtin_table("Z2").to_json_dict()))
    for command in COMMANDS:
        by_name = run(capsys, command, "--chain", "Z2", *COMMANDS[command])
        assert run(capsys, command, "--chain", str(path), *COMMANDS[command]) == by_name
        assert by_name[0] == 0, command
