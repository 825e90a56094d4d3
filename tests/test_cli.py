import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from charcol.cli import main
from charcol.chain import SymmetricChain, get_chain
from charcol.hgroup import symmetric_group_table
from charcol.verify import export_chain, jsonable


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


def test_odd_column_from_n15(capsys):
    code, out, _ = run(capsys, "column", "--chain", "sym", "--class", "[2]", "--n", "15",
                       "--odd", "--oracle")
    assert code == 0
    assert json.loads(out)["oracleMatches"] is True


def test_column_bad_label_is_usage_error(capsys):
    code, _, err = run(capsys, "column", "--chain", "sym", "--class", "[x]", "--n", "4")
    assert code == 2
    assert "error" in err


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
    # the sym column JSON prints the identity as "[]"; its refusal names it "e"
    code, out, err = run(capsys, "column", "--chain", spec, "--class", "e", "--n", "-1")
    assert (code, out) == (2, "")
    assert err == "error: class 'e' does not fit at level -1\n"


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


@pytest.mark.parametrize("spec", ["sym", "z2wreath"])
def test_indres_and_mckay_at_a_negative_level_are_usage_errors(capsys, spec):
    code, out, err = run(capsys, "indres", "--chain", spec, "--n", "-1")
    assert (code, out, err) == (2, "", f"error: chain '{spec}' has no level -1\n")
    code, out, err = run(capsys, "mckay", "--chain", spec, "--n", "-1")
    assert (code, out) == (2, "") and err.startswith("error: ")


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
            {"n": 0, "order": 1, "basisSize": 2},
            {"n": 1, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
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


@pytest.mark.parametrize("spec", ["/missing.json", "nope"])
def test_verify_unknown_chain_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "verify", "--chain", spec, "--maxN", "4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert spec in err


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
    assert err == "error: --export needs a built-in chain\n"


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
    assert lines[0] == ",[1,1],[2]"
    assert lines[1] == "[2],1,1"
    assert lines[2] == "[1,1],1,-1"


def test_jsonable_renders_fractions():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(4, 2)) == 2 and type(jsonable(Fraction(4, 2))) is int
    assert jsonable(-7) == -7
    assert jsonable([Fraction(1, 3), (2, Fraction(-5, 1))]) == ["1/3", [2, -5]]


def test_full_cli_verify_all_sym_maxn7(capsys):
    code, out, _ = run(capsys, "verify", "--chain", "sym", "--suite", "all", "--maxN", "7")
    assert code == 0
    assert json.loads(out)["passed"] is True
