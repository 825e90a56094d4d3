import json

import pytest

from charcol.cli import main
from charcol.chain import get_chain


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
    expect = [[r, c, v] for r, c, v in sym.ind_res(6).triplets_rowcol()]
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
    from charcol.verify import mn_character
    from charcol.partitions import parse_partition

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


@pytest.mark.parametrize("spec", ["/missing.json", "nope"])
def test_verify_unknown_chain_is_usage_error(capsys, spec):
    code, out, err = run(capsys, "verify", "--chain", spec, "--maxN", "4")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert spec in err


def test_verify_export_round_trip(capsys, tmp_path):
    out_path = tmp_path / "sym.json"
    code, _, _ = run(capsys, "verify", "--chain", "sym", "--suite", "tasyopari",
                     "--maxN", "4", "--export", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--chain", str(out_path), "--suite", "tasyopari",
                       "--maxN", "4")
    assert code == 0
    assert json.loads(out)["passed"] is True


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


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--chain", "sym", "--k", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",[1,1],[2]"
    assert lines[1] == "[2],1,1"
    assert lines[2] == "[1,1],1,-1"


def test_coeff_json_renders_fractions():
    from fractions import Fraction

    from charcol.cli import _coeff_json

    assert _coeff_json(Fraction(3, 2)) == "3/2"
    assert _coeff_json(Fraction(4, 2)) == 2
    assert _coeff_json(-7) == -7


def test_full_cli_verify_all_sym_maxn7(capsys):
    code, out, _ = run(capsys, "verify", "--chain", "sym", "--suite", "all", "--maxN", "7")
    assert code == 0
    assert json.loads(out)["passed"] is True
