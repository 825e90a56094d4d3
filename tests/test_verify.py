import hashlib
import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from charcol.chain import WreathChain, get_chain
from charcol.hgroup import builtin_table
from charcol.partitions import (
    class_sign,
    class_size,
    dim_irrep,
    enumerate_partitions,
    strip_fixed_points,
)
from charcol.verify import (
    SUITES,
    IngestError,
    export_chain,
    fit_chain_params,
    fit_from_ratios,
    ingest_chain,
    jeongha_class_constraint,
    mn_character,
    oracle_column,
    roots_vs_characters,
    run_suite,
)

SYM = get_chain("sym")
Z2C = get_chain("z2wreath")


# -- Murnaghan-Nakayama oracle ---------------------------------------------------


def test_mn_trivial_row():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert mn_character((n,), mu) == 1


def test_mn_sign_row():
    for n in range(1, 8):
        for mu in enumerate_partitions(n):
            assert mn_character((1,) * n, mu) == class_sign(mu)


def test_mn_printed_entry():
    assert mn_character((3, 2, 1), (3, 1, 1, 1)) == -2


def test_mn_identity_gives_dimensions():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert mn_character(lam, (1,) * n) == dim_irrep(lam)


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((3,), (2, 2))


def test_mn_self_consistency():
    # column orthogonality and sum of squared dimensions, n <= 8
    for n in range(1, 9):
        lams = enumerate_partitions(n)
        assert sum(mn_character(l, (1,) * n) ** 2 for l in lams) == factorial(n)
    for n in (5, 7, 8):
        lams = enumerate_partitions(n)
        mus = enumerate_partitions(n)
        for i, a in enumerate(mus):
            for b in mus[i:]:
                inner = sum(mn_character(l, a) * mn_character(l, b) for l in lams)
                expect = factorial(n) // class_size(a) if a == b else 0
                assert inner == expect


def test_oracle_column_examples():
    col = oracle_column((1, 1, 1), 3)
    assert col.dense(SYM) == [1, 2, 1]
    col6 = oracle_column((6,), 6)
    assert col6.norm_squared() == 720 // class_size((6,)) == 6


def test_oracle_column_pads():
    assert oracle_column((2,), 6).coeffs == oracle_column((2, 1, 1, 1, 1), 6).coeffs


# -- conjugacy-class constraint ---------------------------------------------------


def test_identity_constraint_is_ratio_product():
    # f_l(a_n) = a_n a_{n-1} ... a_{n-l+1}
    for n in range(2, 8):
        for l in range(1, n + 1):
            chk = jeongha_class_constraint(SYM, (1,) * (n - l) if n > l else (), n, l)
            assert chk.passed
            assert chk.lhs == factorial(n) // factorial(n - l)


def test_class_constraint_all_sym_classes():
    for n in range(1, 8):
        for l in range(1, n + 1):
            for h in enumerate_partitions(n - l):
                assert jeongha_class_constraint(SYM, h, n, l).passed, (h, n, l)


def test_class_constraint_recovers_binomial_growth():
    # #[tau]_n = C(n, k) #[tau]_k for fixed-point-free tau in S_k
    for k in range(2, 6):
        for tau in enumerate_partitions(k):
            if strip_fixed_points(tau) != tau:
                continue
            for n in range(k, 9):
                assert class_size(tau + (1,) * (n - k)) == comb(n, k) * class_size(tau)


def test_class_constraint_z2_identity_example():
    chk = jeongha_class_constraint(Z2C, ((0, (1,)),), 3, 2)
    assert chk.passed and chk.lhs == 24 and chk.rhs == 24


def test_class_constraint_all_z2_classes():
    for n in range(1, 4):
        for l in range(1, n + 1):
            for h in Z2C.classes_at(n - l):
                assert jeongha_class_constraint(Z2C, h, n, l).passed, (h, n, l)


# -- fitting the two-parameter family ---------------------------------------------


def test_fit_sym_orders():
    params = fit_chain_params([factorial(n) for n in range(7)])
    assert (params.status, params.B, params.C) == ("ok", 1, 1)
    assert params.poly_roots(4) == (0, 1, 2, 3)
    assert params.poly_leading(4) == 1


def test_fit_z2_orders():
    params = fit_chain_params([Z2C.group_order(n) for n in range(6)])
    assert (params.status, params.B, params.C) == ("ok", 1, 2)
    assert params.poly_roots(3) == (0, 2, 4)


def test_fit_hypothetical_ratios():
    params = fit_from_ratios((2, 3, 5, 9))
    assert (params.status, params.B, params.C) == ("ok", 2, -1)
    assert "no known chain" in params.message
    assert params.poly_roots(3) == (0, -1, -3)
    assert params.poly_leading(3) == Fraction(1, 8)
    assert params.poly_value(2, 9) == Fraction(9 * 10, 2)  # (1/B) x (x - C) at x = 9


def test_fit_constant_is_inconclusive():
    params = fit_from_ratios((3, 3, 3, 3))
    assert params.status == "inconclusive"
    assert params.poly_value(5, 7) == 7  # f_l = X


def test_fit_non_integer_b_is_violation():
    params = fit_from_ratios((1, 3, 6, 10))
    assert params.status == "violation"
    assert "not an integer" in params.message


def test_fit_inconsistent_recursion_is_violation():
    params = fit_from_ratios((2, 3, 5, 8))
    assert params.status == "violation"


def test_fit_rejects_non_dividing_orders():
    params = fit_chain_params((1, 2, 5, 11))
    assert params.status == "violation"
    assert "divisible" in params.message


def test_fit_needs_four_orders():
    with pytest.raises(ValueError):
        fit_chain_params((1, 2, 6))


@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 20))
@settings(max_examples=40)
def test_fit_recovers_planted_recursion(b, c, a1):
    ratios = [a1]
    for _ in range(5):
        ratios.append(b * ratios[-1] + c)
    params = fit_from_ratios(tuple(ratios))
    assert params.status == "ok" and (params.B, params.C) == (b, c)


# -- roots vs character values -----------------------------------------------------


def test_roots_vs_characters_sym():
    for l in range(1, 6):
        report = roots_vs_characters(SYM, l)
        assert report["passed"], report
        assert report["preferred_level"] == l + 1
        assert report["roots"] == list(range(l))


def test_roots_vs_characters_z2():
    report = roots_vs_characters(Z2C, 2)
    assert report["passed"]
    assert report["preferred_level"] == 2
    assert report["levels"][2]["values"] == [0, 2]
    # at level 3 the value 4 appears as well, so the naive level does not match
    assert not report["levels"][3]["matches_roots"]


# -- ingestion ---------------------------------------------------------------------


def test_export_reingest_round_trip():
    payload = export_chain(SYM, 5)
    chain = ingest_chain(payload)
    report = run_suite(chain, "all", 5)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_export_reingest_z2():
    payload = export_chain(Z2C, 3)
    chain = ingest_chain(payload)
    report = run_suite(chain, "all", 3)
    assert report.passed, [c for c in report.checks if not c.passed]


def constant_chain_payload(levels=5):
    return {
        "name": "const",
        "levels": [
            {
                "n": n,
                "order": 6,
                "basisSize": 3,
                **({"res": [[i, i, 1] for i in range(3)]} if n else {}),
                "classes": [
                    {"label": "e", "size": 1, "embedsTo": "e" if n < levels - 1 else None},
                    {"label": "a", "size": 2, "embedsTo": "a" if n < levels - 1 else None},
                    {"label": "b", "size": 3, "embedsTo": "b" if n < levels - 1 else None},
                ],
            }
            for n in range(levels)
        ],
    }


def test_constant_chain_passes_with_f_equals_x():
    chain = ingest_chain(constant_chain_payload())
    assert chain.fitted_params().status == "inconclusive"
    report = run_suite(chain, "all", 4)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_zero_row_res_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 2},
            {"n": 1, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
        ]
    }
    with pytest.raises(IngestError, match="not a surjective chain.*level 1"):
        ingest_chain(bad)


def test_dimension_mismatch_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 1, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [1, 1, 1]]},
        ]
    }
    with pytest.raises(IngestError, match="shape"):
        ingest_chain(bad)


def test_missing_res_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 1, "order": 2, "basisSize": 2},
        ]
    }
    with pytest.raises(IngestError, match="missing its Res"):
        ingest_chain(bad)


def test_nonconsecutive_levels_rejected():
    bad = {
        "levels": [
            {"n": 0, "order": 1, "basisSize": 1},
            {"n": 2, "order": 2, "basisSize": 2, "res": [[0, 0, 1], [0, 1, 1]]},
        ]
    }
    with pytest.raises(IngestError, match="consecutive"):
        ingest_chain(bad)


def test_class_sizes_must_sum_to_order():
    bad = constant_chain_payload()
    bad["levels"][0]["classes"][0]["size"] = 2
    with pytest.raises(IngestError, match="sum"):
        ingest_chain(bad)


def partial_class_payload():
    payload = export_chain(SYM, 5)
    for lv in payload["levels"]:
        if lv["n"] in (1, 4):
            del lv["classes"]
    return payload


def test_partial_class_data_degrades_gracefully():
    chain = ingest_chain(partial_class_payload())
    report = run_suite(chain, "all", 5)
    assert report.passed, [c for c in report.checks if not c.passed]
    # constraints needing the missing levels are skipped, not failed
    assert not any("n=5 l=4" in c.name for c in report.checks if "class-constraint" in c.name)


def test_roots_report_marks_unavailable_levels():
    payload = export_chain(SYM, 4)
    for lv in payload["levels"]:
        if lv["n"] == 4:
            del lv["classes"]
    chain = ingest_chain(payload)
    report = roots_vs_characters(chain, 3)  # preferred level 4 has no class data
    assert report["preferred_level"] == 4
    assert not report["evaluable"]


def test_ingest_from_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(export_chain(SYM, 4)))
    chain = ingest_chain(str(path))
    assert chain.group_order(4) == 24
    assert run_suite(chain, "tasyopari", 4).passed


# -- suites -------------------------------------------------------------------------


def test_full_suite_sym():
    report = run_suite(SYM, "all", 7)
    assert report.passed, [c for c in report.checks if not c.passed]
    assert report.to_json_dict()["passed"] is True


def test_full_suite_z2():
    report = run_suite(Z2C, "all", 3)
    assert report.passed, [c for c in report.checks if not c.passed]


def test_heisenberg_suite_z2_to_four():
    report = run_suite(Z2C, "heisenberg", 4)
    assert report.passed


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite(SYM, "nope", 3)


# SHA-256 of json.dumps(run_suite(chain, suite, maxN).to_json_dict(), sort_keys=True),
# recorded before the chain classes shared one protocol; they pin every check's
# name, detail and lhs/rhs, not only the verdict.
REPORT_CHAINS = {
    "sym": (lambda: SYM, 6),
    "z2wreath": (lambda: Z2C, 4),
    "trivial": (lambda: WreathChain(builtin_table("trivial")), 5),
    "ingested-sym-9": (lambda: ingest_chain(export_chain(SYM, 9)), 7),
    "partial-classes": (lambda: ingest_chain(partial_class_payload()), 5),
    "const": (lambda: ingest_chain(constant_chain_payload()), 4),
}

REPORT_DIGESTS = {
    "sym/heisenberg": "3ca5f5031ff1e3b5e0d1fd6d17a70350ab5154fee6b3c5d7fb6486b3b7cf2a00",
    "sym/tasyopari": "6ae5a125a30c5096acb3e5c2e2580b7c6a65cd86e326218ef8ba48be757689a2",
    "sym/jeongha": "2f5e59c7123eda3c652491c86fc501be4f67a703d800d0bfbb27ba287d7a2144",
    "sym/oracle": "4e8ad7e12c7784ce163a4d575fb13986f8e1e6ab6e09bdc0cc13fb1f35dcefbb",
    "sym/lifts": "d3cb1d2a7ceb87cf7ca747bad6c27389068848042b0512916aed64c5b8511fd8",
    "sym/all": "c86dd2197beb13e6b139e4fbc6228fb042dea1643c10ab554a851b6318eb6fd8",
    "z2wreath/heisenberg": "122f85ce8062bfd9a8feebd6a5011ff3017e107d7261c71e83bf86ba476bdae3",
    "z2wreath/tasyopari": "b0537261b2e82941c2515ec8824c1959c6cad04649bf177027c4218412fa50a3",
    "z2wreath/jeongha": "140299154557bb55d7cfd6559cafd965c4313fa2d76e1f2d115e33d55e2a312e",
    "z2wreath/oracle": "0b94ebcfd7887b287724bbaec5a1ab0243f93adb4f6fec27f57d5f7689bd744a",
    "z2wreath/lifts": "4b1be93c39dc218b5ca7c9ac4152d3daa1eba3816d18ca66216d26808b0c43e1",
    "z2wreath/all": "fe777e53379b30832ac964a3da38c098befc843747ffa2a16104c3873e835021",
    "trivial/heisenberg": "7b6e459368f81a0bf18e0dad3e64335f45639eb4fdaf4db45cd12a9362aa9192",
    "trivial/tasyopari": "8839743e542371f4bb7701c247b7729b20ddb729816421fc4965d651e3dcf87e",
    "trivial/jeongha": "3055a4ae435320aa0c67afa19f4bd76e8ef762826921c3e077ae4fdb74a0447b",
    "trivial/oracle": "50b39fce8484a8cf36de87f2512430d917771b9b4f5c833fedbabbac094e3a9e",
    "trivial/lifts": "5676013fc71e9c0b50b2f1df115bff72c61ecd07190961549fb23288ab58fef1",
    "trivial/all": "c7d82c98f3593780e0a6a75d2959bafb06ec96d31363828d33f3dd2f3c70657b",
    "ingested-sym-9/heisenberg": "59f7ce93509e151e0ae3c7580bb6b64f2359a1bb224cdaf98bfcb4b8005cba1a",
    "ingested-sym-9/tasyopari": "a7a58164164e33ce22095b048b95205f01a8e3b96ff069d86b8ced0bfb651a97",
    "ingested-sym-9/jeongha": "b5be3e9ac95e9fa40e905c160e7a0398985406c6b402529ef5fdd4d08b43cff8",
    "ingested-sym-9/oracle": "fc6d6f86ad90c7d08c957e955ff6c8ae2b71ba4e9e6426562219e3fdca2481c7",
    "ingested-sym-9/lifts": "cf84de39a4716babea8d468b3bd3be7fd8221914ab654da27a54e13392aba96e",
    "ingested-sym-9/all": "f76c11cb711b0a83168a6dc508ecb1d95b7c45c2d7329af78d1df966a7a8e2d5",
    "partial-classes/heisenberg": "6f0423b53edcb51ae1c61fdc5adc804a4342d84dd60e0944dd73c6030db62680",
    "partial-classes/tasyopari": "feb143e047828199694c3bfb3260ebbf92b8691d99615ba7bf1ba935206486ef",
    "partial-classes/jeongha": "350a6cc4affb2681f8681d5947ba84fa1b84e63b8a6438424ebb2085a58d6a8a",
    "partial-classes/oracle": "3f4cbf6db7e515ed89617ef8fb568c9ac93e6ac93d99a4515fed84d91278878d",
    "partial-classes/lifts": "39b6ba5c8659f65499a134dbffa648650aeabbd30db4896100dd51c353c963d4",
    "partial-classes/all": "ff2b03b24d72831af49c509cdd07a7b9362483e42d925e66cfc1841dfe47430a",
    "const/heisenberg": "a4be24b13103cd3448326ded076ed9ff2bec94f2ba783fffa94fda4f989fae49",
    "const/tasyopari": "3db51bfbae32849956e4350c24d1d799304ffd5a1e1f7d5a1682c783bbad9a53",
    "const/jeongha": "5dce6c7a33220b448a1b72868cdb0c91f9608dc876405b5f29015428f1416ae0",
    "const/oracle": "fcee05ce48f7fa374de1f6f949e2a87ec9099b623a82a6101a11511949687019",
    "const/lifts": "15202d0a8c984c4c85cb30510e4c85b3c8c4947697e3b61c5e384e01f2ecca96",
    "const/all": "b3297d4605565b2d142aaf180b8d31b673ba872ccee40e97e60d587d2fe8cbd5",
}


@pytest.mark.parametrize("chain_name", list(REPORT_CHAINS))
def test_suite_reports_are_unchanged(chain_name):
    make, max_n = REPORT_CHAINS[chain_name]
    for suite in SUITES:
        report = run_suite(make(), suite, max_n).to_json_dict()
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == REPORT_DIGESTS[f"{chain_name}/{suite}"], suite
