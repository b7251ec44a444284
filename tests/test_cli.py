import ast
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from basesize import classdata, formulas as fm, genstab
from basesize.cli import emit_table, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_empty_argv_prints_usage(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_formula_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "formula", "--spec", '{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}'
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["b0"] == [5, 5]
    assert rec["subcommand"] == "formula"
    assert "config_hash" in rec and "version" in rec


def test_formula_validation_error_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "formula", "--spec", '{"family":"SL","n":4,"subgroup":{"subspace":{"d":3}}}'
    )
    assert code == 2
    assert "error" in err


def test_bounds_subcommand_and_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bounds", "--dataset", "g2_na2", "--refine-long-root")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"]["value"] == 3
    # an inconclusive dataset exits 3
    bad = tmp_path / "flat.jsonl"
    bad.write_text(
        "\n".join(
            [
                json.dumps(
                    {
                        "schema": 1,
                        "group": "G2",
                        "subgroup_label": "X",
                        "expected_sup_ratio": "1",
                    }
                ),
                json.dumps(
                    {
                        "class_label": "c",
                        "element_kind": "semisimple",
                        "element_order": 2,
                        "dim_class_in_G": 6,
                        "dim_intersection_with_H": 6,
                    }
                ),
            ]
        )
    )
    code, out, _ = run_cli(capsys, "bounds", "--dataset", str(bad))
    assert code == 3
    assert json.loads(out)["outputs"]["inconclusive"] is True


def test_bounds_b0_mode_uses_dataset_characteristic(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--dataset", "e7_a7_p2", "--mode", "b0")
    assert code == 0
    assert json.loads(out)["outputs"]["value"] == 2


def _b1(value, q, record):
    return {"inconclusive": False, "kind": "upper_b1", "q_at_value": q, "value": value,
            "witness": f"binding record: {record}"}


def _b0(value, q, prime):
    return {"inconclusive": False, "kind": "upper_b0", "q_at_value": q, "value": value,
            "witness": f"strict prime family r={prime}; unipotent classes weakly below"}


def _inconclusive(kind, reason, sup_ratio):
    return {"inconclusive": True, "kind": kind, "reason": reason, "sup_ratio": sup_ratio}


# (dataset, argv after --mode) -> (exit code, outputs) for every shipped
# dataset, at every characteristic it admits; outputs None means exit 2 with
# nothing on stdout (b0 needs --char unless the dataset fixes it)
_BOUNDS_PINS = {
    ("e6_f4", "b1"): (0, _b1(4, "32/33", "long root")),
    ("e6_f4", "b1 --refine-long-root"): (0, _b1(4, "32/33", "long root")),
    ("e6_f4", "b0"): (2, None),
    ("e6_f4", "b0 --char 0"): (0, _b0(4, "32/33", 2)),
    ("e6_f4", "b0 --char 2"): (0, _b0(4, "32/33", 3)),
    ("e6_f4", "b0 --char 3"): (0, _b0(4, "32/33", 2)),
    ("e6_f4", "b0 --char 5"): (0, _b0(4, "32/33", 2)),
    ("e7_a7_p2", "b1"): (0, _b1(3, "3/4", "(3A1)'")),
    ("e7_a7_p2", "b1 --refine-long-root"): (0, _b1(3, "3/4", "(3A1)'")),
    ("e7_a7_p2", "b0"): (0, _b0(2, "1", 3)),
    ("e7_a7_p2", "b0 --char 2"): (0, _b0(2, "1", 3)),
    ("e8_a1e7", "b1"): (0, _b1(3, "51/58", "long root")),
    ("e8_a1e7", "b1 --refine-long-root"): (0, _b1(3, "51/58", "long root")),
    ("e8_a1e7", "b0"): (2, None),
    ("e8_a1e7", "b0 --char 0"): (0, _b0(3, "51/58", 3)),
    ("e8_a1e7", "b0 --char 2"): (0, _b0(3, "51/58", 3)),
    ("e8_a1e7", "b0 --char 3"): (0, _b0(3, "51/58", 5)),
    ("e8_a1e7", "b0 --char 5"): (0, _b0(3, "51/58", 3)),
    ("f4_b4", "b1"): (0, _b1(5, "15/16", "long root")),
    ("f4_b4", "b1 --refine-long-root"): (0, _b1(4, "1", "long root")),
    ("f4_b4", "b0"): (2, None),
    ("f4_b4", "b0 --char 0"): (0, _b0(4, "1", 2)),
    ("f4_b4", "b0 --char 2"): (3, _inconclusive("upper_b0", "no semisimple records of prime order != 2 available", "3/4")),
    ("f4_b4", "b0 --char 3"): (0, _b0(4, "1", 2)),
    ("f4_b4", "b0 --char 5"): (0, _b0(4, "1", 2)),
    ("g2_na2", "b1"): (0, _b1(4, "8/9", "long root")),
    ("g2_na2", "b1 --refine-long-root"): (0, _b1(3, "1", "long root")),
    ("g2_na2", "b0"): (2, None),
    ("g2_na2", "b0 --char 0"): (0, _b0(3, "1", 3)),
    ("g2_na2", "b0 --char 2"): (0, _b0(3, "1", 3)),
    ("g2_na2", "b0 --char 3"): (0, _b0(3, "1", 2)),
    ("g2_na2", "b0 --char 5"): (0, _b0(3, "1", 3)),
}


@pytest.mark.parametrize("case", sorted(_BOUNDS_PINS), ids=" ".join)
def test_bounds_outputs_are_pinned(capsys, case):
    dataset, mode = case
    code, out, err = run_cli(capsys, "bounds", "--dataset", dataset, "--mode", *mode.split())
    want_code, want = _BOUNDS_PINS[case]
    assert code == want_code
    if want is None:
        assert out == "" and err.startswith("error: ")
    else:
        assert json.loads(out)["outputs"] == want


def test_bounds_pins_cover_every_shipped_dataset():
    assert {name for name, _ in _BOUNDS_PINS} == set(classdata.shipped_datasets())
    for name in classdata.shipped_datasets():
        char = classdata.load_shipped(name).characteristic
        chars = ("0", "2", "3", "5") if char == "any" else (char,)
        assert {mode for ds, mode in _BOUNDS_PINS if ds == name} == {
            "b1", "b1 --refine-long-root", "b0", *(f"b0 --char {c}" for c in chars)}


def test_bounds_config_records_the_characteristic(capsys):
    records = {}
    for argv in (["e6_f4", "--mode", "b0", "--char", "2"], ["e6_f4", "--mode", "b0", "--char", "3"],
                 ["e7_a7_p2", "--mode", "b0"], ["g2_na2"]):
        code, out, _ = run_cli(capsys, "bounds", "--dataset", *argv)
        assert code == 0
        records[" ".join(argv)] = json.loads(out)
    assert [r["config"]["char"] for r in records.values()] == [2, 3, 2, None]
    # the outputs differ (r = 3 against r = 2), so the config hashes must too
    assert len({r["config_hash"] for r in records.values()}) == 4


def test_verify_subcommand_echoes_seeds_and_primes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--spec", '{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}',
        "--c", "4", "--trials", "2", "--seed", "17",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["config"]["seed"] == 17
    assert len(rec["config"]["primes"]) == 2
    assert rec["outputs"]["projective_dim"] == 1


def test_verify_module_spec(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--spec", '{"module":"sym2","n":2}', "--c", "2", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["outputs"]["algebra_dim"] == 0


def test_finite_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "finite", "--family", "PGL", "--n", "2", "--q", "5",
        "--action", "projective-line", "--mode", "base",
    )
    assert code == 0
    assert json.loads(out)["outputs"]["base_size"] == 3


def test_finite_config_records_only_the_inputs_the_run_reads(capsys):
    line = ["finite", "--family", "PGL", "--n", "2", "--q", "7", "--action", "projective-line"]
    records = {}
    for mode in ("base", "order"):
        for extra in (["--seed", "1", "--tuple-length", "4"], ["--seed", "2", "--tuple-length", "5"]):
            code, out, _ = run_cli(capsys, *line, "--mode", mode, *extra)
            assert code == 0
            records[mode, extra[1]] = json.loads(out)
    # the base search reads neither the seed nor the tuple length
    base = [records["base", seed] for seed in "12"]
    assert base[0]["config_hash"] == base[1]["config_hash"] and base[0]["outputs"] == base[1]["outputs"]
    assert not {"seed", "tuple_length"} & set(base[0]["config"])
    order = [records["order", seed]["config"] for seed in "12"]
    assert [(c["seed"], c["tuple_length"]) for c in order] == [(1, 4), (2, 5)]
    # two-symmetric-forms reads the seed in either mode, and nothing else
    forms = ["finite", "--family", "SL", "--n", "2", "--q", "7", "--action", "two-symmetric-forms", "--seed", "3"]
    configs = [json.loads(run_cli(capsys, *forms, "--mode", mode, "--tuple-length", length)[1])["config"]
               for mode, length in (("base", "2"), ("order", "5"))]
    assert configs[0] == configs[1] and configs[0]["seed"] == 3 and "mode" not in configs[0]


def test_emit_byte_stability():
    one = emit_table("table:parab")
    two = emit_table("table:parab")
    assert one == two
    assert emit_table("table:ep") == emit_table("table:ep")


def test_emit_json_format():
    rows = json.loads(emit_table("table:c", fmt="json"))
    assert {"group": "SL_n", "subgroup": "Sp_n", "conditions": "n = 6", "b": 4} in rows


def test_unknown_table_exit_2(capsys):
    code, _, err = run_cli(capsys, "emit", "table:nope")
    assert code == 2


def test_run_record_replay_identical(capsys):
    args = ["formula", "--spec", '{"family":"E7","subgroup":{"parabolic":{"i":7}}}']
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    a, b = json.loads(out1), json.loads(out2)
    assert a["outputs"] == b["outputs"]
    assert a["config_hash"] == b["config_hash"]


def test_verify_sampling_failure_exit_2(capsys, monkeypatch):
    # with no resampling budget the first drawn part ends the run; the two
    # head parts of SL_4 on 2-spaces are fixed, so the third is the first drawn
    monkeypatch.setattr(genstab, "RESAMPLE_BUDGET", 0)
    code, out, err = run_cli(
        capsys, "verify", "--spec",
        '{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}',
        "--c", "3", "--trials", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


_SL42 = '{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}'


@pytest.mark.parametrize(
    "argv",
    [
        # 1000001 = 101 * 9901 and 2147483641 = 2699 * 795659: elimination
        # over these rings used to answer algebra_dim 8
        ["--prime", "1000001"], ["--prime", "2147483641"], ["--prime", "4"],
        ["--prime", "1"], ["--prime", "2147483659"], ["--trials", "0"], ["--trials", "-2"],
    ],
)
def test_verify_rejects_composite_primes_and_no_trials(capsys, argv):
    code, out, err = run_cli(capsys, "verify", "--spec", _SL42, "--c", "3", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_accepts_a_small_prime(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", _SL42, "--c", "3", "--prime", "101")
    assert code == 0
    assert json.loads(out)["outputs"]["primes"] == [101]


def test_verify_answers_more_points_than_the_line_over_f2_holds(capsys):
    # P^1(F_2) has 3 points, so 4 parts repeat one; parts need not be
    # pairwise distinct, as a repeat only raises the nullity
    spec = '{"family":"SL","n":2,"subgroup":{"subspace":{"d":1}}}'
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--c", "4", "--prime", "2")
    assert code == 0
    outputs = json.loads(out)["outputs"]
    assert (outputs["primes"], outputs["projective_dim"]) == ([2], 0)


@pytest.mark.parametrize("char,prime", [("3", 3), ("not235", 7), ("0", 101)])
def test_verify_runs_at_a_prime_its_characteristic_case_allows(capsys, char, prime):
    spec = json.dumps({"family": "SL", "n": 4, "char": char, "subgroup": {"subspace": {"d": 2}}})
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--c", "3", "--prime", str(prime), "--trials", "1")
    assert code == 0
    assert json.loads(out)["outputs"]["primes"] == [prime]


@pytest.mark.parametrize(
    "argv",
    [
        [_SL42, "--trials", "3"],
        [_SL42, "--prime", "101", "--trials", "2"],
        ['{"module":"sym2","n":2}', "--trials", "3"],
        ['{"module":"so_tensor","n":3}', "--prime", "101"],
    ],
    ids=["mod-p", "mod-p-one-prime", "module", "module-one-prime"],
)
def test_verify_config_records_the_primes_and_trials_that_ran(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", "--spec", *argv, "--c", "3")
    assert code == 0
    rec = json.loads(out)
    assert (rec["config"]["primes"], rec["config"]["trials"]) == (rec["outputs"]["primes"], rec["outputs"]["trials"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "PGL", "--n", "2", "--q", "7", "--action", "projective-line", "--bound", "3"],
        ["--family", "PGL", "--n", "2", "--q", "7", "--action", "projective-line", "--bound", "0"],
        ["--family", "PGL", "--n", "2", "--q", "5", "--action", "torus-normalizer", "--mode", "order",
         "--bound", "-1"],
        # SL_2(11) has 1320 elements
        ["--family", "SL", "--n", "2", "--q", "11", "--action", "two-symmetric-forms", "--bound", "10"],
    ],
)
def test_finite_bound_overflow_and_bad_bound_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, "finite", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # Sp_4(5) acts with order 4,680,000 on decomposition pairs
        ["--family", "Sp", "--n", "4", "--q", "5", "--action", "decomposition-pairs"],
        ["--family", "Sp", "--n", "4", "--q", "3", "--action", "decomposition-pairs", "--bound", "25919"],
        ["--family", "PGL", "--n", "2", "--q", "7", "--action", "torus-normalizer", "--bound", "335"],
    ],
)
def test_finite_order_over_the_bound_exits_2_before_listing(capsys, monkeypatch, argv):
    from basesize import finitecheck

    def unreachable(*args, **kwargs):
        raise AssertionError("the group was listed although its order exceeds the bound")

    # Sp_4 is closed from generators, PGL_2 is listed by _line_images and
    # SL_2 by _sl2_elements
    monkeypatch.setattr(finitecheck, "close_perm_group", unreachable)
    monkeypatch.setattr(finitecheck, "_sl2_elements", unreachable)
    monkeypatch.setattr(finitecheck, "_line_images", unreachable)
    code, out, err = run_cli(capsys, "finite", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: group order ") and err.count("\n") == 1


@pytest.mark.parametrize("action", ["projective-line", "torus-normalizer"])
def test_finite_pgl2_over_f2(capsys, action):
    # PGL_2(2) is S_3 on three points, on the line and on the point pairs alike
    code, out, _ = run_cli(capsys, "finite", "--family", "PGL", "--n", "2", "--q", "2", "--action", action)
    assert code == 0
    assert json.loads(out)["outputs"] == {"base_size": 2, "group_order": 6, "points": 3}


@pytest.mark.parametrize(
    "argv",
    [
        # two-symmetric-forms used to answer over Z/4 and Z/9
        ["--family", "SL", "--n", "2", "--q", "4", "--action", "two-symmetric-forms"],
        ["--family", "SL", "--n", "2", "--q", "9", "--action", "two-symmetric-forms"],
        ["--family", "PGL", "--n", "2", "--q", "9", "--action", "projective-line"],
        ["--family", "PGL", "--n", "2", "--q", "1", "--action", "torus-normalizer", "--mode", "order"],
        ["--family", "Sp", "--n", "4", "--q", "4", "--action", "decomposition-pairs"],
        ["--family", "Sp", "--n", "4", "--q", "2147483659", "--action", "decomposition-pairs"],
    ],
    ids=lambda argv: f"{argv[argv.index('--action') + 1]}-q{argv[argv.index('--q') + 1]}",
)
def test_finite_rejects_a_q_that_is_not_prime(capsys, argv):
    code, out, err = run_cli(capsys, "finite", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --q {argv[argv.index('--q') + 1]} is not a prime below 2^31\n"


_FINITE_ACTIONS = ["projective-line", "torus-normalizer", "decomposition-pairs", "two-symmetric-forms"]
_PAIRS_ORDER = ["finite", "--family", "PGL", "--n", "2", "--action", "torus-normalizer", "--mode", "order"]


@pytest.mark.parametrize(
    "argv,message",
    [
        # q = 3: the 4 points of the line hold no 3 disjoint pairs
        (_PAIRS_ORDER + ["--q", "3", "--tuple-length", "3"], "3 disjoint point pairs need 6"),
        (_PAIRS_ORDER + ["--q", "7", "--tuple-length", "9"], "9 disjoint point pairs need 18"),
        (_PAIRS_ORDER + ["--q", "7", "--tuple-length", "-1"], "--tuple-length -1 is not in 0..28"),
        (["finite", "--family", "PGL", "--n", "2", "--q", "7", "--action", "projective-line", "--mode", "order",
          "--tuple-length", "9"], "--tuple-length 9 is not in 0..8"),
        (["bounds", "--dataset", "e6_f4", "--mode", "b0", "--char", "4"], "--char 4 is not a prime"),
        (["bounds", "--dataset", "e6_f4", "--mode", "b0", "--char", "-3"], "--char -3 is not a prime"),
        (["verify", "--spec", '{"module":"so_tensor","n":3}', "--c", "0"], "n >= 2 and c >= 1"),
        (["verify", "--spec", '{"module":"sym2","n":3}', "--c", "-2"], "n >= 2 and c >= 1"),
        (["verify", "--spec", '{"module":"sym2","n":0}', "--c", "1"], "n >= 2 and c >= 1"),
        (["verify", "--spec", '{"module":"sym2","n":1}', "--c", "1"], "n >= 2 and c >= 1"),
        (["verify", "--spec", '{"module":"sym2","n":2}', "--c", "2", "--trials", "0"], "need --trials >= 1"),
        # an exceptional family has no n: this used to reach genstab with n = None
        (["verify", "--spec", '{"family":"E6","subgroup":{"subspace":{"d":2}}}', "--c", "3"],
         "verify handles classical subspace actions"),
        (["verify", "--spec", '{"family":"SL","n":4,"subgroup":"torus_normalizer"}', "--c", "3"],
         "verify handles classical subspace actions"),
        # mod 2 the form of SO with odd n is not alternating: the group is not SO_n
        (["verify", "--spec", '{"family":"SO","n":7,"subgroup":{"subspace":{"d":2,"flavor":"totally_singular"}}}',
          "--c", "2", "--prime", "2"], "SO with odd n requires p != 2"),
        (["verify", "--spec", '{"family":"SO","n":7,"subgroup":{"subspace":{"d":2,"flavor":"nondeg"}}}',
          "--c", "2", "--prime", "2"], "SO with odd n requires p != 2"),
        # a characteristic case that fixes whether p = 2 refuses the primes on the other side
        (["verify", "--spec", '{"family":"Sp","n":6,"char":"odd","subgroup":{"subspace":{"d":2,"flavor":"nondeg"}}}',
          "--c", "2", "--prime", "2"], "characteristic case 'odd' rules out p = 2"),
        (["verify", "--spec", '{"family":"SL","n":4,"char":"2","subgroup":{"subspace":{"d":2}}}', "--c", "2"],
         "characteristic case '2' rules out p = 2147483647"),
        # and so does one that fixes whether p = 3, or rules out p = 5
        (["verify", "--spec", '{"family":"SL","n":4,"char":"3","subgroup":{"subspace":{"d":2}}}', "--c", "2"],
         "characteristic case '3' rules out p = 2147483647"),
        (["verify", "--spec", '{"family":"SL","n":4,"char":"not235","subgroup":{"subspace":{"d":2}}}', "--c", "2",
          "--prime", "3"], "characteristic case 'not235' rules out p = 3"),
        (["verify", "--spec", '{"family":"SL","n":4,"char":"0","subgroup":{"subspace":{"d":2}}}', "--c", "2",
          "--prime", "3"], "characteristic case '0' rules out p = 3"),
        (["verify", "--spec", '{"family":"SL","n":4,"char":"not235","subgroup":{"subspace":{"d":2}}}', "--c", "2",
          "--prime", "5"], "characteristic case 'not235' rules out p = 5"),
        # mod 2 the form of SO_8 is alternating: this used to run out of retries
        (["verify", "--spec", '{"family":"SO","n":8,"subgroup":{"subspace":{"d":1,"flavor":"nondeg"}}}',
          "--c", "1", "--prime", "2"], "alternating"),
        (["formula", "--spec", '{"family":"Sp","n":3,"subgroup":"torus_normalizer"}'], "Sp needs even n"),
        (["formula", "--spec", '{"family":"SO","n":2,"subgroup":"torus_normalizer"}'], "SO_2 is not simple"),
        # SL_2(3) acts on the line as PSL_2(3), of order 12, not as PGL_2(3)
        (["finite", "--family", "SL", "--n", "2", "--q", "3", "--action", "projective-line"],
         "projective-line runs on PGL with n=2"),
        (["finite", "--family", "SL", "--n", "2", "--q", "3", "--action", "torus-normalizer"],
         "torus-normalizer runs on PGL with n=2"),
        # --char is checked in b1 mode too, and against a header that fixes it
        (["bounds", "--dataset", "g2_na2", "--mode", "b1", "--char", "4"], "--char 4 is not a prime"),
        (["bounds", "--dataset", "e7_a7_p2", "--mode", "b0", "--char", "3"],
         "--char 3 contradicts the characteristic 2 of dataset e7_a7_p2"),
        (["bounds", "--dataset", "e7_a7_p2", "--mode", "b1", "--char", "0"], "--char 0 contradicts"),
    ],
    ids=["pairs-q3-len3", "pairs-q7-len9", "pairs-q7-len-1", "line-q7-len9", "bounds-char4", "bounds-char-3",
         "so-tensor-c0", "sym2-c-2", "sym2-n0", "sym2-n1", "sym2-trials0",
         "e6-subspace", "sl4-torus", "so7-ts-p2", "so7-nondeg-p2", "sp6-odd-p2", "sl4-char2-default",
         "sl4-char3-default", "sl4-not235-p3", "sl4-char0-p3", "sl4-not235-p5",
         "so8-nondeg-d1-p2",
         "sp3-torus", "so2-torus", "sl-line", "sl-pairs", "b1-char4",
         "char3-on-p2-dataset", "b1-char0-on-p2-dataset"],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "spec,extra",
    [
        ('{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}', []),
        ('{"module":"sym2","n":3}', []),
    ],
    ids=["subspace", "module"],
)
def test_verify_negative_seed_exits_2_on_every_route(capsys, spec, extra):
    # numpy's own refusal named no input: "expected non-negative integer"
    code, out, err = run_cli(capsys, "verify", "--spec", spec, "--c", "3", "--seed", "-5", *extra)
    assert (code, out, err) == (2, "", "error: need seed >= 0, got -5\n")


@pytest.mark.parametrize("q,length", [(11, 6), (13, 7)], ids=["pairs-q11-len6", "pairs-q13-len7"])
def test_finite_disjoint_pairs_that_cover_the_line_exit_0(capsys, q, length):
    # length disjoint pairs cover all q + 1 points: random tuples of pairs
    # almost never do, so filtering them for disjointness found none
    code, out, _ = run_cli(capsys, *_PAIRS_ORDER, "--q", str(q), "--tuple-length", str(length))
    assert code == 0
    assert json.loads(out)["outputs"]["generic_tuple_stabilizer_order"] == 1


@pytest.mark.parametrize(
    "name,edit,message",
    [
        # b0 would run at a header's p = 4, which --char 4 is refused for
        ("e7_a7_p2", ('"characteristic": "2"', '"characteristic": "4"'), "characteristic '4' is not"),
        ("e7_a7_p2", ('"characteristic": "2"', '"characteristic": "odd"'), "characteristic 'odd' is not"),
        ("g2_na2", ('"element_order": 3', '"element_order": 4'), "element_order must be a prime or 0"),
        ("g2_na2", ('"element_order": 3', '"element_order": 1'), "element_order must be a prime or 0"),
        # b0 skipped a semisimple record of order 0 and b1 counted it
        ("g2_na2", ('"element_order": 2', '"element_order": 0'), "element_order 0 is for unipotent classes"),
    ],
    ids=["char4", "char-odd", "order4", "order1", "semisimple-order0"],
)
@pytest.mark.parametrize("mode", ["b0 --char 3", "b1"])
def test_bad_dataset_copy_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, name, edit, message, mode):
    text = classdata.dataset_path(name).read_text()
    assert edit[0] in text
    (tmp_path / f"{name}.jsonl").write_text(text.replace(edit[0], edit[1], 1))
    monkeypatch.setenv(classdata.DATA_DIR_ENV, str(tmp_path))
    code, out, err = run_cli(capsys, "bounds", "--dataset", name, "--mode", *mode.split())
    lineno = 1 + text.split(edit[0])[0].count("\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize(
    "keep,message",
    [(0, "error: line 1: missing header\n"), (1, "error: dataset carries no records\n")],
    ids=["empty", "header-only"],
)
@pytest.mark.parametrize("mode", ["b0 --char 3", "b1"])
def test_dataset_without_records_exits_2_with_one_error_line(capsys, tmp_path, monkeypatch, keep, message, mode):
    lines = classdata.dataset_path("g2_na2").read_text().splitlines(keepends=True)
    (tmp_path / "g2_na2.jsonl").write_text("".join(lines[:keep]))
    monkeypatch.setenv(classdata.DATA_DIR_ENV, str(tmp_path))
    assert run_cli(capsys, "bounds", "--dataset", "g2_na2", "--mode", *mode.split()) == (2, "", message)


@pytest.mark.parametrize("mode", ["b0 --char 3", "b1"])
def test_blank_lines_between_records_are_skipped(capsys, tmp_path, monkeypatch, mode):
    argv = ["bounds", "--dataset", "g2_na2", "--mode", *mode.split()]
    code, shipped, _ = run_cli(capsys, *argv)
    text = classdata.dataset_path("g2_na2").read_text()
    (tmp_path / "g2_na2.jsonl").write_text(text.replace("\n", "\n\n  \n"))
    monkeypatch.setenv(classdata.DATA_DIR_ENV, str(tmp_path))
    code_copy, copy, _ = run_cli(capsys, *argv)
    assert (code, code_copy) == (0, 0)
    strip = lambda out: {k: v for k, v in json.loads(out).items() if k != "wall_time_s"}
    assert strip(copy) == strip(shipped)


def test_verify_diagnostics_sit_outside_the_stable_outputs(capsys):
    # outputs and config_hash as they were before the adapted basis
    spec = '{"family":"Sp","n":8,"char":"odd","subgroup":{"subspace":{"d":2,"flavor":"totally_singular"}}}'
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--c", "3", "--trials", "2", "--seed", "4")
    assert code == 0
    rec = json.loads(out)
    assert rec["outputs"] == {
        "algebra": "sp", "algebra_dim": 4, "dims_by_prime": [[4, 4], [4, 4]],
        "primes": [2147483647, 2147483629], "projective_dim": 4, "resamples": 0, "seed": 4,
        "stable": True, "trials": 2,
    }
    assert rec["config_hash"] == "8ba855321505ba30"
    # sp_8 has 36 unknowns; two totally singular 2-spaces delete 11 columns
    # each, and the third part's 12 rows have rank 14 - 4
    assert rec["diagnostics"] == {"unknowns": 36, "head_parts": 2, "columns": 14, "rows": 12, "rank": 10}
    # three transversal 2-spaces of F^6 all head the basis: nothing is eliminated
    spec = '{"family":"SL","n":6,"subgroup":{"subspace":{"d":2}}}'
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--c", "3", "--trials", "1")
    rec = json.loads(out)
    assert rec["outputs"] == {
        "algebra": "gl", "algebra_dim": 12, "dims_by_prime": [[12], [12]],
        "primes": [2147483647, 2147483629], "projective_dim": 11, "resamples": 0, "seed": 0,
        "stable": True, "trials": 1,
    }
    assert rec["config_hash"] == "64deb53b5d63bcf4"
    assert rec["diagnostics"] == {"unknowns": 36, "head_parts": 3, "columns": 12, "rows": 0, "rank": 0}
    code, out, _ = run_cli(capsys, "verify", "--spec", '{"module":"sym2","n":3}', "--c", "1", "--seed", "3")
    assert json.loads(out)["diagnostics"] == {"unknowns": 9, "head_parts": 0, "columns": 9, "rows": 10, "rank": 6}


@pytest.mark.parametrize(
    "spec,c,certified",
    [
        # A = scalars in gl: the zero bounds the generic b1
        ('{"family":"SL","n":3,"subgroup":{"subspace":{"d":1}}}', 4, "b1"),
        ('{"family":"Sp","n":6,"subgroup":{"subspace":{"d":2,"flavor":"nondeg"}}}', 4, "b0"),
        # projective_dim 2: nothing is proved
        ('{"family":"SL","n":3,"subgroup":{"subspace":{"d":1}}}', 3, None),
    ],
    ids=["sl3-c4-b1", "sp6-nondeg-c4-b0", "sl3-c3-none"],
)
def test_verify_certifies_a_zero_projective_dimension(capsys, spec, c, certified):
    code, out, _ = run_cli(capsys, "verify", "--spec", spec, "--c", str(c), "--trials", "1")
    assert code == 0
    rec = json.loads(out)
    if certified is None:
        assert rec["outputs"]["projective_dim"] > 0 and "certified" not in rec["diagnostics"]
    else:
        assert rec["outputs"]["projective_dim"] == 0
        assert rec["diagnostics"]["certified"] == {"measure": certified, "c": c, "primes": list(genstab.PRIMES)}


def test_verify_rational_is_an_unknown_option(capsys):
    # the characteristic-0 answer is the certificate of the mod-p route
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--spec", _SL42, "--c", "3", "--rational"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rational" in capsys.readouterr().err


_MALFORMED_SPECS = [
    '"x"',
    "null",
    "[1]",
    '{"n":8,"subgroup":{"subspace":{"d":2}}}',
    '{"family":"SL","n":8}',
    '{"family":"SL","n":"8","subgroup":{"subspace":{"d":2}}}',
    '{"family":"SL","n":true,"subgroup":{"subspace":{"d":1}}}',
    '{"family":"SL","n":2.5,"subgroup":{"subspace":{"d":1}}}',
    '{"family":"SL","n":8,"subgroup":{"subspace":{"d":2.7}}}',
    '{"family":"SL","n":8,"subgroup":{"subspace":{}}}',
    '{"family":"SL","n":8,"subgroup":{"subspace":[2]}}',
    '{"family":"SO","n":8,"subgroup":{"nonsubspace":{"label":7}}}',
    '{"family":"E7","subgroup":{"parabolic":{}}}',
]


@pytest.mark.parametrize("spec", _MALFORMED_SPECS)
def test_malformed_spec_exit_2(capsys, spec):
    code, out, err = run_cli(capsys, "formula", "--spec", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("argv", [["formula"], ["verify", "--c", "1"]], ids=["formula", "verify"])
def test_deeply_nested_spec_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--spec", _DEEP)
    assert code == 2
    assert out == ""
    assert err == "error: spec JSON is nested too deeply\n"


def test_bounds_deeply_nested_dataset_exit_2(capsys, tmp_path, monkeypatch):
    header = {"schema": 1, "group": "G2", "subgroup_label": "X", "expected_sup_ratio": "1"}
    (tmp_path / "deep.jsonl").write_text(json.dumps(header) + "\n" + _DEEP + "\n")
    monkeypatch.setenv("BASESIZE_DATA_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "bounds", "--dataset", "deep")
    assert code == 2
    assert out == ""
    assert err == "error: line 2: JSON nested too deeply\n"


@pytest.mark.parametrize("spec", ['{"module":"sym2"}', '{"module":"sym2","n":"2"}', '{"module":"sym2","n":2.0}'])
def test_verify_malformed_module_spec_exit_2(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--spec", spec, "--c", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("drop", ["group", "class_label"])
def test_bounds_malformed_dataset_exit_2(capsys, tmp_path, monkeypatch, drop):
    header = {"schema": 1, "group": "G2", "subgroup_label": "X", "expected_sup_ratio": "1"}
    record = {"class_label": "c", "element_kind": "semisimple", "element_order": 2,
              "dim_class_in_G": 6, "dim_intersection_with_H": 6}
    lineno = 1 if drop in header else 2
    header.pop(drop, None)
    record.pop(drop, None)
    (tmp_path / "bad.jsonl").write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    monkeypatch.setenv("BASESIZE_DATA_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, "bounds", "--dataset", "bad")
    assert code == 2
    assert out == ""
    assert err == f"error: line {lineno}: missing field {drop!r}\n"


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(-2, 20),
                  st.text(max_size=6), st.lists(st.integers(0, 3), max_size=2))
_INT = st.one_of(st.integers(-2, 18), _JUNK)
_LABELS = ["GL_{n/2} wr S2", "Sp_{n/3} wr S3", "O_{n/2} wr S2", "GL_{n/0} wr S2", "Sp_n", "SO_n",
           "GL_{n/2}", "O_n", "Sp4xSp2", "G2", "A1A5", "D8", "T1D5", "A7.2", "T7", "A1xS5"]
_SUBGROUPS = st.one_of(
    st.just("torus_normalizer"),
    st.fixed_dictionaries({"subspace": st.fixed_dictionaries({}, optional={
        "d": _INT, "flavor": st.one_of(st.sampled_from(fm.SUBSPACE_FLAVORS), _JUNK)})}),
    st.fixed_dictionaries({"nonsubspace": st.fixed_dictionaries({}, optional={
        "label": st.one_of(st.sampled_from(_LABELS), _JUNK)})}),
    st.fixed_dictionaries({"parabolic": st.fixed_dictionaries({}, optional={"i": _INT})}),
    _JUNK,
)
_SPECS = st.fixed_dictionaries({}, optional={
    "family": st.one_of(st.sampled_from(fm.CLASSICAL_FAMILIES + fm.EXCEPTIONAL_FAMILIES), _JUNK),
    "n": _INT,
    "subgroup": _SUBGROUPS,
    "char": st.one_of(st.sampled_from(fm.CHAR_CASES), _JUNK),
})


@settings(max_examples=400, deadline=None)
@given(st.one_of(_SPECS.map(json.dumps), _JUNK.map(json.dumps), st.text(max_size=12))
       # argparse reads a value that starts with "-" as an option
       .filter(lambda s: not s.startswith("-")))
def test_formula_spec_fuzz_never_raises(spec):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["formula", "--spec", spec])
    assert code in (0, 2)
    if code == 0:
        triple = json.loads(out.getvalue())["outputs"]
        assert all(type(x) is int for key in ("b0", "b", "b1") for x in triple[key])
    else:
        assert err.getvalue().startswith("error: ")


def test_formula_bounds_and_emit_do_not_import_numpy():
    calls = [
        ["formula", "--spec", '{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}'],
        ["bounds", "--dataset", "g2_na2"],
        ["bounds", "--dataset", "e6_f4", "--mode", "b0", "--char", "3"],
        ["emit", "table:c"],
    ]
    script = (
        "import sys\nfrom basesize.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {calls!r})\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "False\n"


def _private_reads(source: str, modules: set[str]) -> list[str]:
    """The underscore names of the package's ``modules`` that ``source``
    reads: ``mod._name`` through a module imported from the package, and
    ``from .mod import _name``.  Dunder names such as ``__version__`` are
    public."""
    private = lambda s: s.startswith("_") and not s.endswith("__")
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, None), (0, "basesize")):
            siblings |= {a.asname or a.name for a in node.names if a.name in modules}
        elif isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("basesize.")):
            found += [f"line {node.lineno}: from {node.module} import {a.name}" for a in node.names if private(a.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in siblings and private(node.attr):
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_a_private_name_of_another():
    # each dimension fact and helper has one owner; the others call its
    # public name, so a private helper cannot grow a second caller unseen
    pkg = os.path.join(SRC, "basesize")
    modules = {f[:-3] for f in os.listdir(pkg) if f.endswith(".py")}
    assert {"rootsys", "formulas", "bounds", "cli"} <= modules
    planted = "from . import __version__, rootsys as rs\nfrom .bounds import _min_c_weak\nrs._group_type('E6')\n"
    assert _private_reads(planted, modules) == [
        "line 2: from bounds import _min_c_weak", "line 3: rs._group_type"]
    offenders = {}
    for name in sorted(modules):
        with open(os.path.join(pkg, f"{name}.py"), encoding="utf-8") as fh:
            found = _private_reads(fh.read(), modules)
        if found:
            offenders[name] = found
    assert offenders == {}


def test_closed_stdout_exits_1_with_one_error_line():
    # the read end is gone before the child starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    try:
        done = subprocess.run([sys.executable, "-m", "basesize.cli", "emit", "table:c"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


_FLAVORS = {"SL": ["linear"], "Sp": ["nondeg", "totally_singular"], "SO": ["nondeg", "totally_singular"]}


@st.composite
def _verify_specs(draw):
    """A spec with n <= 8: a classical family (with n) 12 times in 17, else
    an exceptional one (with no n); a subspace subgroup 2 times in 3, else
    a torus normalizer, a parabolic or a label.  Half of the time one field
    (or a field nobody reads) is replaced by junk."""
    family = draw(st.sampled_from(sorted(_FLAVORS) * 4 + list(fm.EXCEPTIONAL_FAMILIES)))
    n = draw(st.integers(2, 8))
    subspace = {"d": draw(st.one_of(st.integers(1, n // 2), st.integers(0, 8)))}
    flavor = draw(st.sampled_from(_FLAVORS.get(family, ["linear"]) * 3 + [None, *fm.SUBSPACE_FLAVORS]))
    if flavor is not None:
        subspace["flavor"] = flavor
    subgroup = draw(st.sampled_from([{"subspace": subspace}] * 6 + [
        "torus_normalizer", {"parabolic": {"i": 1}}, {"nonsubspace": {"label": draw(st.sampled_from(_LABELS))}}]))
    char = draw(st.sampled_from(fm.CHAR_CASES))
    spec = {"family": family, "subgroup": subgroup, "char": char}
    if family in _FLAVORS:
        spec["n"] = n
    if draw(st.booleans()):
        key = draw(st.sampled_from(["family", "n", "subgroup", "char", "d", "flavor", "extra"]))
        (subspace if key in ("d", "flavor") else spec)[key] = draw(_JUNK)
    return json.dumps(spec)


def _run_fuzzed(argv):
    """Run the CLI on ``argv``: exit 0 or 3 print a JSON record and nothing
    else, exit 2 prints nothing and one ``error:`` line.  Returns the record
    (None on exit 2) and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return None, err.getvalue()
    assert err.getvalue() == ""
    return json.loads(out.getvalue()), err.getvalue()


_MODULE_SPECS = st.builds(lambda kind, n: json.dumps({"module": kind, "n": n}),
                          st.sampled_from(genstab.MODULE_KINDS), st.integers(2, 6))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_verify_specs(), _MODULE_SPECS), st.sampled_from([1, 2, 3, 4, 0, -1]),
       st.sampled_from([[], ["--prime", "2"], ["--prime", "3"], ["--prime", "5"]]))
def test_verify_fuzz_never_raises(spec, c, flags):
    record, err = _run_fuzzed(["verify", "--spec", spec, "--c", str(c), "--trials", "1", *flags])
    if record is not None:
        rec = record["outputs"]
        assert 0 <= rec["projective_dim"] <= rec["algebra_dim"]
        # a certificate exactly when a subspace spec reaches projective dimension 0
        subspace = "module" not in record["config"]["spec"]
        assert ("certified" in record["diagnostics"]) == (subspace and rec["projective_dim"] == 0)
    elif c == 1:
        # one part meets no pairwise condition, so running out of retries
        # there would hide a condition that cannot hold
        assert "resampling budget exhausted" not in err


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(classdata.shipped_datasets()), st.sampled_from(["b0", "b1"]), st.booleans(),
       st.one_of(st.none(), st.sampled_from([0, 2, 3, 5, 7]), st.integers(-3, 12),
                 st.sampled_from([2**31 - 1, 2**31 + 11, 10**12])))
def test_bounds_fuzz_never_raises(dataset, mode, refine, char):
    argv = ["bounds", "--dataset", dataset, "--mode", mode]
    record, _ = _run_fuzzed(argv + ["--refine-long-root"] * refine + ([] if char is None else ["--char", str(char)]))
    if record is not None:
        assert record["outputs"]["inconclusive"] == ("value" not in record["outputs"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FINITE_ACTIONS), st.sampled_from([("PGL", 2), ("SL", 2), ("Sp", 4), ("SL", 3), ("PGL", 4)]),
       st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-1, 13)), st.sampled_from(["base", "order"]),
       st.integers(-1, 8), st.one_of(st.just(2000), st.integers(-1, 2000)), st.integers(0, 3))
def test_finite_fuzz_never_raises(action, group, q, mode, length, bound, seed):
    # a bound of at most 2000 stops Sp_4(3), of order 25920, before it is listed
    family, n = group
    record, _ = _run_fuzzed(["finite", "--family", family, "--n", str(n), "--q", str(q), "--action", action,
                             "--mode", mode, "--tuple-length", str(length), "--bound", str(bound),
                             "--seed", str(seed)])
    if record is not None:  # nothing larger than the bound was listed
        out = record["outputs"]
        assert 1 <= out.get("group_order", out.get("stabilizer_order")) <= bound
