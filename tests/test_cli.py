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


def test_verify_rational_refuses_totally_singular_parts(capsys):
    # parts sampled mod p are totally singular mod p only, not over Q
    code, out, err = run_cli(
        capsys, "verify", "--spec",
        '{"family":"Sp","n":8,"subgroup":{"subspace":{"d":3,"flavor":"totally_singular"}},"char":"odd"}',
        "--c", "2", "--rational",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_sampling_failure_exit_2(capsys, monkeypatch):
    # with no resampling budget the first rejected part ends the run
    monkeypatch.setattr(genstab, "RESAMPLE_BUDGET", 0)
    code, out, err = run_cli(
        capsys, "verify", "--spec",
        '{"family":"SL","n":4,"subgroup":{"subspace":{"d":2}}}',
        "--c", "2", "--trials", "1",
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

    monkeypatch.setattr(finitecheck, "close_perm_group", unreachable)
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
    assert err.startswith("error: --q ") and err.count("\n") == 1


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
        # odd-dimensional totally singular parts are drawn with 1/2
        (["verify", "--spec", '{"family":"SO","n":7,"subgroup":{"subspace":{"d":2,"flavor":"totally_singular"}}}',
          "--c", "2", "--prime", "2"], "p != 2"),
        # the projective line over F_2 has 3 points
        (["verify", "--spec", '{"family":"SL","n":2,"subgroup":{"subspace":{"d":1}}}', "--c", "4", "--prime", "2"],
         "at most (p^n - 1)/(p^d - 1) = 3 transversal 1-spaces"),
        # mod 2 the form of SO_8 is alternating: this used to run out of retries
        (["verify", "--spec", '{"family":"SO","n":8,"subgroup":{"subspace":{"d":1,"flavor":"nondeg"}}}',
          "--c", "1", "--prime", "2"], "alternating"),
        # these used to end in a traceback: no random draw finds q + 1 points in disjoint pairs
        (_PAIRS_ORDER + ["--q", "13", "--tuple-length", "7"], "none of 10000 random 7-tuples"),
        (_PAIRS_ORDER + ["--q", "11", "--tuple-length", "6"], "none of 10000 random 6-tuples"),
        (["formula", "--spec", '{"family":"Sp","n":3,"subgroup":"torus_normalizer"}'], "Sp needs even n"),
        (["formula", "--spec", '{"family":"SO","n":2,"subgroup":"torus_normalizer"}'], "SO_2 is not simple"),
    ],
    ids=["pairs-q3-len3", "pairs-q7-len9", "pairs-q7-len-1", "line-q7-len9", "bounds-char4", "bounds-char-3",
         "so-tensor-c0", "sym2-c-2", "sym2-n0", "sym2-n1", "so7-ts-p2", "sl2-four-points-p2", "so8-nondeg-d1-p2",
         "pairs-q13-len7", "pairs-q11-len6", "sp3-torus", "so2-torus"],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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
    assert rec["config_hash"] == "e247da0cb47819f0"
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
    assert rec["config_hash"] == "edda63c9cfa1254a"
    assert rec["diagnostics"] == {"unknowns": 36, "head_parts": 3, "columns": 12, "rows": 0, "rank": 0}
    code, out, _ = run_cli(capsys, "verify", "--spec", '{"module":"sym2","n":3}', "--c", "1", "--seed", "3")
    assert json.loads(out)["diagnostics"] == {"unknowns": 9, "head_parts": 0, "columns": 9, "rows": 10, "rank": 6}


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
    """A subspace spec with n <= 8, mostly well formed; half of the time one
    field (or a field nobody reads) is replaced by junk."""
    family = draw(st.sampled_from(sorted(_FLAVORS)))
    n = draw(st.integers(2, 8))
    subspace = {"d": draw(st.one_of(st.integers(1, n // 2), st.integers(0, 8)))}
    flavor = draw(st.sampled_from(_FLAVORS[family] * 3 + [None, *fm.SUBSPACE_FLAVORS]))
    if flavor is not None:
        subspace["flavor"] = flavor
    char = draw(st.sampled_from(fm.CHAR_CASES))
    spec = {"family": family, "n": n, "subgroup": {"subspace": subspace}, "char": char}
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
       st.sampled_from([None, 2, 3, 5]))
def test_verify_fuzz_never_raises(spec, c, prime):
    argv = ["verify", "--spec", spec, "--c", str(c), "--trials", "1"]
    record, err = _run_fuzzed(argv + ([] if prime is None else ["--prime", str(prime)]))
    if record is not None:
        rec = record["outputs"]
        assert 0 <= rec["projective_dim"] <= rec["algebra_dim"]
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
