import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from basesize import formulas as fm
from basesize.cli import emit_table, main


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


def test_verify_sampling_failure_exit_2(capsys):
    # two maximal totally singular subspaces of one family in SO10 always
    # meet, so the sampler's transversality condition cannot hold
    code, out, err = run_cli(
        capsys, "verify", "--spec",
        '{"family":"SO","n":10,"subgroup":{"subspace":{"d":5,"flavor":"totally_singular"}},"char":"odd"}',
        "--c", "2", "--trials", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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
