import json

import pytest

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
