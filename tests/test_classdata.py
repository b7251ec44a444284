import json

import pytest

from basesize import classdata
from basesize.classdata import DatasetError, load_shipped, loads

HEADER = {
    "schema": 1,
    "group": "G2",
    "subgroup_label": "N(A2)",
    "characteristic": "any",
    "expected_sup_ratio": "2/3",
}


def _text(header, records):
    lines = [json.dumps(header)]
    lines += [json.dumps(r) for r in records]
    return "\n".join(lines)


def _rec(**kw):
    base = {
        "class_label": "long root",
        "element_kind": "unipotent",
        "element_order": 0,
        "dim_class_in_G": 6,
        "dim_intersection_with_H": 4,
        "is_long_root": True,
    }
    base.update(kw)
    return base


def test_accepts_valid_row():
    ds = loads(_text(HEADER, [_rec()]))
    assert ds.records[0].ratio.numerator == 2
    assert ds.records[0].group == "G2"


def test_rejects_intersection_above_class_dim():
    bad = _rec(dim_intersection_with_H=7)
    with pytest.raises(DatasetError, match="line 2"):
        loads(_text(dict(HEADER, expected_sup_ratio="7/6"), [bad]))


def test_rejects_class_dim_above_group_bound():
    # dim G2 - rank = 12 caps every class dimension
    bad = _rec(dim_class_in_G=13, dim_intersection_with_H=4, is_long_root=False)
    with pytest.raises(DatasetError, match="bound"):
        loads(_text(dict(HEADER, expected_sup_ratio="4/13"), [bad]))
    with pytest.raises(DatasetError, match="line 2: dim_class_in_G must be positive"):
        loads(_text(HEADER, [_rec(dim_class_in_G=0, dim_intersection_with_H=0)]))


def test_rejects_long_root_semisimple():
    bad = _rec(element_kind="semisimple", element_order=2)
    with pytest.raises(DatasetError, match="is_long_root"):
        loads(_text(HEADER, [bad]))
    with pytest.raises(DatasetError, match="line 2: unknown element_kind 'nilpotent'"):
        loads(_text(HEADER, [_rec(element_kind="nilpotent")]))


def test_rejects_sup_ratio_mismatch():
    with pytest.raises(DatasetError, match="expected_sup_ratio"):
        loads(_text(dict(HEADER, expected_sup_ratio="1/2"), [_rec()]))


def test_rejects_bad_schema_and_bad_json():
    with pytest.raises(DatasetError, match="schema"):
        loads(_text(dict(HEADER, schema=99), [_rec()]))
    with pytest.raises(DatasetError, match="line 2"):
        loads(json.dumps(HEADER) + "\n{not json}")


@pytest.mark.parametrize("field", ["group", "subgroup_label", "expected_sup_ratio"])
def test_rejects_header_without_field(field):
    header = {k: v for k, v in HEADER.items() if k != field}
    with pytest.raises(DatasetError, match=f"line 1: missing field '{field}'"):
        loads(_text(header, [_rec()]))


@pytest.mark.parametrize(
    "field", ["class_label", "element_kind", "element_order", "dim_class_in_G", "dim_intersection_with_H"]
)
def test_rejects_record_without_field(field):
    rec = {k: v for k, v in _rec().items() if k != field}
    with pytest.raises(DatasetError, match=f"line 2: missing field '{field}'"):
        loads(_text(HEADER, [rec]))


def test_rejects_lines_that_are_not_objects():
    with pytest.raises(DatasetError, match="line 1: not a JSON object"):
        loads("[1]\n" + json.dumps(_rec()))
    with pytest.raises(DatasetError, match="line 3: not a JSON object"):
        loads(_text(HEADER, [_rec(), "row"]))
    with pytest.raises(DatasetError, match="line 2"):
        loads(_text(HEADER, [_rec(element_order=None)]))


@pytest.mark.parametrize(
    "field,value",
    [
        ("dim_class_in_G", 6.9),
        ("dim_intersection_with_H", 4.2),
        ("element_order", 2.9),
        ("dim_class_in_G", "6"),
        ("element_order", True),
        ("is_long_root", "false"),
        ("is_long_root", 1),
    ],
)
def test_rejects_fields_of_the_wrong_json_type(field, value):
    # int() and bool() read 6.9 as 6 and "false" as True
    with pytest.raises(DatasetError, match=f"line 2: '{field}' must be a JSON"):
        loads(_text(HEADER, [_rec(**{field: value})]))


@pytest.mark.parametrize("order", [1, 4, 9, -3, 2**31 + 11])
def test_rejects_record_orders_that_are_not_prime(order):
    # b0 would read an order-4 record as a prime family r = 4 and skip an order-1 one
    bad = _rec(class_label="x", element_kind="semisimple", element_order=order, is_long_root=False)
    with pytest.raises(DatasetError, match="line 3: element_order must be a prime or 0"):
        loads(_text(HEADER, [_rec(), bad]))


@pytest.mark.parametrize("kind", ["semisimple", "mixed-coset"])
def test_rejects_order_zero_off_unipotent_records(kind):
    # order 0 means a unipotent class in characteristic 0
    bad = _rec(class_label="x", element_kind=kind, element_order=0, is_long_root=False)
    with pytest.raises(DatasetError, match=f"line 3: element_order 0 is for unipotent classes, not {kind}"):
        loads(_text(HEADER, [_rec(), bad]))


@pytest.mark.parametrize("char", ["4", "odd", "1", "-2", "2.0", " 2", 4, None, True])
def test_rejects_header_characteristics_that_are_not_prime(char):
    with pytest.raises(DatasetError, match=r"^line 1: characteristic .* is not 'any', 0 or a prime below 2\^31$"):
        loads(_text(dict(HEADER, characteristic=char), [_rec()]))


@pytest.mark.parametrize("char,want", [("any", "any"), ("", ""), ("0", "0"), ("2", "2"), (3, "3"), ("7", "7")])
def test_accepts_any_zero_or_a_prime_characteristic(char, want):
    assert loads(_text(dict(HEADER, characteristic=char), [_rec()])).characteristic == want


def test_is_prime_below_two_to_the_31():
    assert [p for p in range(-3, 30) if classdata.is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert classdata.is_prime(2**31 - 1) and not classdata.is_prime(2**31 + 11)


def test_rejects_deeply_nested_line():
    with pytest.raises(DatasetError, match="line 2: JSON nested too deeply"):
        loads(json.dumps(HEADER) + "\n" + "[" * 100000 + "]" * 100000)


def test_shipped_datasets_all_load():
    names = classdata.shipped_datasets()
    assert {"g2_na2", "f4_b4", "e6_f4", "e8_a1e7", "e7_a7_p2"} <= set(names)
    for name in names:
        ds = load_shipped(name)
        assert ds.records
        assert not ds.complete  # curated samples advertise incompleteness
        assert ds.sup_ratio == ds.expected_sup_ratio


def test_shipped_e8_sample_row():
    ds = load_shipped("e8_a1e7")
    by_label = {r.class_label: r for r in ds.records}
    r = by_label["order 3, centralizer E7T1"]
    assert r.dim_class_in_G == 114 and r.dim_intersection_with_H <= 58


def test_dataset_path_env_override(tmp_path, monkeypatch):
    target = tmp_path / "mini.jsonl"
    target.write_text(_text(HEADER, [_rec()]))
    monkeypatch.setenv(classdata.DATA_DIR_ENV, str(tmp_path))
    assert classdata.dataset_path("mini") == target
    ds = classdata.load_dataset(classdata.dataset_path("mini"))
    assert ds.group == "G2"

