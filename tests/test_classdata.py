import json

import pytest

from basesize import classdata
from basesize.classdata import DatasetError, involution_record, load_shipped, loads

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


def test_rejects_long_root_semisimple():
    bad = _rec(element_kind="semisimple", element_order=2)
    with pytest.raises(DatasetError, match="is_long_root"):
        loads(_text(HEADER, [bad]))


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


@pytest.mark.parametrize(
    "family,rank,cent,kind",
    [
        ("C", 4, "GL4", "inner"),
        ("E", 6, "C4", "graph"),
        ("A", 1, "SO2", "inner"),
        ("A", 3, "SO4", "graph"),
        ("D", 4, "SO4xSO4", "inner"),
        ("D", 5, "SO5xSO5", "graph"),
        ("G", 2, "A1~A1", "inner"),
    ],
)
def test_involution_table(family, rank, cent, kind):
    rec = involution_record(family, rank)
    assert rec.centralizer_type == cent
    assert rec.involution_kind == kind
    assert rec.inverts_maximal_torus
