"""Curated conjugacy-class dimension datasets and the involution table.

Datasets are line-oriented JSON: the first line is a header object, every
following non-blank line is one class record.  The header carries the
expected supremum of dim(x^G meet H) / dim x^G over the listed records,
which the loader re-derives and cross-checks.  Shipped files are curated
samples, not complete class lists; each header says so via ``complete``.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import rootsys

SCHEMA_VERSION = 1

ELEMENT_KINDS = ("unipotent", "semisimple", "mixed-coset")


class DatasetError(ValueError):
    """Parse or invariant failure, annotated with a line number."""


@dataclass(frozen=True)
class ClassFusionRecord:
    """One conjugacy class x with dim x^G and dim(x^G meet H)."""

    group: str
    subgroup_label: str
    class_label: str
    element_kind: str  # one of ELEMENT_KINDS
    element_order: int  # prime, or 0 for unipotent in characteristic 0
    dim_class_in_G: int
    dim_intersection_with_H: int
    is_long_root: bool = False
    charp_condition: str | None = None
    excludable_sembd: bool = False

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.dim_intersection_with_H, self.dim_class_in_G)


@dataclass(frozen=True)
class Dataset:
    group: str
    subgroup_label: str
    characteristic: str  # "any" or a prime rendered as a string
    expected_sup_ratio: Fraction
    claim: str
    complete: bool
    records: tuple[ClassFusionRecord, ...]

    @property
    def sup_ratio(self) -> Fraction:
        return max(r.ratio for r in self.records)


_HEADER_FIELDS = ("group", "subgroup_label", "expected_sup_ratio")
_RECORD_FIELDS = ("class_label", "element_kind", "element_order", "dim_class_in_G", "dim_intersection_with_H")


def _require(obj: dict, fields: tuple[str, ...], lineno: int) -> None:
    for key in fields:
        if key not in obj:
            raise DatasetError(f"line {lineno}: missing field {key!r}")


def _parse_fraction(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    num, _, den = str(s).partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _validate_record(rec: ClassFusionRecord, max_class_dim: int, lineno: int) -> None:
    def fail(msg: str):
        raise DatasetError(f"line {lineno}: {msg}")

    if rec.element_kind not in ELEMENT_KINDS:
        fail(f"unknown element_kind {rec.element_kind!r}")
    if rec.element_order < 0:
        fail("element_order must be a prime or 0")
    if rec.dim_class_in_G < 1:
        fail("dim_class_in_G must be positive for a nontrivial class")
    if not 0 <= rec.dim_intersection_with_H <= rec.dim_class_in_G:
        fail(
            f"dim_intersection_with_H={rec.dim_intersection_with_H} outside "
            f"[0, dim_class_in_G={rec.dim_class_in_G}]"
        )
    if rec.dim_class_in_G > max_class_dim:
        fail(
            f"dim_class_in_G={rec.dim_class_in_G} exceeds the class dimension "
            f"bound dim G - rank = {max_class_dim}"
        )
    if rec.is_long_root and rec.element_kind != "unipotent":
        fail("is_long_root requires element_kind=unipotent")


def loads(text: str) -> Dataset:
    """Parse and validate a dataset from JSONL text."""
    lines = text.splitlines()
    header = None
    records: list[ClassFusionRecord] = []
    max_class_dim = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise DatasetError(f"line {lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(obj, dict):
            raise DatasetError(f"line {lineno}: not a JSON object")
        if header is None:
            if obj.get("schema") != SCHEMA_VERSION:
                raise DatasetError(
                    f"line {lineno}: unsupported schema {obj.get('schema')!r}"
                )
            _require(obj, _HEADER_FIELDS, lineno)
            header = obj
            try:
                expected_sup_ratio = _parse_fraction(header["expected_sup_ratio"])
                fam, rank = rootsys._group_type(header["group"])
            except (TypeError, ValueError, ZeroDivisionError) as e:
                raise DatasetError(f"line {lineno}: {e}") from e
            max_class_dim = rootsys.dim_group(rootsys.build_root_system(fam, rank)) - rank
            continue
        _require(obj, _RECORD_FIELDS, lineno)
        try:
            rec = ClassFusionRecord(
                group=header["group"],
                subgroup_label=header["subgroup_label"],
                class_label=obj["class_label"],
                element_kind=obj["element_kind"],
                element_order=int(obj["element_order"]),
                dim_class_in_G=int(obj["dim_class_in_G"]),
                dim_intersection_with_H=int(obj["dim_intersection_with_H"]),
                is_long_root=bool(obj.get("is_long_root", False)),
                charp_condition=obj.get("charp_condition"),
                excludable_sembd=bool(obj.get("excludable_sembd", False)),
            )
        except (TypeError, ValueError) as e:
            raise DatasetError(f"line {lineno}: {e}") from e
        _validate_record(rec, max_class_dim, lineno)
        records.append(rec)
    if header is None:
        raise DatasetError("line 1: missing header")
    if not records:
        raise DatasetError("dataset carries no records")
    ds = Dataset(
        group=header["group"],
        subgroup_label=header["subgroup_label"],
        characteristic=str(header.get("characteristic", "any")),
        expected_sup_ratio=expected_sup_ratio,
        claim=header.get("claim", ""),
        complete=bool(header.get("complete", False)),
        records=tuple(records),
    )
    if ds.sup_ratio != ds.expected_sup_ratio:
        raise DatasetError(
            f"header expected_sup_ratio={ds.expected_sup_ratio} but records "
            f"attain {ds.sup_ratio}"
        )
    return ds


def load_dataset(path: str | Path) -> Dataset:
    return loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# Shipped datasets

_DATA_DIR = Path(__file__).parent / "data"
DATA_DIR_ENV = "BASESIZE_DATA_DIR"


def dataset_path(name: str) -> Path:
    """Resolve a dataset name: $BASESIZE_DATA_DIR first, then shipped data."""
    fname = name if name.endswith(".jsonl") else f"{name}.jsonl"
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        cand = Path(env) / fname
        if cand.exists():
            return cand
    cand = _DATA_DIR / fname
    if cand.exists():
        return cand
    raise FileNotFoundError(f"no dataset named {name!r}")


def shipped_datasets() -> list[str]:
    return sorted(p.stem for p in _DATA_DIR.glob("*.jsonl"))


def load_shipped(name: str) -> Dataset:
    return load_dataset(dataset_path(name))


# ---------------------------------------------------------------------------
# Involutions inverting a maximal torus (p != 2)

@dataclass(frozen=True)
class InvolutionRecord:
    """The involution class that inverts a maximal torus, per simple type."""

    group: str
    centralizer_type: str
    involution_kind: str  # "inner" or "graph"
    inverts_maximal_torus: bool


def involution_record(family: str, rank: int) -> InvolutionRecord:
    """Table row for the torus-inverting involution of the given simple
    type, assuming characteristic != 2."""
    rootsys.validate_type(family, rank)
    name = f"{family}{rank}"
    if family == "A":
        return InvolutionRecord(
            name, f"SO{rank + 1}", "inner" if rank == 1 else "graph", True
        )
    if family == "B":
        return InvolutionRecord(name, f"SO{rank + 1}xSO{rank}", "inner", True)
    if family == "C":
        return InvolutionRecord(name, f"GL{rank}", "inner", True)
    if family == "D":
        return InvolutionRecord(
            name, f"SO{rank}xSO{rank}", "inner" if rank % 2 == 0 else "graph", True
        )
    exceptional = {
        "E8": ("D8", "inner"),
        "E7": ("A7", "inner"),
        "E6": ("C4", "graph"),
        "F4": ("A1C3", "inner"),
        "G2": ("A1~A1", "inner"),
    }
    cent, kind = exceptional[name]
    return InvolutionRecord(name, cent, kind, True)
