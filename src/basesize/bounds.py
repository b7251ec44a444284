"""Bound machinery for the three base measures.

Everything here is exact: ratios are ``Fraction`` values and all threshold
comparisons are decided by integer cross-multiplication.  The supremum in
the criterion quantity Q(c) = c/(c-1) * sup ratio is taken over the
supplied records only, and results always name the attaining record, so
missing-data risk stays visible.  An inconclusive criterion is returned as
a first-class :class:`Inconclusive` value, never as a sentinel number.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .classdata import ClassFusionRecord


class BoundInputError(ValueError):
    pass


@dataclass(frozen=True)
class BoundResult:
    kind: str  # "lower_b0" | "upper_b1" | "upper_b0"
    value: int
    witness: str
    q_at_value: Fraction | None = None

    def __post_init__(self):
        if self.value < 1:
            raise BoundInputError("bound value must be >= 1")


@dataclass(frozen=True)
class Inconclusive:
    """The criterion cannot certify any c; it is sufficient, not necessary."""

    kind: str
    reason: str
    sup_ratio: Fraction | None = None


def lower_bound_b0(dim_G: int, dim_Omega: int) -> int:
    """ceil(dim G / dim Omega): the orbit-dimension lower bound for the
    connected base size."""
    if dim_Omega <= 0:
        raise BoundInputError(f"dim_Omega must be positive, got {dim_Omega}")
    return -(-dim_G // dim_Omega)


def _sup_record(records: Sequence[ClassFusionRecord]) -> ClassFusionRecord:
    return max(records, key=lambda r: r.ratio)


def q_value(records: Sequence[ClassFusionRecord], c: int) -> Fraction:
    """Exact value of c/(c-1) * sup over records of the intersection ratio."""
    if not records:
        raise BoundInputError("no records: supremum over an empty set")
    if c < 2:
        raise BoundInputError("q_value requires c >= 2")
    return Fraction(c, c - 1) * _sup_record(records).ratio


def _min_c_strict(g: int, h: int) -> int | None:
    """Smallest c >= 2 with c*h < (c-1)*g, or None if none exists."""
    if h >= g:
        return None
    return max(2, g // (g - h) + 1)


def _min_c_weak(g: int, h: int) -> int | None:
    """Smallest c >= 2 with c*h <= (c-1)*g, or None if none exists."""
    if h >= g:
        return None
    return max(2, -(-g // (g - h)))


def upper_bound_b1(
    records: Sequence[ClassFusionRecord],
    long_root_refinement: bool = False,
) -> BoundResult | Inconclusive:
    """Smallest c certified for the generic base size.

    Without the refinement: smallest c >= 2 with Q(c) < 1 for every record.
    With it, long-root records may attain equality
    dim(x^G meet H) = (1 - 1/c) dim x^G without blocking c; every other
    record must still satisfy the strict inequality.
    """
    if not records:
        raise BoundInputError("no records: supremum over an empty set")
    needed = 2
    blocker = None
    for r in records:
        weak_ok = long_root_refinement and r.is_long_root
        c_r = (
            _min_c_weak(r.dim_class_in_G, r.dim_intersection_with_H)
            if weak_ok
            else _min_c_strict(r.dim_class_in_G, r.dim_intersection_with_H)
        )
        if c_r is None:
            return Inconclusive(
                kind="upper_b1",
                reason=(
                    f"record {r.class_label!r} has intersection ratio >= 1; "
                    "no c satisfies the criterion"
                ),
                sup_ratio=_sup_record(records).ratio,
            )
        if c_r > needed:
            needed, blocker = c_r, r
    witness_rec = blocker if blocker is not None else _sup_record(records)
    return BoundResult(
        kind="upper_b1",
        value=needed,
        witness=f"binding record: {witness_rec.class_label}",
        q_at_value=q_value(records, needed),
    )


def upper_bound_b0(records: Sequence[ClassFusionRecord], p: int) -> BoundResult | Inconclusive:
    """Smallest c certified for the connected base size.

    Requires, at c: (i) some prime r != p whose order-r records all satisfy
    the strict inequality, and (ii) every unipotent record satisfies the
    non-strict one.  Records of order p count as unipotent.
    """
    if not records:
        raise BoundInputError("no records: supremum over an empty set")

    def is_unip(r: ClassFusionRecord) -> bool:
        return r.element_kind == "unipotent" or (p > 0 and r.element_order == p)

    unipotent = [r for r in records if is_unip(r)]
    semis: dict[int, list[ClassFusionRecord]] = {}
    for r in records:
        if is_unip(r):
            continue
        if r.element_order > 1 and r.element_order != p:
            semis.setdefault(r.element_order, []).append(r)
    if not semis:
        return Inconclusive(
            kind="upper_b0",
            reason=f"no semisimple records of prime order != {p} available",
            sup_ratio=_sup_record(records).ratio,
        )

    c_unip = 2
    for r in unipotent:
        c_r = _min_c_weak(r.dim_class_in_G, r.dim_intersection_with_H)
        if c_r is None:
            return Inconclusive(
                kind="upper_b0",
                reason=f"unipotent record {r.class_label!r} has ratio >= 1",
                sup_ratio=_sup_record(records).ratio,
            )
        c_unip = max(c_unip, c_r)

    best: tuple[int, int] | None = None  # (c needed, prime)
    for prime, prs in sorted(semis.items()):
        c_p = 2
        ok = True
        for r in prs:
            c_r = _min_c_strict(r.dim_class_in_G, r.dim_intersection_with_H)
            if c_r is None:
                ok = False
                break
            c_p = max(c_p, c_r)
        if ok and (best is None or c_p < best[0]):
            best = (c_p, prime)
    if best is None:
        return Inconclusive(
            kind="upper_b0",
            reason="every available prime family contains a ratio-1 record",
            sup_ratio=_sup_record(records).ratio,
        )
    value = max(c_unip, best[0])
    return BoundResult(
        kind="upper_b0",
        value=value,
        witness=f"strict prime family r={best[1]}; unipotent classes weakly below",
        q_at_value=q_value(records, value),
    )
