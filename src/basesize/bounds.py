"""Bound machinery for the three base measures.

Both upper bounds read one fixed-point criterion, evaluated in
``_least_c``.  For a class x of prime order let g = dim x^G and
h = dim(x^G meet H); c points suffice once every relevant class meets the
strict form c*h < (c-1)*g.  The weak form c*h <= (c-1)*g is allowed for
long-root records in b1 under the long-root refinement, and for unipotent
records (those of order p included) in b0, whose semisimple records meet the
strict form in one prime family r != p.

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

from .classdata import ClassFusionRecord, is_prime


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
    """The record of largest intersection ratio; every entry point takes it
    first, so each refuses an empty list with one message."""
    if not records:
        raise BoundInputError("no records: supremum over an empty set")
    return max(records, key=lambda r: r.ratio)


def _least_c(records: Sequence[ClassFusionRecord], weak) -> tuple[int | None, ClassFusionRecord | None]:
    """Smallest c >= 2 at which every record meets the criterion, with the
    first record that needs that c (None when c = 2); (None, r) for the
    first record r of ratio 1, which no c meets."""
    c, needs = 2, None
    for r in records:
        g, h = r.dim_class_in_G, r.dim_intersection_with_H
        if h >= g:
            return None, r
        # c*h < (c-1)*g iff c*(g-h) > g; the weak form allows equality
        c_r = -(-g // (g - h)) if weak(r) else g // (g - h) + 1
        if c_r > c:
            c, needs = c_r, r
    return c, needs


def upper_bound_b1(
    records: Sequence[ClassFusionRecord],
    long_root_refinement: bool = False,
) -> BoundResult | Inconclusive:
    """Smallest c certified for the generic base size: every record meets
    the strict form, or the weak one with the refinement and a long root."""
    sup = _sup_record(records)
    c, r = _least_c(records, lambda r: long_root_refinement and r.is_long_root)
    if c is None:
        return Inconclusive("upper_b1", f"record {r.class_label!r} has intersection ratio >= 1; "
                            "no c satisfies the criterion", sup.ratio)
    return BoundResult(
        kind="upper_b1",
        value=c,
        witness=f"binding record: {(r or sup).class_label}",
        q_at_value=Fraction(c, c - 1) * sup.ratio,
    )


def upper_bound_b0(records: Sequence[ClassFusionRecord], p: int) -> BoundResult | Inconclusive:
    """Smallest c certified for the connected base size in characteristic
    p, 0 or a prime; records of order p count as unipotent."""
    sup = _sup_record(records)
    if p != 0 and not is_prime(p):
        raise BoundInputError(f"p = {p} is neither 0 nor a prime below 2^31")

    def is_unip(r: ClassFusionRecord) -> bool:
        return r.element_kind == "unipotent" or (p > 0 and r.element_order == p)

    families: dict[int, list[ClassFusionRecord]] = {}
    for r in records:
        if not is_unip(r) and r.element_order > 1:
            families.setdefault(r.element_order, []).append(r)
    if not families:
        return Inconclusive("upper_b0", f"no semisimple records of prime order != {p} available", sup.ratio)
    c_unip, r = _least_c([r for r in records if is_unip(r)], lambda r: True)
    if c_unip is None:
        return Inconclusive("upper_b0", f"unipotent record {r.class_label!r} has ratio >= 1", sup.ratio)
    # the least c over the unblocked prime families, then the least prime
    open_families = [(c, q) for q, fam in families.items() if (c := _least_c(fam, lambda r: False)[0])]
    if not open_families:
        return Inconclusive("upper_b0", "every available prime family contains a ratio-1 record", sup.ratio)
    c_prime, prime = min(open_families)
    value = max(c_unip, c_prime)
    return BoundResult(
        kind="upper_b0",
        value=value,
        witness=f"strict prime family r={prime}; unipotent classes weakly below",
        q_at_value=Fraction(value, value - 1) * sup.ratio,
    )
