from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from basesize import bounds
from basesize.bounds import (
    BoundInputError,
    BoundResult,
    Inconclusive,
    lower_bound_b0,
    upper_bound_b0,
    upper_bound_b1,
)
from basesize.classdata import ClassFusionRecord, load_shipped


def rec(g, h, kind="unipotent", order=0, long=False, label=None):
    return ClassFusionRecord(
        group="G2",
        subgroup_label="test",
        class_label=label or f"({g},{h})",
        element_kind=kind,
        element_order=order,
        dim_class_in_G=g,
        dim_intersection_with_H=h,
        is_long_root=long,
    )


# -- lower bound -------------------------------------------------------------

@pytest.mark.parametrize(
    "dim_g,dim_o,want", [(78, 40, 2), (52, 16, 4), (133, 27, 5), (14, 5, 3)]
)
def test_lower_bound_values(dim_g, dim_o, want):
    assert lower_bound_b0(dim_g, dim_o) == want


def test_lower_bound_rejects_nonpositive_quotient():
    with pytest.raises(BoundInputError):
        lower_bound_b0(10, 0)


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_lower_bound_is_ceiling(dim_g, dim_o):
    c = lower_bound_b0(dim_g, dim_o)
    assert (c - 1) * dim_o < dim_g <= c * dim_o


# -- the criterion quantity --------------------------------------------------

@pytest.mark.parametrize(
    "bound", [lambda: upper_bound_b1([]), lambda: upper_bound_b1([], long_root_refinement=True),
              lambda: upper_bound_b0([], p=0), lambda: upper_bound_b0([], p=2), lambda: upper_bound_b0([], p=4)],
    ids=["b1", "b1-refined", "b0-char0", "b0-char2", "b0-char4"],
)
def test_upper_bounds_refuse_no_records(bound):
    with pytest.raises(BoundInputError, match="^no records: supremum over an empty set$"):
        bound()


@pytest.mark.parametrize("p", [1, 4, 9, -3, 2**31 + 1])
def test_b0_refuses_a_characteristic_that_is_neither_0_nor_prime(p):
    recs = [rec(10, 4), rec(12, 5, kind="semisimple", order=3)]
    with pytest.raises(BoundInputError, match=f"^p = {p} is neither 0 nor a prime below 2"):
        upper_bound_b0(recs, p=p)


# -- generic upper bound -----------------------------------------------------

def g2_records():
    return list(load_shipped("g2_na2").records)


def test_b1_without_refinement():
    out = upper_bound_b1(g2_records(), long_root_refinement=False)
    assert isinstance(out, BoundResult)
    assert out.value == 4
    assert out.q_at_value < 1


def test_b1_with_long_root_refinement():
    out = upper_bound_b1(g2_records(), long_root_refinement=True)
    assert out.value == 3


def test_b1_f4_dataset():
    recs = list(load_shipped("f4_b4").records)
    assert upper_bound_b1(recs, True).value == 4
    assert upper_bound_b1(recs, False).value == 5


def test_refinement_never_hurts():
    for name in ("g2_na2", "f4_b4", "e6_f4", "e8_a1e7", "e7_a7_p2"):
        recs = list(load_shipped(name).records)
        off = upper_bound_b1(recs, False)
        on = upper_bound_b1(recs, True)
        assert isinstance(off, BoundResult) and isinstance(on, BoundResult)
        assert off.value >= on.value


def test_b1_inconclusive_on_ratio_one():
    out = upper_bound_b1([rec(5, 5)], long_root_refinement=False)
    assert isinstance(out, Inconclusive)
    assert out.sup_ratio == 1


# -- connected upper bound ---------------------------------------------------

def test_b0_e7_characteristic_two_dataset():
    recs = list(load_shipped("e7_a7_p2").records)
    out = upper_bound_b0(recs, p=2)
    assert isinstance(out, BoundResult)
    assert out.value == 2


def test_b0_all_ratios_below_half():
    recs = [rec(10, 4), rec(12, 5, kind="semisimple", order=3)]
    assert upper_bound_b0(recs, p=2).value == 2


def test_b0_semisimple_equality_forces_three():
    recs = [rec(10, 4), rec(12, 6, kind="semisimple", order=3)]
    assert upper_bound_b0(recs, p=2).value == 3


def test_b0_needs_an_off_characteristic_prime():
    recs = [rec(10, 4), rec(12, 5, kind="semisimple", order=3)]
    out = upper_bound_b0(recs, p=3)  # the only semisimple family is r = p
    assert isinstance(out, Inconclusive)


def test_b0_unipotent_equality_is_tolerated():
    recs = [rec(10, 5), rec(12, 5, kind="semisimple", order=3)]
    assert upper_bound_b0(recs, p=2).value == 2


# -- sandwich consistency on shipped data ------------------------------------

def test_sandwich_g2():
    # dim G2 = 14, dim H = 8, true triple (3,3,3)
    lb = lower_bound_b0(14, 14 - 8)
    ub = upper_bound_b1(g2_records(), True).value
    assert lb <= 3 <= 3 <= ub == 3


def test_sandwich_e8():
    # dim E8 = 248, dim A1E7 = 136, true triple (3,3,3)
    recs = list(load_shipped("e8_a1e7").records)
    lb = lower_bound_b0(248, 248 - 136)
    ub = upper_bound_b1(recs, False).value
    assert lb == 3 and ub == 3


def test_sandwich_f4():
    # dim F4 = 52, dim B4 = 36, true triple (4,4,4)
    recs = list(load_shipped("f4_b4").records)
    lb = lower_bound_b0(52, 52 - 36)
    ub = upper_bound_b1(recs, True).value
    assert lb == 4 and ub == 4


# -- both criteria against a scan of c = 2, 3, ... ---------------------------

@st.composite
def _records(draw):
    recs = []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("unipotent", "semisimple", "mixed-coset")))
        g = draw(st.integers(1, 60))
        recs.append(rec(g, draw(st.integers(0, g)), kind=kind,
                        order=draw(st.sampled_from((0, 2, 3, 5, 7))),
                        long=kind == "unipotent" and draw(st.booleans()), label=f"x{i}"))
    return recs


def _blocked(family):
    """The first record whose ratio is 1: no c meets it, strictly or weakly."""
    return next((r for r in family if r.dim_intersection_with_H >= r.dim_class_in_G), None)


def _scan(family, weak):
    """Least c >= 2 met by every record of a family with no ratio-1 record,
    and the first record that fails at c - 1 (None when c = 2)."""
    def ok(r, c):
        lhs, rhs = c * r.dim_intersection_with_H, (c - 1) * r.dim_class_in_G
        return lhs <= rhs if weak(r) else lhs < rhs

    c = 2
    while not all(ok(r, c) for r in family):
        c += 1
    return c, next((r for r in family if c > 2 and not ok(r, c - 1)), None)


@given(_records(), st.booleans())
def test_b1_matches_a_scan_of_c(recs, refine):
    sup = max(recs, key=lambda r: r.ratio)
    out = upper_bound_b1(recs, long_root_refinement=refine)
    blocked = _blocked(recs)
    if blocked is not None:
        assert out == Inconclusive(
            "upper_b1",
            f"record {blocked.class_label!r} has intersection ratio >= 1; no c satisfies the criterion",
            sup.ratio,
        )
        return
    c, binding = _scan(recs, lambda r: refine and r.is_long_root)
    assert out == BoundResult(
        "upper_b1", c, f"binding record: {(binding or sup).class_label}", Fraction(c, c - 1) * sup.ratio
    )


@given(_records(), st.sampled_from((0, 2, 3, 5)))
def test_b0_matches_a_scan_of_c(recs, p):
    sup = max(r.ratio for r in recs)
    out = upper_bound_b0(recs, p=p)

    def is_unip(r):
        return r.element_kind == "unipotent" or (p > 0 and r.element_order == p)

    unipotent = [r for r in recs if is_unip(r)]
    families = {q: [r for r in recs if not is_unip(r) and r.element_order == q] for q in (2, 3, 5, 7)}
    families = {q: fam for q, fam in families.items() if fam and q != p}
    if not families:
        assert out == Inconclusive("upper_b0", f"no semisimple records of prime order != {p} available", sup)
        return
    blocked = _blocked(unipotent)
    if blocked is not None:
        assert out == Inconclusive("upper_b0", f"unipotent record {blocked.class_label!r} has ratio >= 1", sup)
        return
    c_unip, _ = _scan(unipotent, lambda r: True)
    open_families = sorted((_scan(fam, lambda r: False)[0], q) for q, fam in families.items() if not _blocked(fam))
    if not open_families:
        assert out == Inconclusive("upper_b0", "every available prime family contains a ratio-1 record", sup)
        return
    c_prime, prime = open_families[0]  # least c, then least prime
    value = max(c_unip, c_prime)
    assert out == BoundResult(
        "upper_b0", value, f"strict prime family r={prime}; unipotent classes weakly below",
        Fraction(value, value - 1) * sup,
    )
