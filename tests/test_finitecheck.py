from itertools import product

import numpy as np
import pytest

from basesize import finitecheck as fc, genstab, linalg
from basesize.formulas import ActionSpec, NonSubspace, Subspace, nonsubspace_triple, subspace_triple


def test_pgl2_orders():
    for q in (5, 7):
        a = fc.pgl2_line_action(q)
        assert a.order == q * (q * q - 1)
        assert len(a.points) == q + 1


def test_pgl2_5_base_size_three():
    # sharply 3-transitive: pairs never suffice, triples always do
    a = fc.pgl2_line_action(5)
    assert fc.exact_base_size(a, seed=1) == 3
    assert fc.stabilizer_order(a, (0, 1, 2)) == 1
    assert fc.stabilizer_order(a, (0, 1)) == 4


def test_base_size_invariant_under_conjugation():
    q = 5
    a = fc.pgl2_line_action(q)
    g = ((2, 1), (1, 1))
    ginv_num = ((1, q - 1), (q - 1, 2))  # adj(g) works projectively
    gens = [fc.mat_mul(fc.mat_mul(g, m, q), ginv_num, q) for m in fc.gl2_generators(q)]
    pts = fc.projective_line(q)
    to_index = {pt: i for i, pt in enumerate(pts)}

    def apply_pt(m, pt):
        return fc._canon_projective(fc.mat_vec(m, pt, q), q)

    perms = [fc._perm_of_matrix(m, pts, to_index, apply_pt) for m in gens]
    b = fc.PermAction("conjugated", pts, fc.close_perm_group(perms), q)
    assert b.order == a.order
    assert fc.exact_base_size(b, seed=1) == fc.exact_base_size(a, seed=1)


def test_stabilizer_order_divides_group_order():
    a = fc.pgl2_pairs_action(5)
    import random

    rng = random.Random(0)
    for _ in range(10):
        tup = tuple(rng.sample(range(len(a.points)), 2))
        assert a.order % fc.stabilizer_order(a, tup) == 0


def test_empty_tuple_stabilizer_is_whole_group():
    a = fc.pgl2_line_action(5)
    assert fc.stabilizer_order(a, ()) == a.order


def test_torus_normalizer_generic_pair_order_two():
    for q in (5, 7):
        a = fc.pgl2_pairs_action(q)
        order = fc.generic_tuple_stabilizer_order(
            a, 2, seed=1, general_position=fc.disjoint_pairs
        )
        assert order == 2


def test_pair_with_stabilizer_exactly_two_exists():
    a = fc.pgl2_pairs_action(7)
    found = any(
        fc.stabilizer_order(a, (i, j)) == 2
        for i in range(len(a.points))
        for j in range(len(a.points))
        if i != j
    )
    assert found


def test_enumeration_bound():
    with pytest.raises(fc.EnumerationBoundExceeded):
        fc.pgl2_line_action(11, bound=100)


def test_sp4_decomposition_action_shape():
    a = fc.sp4_decomposition_action(3)
    assert len(a.points) == 45
    assert a.order == 25920  # the faithful image (scalars act trivially)


def test_sp4_base_size_and_cross_check():
    a = fc.sp4_decomposition_action(3)
    base = fc.exact_base_size(a, seed=3)
    triple = nonsubspace_triple(
        ActionSpec("Sp", NonSubspace("Sp_{n/2} wr S2"), n=4, char="odd")
    )
    report = fc.cross_check_relations(triple, base, q=3)
    assert report["ok"] and report["applicable"]
    assert base == 4


def test_cross_check_violation_raises():
    triple = subspace_triple(ActionSpec("SL", Subspace(2), n=4))
    with pytest.raises(fc.RelationViolation):
        fc.cross_check_relations(triple, 2, q=5)


def test_cross_check_skips_q2():
    triple = subspace_triple(ActionSpec("SL", Subspace(2), n=4))
    report = fc.cross_check_relations(triple, 2, q=2)
    assert report["ok"] and not report["applicable"]


def test_sl2_11_two_forms_stabilizer_is_center():
    order, stab = fc.sl2_two_form_stabilizer(11, seed=2)
    assert order == 2
    eye = fc.identity(2)
    neg = tuple(tuple((-x) % 11 for x in row) for row in eye)
    assert set(stab) == {eye, neg}


def _subspace_tuple_stabilizer_order(n, q, bases):
    """Order of the joint stabilizer of the subspaces in SL_n(q), counted
    over the algebra of matrices preserving every subspace, or None when
    that algebra is too large to enumerate."""
    system = np.concatenate([genstab._part_rows(b, "SL", None, q) for b in bases]) % q
    basis = linalg.nullspace_basis_mod(system, q)
    if q ** len(basis) > fc.DEFAULT_ELEMENT_BOUND:
        return None
    return sum(
        linalg.det_mod((np.array(coeffs, dtype=np.int64) @ basis % q).reshape(n, n), q) == 1
        for coeffs in product(range(q), repeat=len(basis))
    )


def test_sl4_3_generic_subspace_tuple_has_scalar_stabilizer():
    # consistency with the zero-dimensional generic stabilizer at c = 5:
    # some 5-tuple of 2-subspaces over F_3 is stabilized by scalars alone
    rng = np.random.default_rng(1)
    for _ in range(50):
        bases = [rng.integers(0, 3, size=(4, 2)) for _ in range(5)]
        if any(linalg.rank_mod(b, 3) < 2 for b in bases):
            continue  # a part that spans no 2-subspace
        order = _subspace_tuple_stabilizer_order(4, 3, bases)
        if order == 2:
            break
    else:
        pytest.fail("no generic 5-tuple found")
    # the scalar count in SL_4(F_3): lambda with lambda^4 = 1 -> {1, 2}
    assert order == 2


def test_exact_base_size_is_the_least_base_length():
    from itertools import combinations

    for action in (fc.pgl2_line_action(5), fc.pgl2_pairs_action(5), fc.pgl2_line_action(7)):
        m = len(action.points)
        least = next(
            c for c in range(1, m + 1)
            if any(fc.stabilizer_order(action, tup) == 1 for tup in combinations(range(m), c))
        )
        assert fc.exact_base_size(action) == least
