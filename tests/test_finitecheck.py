import hashlib
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
    g = np.array([[2, 1], [1, 1]])
    ginv_num = np.array([[1, q - 1], [q - 1, 2]])  # adj(g) works projectively
    pts = fc.projective_line(q)

    def index(v):
        # position of the projective point v in projective_line(q)
        x, y = (int(t) % q for t in v)
        return y * pow(x, q - 2, q) % q if x else q

    perms = [[index(g @ m @ ginv_num @ pt) for pt in pts] for m in fc.gl2_generators(q)]
    b = fc.PermAction(pts, fc.close_perm_group(perms))
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


@pytest.mark.parametrize("q,length", [(11, 6), (13, 7)])
def test_no_tuple_in_general_position_is_a_request_error(q, length):
    # length disjoint pairs cover all q + 1 points, which a random tuple of
    # pairs almost never does
    a = fc.pgl2_pairs_action(q)
    with pytest.raises(fc.NoGeneralPosition, match=f"none of 10000 random {length}-tuples") as e:
        fc.generic_tuple_stabilizer_order(a, length, seed=0, general_position=fc.disjoint_pairs)
    assert isinstance(e.value, ValueError)


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


def test_bound_admits_a_group_of_exactly_that_order():
    # PGL_2(7) and SL_2(7) have 7^3 - 7 = 336 elements
    assert fc.pgl2_pairs_action(7, bound=336).order == 336
    assert fc.sl2_two_form_stabilizer(7, bound=336)[0] == 2
    with pytest.raises(fc.EnumerationBoundExceeded):
        fc.pgl2_pairs_action(7, bound=335)
    with pytest.raises(fc.EnumerationBoundExceeded):
        fc.sl2_two_form_stabilizer(7, bound=335)


def test_sl2_listing_is_the_whole_group_in_order():
    for q in (2, 3, 5):
        g = fc._sl2_elements(q)
        want = [m for m in product(range(q), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % q == 1]
        assert [tuple(m.ravel().tolist()) for m in g] == want


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
    eye = np.eye(2, dtype=np.int64)
    neg = (-eye) % 11
    assert {m.tobytes() for m in stab} == {eye.tobytes(), neg.tobytes()}


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


def _action_digest(action):
    h = hashlib.sha256()
    h.update(repr(action.points).encode())
    h.update(action.perms.tobytes())
    h.update(repr(action.perms.shape).encode())
    return h.hexdigest()[:16]


def _forms_digest(q, seed):
    order, stab = fc.sl2_two_form_stabilizer(q, seed=seed)
    elements = [[[int(x) for x in row] for row in m] for m in stab]
    return hashlib.sha256(repr((order, elements)).encode()).hexdigest()[:16]


# SHA-256 prefixes of (points, perms bytes, perms shape) for each action and
# of (order, elements) for the two-form stabilizers: any change to how the
# groups are listed must keep every point label and permutation row in place.
_ACTION_DIGESTS = {
    ("line", 3): "683b6ebbefae5bce",
    ("pairs", 3): "70236359be844f89",
    ("line", 5): "39dee69c75f41794",
    ("pairs", 5): "3be55fcc9e8d0066",
    ("line", 7): "b7e62c6cd373ed38",
    ("pairs", 7): "144490d700c72c55",
    ("line", 11): "2c9e255c37e96ad2",
    ("pairs", 11): "d9f3cd92a7443f78",
    ("line", 13): "1d957580445bb0b6",
    ("pairs", 13): "5352c5e71017dec3",
    ("sp4", 2): "87c7b2ba8f116a16",
    ("sp4", 3): "ad9ee4ac4fba3fde",
}
_FORMS_DIGESTS = {
    (2, 0): "aff7b523868e714e", (2, 1): "bfe16684c0eb0064", (2, 2): "bfe16684c0eb0064", (2, 7): "cf12519bcf1eb871",
    (3, 0): "7ae40f7d9bd4eb31", (3, 1): "7ae40f7d9bd4eb31", (3, 2): "7ae40f7d9bd4eb31", (3, 7): "7ae40f7d9bd4eb31",
    (5, 0): "dc3de7b940544607", (5, 1): "dc3de7b940544607", (5, 2): "dc3de7b940544607", (5, 7): "dc3de7b940544607",
    (7, 0): "5c4f4e9a2627f49d", (7, 1): "5c4f4e9a2627f49d", (7, 2): "5c4f4e9a2627f49d", (7, 7): "5c4f4e9a2627f49d",
    (11, 0): "4f5ba6e741c7969c", (11, 1): "4f5ba6e741c7969c", (11, 2): "4f5ba6e741c7969c", (11, 7): "4f5ba6e741c7969c",
    (13, 0): "14d0b79fa1fdc11f", (13, 1): "14d0b79fa1fdc11f", (13, 2): "14d0b79fa1fdc11f", (13, 7): "14d0b79fa1fdc11f",
}


def test_finite_actions_are_pinned():
    build = {"line": fc.pgl2_line_action, "pairs": fc.pgl2_pairs_action, "sp4": fc.sp4_decomposition_action}
    got = {(kind, q): _action_digest(build[kind](q)) for kind, q in _ACTION_DIGESTS}
    assert got == _ACTION_DIGESTS
    got = {(q, seed): _forms_digest(q, seed) for q, seed in _FORMS_DIGESTS}
    assert got == _FORMS_DIGESTS
