import hashlib
import math
from itertools import combinations, permutations, product

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


def _line_index(v, q):
    # position of the projective point v in projective_line(q)
    x, y = (int(t) % q for t in v)
    return y * pow(x, q - 2, q) % q if x else q


def _pgl2_generators(q, g=np.eye(2, dtype=np.int64), g_adj=np.eye(2, dtype=np.int64)):
    """Generators of PGL_2(q) on the line: a transvection, a Weyl element and
    diag(z, 1), z a primitive root, conjugated by g (whose adjugate inverts
    it projectively)."""
    z = next(z for z in range(1, q) if len({pow(z, k, q) for k in range(q - 1)}) == q - 1)
    gens = [np.array(m) for m in ([[1, 1], [0, 1]], [[0, q - 1], [1, 0]], [[z, 0], [0, 1]])]
    return [[_line_index(g @ m @ g_adj @ pt, q) for pt in fc.projective_line(q)] for m in gens]


def _closed_pgl2(q, g=np.eye(2, dtype=np.int64), g_adj=np.eye(2, dtype=np.int64)):
    """Reference PGL_2(q) on the line: its generators closed by breadth-first search."""
    return fc.PermAction(fc.projective_line(q), fc.close_perm_group(_pgl2_generators(q, g, g_adj)))


def _sorted_rows(perms):
    """The rows of ``perms`` in lexicographic order, checked to be distinct:
    the builders list each element once, in no particular order."""
    rows = perms[np.lexsort(perms.T[::-1])]
    assert (rows[1:] != rows[:-1]).any(axis=1).all(), "an element is listed twice"
    return rows


@pytest.mark.parametrize("q", [2, 17])
def test_pgl2_listing_is_the_closure_of_generators(q):
    a, ref = fc.pgl2_line_action(q), _closed_pgl2(q)
    assert a.points == ref.points
    assert (a.perms.dtype, a.perms.shape) == (ref.perms.dtype, ref.perms.shape)
    assert _sorted_rows(a.perms).tobytes() == _sorted_rows(ref.perms).tobytes()


def test_close_perm_group_bound_admits_exactly_the_group_order():
    gens = _pgl2_generators(5)
    assert fc.close_perm_group(gens, bound=120).shape == (120, 6)
    with pytest.raises(fc.EnumerationBoundExceeded):
        fc.close_perm_group(gens, bound=119)


def _unique_line_perms(q):
    """Reference PGL_2(q) on the line: every point's image under SL_2(q) and
    SL_2(q)*diag(1, z), z a non-square, with whole rows sorted and
    deduplicated by np.unique."""
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    g = fc._sl2_elements(q)
    e1 = np.concatenate([g[:, :, 0], g[:, :, 0]])
    e2 = np.concatenate([g[:, :, 1], z * g[:, :, 1] % q])
    inv = np.array([0] + [pow(t, q - 2, q) for t in range(1, q)])
    u, v = np.array(fc.projective_line(q)).T
    x = (e1[:, None, 0] * u + e2[:, None, 0] * v) % q
    y = (e1[:, None, 1] * u + e2[:, None, 1] * v) % q
    return np.unique(np.where(x, y * inv[x] % q, q).astype(np.int32), axis=0)


@pytest.mark.parametrize("q", [17, 19, 23])
def test_line_listing_matches_sorting_whole_rows(q):
    want = _unique_line_perms(q)
    got = fc.pgl2_line_action(q).perms
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert _sorted_rows(got).tobytes() == want.tobytes()
    assert got.flags.c_contiguous  # the base search gathers whole rows


@pytest.mark.parametrize("q", [17, 19])
def test_pairs_listing_matches_sorting_whole_rows(q):
    line = _unique_line_perms(q)
    i, j = np.triu_indices(q + 1, 1)
    pair_index = np.zeros((q + 1, q + 1), dtype=np.int32)
    pair_index[i, j] = pair_index[j, i] = np.arange(i.size)
    want = np.unique(pair_index[line[:, i], line[:, j]], axis=0)
    action = fc.pgl2_pairs_action(q)
    assert action.points == list(zip(i.tolist(), j.tolist()))
    assert (action.perms.dtype, action.perms.shape) == (want.dtype, want.shape)
    assert _sorted_rows(action.perms).tobytes() == want.tobytes()
    assert action.perms.flags.c_contiguous


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_line_images_follow_the_matrix_rule(q):
    # [[a, b], [c, d]] in grid order of ((a, c), b, d), the first column a
    # listed point, sends (u : v) to (ua + vb : uc + vd)
    pts = np.array(fc.projective_line(q))
    k, b, d = np.indices((q + 1, q, q)).reshape(3, -1)
    a, c = pts[k].T
    keep = (a * d - b * c) % q != 0
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    u, v = pts.T
    x = (np.outer(a, u) + np.outer(b, v)) % q
    y = (np.outer(c, u) + np.outer(d, v)) % q
    inv = np.array([0] + [pow(t, q - 2, q) for t in range(1, q)])
    want = np.where(x, y * inv[x] % q, q).astype(np.int32)
    got = fc.pgl2_line_action(q).perms
    assert (got.dtype, got.shape, got.flags.c_contiguous) == (np.dtype(np.int32), want.shape, True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [0, 1, 4, 9])
@pytest.mark.parametrize(
    "build",
    [fc.pgl2_line_action, fc.pgl2_pairs_action, fc.sp4_decomposition_action, fc.sl2_two_form_stabilizer],
)
def test_builders_refuse_q_that_is_not_prime(monkeypatch, build, q):
    def unreachable(*args, **kwargs):
        raise AssertionError("a group was listed over a q that is not prime")

    monkeypatch.setattr(fc, "close_perm_group", unreachable)
    monkeypatch.setattr(fc, "_sl2_elements", unreachable)
    monkeypatch.setattr(fc, "_line_images", unreachable)
    with pytest.raises(ValueError, match=f"^q = {q} is not a prime below 2\\^31$") as info:
        build(q)
    assert not isinstance(info.value, fc.EnumerationBoundExceeded)


def test_base_size_invariant_under_conjugation():
    q = 5
    a = fc.pgl2_line_action(q)
    b = _closed_pgl2(q, np.array([[2, 1], [1, 1]]), np.array([[1, q - 1], [q - 1, 2]]))
    assert b.order == a.order
    assert fc.exact_base_size(b, seed=1) == fc.exact_base_size(a, seed=1)


@pytest.mark.parametrize(
    "build,q,draw",
    [(fc.pgl2_line_action, 7, None), (fc.pgl2_pairs_action, 7, fc.disjoint_pairs),
     (fc.sp4_decomposition_action, 2, None)],
)
def test_results_do_not_depend_on_the_row_order(build, q, draw):
    # perms promises no row order, so nothing computed from it may read one
    import random

    action = build(q)
    shuffled = fc.PermAction(action.points, np.random.default_rng(q).permutation(action.perms))
    assert shuffled.perms.tobytes() != action.perms.tobytes()
    assert fc.exact_base_size(shuffled) == fc.exact_base_size(action)
    rng = random.Random(0)
    for length in (0, 1, 2, 2, 3, 3):
        tup = tuple(rng.sample(range(len(action.points)), length))
        assert fc.stabilizer_order(shuffled, tup) == fc.stabilizer_order(action, tup)
    for seed in (0, 1):
        assert (fc.generic_tuple_stabilizer_order(shuffled, 2, seed=seed, general_position=draw)
                == fc.generic_tuple_stabilizer_order(action, 2, seed=seed, general_position=draw))


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


def _modal_stabilizer_order(action, length, seed, draw):
    """The most common ``stabilizer_order`` over the draws of
    ``generic_tuple_stabilizer_order``, replayed tuple by tuple; a tie
    goes to the smaller order."""
    import random
    from collections import Counter

    rng = random.Random(seed)
    m = len(action.points)
    counts = Counter(
        fc.stabilizer_order(action, tuple(rng.sample(range(m), length)) if draw is None
                            else draw(action.points, length, rng))
        for _ in range(fc.TUPLE_SAMPLES)
    )
    return min(counts, key=lambda order: (-counts[order], order))


@pytest.mark.parametrize(
    "build,q,draw",
    [(fc.pgl2_line_action, 7, None), (fc.pgl2_pairs_action, 7, None),
     (fc.pgl2_pairs_action, 7, fc.disjoint_pairs), (fc.pgl2_pairs_action, 11, fc.disjoint_pairs),
     (fc.sp4_decomposition_action, 3, None)],
)
@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_tuple_stabilizer_order_is_the_modal_per_tuple_order(build, q, draw, length):
    action = build(q)
    for seed in (0, 1, 5):
        assert (fc.generic_tuple_stabilizer_order(action, length, seed=seed, general_position=draw)
                == _modal_stabilizer_order(action, length, seed, draw))


@pytest.mark.parametrize("first", [0, 1])
def test_tuple_stabilizer_tie_goes_to_the_smaller_order(monkeypatch, first):
    # two pairs of line points that share a point, and two that do not
    a = fc.pgl2_pairs_action(5)
    tups = [tuple(a.points.index(pair) for pair in pairs) for pairs in (((0, 1), (0, 2)), ((0, 1), (2, 3)))]
    orders = [fc.stabilizer_order(a, t) for t in tups]
    assert orders[0] != orders[1]
    drawn = iter([tups[first], tups[1 - first]])
    monkeypatch.setattr(fc, "TUPLE_SAMPLES", 2)
    order = fc.generic_tuple_stabilizer_order(a, 2, general_position=lambda points, length, rng: next(drawn))
    assert order == min(orders)


def test_empty_tuple_stabilizer_order_is_the_group_order():
    # |PGL_2(2)| = 6 is not a multiple of 8: the padding bits of a packed
    # row over the group must not count
    assert fc.generic_tuple_stabilizer_order(fc.pgl2_line_action(2), 0) == 6


@pytest.mark.parametrize("q,length", [(7, 2), (11, 6), (13, 7)])
def test_tuple_stabilizer_draws_tuple_samples_disjoint_pairs(q, length):
    # at q + 1 = 2 * length the pairs cover the line, which rejecting random
    # tuples of pairs almost never reached
    a = fc.pgl2_pairs_action(q)
    drawn = []

    def draw(points, length, rng):
        drawn.append(fc.disjoint_pairs(points, length, rng))
        return drawn[-1]

    fc.generic_tuple_stabilizer_order(a, length, seed=0, general_position=draw)
    assert len(drawn) == fc.TUPLE_SAMPLES
    for tup in drawn:
        ends = [x for t in tup for x in a.points[t]]
        assert len(ends) == len(set(ends)) == 2 * length


@pytest.mark.parametrize("q,length", [(3, 3), (7, 5), (7, 9)])
def test_disjoint_pairs_refuses_more_pairs_than_the_line_holds(q, length):
    import random

    a = fc.pgl2_pairs_action(q)
    message = f"^{length} disjoint point pairs need {2 * length} of the {q + 1} points of the line$"
    with pytest.raises(ValueError, match=message):
        fc.disjoint_pairs(a.points, length, random.Random(0))
    with pytest.raises(ValueError, match=message):
        fc.generic_tuple_stabilizer_order(a, length, general_position=fc.disjoint_pairs)


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
        if any(linalg.nullspace_dim_mod(b, 3) for b in bases):
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


def _least_base_by_subsets(action):
    """The least c for which some c points have stabilizer_order 1."""
    m = len(action.points)
    return next(c for c in range(m + 1)
                if any(fc.stabilizer_order(action, tup) == 1 for tup in combinations(range(m), c)))


def _perm_action(rows):
    perms = np.array(rows, dtype=np.int32)
    return fc.PermAction(list(range(perms.shape[1])), perms)


@pytest.mark.parametrize("label,action,want,bound", [
    ("trivial", _perm_action([[0, 1, 2]]), 0, 0),
    ("regular cyclic", _perm_action([[(i + s) % 5 for i in range(5)] for s in range(5)]), 1, 1),
    ("S_4", _perm_action(list(permutations(range(4)))), 3, 3),
    ("two disjoint transpositions", _perm_action([[0, 1, 2, 3], [1, 0, 2, 3], [0, 1, 3, 2], [1, 0, 3, 2]]), 2, 1),
    ("row-shuffled PGL_2(5)",
     fc.PermAction(fc.projective_line(5), np.random.default_rng(3).permutation(fc.pgl2_line_action(5).perms)), 3, 3),
])
def test_exact_base_size_is_the_brute_force_minimum(label, action, want, bound):
    # the search starts at the counting bound, the least c with
    # |G| <= n (n - 1) ... (n - c + 1), and a base may lie above it
    n = len(action.points)
    assert next(c for c in range(n + 1) if math.perm(n, c) >= action.order) == bound, label
    assert fc.exact_base_size(action) == _least_base_by_subsets(action) == want, label


@pytest.mark.parametrize("build,qs,depth", [(fc.pgl2_line_action, (2, 5, 7, 11, 19), 3),
                                            (fc.pgl2_pairs_action, (5, 7, 13), 2)])
def test_base_search_starts_at_the_counting_bound(monkeypatch, build, qs, depth):
    # PGL_2(q) on the q + 1 line points has order (q + 1) q (q - 1), and on
    # the point pairs at most n (n - 1): one search level each (q = 2 is S_3)
    search, top = fc._exists_base, []

    def recorder(sub, c):
        if sub is action.perms:
            top.append(c)
        return search(sub, c)

    monkeypatch.setattr(fc, "_exists_base", recorder)
    for q in qs:
        action, top[:] = build(q), []
        want = 2 if q == 2 else depth
        assert fc.exact_base_size(action) == want and top == [want], q


@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [0, 1, 2], [1, 2, 0]],  # a repeated row, within the count 3 * 2 * 1
    list(permutations(range(3))) * 2,  # 12 rows on 3 points
])
def test_base_search_of_repeated_rows_raises(rows):
    with pytest.raises(RuntimeError, match="the action is not faithful"):
        fc.exact_base_size(_perm_action(rows))


def _action_digest(action):
    h = hashlib.sha256()
    h.update(repr(action.points).encode())
    h.update(_sorted_rows(action.perms).tobytes())
    h.update(repr(action.perms.shape).encode())
    return h.hexdigest()[:16]


def _forms_digest(q, seed):
    order, stab = fc.sl2_two_form_stabilizer(q, seed=seed)
    elements = [[[int(x) for x in row] for row in m] for m in stab]
    return hashlib.sha256(repr((order, elements)).encode()).hexdigest()[:16]


# SHA-256 prefixes of (points, perms rows in lexicographic order, perms
# shape) for each action and of (order, elements) for the two-form
# stabilizers: any change to how the groups are listed must keep every point
# label in place and the same set of permutation rows.
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
