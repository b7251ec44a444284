import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from basesize import linalg

P = 2147483647


def test_rref_rank_small():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.nullspace_dim_mod(a, 7) == 1
    assert linalg.rref_mod(a, 7)[1] == [0, 1]


def test_nullspace_basis_kills_matrix():
    rng = np.random.default_rng(0)
    a = rng.integers(0, P, size=(6, 10), dtype=np.int64)
    basis = linalg.nullspace_basis_mod(a, P)
    assert basis.shape[0] == linalg.nullspace_dim_mod(a, P)
    prod = linalg.matmul_mod(a, basis.T, P)
    assert not prod.any()


def test_det_mod():
    assert linalg.det_mod([[1, 2], [3, 4]], 11) == (4 - 6) % 11
    assert linalg.det_mod([[1, 2], [2, 4]], 11) == 0


def test_det_mod_refuses_a_non_square_matrix_before_eliminating(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a non-square matrix was eliminated")

    monkeypatch.setattr(linalg, "_eliminate", unreachable)
    for a in ([[1, 2, 3], [4, 5, 6]], [[1], [2]]):
        with pytest.raises(ValueError, match="square"):
            linalg.det_mod(a, 11)


def test_echelon_mod_refuses_2_16_columns():
    # its products reach the column count as inner dimension
    assert linalg.EchelonMod(2**16 - 1, P).nullity == 2**16 - 1
    with pytest.raises(ValueError, match="not below 2"):
        linalg.EchelonMod(2**16, P)


def test_matmul_mod_matches_object_arithmetic():
    # the fast path must agree with exact arithmetic near the overflow edge
    rng = np.random.default_rng(2)
    a = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    b = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    exact = np.array((a.astype(object) @ b.astype(object)) % P, dtype=np.int64)
    assert np.array_equal(linalg.matmul_mod(a, b, P), exact)


def test_prime_range_guard():
    with pytest.raises(ValueError):
        linalg.nullspace_dim_mod([[1]], 2**31 + 11)
    with pytest.raises(ValueError):
        linalg.matmul_mod([[1]], [[1]], 2**31 + 11)


def test_matmul_mod_rejects_inner_dimension_2_16():
    # beyond it the int64 accumulation of the low limb could overflow
    a = np.ones((1, 2**16), dtype=np.int64)
    assert linalg.matmul_mod(a[:, 1:], a[:, 1:].T, P)[0, 0] == 2**16 - 1
    with pytest.raises(ValueError, match="inner dimension"):
        linalg.matmul_mod(a, a.T, P)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@pytest.mark.parametrize("size", [11, 550], ids=["percent", "floor-division"])
def test_mod_is_exact_on_every_int64(p, size):
    # both sides of the size rule, at the ends of the int64 range, where
    # (x // p) * p wraps
    top = np.iinfo(np.int64).max
    edges = [-top - 1, -top, -top - 1 + p - 1, -(2**62), -p, -1, 0, 1, p, 2**62, top - 1, top]
    x = np.resize(np.array(edges, dtype=np.int64), size)
    assert linalg._mod(x, p).tolist() == [v % p for v in x.tolist()]


# -- reference: sympy's DomainMatrix over GF(p) ----------------------------------

_PRIMES = (2, 3, 7, 2**31 - 1)


@st.composite
def _matrices(draw):
    """(a, p): square, wide or tall, and rank-deficient as the product of
    factors with a short inner dimension."""
    p = draw(st.sampled_from(_PRIMES))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, p, size=(rows, cols), dtype=np.int64), p
    k = draw(st.integers(0, min(rows, cols) - 1))
    left = rng.integers(0, p, size=(rows, k), dtype=np.int64)
    right = rng.integers(0, p, size=(k, cols), dtype=np.int64)
    return np.array((left.astype(object) @ right.astype(object)) % p, dtype=np.int64), p


def _reference(a, p):
    return DomainMatrix.from_list(a.tolist(), GF(p, symmetric=False))


def _ints(dm):
    return [[int(x) for x in row] for row in dm.to_list()]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_mod_p_routines_match_sympy(case):
    a, p = case
    ref = _reference(a, p)
    assert linalg.nullspace_dim_mod(a, p) == a.shape[1] - ref.rank()
    red, pivots = linalg.rref_mod(a, p)
    ref_red, ref_pivots = ref.rref()
    assert red.tolist() == _ints(ref_red)
    assert pivots == list(ref_pivots)
    # sympy scales its basis vectors differently, so compare the spans
    basis = linalg.nullspace_basis_mod(a, p)
    ref_basis = ref.nullspace()
    assert basis.shape == ref_basis.shape
    assert not ((a.astype(object) @ basis.T.astype(object)) % p).any()
    if basis.size:
        assert _ints(_reference(basis, p).rref()[0]) == _ints(ref_basis.rref()[0])
    if a.shape[0] == a.shape[1]:
        assert linalg.det_mod(a, p) == int(ref.det())
    else:
        with pytest.raises(ValueError, match="square"):
            linalg.det_mod(a, p)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_matmul_mod_matches_object_arithmetic_at_inner_400(seed, extreme):
    p = 2**31 - 1
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(3, 400), dtype=np.int64)
    b = rng.integers(0, p, size=(400, 4), dtype=np.int64)
    if extreme:  # every product and every partial sum at its largest
        a[:], b[:] = p - 1, p - 1
    exact = (a.astype(object) @ b.astype(object)) % p
    assert linalg.matmul_mod(a, b, p).tolist() == exact.tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(_matrices(), min_size=1, max_size=4), st.sampled_from(_PRIMES), st.integers(1, 6))
def test_echelon_mod_matches_rref_of_the_stack(blocks, p, cols):
    # blocks of any shape and rank, cut or tiled to a common width
    blocks = [np.resize(a, (a.shape[0], cols)) % p for a, _ in blocks]
    echelon = linalg.EchelonMod(cols, p)
    for k in range(1, len(blocks) + 1):
        echelon.add(blocks[k - 1])
        red, pivots = linalg.rref_mod(np.concatenate(blocks[:k]), p)
        order = np.argsort(echelon.pivots)
        assert [echelon.pivots[i] for i in order] == pivots
        assert echelon.rows[order].tolist() == red[: len(pivots)].tolist()
        assert echelon.nullity == cols - len(pivots)
        # the rows are stored on the increasing free columns, and are the
        # identity on the pivots
        assert echelon.free.tolist() == sorted(set(range(cols)) - set(pivots))
        assert echelon.rows[:, echelon.pivots].tolist() == np.eye(len(pivots), dtype=np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(_matrices(), min_size=2, max_size=4), st.sampled_from(_PRIMES), st.integers(1, 6))
def test_echelon_nullity_with_is_the_nullity_after_add_and_keeps_nothing(blocks, p, cols):
    # the last block measured by rank alone, after any stack before it
    *head, last = [np.resize(a, (a.shape[0], cols)) % p for a, _ in blocks]
    echelon = linalg.EchelonMod(cols, p)
    for block in head:
        echelon.add(block)
    rows, pivots = echelon.rows.copy(), list(echelon.pivots)
    nullity = echelon.nullity_with(last)
    assert echelon.rows.tolist() == rows.tolist() and echelon.pivots == pivots
    echelon.add(last)
    assert nullity == echelon.nullity == linalg.nullspace_dim_mod(np.concatenate(head + [last]), p)


@pytest.mark.parametrize("p", _PRIMES)
@pytest.mark.parametrize("shape", [(5, 7), (7, 5), (6, 6), (40, 30)], ids=str)  # 40 x 30: _mod's floor division
@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_no_routine_writes_into_its_argument(p, shape, writeable):
    # reduced int64 inputs, read-only as Configuration parts are or not, of
    # full rank and with a repeated row: each routine works on its own copy
    rng = np.random.default_rng(shape[0] * p)
    a = rng.integers(0, p, size=shape, dtype=np.int64)
    a[-1] = a[0]
    b = rng.integers(0, p, size=(shape[1], 4), dtype=np.int64)
    for x in (a, b):
        x.setflags(write=writeable)
    before = a.tobytes(), b.tobytes()
    linalg.rref_mod(a, p)
    linalg.nullspace_dim_mod(a, p)
    linalg.nullspace_basis_mod(a, p)
    linalg.matmul_mod(a, b, p)
    if shape[0] == shape[1]:
        linalg.det_mod(a, p)
    echelon = linalg.EchelonMod(shape[1], p)
    for block in (a[:3], a, b.T):  # an empty echelon, then one with pivots
        echelon.nullity_with(block)
        echelon.add(block)
    assert (a.tobytes(), b.tobytes()) == before


@st.composite
def _large_matrices(draw, p):
    """(a, cuts): a mod p up to 40 x 40, tall or wide with a long side of 12,
    25 or 40, and row cuts of a into blocks.  At p = 2**31 - 1 an extreme
    draw takes entries p - 1 and 1 only: the first pivot rows hold p - 1
    and 1, so their updates multiply (p - 1)**2, near 2**62, and go negative
    before the reduction.  At p in {2, 3} the rows start with zeros of
    random lengths, so rows are swapped and columns skipped.  A product of
    thin factors gives low rank."""
    rows = draw(st.sampled_from((40, 25, 12)))
    cols = draw(st.integers(1, 40))
    if draw(st.booleans()):
        rows, cols = cols, rows
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if p > 3 and draw(st.booleans()):
        a = rng.choice(np.array([1, p - 1], dtype=np.int64), size=(rows, cols), p=[0.2, 0.8])
    elif draw(st.booleans()):
        k = draw(st.integers(0, min(rows, cols)))
        left = rng.integers(0, p, size=(rows, k), dtype=np.int64)
        right = rng.integers(0, p, size=(k, cols), dtype=np.int64)
        a = np.array((left.astype(object) @ right.astype(object)) % p, dtype=np.int64)
    else:
        a = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
    if p <= 3:
        lead = rng.integers(0, cols + 1, size=rows)
        a[np.arange(cols) < lead[:, None]] = 0
    cuts = sorted(draw(st.lists(st.integers(1, rows), max_size=3, unique=True)))
    return a, cuts


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mod_p_routines_match_sympy_up_to_40x40(p, data):
    a, cuts = data.draw(_large_matrices(p))
    ref = _reference(a, p)
    ref_red, ref_pivots = ref.rref()
    rank = len(ref_pivots)
    assert linalg.nullspace_dim_mod(a, p) == a.shape[1] - rank
    red, pivots = linalg.rref_mod(a, p)
    assert pivots == list(ref_pivots)
    assert red.tolist() == _ints(ref_red)
    if a.shape[0] == a.shape[1]:
        assert linalg.det_mod(a, p) == int(ref.det())
    echelon = linalg.EchelonMod(a.shape[1], p)
    for block in np.split(a, cuts):
        echelon.add(block)
    order = np.argsort(echelon.pivots)
    assert [echelon.pivots[i] for i in order] == pivots
    assert echelon.rows[order].tolist() == red[:rank].tolist()


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (3, 5), (5, 3), (3, 3)])
def test_empty_and_zero_matrices(shape):
    # no rows, no columns, or only zero rows: rank 0, so the nullity is the
    # column count; det of the empty matrix is 1, of a zero one 0
    a = np.zeros(shape, dtype=np.int64)
    assert linalg.nullspace_dim_mod(a, P) == shape[1]
    assert linalg.rref_mod(a, P)[1] == []
    if shape[0] == shape[1]:
        assert linalg.det_mod(a, P) == (0 if a.size else 1)
    echelon = linalg.EchelonMod(shape[1], P)
    assert echelon.nullity_with(a) == shape[1]
    echelon.add(a)
    assert echelon.nullity == shape[1] and echelon.pivots == []


def test_echelon_nullity_with_on_no_free_columns():
    # every column a pivot: the remainder of a new block has no columns
    echelon = linalg.EchelonMod(3, 7)
    echelon.add(np.eye(3, dtype=np.int64))
    assert echelon.nullity_with([[1, 2, 3]]) == 0
    assert echelon.nullity_with(np.zeros((0, 3), dtype=np.int64)) == 0


@st.composite
def _block_arrows(draw, p):
    """(a, square): k row blocks, block i over its own columns and one
    shared block of columns, as the rows of a drawn part of the SL system
    after the head, then a tip of rows over the shared block alone.  Square
    when each row block is as tall as its own columns and the tip as the
    shared block.  Entries are zeroed at a random density, so pivot rows
    are swapped and eliminations stop early; a product of thin factors
    gives a block of low rank."""
    k = draw(st.integers(2, 6))
    own = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    shared = draw(st.integers(1, 10))
    square = draw(st.booleans())
    heights = own if square else draw(st.lists(st.integers(0, 14), min_size=k, max_size=k))
    tip = shared if square else draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.3, 0.7, 1.0)))

    def block(rows, cols):
        if draw(st.booleans()):
            return rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        inner = draw(st.integers(0, min(rows, cols)))
        left = rng.integers(0, p, size=(rows, inner), dtype=np.int64)
        right = rng.integers(0, p, size=(inner, cols), dtype=np.int64)
        return np.array((left.astype(object) @ right.astype(object)) % p, dtype=np.int64).reshape(rows, cols)

    ncols = sum(own) + shared
    a = np.zeros((sum(heights) + tip, ncols), dtype=np.int64)
    r = c = 0
    for h, w in zip(heights, own):
        cols = np.r_[c : c + w, ncols - shared : ncols]
        a[r : r + h, cols] = block(h, w + shared)
        r, c = r + h, c + w
    a[r:, ncols - shared :] = block(tip, shared)
    a[rng.random(a.shape) > density] = 0
    return a, square


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_block_arrow_nullities_ignore_row_and_column_order(p, data):
    # up to 94 x 82, past the cap of _large_matrices: the rank-only solve
    # reorders rows and columns; the RREF and det keep the order given
    a, square = data.draw(_block_arrows(p))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    b = a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]
    nullity = a.shape[1] - len(linalg.rref_mod(a, p)[1])
    assert linalg.nullspace_dim_mod(a, p) == linalg.nullspace_dim_mod(b, p) == nullity
    if square:
        for m in (a, b):
            assert linalg.det_mod(m, p) == int(_reference(m, p).det())
