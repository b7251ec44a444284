import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from basesize import linalg

P = 2147483647


def test_rref_rank_small():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.rank_mod(a, 7) == 2
    assert linalg.nullspace_dim_mod(a, 7) == 1


def test_nullspace_basis_kills_matrix():
    rng = np.random.default_rng(0)
    a = rng.integers(0, P, size=(6, 10), dtype=np.int64)
    basis = linalg.nullspace_basis_mod(a, P)
    assert basis.shape[0] == 10 - linalg.rank_mod(a, P)
    prod = linalg.matmul_mod(a, basis.T, P)
    assert not prod.any()


def test_det_mod():
    assert linalg.det_mod([[1, 2], [3, 4]], 11) == (4 - 6) % 11
    assert linalg.det_mod([[1, 2], [2, 4]], 11) == 0


def test_matmul_mod_matches_object_arithmetic():
    # the fast path must agree with exact arithmetic near the overflow edge
    rng = np.random.default_rng(2)
    a = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    b = rng.integers(0, P, size=(9, 9), dtype=np.int64)
    exact = np.array((a.astype(object) @ b.astype(object)) % P, dtype=np.int64)
    assert np.array_equal(linalg.matmul_mod(a, b, P), exact)


def test_prime_range_guard():
    with pytest.raises(ValueError):
        linalg.rank_mod([[1]], 2**31 + 11)
    with pytest.raises(ValueError):
        linalg.matmul_mod([[1]], [[1]], 2**31 + 11)


def test_matmul_mod_rejects_inner_dimension_2_16():
    # beyond it the int64 accumulation of the low limb could overflow
    a = np.ones((1, 2**16), dtype=np.int64)
    assert linalg.matmul_mod(a[:, 1:], a[:, 1:].T, P)[0, 0] == 2**16 - 1
    with pytest.raises(ValueError, match="inner dimension"):
        linalg.matmul_mod(a, a.T, P)


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
    assert linalg.rank_mod(a, p) == ref.rank()
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
