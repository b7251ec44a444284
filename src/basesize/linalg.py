"""Exact linear algebra over word-size prime fields.

The routines use int64 numpy arrays, primes p < 2**31 and one elimination
kernel; a row operation multiplies two reduced entries, below 2**62.
``matmul_mod`` splits ``b`` into 16-bit limbs, b = hi * 2**16 + lo, so a @ hi
and a @ lo stay below inner * 2**47: exact in int64 for inner < 2**16.

Every reduction goes through ``_mod``.  From 512 entries on it computes
x - (x // p) * p: floor division by a scalar, which numpy runs through
libdivide where ``%`` divides element by element, several times faster
on large blocks; below that ``%`` is cheaper, as its one call costs less
than three.  Floor division rounds toward minus infinity, so
x - (x // p) * p lies in 0..p-1 for every int64 x, negatives included;
int64 products and differences wrap modulo 2**64, so the result is exact
even where (x // p) * p leaves the int64 range.

Order.  A rank does not depend on the order of rows or columns, so
``nullspace_dim_mod`` eliminates in sparsity order: columns by ascending
nonzero count, then rows by leading nonzero column, both stable sorts
(Markowitz's rule, Management Science 3(3), 1957, in its static form).  A
block-sparse system, such as the stabilizer rows of one subspace with the
shared columns last, then keeps every pivot step inside its own block.  An
RREF does depend on the column order, so ``rref_mod``,
``nullspace_basis_mod`` and ``EchelonMod.add`` take the columns as given.
Below a pivot the update stops at the last row nonzero in the pivot column:
the rows past it are unchanged by it, so pivots and determinants are those
of the full update.
"""
from __future__ import annotations

import numpy as np

MAX_PRIME = 2**31
MAX_INNER = 2**16


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for any int64 array (module docstring)."""
    return x % p if x.size < 512 else x - x // p * p


def _as_modmat(a, p: int) -> np.ndarray:
    if not (2 <= p < MAX_PRIME):
        raise ValueError(f"prime {p} out of supported range")
    m = _mod(np.array(a, dtype=np.int64), p)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    return m


def _matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product mod p of reduced int64 arrays with inner dimension below 2**16."""
    return _mod((_mod(a @ (b >> 16), p) << 16) + a @ (b & 0xFFFF), p)


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Matrix product mod p, by 16-bit limbs of ``b``."""
    am, bm = _as_modmat(a, p), _as_modmat(b, p)
    if am.shape[1] >= MAX_INNER:
        raise ValueError(f"inner dimension {am.shape[1]} is not below 2**16")
    return _matmul(am, bm, p)


def _eliminate(m: np.ndarray, p: int, reduce: bool) -> tuple[np.ndarray, list[int], int]:
    """Row-reduce ``m``, a reduced int64 array, mod p in place to unit
    pivots.  A pivot row is zero left of its column c, so a step changes
    columns c.. only: one slice update clears column c from every other row
    when ``reduce`` (reduced row-echelon form), else from the rows below
    it down to the last one nonzero in column c, and leaves a row already
    zero in column c as it is.  Returns (m, pivot columns, det of a square
    ``m``)."""
    pivots: list[int] = []
    det = 1
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == len(m):
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
            det = -det
        det = det * int(m[r, c]) % p
        row = _mod(m[r, c:] * pow(int(m[r, c]), -1, p), p)
        m[r, c:] = row
        if reduce:
            f = m[:, c:c + 1].copy()
            f[r] = 0
            m[:, c:] = _mod(m[:, c:] - f * row, p)
        elif nz.size > 1:  # else every row below is zero in column c
            below = m[r + 1 : r + nz[-1] + 1, c:]
            below[:] = _mod(below - below[:, :1] * row, p)
        pivots.append(c)
    return m, pivots, det if len(pivots) == len(m) else 0


def rref_mod(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod p; returns (matrix, pivot columns)."""
    return _eliminate(_as_modmat(a, p), p, reduce=True)[:2]


def nullspace_dim_mod(a, p: int) -> int:
    """Dimension of the right nullspace mod p: the columns less the rank,
    eliminated in sparsity order, which cannot change a rank (module
    docstring, "Order").  Rows and columns may be empty, rows all zero."""
    m = _as_modmat(a, p)
    if not m.size:  # no rows or no columns: rank 0
        return m.shape[1]
    m = m[:, np.argsort(np.count_nonzero(m, axis=0), kind="stable")]
    nz = m != 0
    lead = np.where(nz.any(axis=1), nz.argmax(axis=1), m.shape[1])  # a zero row goes last
    m = m[np.argsort(lead, kind="stable")]
    return m.shape[1] - len(_eliminate(m, p, reduce=False)[1])


def _complement(pivots: list[int], ncols: int) -> np.ndarray:
    """The columns that are not pivots, in order."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return free.nonzero()[0]


class EchelonMod:
    """Reduced row-echelon form mod p of a growing stack of row blocks.

    The kept rows have unit pivots and are zero in every other pivot
    column, so a new block is projected onto the free columns with one
    product: ``add`` row-reduces that remainder in place and clears the new
    pivot columns from the kept rows with one more product, and
    ``nullity_with`` takes only its rank."""

    def __init__(self, ncols: int, p: int):
        if ncols >= MAX_INNER:
            raise ValueError(f"{ncols} columns is not below 2**16")
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def nullity(self) -> int:
        return self.rows.shape[1] - len(self.pivots)

    def _project(self, block) -> tuple[np.ndarray, np.ndarray]:
        """(free columns, ``block`` less its pivot-column combination of
        the kept rows, on the free columns)."""
        p = self.p
        b = _as_modmat(block, p)
        free = _complement(self.pivots, b.shape[1])
        rest = b[:, free]
        if self.pivots:
            rest = _mod(rest - _matmul(b[:, self.pivots], self.rows[:, free], p), p)
        return free, rest

    def nullity_with(self, block) -> int:
        """The nullity after ``add(block)``, keeping nothing."""
        return nullspace_dim_mod(self._project(block)[1], self.p)

    def add(self, block) -> None:
        p = self.p
        free, rest = self._project(block)
        red, found, _ = _eliminate(rest, p, reduce=True)
        if not found:
            return
        new = np.zeros((len(found), self.rows.shape[1]), dtype=np.int64)
        new[:, free] = red[: len(found)]
        pivots = free[found].tolist()
        if self.pivots:
            self.rows = _mod(self.rows - _matmul(self.rows[:, pivots], new, p), p)
        self.rows = np.concatenate([self.rows, new])
        self.pivots += pivots


def nullspace_basis_mod(a, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    m, pivots = rref_mod(a, p)
    free = _complement(pivots, m.shape[1])
    basis = np.zeros((free.size, m.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -m[: len(pivots), free].T % p
    return basis


def det_mod(a, p: int) -> int:
    """Determinant mod p by elimination."""
    m = _as_modmat(a, p)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return _eliminate(m, p, reduce=False)[2]
