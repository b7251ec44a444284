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

Echelon.  A row kept by ``EchelonMod`` has a unit pivot and is zero in every
other pivot column: the pivot columns are the identity by construction, so
the rows are stored on the free columns only, and a new block costs its
projection, its own pivots and one product over the free columns.
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
    m = _mod(np.asarray(a, dtype=np.int64), p)  # a new array: the input is never written
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
    pivots; returns (m, pivot columns, det of a square ``m``).  A step
    changes columns c.. only.  When ``reduce`` (reduced row-echelon form)
    it seeks a nonzero only if the pivot entry is 0, clears column c from
    every row with one slice update and writes the scaled pivot row back;
    else it clears column c from the rows below down to the last one
    nonzero in it, leaving a row already zero in column c as it is."""
    pivots: list[int] = []
    det = 1
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == len(m):
            break
        if not reduce or not m[r, c]:
            nz = m[r:, c].nonzero()[0]
            if nz.size == 0:
                continue
            if nz[0]:
                m[[r, r + nz[0]]] = m[[r + nz[0], r]]
                det = -det
        x = int(m[r, c])
        det = det * x % p
        row = _mod(m[r, c:] * pow(x, -1, p), p)
        if reduce:
            m[:, c:] = _mod(m[:, c:] - m[:, c : c + 1] * row, p)
        elif nz.size > 1:  # else every row below is zero in column c
            below = m[r + 1 : r + nz[-1] + 1, c:]
            below[:] = _mod(below - below[:, :1] * row, p)
        m[r, c:] = row
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


class EchelonMod:
    """Reduced row-echelon form mod p of a growing stack of row blocks,
    stored on the free columns (module docstring, "Echelon"): ``tail``
    holds the kept rows on the increasing columns ``free``.  ``add``
    row-reduces a block's projected remainder in place, clears its pivot
    columns from ``tail`` and appends its rows' free part; ``nullity_with``
    takes only the remainder's rank."""

    def __init__(self, ncols: int, p: int):
        if ncols >= MAX_INNER:
            raise ValueError(f"{ncols} columns is not below 2**16")
        self.p = p
        self.tail = np.zeros((0, ncols), dtype=np.int64)
        self.free = np.arange(ncols)
        self.pivots: list[int] = []

    @property
    def nullity(self) -> int:
        return len(self.free)

    @property
    def rows(self) -> np.ndarray:
        """The kept rows on every column, in ``pivots`` order, read-only."""
        rows = np.concatenate([np.eye(len(self.pivots), dtype=np.int64), self.tail], axis=1)
        rows = rows[:, np.argsort(self.pivots + self.free.tolist())]
        rows.setflags(write=False)
        return rows

    def _project(self, block) -> np.ndarray:
        """``block`` less its pivot-column combination of the kept rows, on
        the free columns."""
        b = _as_modmat(block, self.p)
        if not self.pivots:  # every column is free
            return b
        return _mod(b[:, self.free] - _matmul(b[:, self.pivots], self.tail, self.p), self.p)

    def nullity_with(self, block) -> int:
        """The nullity after ``add(block)``, keeping nothing."""
        return nullspace_dim_mod(self._project(block), self.p)

    def add(self, block) -> None:
        p = self.p
        red, found, _ = _eliminate(self._project(block), p, reduce=True)
        if not found:
            return
        keep = np.ones(len(self.free), dtype=bool)
        keep[found] = False
        new = red[: len(found), keep]
        tail = self.tail[:, keep]
        if self.pivots:
            tail = _mod(tail - _matmul(self.tail[:, found], new, p), p)
        self.tail = np.concatenate([tail, new])
        self.pivots += self.free[found].tolist()
        self.free = self.free[keep]


def nullspace_basis_mod(a, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    m, pivots = rref_mod(a, p)
    free = np.setdiff1d(np.arange(m.shape[1]), pivots)
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
