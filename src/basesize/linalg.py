"""Exact linear algebra over word-size prime fields and over the rationals.

Mod-p routines use int64 numpy arrays, primes p < 2**31 and one elimination
kernel; a row operation multiplies two reduced entries, below 2**62.
``matmul_mod`` splits ``b`` into 16-bit limbs, b = hi * 2**16 + lo, so a @ hi
and a @ lo stay below inner * 2**47: exact in int64 for inner < 2**16.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

MAX_PRIME = 2**31


def _as_modmat(a, p: int) -> np.ndarray:
    if not (2 <= p < MAX_PRIME):
        raise ValueError(f"prime {p} out of supported range")
    m = np.array(a, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    return m


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Matrix product mod p, by 16-bit limbs of ``b``."""
    am, bm = _as_modmat(a, p), _as_modmat(b, p)
    if am.shape[1] >= 2**16:
        raise ValueError(f"inner dimension {am.shape[1]} is not below 2**16")
    return (((am @ (bm >> 16)) % p << 16) + am @ (bm & 0xFFFF)) % p


def _eliminate(a, p: int, reduce: bool) -> tuple[np.ndarray, list[int], int]:
    """Row-reduce ``a`` mod p to unit pivots, clearing above them too when
    ``reduce``.  A pivot row is zero left of its column c, so a step changes
    columns c.. only.  Returns (matrix, pivot columns, det of a square ``a``)."""
    m = _as_modmat(a, p)
    pivots: list[int] = []
    det = 1
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == len(m):
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:  # row r is zero in column c: rows r + nz[1:] still need clearing
            m[[r, r + nz[0]]] = m[[r + nz[0], r]]
            det = -det
        det = det * int(m[r, c]) % p
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        targets = nz[1:] + r
        if reduce:
            targets = np.concatenate([m[:r, c].nonzero()[0], targets])
        m[targets, c:] = (m[targets, c:] - m[targets, c, None] * m[r, c:]) % p
        pivots.append(c)
    return m, pivots, det if len(pivots) == len(m) else 0


def rref_mod(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod p; returns (matrix, pivot columns)."""
    return _eliminate(a, p, reduce=True)[:2]


def rank_mod(a, p: int) -> int:
    return len(_eliminate(a, p, reduce=False)[1])


def nullspace_dim_mod(a, p: int) -> int:
    m, pivots, _ = _eliminate(a, p, reduce=False)
    return m.shape[1] - len(pivots)


def _complement(pivots: list[int], ncols: int) -> np.ndarray:
    """The columns that are not pivots, in order."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    return free.nonzero()[0]


class EchelonMod:
    """Reduced row-echelon form mod p of a growing stack of row blocks.

    The kept rows have unit pivots and are zero in every other pivot
    column, so ``add`` clears a new block's pivot columns with one product,
    row-reduces only the remainder, and clears the new pivot columns from
    the kept rows with one more product."""

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def nullity(self) -> int:
        return self.rows.shape[1] - len(self.pivots)

    def add(self, block) -> None:
        p = self.p
        b = _as_modmat(block, p)
        free = _complement(self.pivots, b.shape[1])
        rest = b[:, free]
        if self.pivots:
            rest = (rest - matmul_mod(b[:, self.pivots], self.rows[:, free], p)) % p
        red, found = rref_mod(rest, p)
        if not found:
            return
        new = np.zeros((len(found), b.shape[1]), dtype=np.int64)
        new[:, free] = red[: len(found)]
        pivots = free[found].tolist()
        if self.pivots:
            self.rows = (self.rows - matmul_mod(self.rows[:, pivots], new, p)) % p
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
    m, _, det = _eliminate(a, p, reduce=False)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return det


def nullspace_basis_rational(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace over Q (row-reduce, then back-fill)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = _rref_rational(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _rref_rational(m: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank_rational(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q.  Intended for small systems; no pivoting heuristics."""
    return len(_rref_rational([list(map(Fraction, r)) for r in rows])[1])
