"""Exact linear algebra over word-size prime fields and over the rationals.

All mod-p routines use int64 numpy arrays.  For p < 2**31 a product of two
reduced entries stays below 2**62, so every row operation fits in int64
without overflow.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

MAX_PRIME = 2**31


class SingularMatrixError(ValueError):
    pass


def _as_modmat(a, p: int) -> np.ndarray:
    if not (2 <= p < MAX_PRIME):
        raise ValueError(f"prime {p} out of supported range")
    m = np.array(a, dtype=np.int64) % p
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    return m


def matmul_mod(a, b, p: int) -> np.ndarray:
    """Matrix product mod p.  Falls back to exact object arithmetic when the
    inner dimension could overflow int64 accumulation."""
    am = np.asarray(a, dtype=np.int64) % p
    bm = np.asarray(b, dtype=np.int64) % p
    inner = am.shape[-1]
    if inner * (p - 1) * (p - 1) < 2**63:
        return (am @ bm) % p
    return np.array((am.astype(object) @ bm.astype(object)) % p, dtype=np.int64)


def rref_mod(a, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form mod p; returns (matrix, pivot columns)."""
    m = _as_modmat(a, p)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - m[others, c][:, None] * m[r][None, :]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod(a, p: int) -> int:
    return len(rref_mod(a, p)[1])


def nullspace_dim_mod(a, p: int) -> int:
    m = _as_modmat(a, p)
    return m.shape[1] - rank_mod(m, p)


def nullspace_basis_mod(a, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row."""
    m, pivots = rref_mod(a, p)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-m[r, fc]) % p
    return basis


def inv_mod(a, p: int) -> np.ndarray:
    m = _as_modmat(a, p)
    n = m.shape[0]
    if m.shape[1] != n:
        raise ValueError("matrix must be square")
    aug = np.concatenate([m, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = rref_mod(aug, p)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise SingularMatrixError("matrix is singular mod p")
    return red[:, n:]


def det_mod(a, p: int) -> int:
    """Determinant mod p by elimination."""
    m = _as_modmat(a, p)
    n = m.shape[0]
    det = 1
    for c in range(n):
        nz = np.nonzero(m[c:, c])[0]
        if nz.size == 0:
            return 0
        piv = c + int(nz[0])
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            det = (-det) % p
        det = (det * int(m[c, c])) % p
        inv = pow(int(m[c, c]), p - 2, p)
        m[c] = (m[c] * inv) % p
        below = np.nonzero(m[c + 1 :, c])[0] + c + 1
        if below.size:
            m[below] = (m[below] - m[below, c][:, None] * m[c][None, :]) % p
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
