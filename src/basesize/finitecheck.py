"""Exact base sizes and stabilizer orders for small finite matrix groups.

Matrix generators over F_q are converted to permutations of an enumerated
point set (centers acting trivially disappear, matching the convention
that scalars are ignored).  The permutation group is closed by breadth
first search under a hard element bound, and base sizes are found by an
exhaustive pruned backtrack over stabilizer-orbit representatives.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg

DEFAULT_ELEMENT_BOUND = 10**6


class EnumerationBoundExceeded(RuntimeError):
    pass


class RelationViolation(AssertionError):
    """A certified inequality between base measures failed: a hard bug."""


# ---------------------------------------------------------------------------
# Matrices over F_q

Matrix = tuple[tuple[int, ...], ...]


def mat_mul(a: Matrix, b: Matrix, q: int) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % q for j in range(n))
        for i in range(n)
    )


def mat_vec(a: Matrix, v: tuple[int, ...], q: int) -> tuple[int, ...]:
    n = len(a)
    return tuple(sum(a[i][k] * v[k] for k in range(n)) % q for i in range(n))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def close_matrix_group(generators: list[Matrix], q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> list[Matrix]:
    """Breadth-first closure of the generated matrix group."""
    n = len(generators[0])
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = mat_mul(m, g, q)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > bound:
                        raise EnumerationBoundExceeded(
                            f"group order exceeds the bound {bound}"
                        )
        frontier = nxt
    return sorted(seen)


def primitive_root(q: int) -> int:
    for g in range(2, q):
        x, seen = 1, set()
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"{q} is not prime")


def gl2_generators(q: int) -> list[Matrix]:
    z = primitive_root(q)
    return [
        ((1, 1), (0, 1)),
        ((0, q - 1), (1, 0)),
        ((z, 0), (0, 1)),
    ]


def sl2_generators(q: int) -> list[Matrix]:
    return [((1, 1), (0, 1)), ((0, q - 1), (1, 0))]


# ---------------------------------------------------------------------------
# Point sets and actions

def projective_line(q: int) -> list[tuple[int, ...]]:
    return [(1, x) for x in range(q)] + [(0, 1)]


def _canon_projective(v: tuple[int, ...], q: int) -> tuple[int, ...]:
    lead = next(x for x in v if x)
    inv = pow(lead, q - 2, q)
    return tuple(x * inv % q for x in v)


def _canon_subspace(rows: list[tuple[int, ...]], q: int) -> bytes:
    arr = np.array(rows, dtype=np.int64)
    red, _ = linalg.rref_mod(arr, q)
    return red.astype(np.int8).tobytes()


@dataclass
class PermAction:
    """A faithful permutation group with its point labels."""

    description: str
    points: list
    perms: np.ndarray  # (order, npoints) int arrays
    q: int

    @property
    def order(self) -> int:
        return self.perms.shape[0]


def _perm_of_matrix(m: Matrix, points: list, to_index: dict, apply_pt) -> tuple[int, ...]:
    return tuple(to_index[apply_pt(m, pt)] for pt in points)


def close_perm_group(gen_perms: list[tuple[int, ...]], bound: int = DEFAULT_ELEMENT_BOUND) -> np.ndarray:
    npoints = len(gen_perms[0])
    ident = tuple(range(npoints))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_perms:
                comp = tuple(p[g[i]] for i in range(npoints))
                if comp not in seen:
                    seen.add(comp)
                    nxt.append(comp)
                    if len(seen) > bound:
                        raise EnumerationBoundExceeded(
                            f"permutation group order exceeds the bound {bound}"
                        )
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int32)


def _action_from_matrices(
    description: str, gens: list[Matrix], points: list, apply_pt, q: int,
    bound: int = DEFAULT_ELEMENT_BOUND,
) -> PermAction:
    to_index = {pt: i for i, pt in enumerate(points)}
    gen_perms = [_perm_of_matrix(g, points, to_index, apply_pt) for g in gens]
    perms = close_perm_group(gen_perms, bound)
    return PermAction(description=description, points=points, perms=perms, q=q)


def pgl2_line_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """The projective line under the full projective linear group."""
    pts = projective_line(q)

    def apply_pt(m, pt):
        return _canon_projective(mat_vec(m, pt, q), q)

    return _action_from_matrices(f"projective line over F_{q}", gl2_generators(q), pts, apply_pt, q, bound)


def pgl2_pairs_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """Unordered pairs of distinct projective-line points: the coset space
    of a maximal-torus normalizer."""
    line = projective_line(q)
    idx = {pt: i for i, pt in enumerate(line)}
    pairs = [
        (i, j) for i in range(len(line)) for j in range(i + 1, len(line))
    ]

    def apply_pt(m, pair):
        a = idx[_canon_projective(mat_vec(m, line[pair[0]], q), q)]
        b = idx[_canon_projective(mat_vec(m, line[pair[1]], q), q)]
        return (a, b) if a < b else (b, a)

    return _action_from_matrices(
        f"torus-normalizer cosets (point pairs) over F_{q}", gl2_generators(q), pairs, apply_pt, q, bound
    )


def _symplectic_form4(q: int) -> Matrix:
    j = [[0] * 4 for _ in range(4)]
    j[0][2] = j[1][3] = 1
    j[2][0] = j[3][1] = q - 1
    return tuple(tuple(r) for r in j)


def symplectic_transvections4(q: int) -> list[Matrix]:
    """Generating transvections x -> x + lam*(x.Jv)*v for Sp_4(q)."""
    j = np.array(_symplectic_form4(q), dtype=np.int64)
    vs = [
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1),
    ]
    gens = []
    for v in vs:
        for lam in (1, q - 1):
            vv = np.array(v, dtype=np.int64)
            m = (np.eye(4, dtype=np.int64) + lam * np.outer(vv, (j @ vv) % q)) % q
            gens.append(tuple(tuple(int(x) for x in row) for row in m))
    return gens


def _all_subspaces_2of4(q: int) -> list[bytes]:
    vecs = [v for v in product(range(q), repeat=4) if any(v)]
    seen = set()
    for i, v in enumerate(vecs):
        for w in vecs[i + 1 :]:
            arr = np.array([v, w], dtype=np.int64)
            if linalg.rank_mod(arr, q) < 2:
                continue
            seen.add(_canon_subspace([v, w], q))
    return sorted(seen)


def sp4_decomposition_action(q: int = 3, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """Unordered pairs {U, U-perp} of complementary nondegenerate 2-spaces
    under Sp_4(q): the coset space of the wreath-type stabilizer."""
    j = np.array(_symplectic_form4(q), dtype=np.int64)
    key_to_rows: dict[bytes, np.ndarray] = {}
    nondeg = []
    for key in _all_subspaces_2of4(q):
        rows = np.frombuffer(key, dtype=np.int8).reshape(2, 4).astype(np.int64)
        gram = (rows @ j % q @ rows.T) % q
        if linalg.det_mod(gram, q) != 0:
            nondeg.append(key)
            key_to_rows[key] = rows
    perp_of = {}
    for key in nondeg:
        rows = key_to_rows[key]
        perp = linalg.nullspace_basis_mod((rows @ j) % q, q)
        perp_key = _canon_subspace([tuple(int(x) for x in r) for r in perp], q)
        perp_of[key] = perp_key
    points = sorted({tuple(sorted((k, perp_of[k]))) for k in nondeg})

    def apply_pt(m, pair):
        marr = np.array(m, dtype=np.int64)

        def move(key: bytes) -> bytes:
            rows = key_to_rows[key]
            img = (rows @ marr.T) % q
            return _canon_subspace([tuple(int(x) for x in r) for r in img], q)

        a, b = move(pair[0]), move(pair[1])
        return tuple(sorted((a, b)))

    return _action_from_matrices(
        f"complementary nondegenerate 2-space pairs for Sp4(F_{q})",
        symplectic_transvections4(q), points, apply_pt, q, bound,
    )


# ---------------------------------------------------------------------------
# Base size and stabilizers

def stabilizer_indices(perms: np.ndarray, tup: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(perms.shape[0], dtype=bool)
    for t in tup:
        mask &= perms[:, t] == t
    return np.nonzero(mask)[0]


def stabilizer_order(action: PermAction, tup: tuple[int, ...]) -> int:
    """Exact order of the pointwise stabilizer of the tuple (the whole
    group for the empty tuple)."""
    return int(stabilizer_indices(action.perms, tup).size)


def _exists_base(perms: np.ndarray, idx: np.ndarray, depth: int) -> bool:
    if idx.size == 1:
        return True
    if depth == 0:
        return False
    m = perms.shape[1]
    seen = np.zeros(m, dtype=bool)
    sub = perms[idx]
    for pt in range(m):
        if seen[pt]:
            continue
        orbit = np.unique(sub[:, pt])
        seen[orbit] = True
        keep = sub[:, pt] == pt
        if keep.all():
            continue  # a point fixed by the whole current stabilizer never helps
        if _exists_base(perms, idx[keep], depth - 1):
            return True
    return False


def exact_base_size(action: PermAction, seed: int = 0) -> int:
    """Minimal number of points whose pointwise stabilizer is trivial.

    Exhaustive backtracking over stabilizer-orbit representatives decides,
    for c = 1, 2, ..., whether some c points have trivial stabilizer; a base
    stays a base when points are added, so the first such c is the base
    size.  ``seed`` is unused: the search is deterministic.
    """
    perms = action.perms
    if perms.shape[0] == 1:
        return 0
    all_idx = np.arange(perms.shape[0])
    for c in range(1, perms.shape[1] + 1):
        if _exists_base(perms, all_idx, c):
            return c
    raise RuntimeError("the action is not faithful")


def generic_tuple_stabilizer_order(
    action: PermAction, length: int, seed: int = 0, samples: int = 200,
    general_position=None,
) -> int:
    """Modal stabilizer order over seeded random tuples, optionally
    restricted to tuples passing an explicit general-position predicate.

    At finite field sizes the dense locus need not dominate a raw sample
    count, so callers encode the open conditions they mean (as the
    sampler does for configurations) and the mode is taken inside them.
    """
    rng = random.Random(seed)
    m = len(action.points)
    counts: dict[int, int] = {}
    found = 0
    attempts = 0
    while found < samples and attempts < 50 * samples:
        attempts += 1
        tup = tuple(rng.sample(range(m), length))
        if general_position is not None and not general_position(
            [action.points[t] for t in tup]
        ):
            continue
        found += 1
        order = stabilizer_order(action, tup)
        counts[order] = counts.get(order, 0) + 1
    if not counts:
        raise RuntimeError("no tuple satisfied the general-position predicate")
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def disjoint_pairs(points: list) -> bool:
    """General position for tuples of point pairs: no shared entries."""
    seen = set()
    for pair in points:
        for x in pair:
            if x in seen:
                return False
            seen.add(x)
    return True


def cross_check_relations(triple, finite_base_size: int, q: int) -> dict:
    """Certified relation between the algebraic and finite actions: for
    q > 2 the connected base size is at most the finite base size."""
    b0_lower = triple.b0.lo
    ok = (q <= 2) or (b0_lower <= finite_base_size)
    report = {
        "q": q,
        "algebraic_b0_lower": b0_lower,
        "finite_base_size": finite_base_size,
        "applicable": q > 2,
        "ok": bool(ok),
    }
    if not ok:
        raise RelationViolation(
            f"finite base size {finite_base_size} fell below the certified "
            f"connected base size {b0_lower} at q={q}"
        )
    return report


# ---------------------------------------------------------------------------
# Form stabilizers in SL_2(q) and subspace stabilizers by algebra counting

def sl2_two_form_stabilizer(q: int, seed: int = 0) -> tuple[int, list[Matrix]]:
    """Enumerate SL_2(q) and intersect the isometry groups of two seeded
    random nondegenerate symmetric forms; returns (order, elements)."""
    elements = close_matrix_group(sl2_generators(q), q)
    rng = random.Random(seed)

    def random_form() -> Matrix:
        while True:
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            det = (a * c - b * b) % q
            if det:
                return ((a, b), (b, c))

    f1, f2 = random_form(), random_form()

    def preserves(g: Matrix, f: Matrix) -> bool:
        gt = tuple(tuple(g[i][j] for i in range(2)) for j in range(2))
        return mat_mul(mat_mul(gt, f, q), g, q) == f

    stab = [g for g in elements if preserves(g, f1) and preserves(g, f2)]
    return len(stab), stab


def subspace_tuple_stabilizer_order(
    n: int, q: int, bases: list[np.ndarray], det_one: bool = True
) -> int:
    """Order of the joint subspace stabilizer in GL_n(q) (or SL_n(q)),
    counted by enumerating the linear algebra of matrices preserving every
    subspace; avoids enumerating the ambient group."""
    blocks = []
    for b in bases:
        arr = np.array(b, dtype=np.int64) % q
        nloc, d = arr.shape
        if nloc != n:
            raise ValueError("basis shape mismatch")
        s = linalg.nullspace_basis_mod(arr.T, q)
        blocks.append(np.einsum("ai,jb->abij", s, arr).reshape((n - d) * d, n * n) % q)
    system = np.concatenate(blocks, axis=0)
    basis = linalg.nullspace_basis_mod(system, q)
    m = basis.shape[0]
    if q**m > DEFAULT_ELEMENT_BOUND:
        raise EnumerationBoundExceeded(f"algebra too large to enumerate: {q}^{m}")
    count = 0
    for coeffs in product(range(q), repeat=m):
        x = np.zeros(n * n, dtype=np.int64)
        for ci, vec in zip(coeffs, basis):
            x = (x + ci * vec) % q
        mat = x.reshape(n, n)
        det = linalg.det_mod(mat, q)
        if det == 0:
            continue
        if det_one and det != 1:
            continue
        count += 1
    return count
