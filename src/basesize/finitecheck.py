"""Exact base sizes and stabilizer orders for small finite matrix groups.

Each group is listed once, over a prime field F_q only: the builders
raise ValueError for any other q.  Before anything is listed, its
closed-form order is checked against a hard element bound.  SL_2(q) is
listed in closed form, and PGL_2(q) by a normal form: each class of
scalar multiples of an invertible 2x2 matrix holds exactly one matrix
[[a, b], [c, d]] whose first column (a, c) is a listed point (1, x) or
(0, 1).  Its images of all points (u : v) come in one pass from a table of
u a + v b by (k, b), k the index of (a, c), one of u c + v d by (k, d),
both with the points on the last axis, and one from (x : y) to the index
of the point.  The point pairs of the line take their group from the
line's.  Sp_4(q) is generated by transvections over F_q (int64 arrays)
that become permutations of an enumerated point set, with scalars acting
trivially, and ``close_perm_group`` closes them by breadth-first search.
Base sizes come from an exhaustive pruned backtrack over stabilizer-orbit
representatives, started at the counting bound.  Tuple stabilizers are
counted at once: a packed bit table over the elements marks which fix each
drawn point, and a tuple's stabilizer is the AND of its points' rows.

Every action's ``perms`` lists each element once, in no particular order:
the base search and the stabilizer counts read only the set of rows.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import classdata, linalg

DEFAULT_ELEMENT_BOUND = 10**6


class EnumerationBoundExceeded(ValueError):
    pass


class RelationViolation(AssertionError):
    """A certified inequality between base measures failed: a hard bug."""


def _check_order(order: int, bound: int) -> None:
    if order > bound:
        raise EnumerationBoundExceeded(f"group order {order} exceeds the bound {bound}")


# ---------------------------------------------------------------------------
# Groups over F_q

def _inverses(q: int) -> np.ndarray:
    """Inverses in F_q by residue, with 0 sent to 0."""
    return np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)


def _sl2_elements(q: int) -> np.ndarray:
    """SL_2(q) as an (order, 2, 2) array in lexicographic order of (a, b, c, d):
    first a = 0 (then bc = -1 and d is free), then d = (1 + bc)/a."""
    inv = _inverses(q)
    b0, d0 = np.divmod(np.arange(q, q * q), q)
    a1, bc = np.divmod(np.arange(q * q, q**3), q * q)
    b1, c1 = np.divmod(bc, q)
    rows = np.concatenate([
        np.stack([np.zeros_like(b0), b0, -inv[b0] % q, d0], axis=1),
        np.stack([a1, b1, c1, (1 + b1 * c1) * inv[a1] % q], axis=1),
    ])
    return rows.reshape(-1, 2, 2)


def _symplectic_form4(q: int) -> np.ndarray:
    j = np.zeros((4, 4), dtype=np.int64)
    j[0, 2] = j[1, 3] = 1
    j[2, 0] = j[3, 1] = q - 1
    return j


def symplectic_transvections4(q: int) -> np.ndarray:
    """Generating transvections x -> x + (x.Jv)*v for Sp_4(q); the
    transvections with other scalars are their powers."""
    j = _symplectic_form4(q)
    vs = np.array([
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1),
    ], dtype=np.int64)
    return np.array([(np.eye(4, dtype=np.int64) + np.outer(v, j @ v % q)) % q for v in vs])


# ---------------------------------------------------------------------------
# Point sets and actions

def projective_line(q: int) -> list[tuple[int, ...]]:
    return [(1, x) for x in range(q)] + [(0, 1)]


def _canon_subspace(rows: np.ndarray, q: int) -> bytes:
    red, _ = linalg.rref_mod(rows, q)
    return red.astype(np.int8).tobytes()


@dataclass
class PermAction:
    """A faithful permutation group with its point labels: ``perms`` lists
    each element once, in no particular order."""

    points: list
    perms: np.ndarray  # (order, npoints) int arrays

    @property
    def order(self) -> int:
        return self.perms.shape[0]


def close_perm_group(gen_perms: list[tuple[int, ...]], bound: int = DEFAULT_ELEMENT_BOUND) -> np.ndarray:
    """The group generated by ``gen_perms`` as an int32 array of distinct
    rows in the order found, closed by breadth-first search that composes
    the whole frontier with every generator at once."""
    gens = np.array(gen_perms, dtype=np.int32)
    frontier = np.arange(gens.shape[1], dtype=np.int32)[None]
    seen = {frontier.tobytes()}
    found = [frontier]
    while frontier.size:
        images = frontier[:, gens].reshape(-1, gens.shape[1])
        raw, width = images.tobytes(), images.itemsize * gens.shape[1]
        new = []
        for k in range(images.shape[0]):
            row = raw[k * width:(k + 1) * width]
            if row not in seen:
                seen.add(row)
                new.append(k)
                if len(seen) > bound:
                    raise EnumerationBoundExceeded(
                        f"permutation group order exceeds the bound {bound}"
                    )
        frontier = images[new]
        found.append(frontier)
    return np.concatenate(found)


def _line_images(q: int) -> np.ndarray:
    """The projective line under the matrices [[a_k, b], [c_k, d]] with
    a_k d - b c_k != 0, (a_k, c_k) its k-th point: one int32 row per matrix
    in grid order of (k, b, d), one column per point, all in one pass."""
    pts, r = np.array(projective_line(q), dtype=np.int32), np.arange(q, dtype=np.int32)
    k, b, d = np.indices((q + 1, q, q)).reshape(3, -1)
    keep = (pts[k, 0] * d - b * pts[k, 1]) % q != 0
    kb, kd = (2 * q * k + b)[keep], (2 * q * k + q + d)[keep]
    x, y = np.divmod(np.arange(q * q), q)
    index = np.where(x, y * _inverses(q)[x] % q, q).astype(np.int32)  # of (x : y), at x * q + y
    # every point's image (x : y) = (u a_k + v b : u c_k + v d), the points
    # (u, v) on the last axis: x * q at (k, 0, b), y at (k, 1, d)
    xy = (pts[..., None, None] * pts[:, 0] + r[:, None] * pts[:, 1]) % q * np.int32([[[q]], [[1]]])
    xy = xy.reshape(-1, q + 1)
    return index[np.take(xy, kb, axis=0) + np.take(xy, kd, axis=0)]


def pgl2_line_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """The projective line under the full projective linear group, one
    matrix per element: [[1, b], [c, d]] with d - bc != 0 and
    [[0, b], [1, d]] with b != 0."""
    classdata.require_prime("q =", q)
    _check_order(q**3 - q, bound)
    return PermAction(points=projective_line(q), perms=_line_images(q))


def pgl2_pairs_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """Unordered pairs of distinct projective-line points: the coset space
    of a maximal-torus normalizer.  The group is the line's, acting on the
    pairs through an index table."""
    line = pgl2_line_action(q, bound)
    n = q + 1
    i, j = np.triu_indices(n, 1)
    # pair_index[a * n + b] is the index of the pair {a, b}
    pair_index = np.zeros(n * n, dtype=np.int32)
    pair_index[i * n + j] = pair_index[j * n + i] = np.arange(i.size)
    # np.take keeps the rows C-contiguous for the base search
    images = np.take(line.perms, i, axis=1)
    images *= n
    images += np.take(line.perms, j, axis=1)
    points = list(zip(i.tolist(), j.tolist()))
    return PermAction(points=points, perms=pair_index[images])


def sp4_decomposition_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """Unordered pairs {U, U-perp} of complementary nondegenerate 2-spaces
    under Sp_4(q): the coset space of the wreath-type stabilizer.  Sp_4(q)
    is transitive on them, so they are the orbit of {<e1, e3>, <e2, e4>}."""
    classdata.require_prime("q =", q)
    _check_order(q**4 * (q * q - 1) * (q**4 - 1) // math.gcd(2, q - 1), bound)
    gens = symplectic_transvections4(q)

    def apply_pt(m, pair):
        images = (_canon_subspace(np.frombuffer(key, dtype=np.int8).reshape(2, 4) @ m.T % q, q)
                  for key in pair)
        return tuple(sorted(images))

    start = tuple(sorted(np.array(rows, dtype=np.int8).tobytes() for rows in (
        [[0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 0, 1, 0]],
    )))
    # each orbit point with its images under the generators
    images, frontier = {}, [start]
    while frontier:
        pt = frontier.pop()
        if pt not in images:
            images[pt] = [apply_pt(g, pt) for g in gens]
            frontier += images[pt]
    points = sorted(images)
    to_index = {pt: i for i, pt in enumerate(points)}
    gen_perms = list(zip(*([to_index[im] for im in images[pt]] for pt in points)))
    return PermAction(points=points, perms=close_perm_group(gen_perms, bound))


# ---------------------------------------------------------------------------
# Base size and stabilizers

def stabilizer_order(action: PermAction, tup: tuple[int, ...]) -> int:
    """Exact order of the pointwise stabilizer of one tuple (the whole
    group for the empty tuple): the reference for the counts below."""
    mask = np.ones(action.order, dtype=bool)
    for t in tup:
        mask &= action.perms[:, t] == t
    return int(np.count_nonzero(mask))


def _exists_base(sub: np.ndarray, depth: int) -> bool:
    """Whether some ``depth`` points have trivial stabilizer in the group listed by ``sub``'s rows."""
    if sub.shape[0] == 1:
        return True
    if depth == 0:
        return False
    seen = np.zeros(sub.shape[1], dtype=bool)
    for pt in range(sub.shape[1]):
        if seen[pt]:
            continue
        seen[sub[:, pt]] = True
        keep = sub[:, pt] == pt
        if keep.all():
            continue  # a point fixed by the whole current stabilizer never helps
        if _exists_base(sub[keep], depth - 1):
            return True
    return False


def exact_base_size(action: PermAction, seed: int = 0) -> int:
    """Minimal number of points whose pointwise stabilizer is trivial.

    The images of c base points tell the elements apart, so |G| <= n (n - 1)
    ... (n - c + 1) on n points.  From the least such c on, exhaustive
    backtracking over stabilizer-orbit representatives decides whether some
    c points have trivial stabilizer; a base stays a base when points are
    added, so the first such c is the base size.  ``seed`` is unused.
    """
    order, n = action.perms.shape
    start = next((c for c in range(n + 1) if math.perm(n, c) >= order), n + 1)
    for c in range(start, n + 1):
        if _exists_base(action.perms, c):
            return c
    raise RuntimeError("the action is not faithful")


#: tuples drawn per modal order
TUPLE_SAMPLES = 200

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)  # set bits per byte value


def generic_tuple_stabilizer_order(
    action: PermAction, length: int, seed: int = 0, general_position=None,
) -> int:
    """Modal stabilizer order over ``TUPLE_SAMPLES`` seeded tuples of
    ``length`` distinct points, or drawn by ``general_position(points,
    length, rng)`` as point indices; a tie goes to the smaller order.  At
    finite field sizes the dense locus need not dominate a raw sample count,
    so callers draw inside the open conditions they mean, as the sampler
    does for configurations.  The tuples drawn, and the order returned, are
    those of a loop that calls ``stabilizer_order`` on each tuple in turn.
    """
    rng, m = random.Random(seed), len(action.points)
    tuples = np.array([rng.sample(range(m), length) if general_position is None
                       else general_position(action.points, length, rng) for _ in range(TUPLE_SAMPLES)],
                      dtype=action.perms.dtype).reshape(TUPLE_SAMPLES, length)
    used, rows = np.unique(tuples, return_inverse=True)
    fixes = np.packbits((action.perms[:, used] == used).T, axis=1)  # row i: the elements fixing used[i]
    stab = np.tile(np.packbits(np.ones(action.order, dtype=bool)), (TUPLE_SAMPLES, 1))
    for col in rows.reshape(tuples.shape).T:
        stab &= fixes[col]
    orders, counts = np.unique(np.take(_POPCOUNT, stab).sum(axis=1), return_counts=True)
    return int(orders[counts.argmax()])


def disjoint_pairs(points: list, length: int, rng: random.Random) -> tuple[int, ...]:
    """General position for tuples of point pairs: ``length`` disjoint
    pairs of 2*length distinct line points.  ``points`` lists the pairs
    (i, j), i < j, of n line points in lexicographic order, as
    ``pgl2_pairs_action`` does, so (i, j) sits at i*n - i(i+1)/2 + j - i - 1.
    More pairs than fit, 2*length > n, raise ValueError."""
    n = points[-1][1] + 1
    if 2 * length > n:
        raise ValueError(f"{length} disjoint point pairs need {2 * length} of the {n} points of the line")
    ends = rng.sample(range(n), 2 * length)
    pairs = map(sorted, zip(ends[::2], ends[1::2]))
    return tuple(i * n - i * (i + 1) // 2 + j - i - 1 for i, j in pairs)

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
# Form stabilizers in SL_2(q)

def sl2_two_form_stabilizer(
    q: int, seed: int = 0, bound: int = DEFAULT_ELEMENT_BOUND
) -> tuple[int, np.ndarray]:
    """List SL_2(q) (at most ``bound`` elements) and intersect the isometry
    groups of two seeded random nondegenerate symmetric forms; returns
    (order, elements) with the elements an (order, 2, 2) array in
    lexicographic order."""
    classdata.require_prime("q =", q)
    _check_order(q**3 - q, bound)
    rng = random.Random(seed)

    def random_form() -> list[list[int]]:
        while True:
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            det = (a * c - b * b) % q
            if det:
                return [[a, b], [b, c]]

    forms = np.array([random_form(), random_form()], dtype=np.int64)
    g = _sl2_elements(q)
    # g^T f g for both forms and every element at once
    images = np.einsum("nji,fjk,nkl->nfil", g, forms, g, optimize=True) % q
    stab = g[(images == forms).all(axis=(1, 2, 3))]
    return len(stab), stab
