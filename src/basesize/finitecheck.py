"""Exact base sizes and stabilizer orders for small finite matrix groups.

Each group is listed once.  Before anything is listed, its closed-form
order is checked against a hard element bound.  Matrix generators over
F_q (int64 arrays) become permutations of an enumerated point set, with
scalars acting trivially, and ``close_perm_group`` closes them by breadth
first search.  The point pairs of the projective line take their group
from the line's, and SL_2(q) is listed in closed form.  Base sizes come
from an exhaustive pruned backtrack over stabilizer-orbit representatives.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import linalg

DEFAULT_ELEMENT_BOUND = 10**6


class EnumerationBoundExceeded(ValueError):
    pass


class NoGeneralPosition(ValueError):
    """No sampled tuple passed the general-position predicate."""


class RelationViolation(AssertionError):
    """A certified inequality between base measures failed: a hard bug."""


def _check_order(order: int, bound: int) -> None:
    if order > bound:
        raise EnumerationBoundExceeded(f"group order {order} exceeds the bound {bound}")


# ---------------------------------------------------------------------------
# Generators over F_q

def primitive_root(q: int) -> int:
    for g in range(1, q):  # 1 generates the units of F_2
        x, seen = 1, set()
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"{q} is not prime")


def gl2_generators(q: int) -> np.ndarray:
    z = primitive_root(q)
    return np.array([[[1, 1], [0, 1]], [[0, q - 1], [1, 0]], [[z, 0], [0, 1]]], dtype=np.int64)


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
    """A faithful permutation group with its point labels."""

    points: list
    perms: np.ndarray  # (order, npoints) int arrays

    @property
    def order(self) -> int:
        return self.perms.shape[0]


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


def _perm_action(gens: np.ndarray, points: list, apply_pt, bound: int) -> PermAction:
    to_index = {pt: i for i, pt in enumerate(points)}
    gen_perms = [tuple(to_index[apply_pt(g, pt)] for pt in points) for g in gens]
    return PermAction(points=points, perms=close_perm_group(gen_perms, bound))


def pgl2_line_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """The projective line under the full projective linear group."""
    _check_order(q**3 - q, bound)

    def apply_pt(m, pt):
        x, y = (int(v) for v in m @ pt % q)
        return (1, y * pow(x, q - 2, q) % q) if x else (0, 1)

    return _perm_action(gl2_generators(q), projective_line(q), apply_pt, bound)


def pgl2_pairs_action(q: int, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """Unordered pairs of distinct projective-line points: the coset space
    of a maximal-torus normalizer.  The group is the line's, acting on the
    pairs through an index table."""
    line = pgl2_line_action(q, bound)
    i, j = np.triu_indices(q + 1, 1)
    pair_index = np.zeros((q + 1, q + 1), dtype=np.int32)
    pair_index[i, j] = pair_index[j, i] = np.arange(i.size)
    # the action on pairs is faithful, so np.unique only sorts the rows
    perms = np.unique(pair_index[line.perms[:, i], line.perms[:, j]], axis=0)
    return PermAction(points=list(zip(i.tolist(), j.tolist())), perms=perms)


def sp4_decomposition_action(q: int = 3, bound: int = DEFAULT_ELEMENT_BOUND) -> PermAction:
    """Unordered pairs {U, U-perp} of complementary nondegenerate 2-spaces
    under Sp_4(q): the coset space of the wreath-type stabilizer.  Sp_4(q)
    is transitive on them, so they are the orbit of {<e1, e3>, <e2, e4>}."""
    _check_order(q**4 * (q * q - 1) * (q**4 - 1) // math.gcd(2, q - 1), bound)
    gens = symplectic_transvections4(q)

    def apply_pt(m, pair):
        images = (_canon_subspace(np.frombuffer(key, dtype=np.int8).reshape(2, 4) @ m.T % q, q)
                  for key in pair)
        return tuple(sorted(images))

    start = tuple(sorted(np.array(rows, dtype=np.int8).tobytes() for rows in (
        [[0, 1, 0, 0], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 0, 1, 0]],
    )))
    orbit, frontier = {start}, {start}
    while frontier:
        frontier = {apply_pt(g, pt) for pt in frontier for g in gens} - orbit
        orbit |= frontier
    return _perm_action(gens, sorted(orbit), apply_pt, bound)


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


#: tuples sampled (inside the general-position locus) per modal order
TUPLE_SAMPLES = 200


def generic_tuple_stabilizer_order(
    action: PermAction, length: int, seed: int = 0, general_position=None,
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
    while found < TUPLE_SAMPLES and attempts < 50 * TUPLE_SAMPLES:
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
        raise NoGeneralPosition(f"none of {attempts} random {length}-tuples satisfied the general-position predicate")
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
# Form stabilizers in SL_2(q)

def _sl2_elements(q: int) -> np.ndarray:
    """SL_2(q) as an (order, 2, 2) array in lexicographic order of (a, b, c, d):
    first a = 0 (then bc = -1 and d is free), then d = (1 + bc)/a."""
    inv = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
    b0, d0 = np.divmod(np.arange(q, q * q), q)
    a1, bc = np.divmod(np.arange(q * q, q**3), q * q)
    b1, c1 = np.divmod(bc, q)
    rows = np.concatenate([
        np.stack([np.zeros_like(b0), b0, -inv[b0] % q, d0], axis=1),
        np.stack([a1, b1, c1, (1 + b1 * c1) * inv[a1] % q], axis=1),
    ])
    return rows.reshape(-1, 2, 2)


def sl2_two_form_stabilizer(
    q: int, seed: int = 0, bound: int = DEFAULT_ELEMENT_BOUND
) -> tuple[int, np.ndarray]:
    """List SL_2(q) (at most ``bound`` elements) and intersect the isometry
    groups of two seeded random nondegenerate symmetric forms; returns
    (order, elements) with the elements an (order, 2, 2) array in
    lexicographic order."""
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
