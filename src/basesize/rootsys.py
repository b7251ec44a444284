"""Root-system combinatorics for the simple types, and dimension arithmetic.

Roots are stored as integer coefficient vectors over the simple basis, so
everything here is exact integer counting; no real coordinates appear.
This module owns the dimensions the other modules read: ``group_dim``
(a simple group by name, or a classical family on its natural module),
``group_rank``, ``parabolic_dim`` (dim G/P for a maximal parabolic) and
``subgroup_dim`` (a subsystem subgroup named by its label).
Node numbering follows the standard Bourbaki convention, as in these
diagrams:

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n          (n is the short root)
    C_n   1 - 2 - ... - (n-1) <= n          (n is the long root)
    D_n   1 - ... - (n-2) with branches (n-1), n
    E_n   1 - 3 - 4 - 5 - 6 [- 7 [- 8]] with 2 attached to 4
    F_4   1 - 2 => 3 - 4
    G_2   1 <<= 2                            (1 is the short root)
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class InvalidTypeError(ValueError):
    """Raised for a (family, rank) pair that is not a simple type."""


class LabelError(ValueError):
    """Raised when a subgroup label cannot be resolved."""


_VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}

#: Classical count of positive roots per type.
POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


def validate_type(family: str, rank: int) -> None:
    if family not in _VALID_RANKS or not isinstance(rank, int) or not _VALID_RANKS[family](rank):
        raise InvalidTypeError(f"not a simple type: {family}{rank}")


def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix A with A[i][j] = <alpha_j, alpha_i^vee> (0-indexed)."""
    validate_type(family, rank)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j):
        a[i][j] = -1
        a[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if family == "B" and rank >= 2:
            a[rank - 1][rank - 2] = -2  # row of the short root
        if family == "C" and rank >= 2:
            a[rank - 2][rank - 1] = -2
    elif family == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2)
        bond(2, 3)
        a[2][1] = -2  # row of the short root alpha_3
    elif family == "G":
        a[0][1] = -3  # row of the short root alpha_1
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class RootSystem:
    """A simple root system with enumerated positive roots.

    ``positive_roots`` holds coefficient vectors over the simple basis in
    lexicographic order; simple roots are the coefficient unit vectors.
    """

    family: str
    rank: int
    positive_roots: tuple[tuple[int, ...], ...]
    cartan: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Enumerate the positive roots as the closure of the simple roots under
    the simple reflections s_i(beta) = beta - <beta, alpha_i^vee> alpha_i.
    Every positive root of height above 1 reflects down to a positive root
    of smaller height, so it is a rising image (pairing below 0) of that
    root: the rising images, all positive, reach every root."""
    validate_type(family, rank)
    cartan = cartan_matrix(family, rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots, layer = set(simple), simple
    while layer:
        layer = {
            beta[:i] + (beta[i] - k,) + beta[i + 1 :]
            for beta in layer
            for i, row in enumerate(cartan)
            if (k := sum(x * a for x, a in zip(beta, row))) < 0
        } - roots
        roots |= layer
    ordered = tuple(sorted(roots))
    expected = POSITIVE_ROOT_COUNTS[family](rank)
    if len(ordered) != expected:
        raise RuntimeError(
            f"closure produced {len(ordered)} positive roots for {family}{rank}, expected {expected}"
        )
    return RootSystem(family=family, rank=rank, positive_roots=ordered, cartan=cartan)


def _dim(family: str, rank: int) -> int:
    """Dimension of the simple group: 2 * #positive roots + rank."""
    return 2 * len(build_root_system(family, rank).positive_roots) + rank


# ---------------------------------------------------------------------------
# Subgroup labels

_FACTOR_RE = re.compile(r"(~?)([A-G])(\d+)(?:\^(\d+))?|T(\d+)")

_LABEL_ALIASES = {
    "D5T1": "T1D5", "D4T2": "T2D4", "E6T1": "T1E6", "E7A1": "A1E7",
    "D6A1": "A1D6", "A5A1": "A1A5", "A5A2": "A2A5", "E6A2": "A2E6",
    "A4A4": "A4^2", "D4D4": "D4^2", "A1A1": "A1^2",
}


@lru_cache(maxsize=1024)
def normalize_label(label: str) -> str:
    """The one spelling of a subgroup label that every table is keyed by:
    no spaces, ``~A2`` for a tilde factor written ``Ã2``, no
    component-group suffix such as ``.2`` (it names N(X)/X, not X itself),
    and the factor order of the tables."""
    s = label.replace(" ", "").replace("Ã", "~A")
    s = re.sub("([A-G])\u0303", r"~\1", s)  # a letter with a combining tilde
    s = re.sub(r"\.\d+$", "", s)
    return _LABEL_ALIASES.get(s, s)


def parse_subsystem_label(label: str) -> tuple[list[tuple[str, int]], int]:
    """Parse a product-of-simple-types label like ``A1E7``, ``A4^2``,
    ``D5T1`` or ``A2~A2`` into (simple factors, torus rank).

    Tilde factors (short-root subsystems) have the same rank and dimension
    as their untilded type, so the tilde is dropped here.
    """
    s = normalize_label(label)
    factors: list[tuple[str, int]] = []
    torus = 0
    pos = 0
    for m in _FACTOR_RE.finditer(s):
        if m.start() != pos:
            raise LabelError(f"unresolvable label {label!r}")
        pos = m.end()
        if m.group(5) is not None:
            torus += int(m.group(5))
            continue
        fam, rank = m.group(2), int(m.group(3))
        mult = int(m.group(4)) if m.group(4) else 1
        validate_type(fam, rank)
        factors.extend([(fam, rank)] * mult)
    if pos != len(s) or (not factors and torus == 0):
        raise LabelError(f"unresolvable label {label!r}")
    return factors, torus


def subgroup_dim(label: str) -> int:
    """Dimension of the subsystem subgroup named by ``label``."""
    factors, torus = parse_subsystem_label(label)
    d = torus
    for fam, rank in factors:
        d += _dim(fam, rank)
    return d


# ---------------------------------------------------------------------------
# Parabolic quotient dimension table for the exceptional groups

EXCEPTIONAL_GROUPS = ("E8", "E7", "E6", "F4", "G2")


def _group_type(name: str) -> tuple[str, int]:
    m = re.fullmatch(r"([A-G])(\d+)", name)
    if not m:
        raise InvalidTypeError(f"bad group name {name!r}")
    fam, rank = m.group(1), int(m.group(2))
    validate_type(fam, rank)
    return fam, rank


#: dim of the classical groups on their natural n-dimensional module
_CLASSICAL_DIMS = {
    "SL": lambda n: n * n - 1,
    "GL": lambda n: n * n,
    "Sp": lambda n: n * (n + 1) // 2,
    "SO": lambda n: n * (n - 1) // 2,
    "O": lambda n: n * (n - 1) // 2,
}


def group_dim(name: str, n: int | None = None) -> int:
    """Dimension of a group: ``group_dim("Sp", 8)`` for a classical family
    on its natural module, ``group_dim("E7")`` from the root system."""
    if n is not None:
        if name not in _CLASSICAL_DIMS:
            raise InvalidTypeError(f"not a classical family: {name!r}")
        return _CLASSICAL_DIMS[name](n)
    return _dim(*_group_type(name))


def group_rank(name: str) -> int:
    return _group_type(name)[1]


@lru_cache(maxsize=None)
def parabolic_dim(group: str, node: int) -> int:
    """dim G/P for the maximal parabolic of ``group`` that deletes ``node``
    (1-based): the positive roots with a nonzero coefficient on the node,
    which are the roots outside the Levi subsystem."""
    fam, rank = _group_type(group)
    if not 1 <= node <= rank:
        raise InvalidTypeError(f"node {node} out of range for {group}")
    return sum(1 for r in build_root_system(fam, rank).positive_roots if r[node - 1])


def parabolic_dim_rows() -> list[tuple[str, int, int]]:
    """(group, node, dim G/P_node) for every maximal parabolic of every
    exceptional group, computed from the root systems."""
    return [(g, node, parabolic_dim(g, node)) for g in EXCEPTIONAL_GROUPS
            for node in range(1, group_rank(g) + 1)]
