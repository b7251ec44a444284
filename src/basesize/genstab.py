"""Numeric verification of generic stabilizer dimensions.

Configurations of subspaces (or module vectors) are sampled uniformly over
a large prime field and the stabilizer subalgebra

    { X in g : X * part  is contained in  part,  for every part }

is computed as an exact nullspace, by elimination mod p.  Over a prime of
size ~2^31 a random configuration sits in the generic locus except with
negligible probability; reports keep the minimum over independent trials
(the generic fiber dimension is the minimal one) and cross-check a second
prime.  Scalars are subtracted for linear-group actions, where the center
acts trivially on subspace varieties.  ``rational_report`` solves one
configuration, drawn at p = 97, over Q instead.

Coordinates.  For SL the unknowns are the n^2 entries of X in gl.  For Sp
and SO they are Lie-algebra coordinates: X = J^T S with S symmetric
(alternating J) or antisymmetric (symmetric J), so the unknowns are the
n(n+1)/2 or n(n-1)/2 upper-triangle entries of S and no form rows are
needed.  A part b with annihilator rows w gives the rows u^T S b = 0 with
u = J w, folded onto the upper triangle.

Adapted basis.  The system is solved in a basis B = [b_1 | ... | b_k | C]
adapted to a head of leading parts, with unknowns X' = B^-1 X B (SL) or
S' = B^T S B (Sp/SO).  There the head's rows are exactly coordinate
functionals: they delete columns, and only the later parts, mapped by B^-1
and paired by F = B^-1 J B^-T, are eliminated on the columns left.  The
head, each condition checked exactly mod p:

* SL: the longest prefix of at most floor(n/d) parts of rank k d, C the
  coordinate vectors off the pivots; part i deletes X'(outside W_i, W_i).
* totally singular: the first two parts when W_1 + W_2 is nondegenerate,
  C = (W_1 + W_2)^perp; part i deletes S'(W_i + C, W_i).
* nondegenerate: the first part, C = W_1^perp; it deletes S'(C, W_1).
* otherwise none, B = I (two totally singular parts of SO_2d meet for
  odd d).

The nullity is the free columns minus the rank, for every configuration,
generic or not.

Part streams.  Each (prime, trial) pair draws its parts from one stream
whose RNG key holds no part count, so the configuration of c parts is a
prefix of the one of c + 1 (``sample_configuration`` returns that prefix).
One solver, ``_dims``, gives the dimension after each part from a given
c on.  While every part is a head part it is the free column count and
nothing is eliminated (a lone totally singular part is solved alone).  At
the first part past the head the stacked rows after the head are
eliminated; from the next c on their reduced echelon form is kept, and
each new part's rows are reduced against it.  ``stabilizer_report`` takes
its first value on a configuration's c parts, ``estimate_b0`` runs it on
each stream: an estimate draws b0 parts per stream, eliminates each part
after the head once, and its dimensions cannot increase with c.

Sampling.  A totally singular part is the graph [x; S x] of a random
symmetric (Sp) or antisymmetric (SO) m x m matrix S, m = floor(n/2), on a
random m x d matrix x of rank d, and [x; (S - c c^T / 2) x; c^T x] with a
random m-vector c for odd n (so p != 2).  The graphs are generic: they are
all the totally singular d-spaces that project injectively onto the first
m coordinates.  For SO_2d with d = m they lie in one family, where two
generic members meet in dimension d mod 2, so pairs need rank 2d - d mod 2.

Characteristic caveat: the dimension computed here is the Lie-algebra
stabilizer dimension, which matches the group stabilizer dimension at
generic points when the stabilizer scheme is smooth; the default primes
avoid the bad small characteristics where smoothness can fail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, linalg, rootsys

#: default prime (largest below 2^31) and the cross-check prime
PRIMES = (2147483647, 2147483629)

RESAMPLE_BUDGET = 64


class SamplingError(ValueError):
    """Resampling budget exhausted while enforcing an open condition."""


class ConfigError(ValueError):
    pass


@dataclass
class Configuration:
    """Sampled parts over F_p (arrays are frozen after construction)."""

    family: str  # "SL" | "Sp" | "SO"
    p: int
    n: int
    d: int
    flavor: str  # "linear" | "nondeg" | "totally_singular"
    form: np.ndarray | None
    parts: tuple[np.ndarray, ...]
    seed: int
    resamples: int

    def __post_init__(self):
        if self.form is not None:
            self.form.setflags(write=False)
        for b in self.parts:
            b.setflags(write=False)


@dataclass(frozen=True)
class SystemShape:
    """Size of one solve: the unknowns, the head parts whose rows became
    deleted columns, the columns left, and the rows eliminated on them with
    their rank."""

    unknowns: int
    head_parts: int
    columns: int
    rows: int
    rank: int


@dataclass(frozen=True)
class StabilizerReport:
    algebra: str  # which Lie algebra the solve ran in
    algebra_dim: int  # minimum over trials and primes
    projective_dim: int  # algebra_dim minus the scalars contained
    trials: int
    stable: bool  # every trial at every prime agreed
    primes: tuple[int, ...]
    dims_by_prime: tuple[tuple[int, ...], ...]
    resamples: int
    seed: int
    first_system: SystemShape  # the solve of the first trial at the first prime


@dataclass(frozen=True)
class B0Estimate:
    value: int | None  # smallest c with projective_dim 0, None if not found
    c_max: int
    projective_dims: tuple[int, ...]  # indexed by c = 1..c_max (until found)
    lower_bound: int
    seed: int


def standard_form(family: str, n: int) -> np.ndarray | None:
    """A fixed invertible integer Gram matrix: alternating for Sp, symmetric
    for SO, none for SL.  The first floor(n/2) basis vectors span a maximal
    isotropic subspace.  Entries are signed, so the same matrix is the form
    over Q and, reduced mod p, over F_p."""
    if family == "SL":
        return None
    m = n // 2
    j = np.zeros((n, n), dtype=np.int64)
    if family == "Sp":
        if n % 2:
            raise ConfigError("Sp needs even n")
        j[:m, m:] = np.eye(m, dtype=np.int64)
        j[m:, :m] = -np.eye(m, dtype=np.int64)
        return j
    if family == "SO":
        j[:m, m : 2 * m] = np.eye(m, dtype=np.int64)
        j[m : 2 * m, :m] = np.eye(m, dtype=np.int64)
        if n % 2:
            j[-1, -1] = 1
        return j
    raise ConfigError(f"unknown family {family!r}")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def _validate(family: str, n: int, d: int, flavor: str) -> None:
    if family == "SL" and flavor != "linear":
        raise ConfigError("SL parts carry no form")
    if family in ("Sp", "SO") and flavor not in ("nondeg", "totally_singular"):
        raise ConfigError(f"flavor {flavor!r} invalid for {family}")
    if family == "Sp" and flavor == "nondeg" and d % 2:
        raise ConfigError("nondegenerate symplectic subspaces have even dimension")
    if not 1 <= d < n:
        raise ConfigError(f"need 1 <= d < n, got d={d}, n={n}")
    if flavor == "totally_singular" and d > n // 2:
        raise ConfigError("totally singular dimension exceeds the Witt index")


def _part_stream(family: str, n: int, d: int, flavor: str, seed: int, p: int):
    """Stream of parts of the requested flavor, each drawn with the open
    conditions enforced against the parts before it: full column rank,
    pairwise transversality where dimensions allow, exact (non)degeneracy
    against the standard form.  Yields (part, rejections before it).  A
    condition that cannot hold raises ``ConfigError``, before any draw or at
    the first transversal part beyond the number that fit; running out of
    retries raises ``SamplingError``.  The RNG key holds no part count, so c
    parts are a prefix of c + 1."""
    _validate(family, n, d, flavor)
    if flavor == "totally_singular" and n % 2 and p == 2:
        raise ConfigError("totally singular parts of odd n need 1/2, so p != 2")
    if (family, flavor, n % 2, d % 2, p) == ("SO", "nondeg", 0, 1, 2):
        raise ConfigError("mod 2 the form of SO_n with even n is alternating: no nondegenerate odd-dimensional parts")
    j = standard_form(family, n)
    joint_rank = 2 * d - (d % 2 if (family, flavor, n) == ("SO", "totally_singular", 2 * d) else 0)
    # transversal d-spaces share no nonzero vector: (p^n - 1) / (p^d - 1) fit
    most = (p**n - 1) // (p**d - 1) if 2 * d <= n and joint_rank == 2 * d else None
    rng = _rng(seed, 0xC0FF)
    resamples = 0
    parts: list[np.ndarray] = []

    def gram(x: np.ndarray) -> np.ndarray:
        return linalg.matmul_mod(linalg.matmul_mod(x.T, j, p), x, p)

    # for nondegenerate parts a nonzero Gram determinant already implies
    # full column rank, so no rank is taken
    def try_one() -> np.ndarray | None:
        if flavor == "totally_singular":  # the graph of the module docstring
            m = n // 2
            x = rng.integers(0, p, size=(m, d), dtype=np.int64)
            if linalg.rank_mod(x, p) < d:
                return None
            a = rng.integers(0, p, size=(m, m), dtype=np.int64)
            s = np.triu(a) + np.triu(a, 1).T if family == "Sp" else (a - a.T) % p  # a + a^T: 0 diagonal at p = 2
            if n % 2 == 0:
                return np.concatenate([x, linalg.matmul_mod(s, x, p)])
            c = rng.integers(0, p, size=(m, 1), dtype=np.int64)
            s = (s - linalg.matmul_mod(c, c.T, p) * ((p + 1) // 2)) % p  # (p + 1) / 2 = 1/2 mod p
            return np.concatenate([x, linalg.matmul_mod(s, x, p), linalg.matmul_mod(c.T, x, p)])
        b = rng.integers(0, p, size=(n, d), dtype=np.int64)
        if flavor == "nondeg":
            return b if linalg.det_mod(gram(b), p) else None
        return b if linalg.rank_mod(b, p) == d else None

    def compatible(b: np.ndarray) -> bool:
        # pairwise open conditions against the parts already chosen
        if 2 * d > n:
            return True
        for other in parts:
            joint = np.concatenate([other, b], axis=1)
            if flavor == "nondeg":
                if linalg.det_mod(gram(joint), p) == 0:
                    return False
            elif linalg.rank_mod(joint, p) < joint_rank:
                return False
        return True

    while True:
        if len(parts) == most:
            raise ConfigError(f"F_{p}^{n} holds at most (p^n - 1)/(p^d - 1) = {most} transversal {d}-spaces")
        for rejects in range(RESAMPLE_BUDGET):
            b = try_one()
            if b is not None and compatible(b):
                break
            resamples += 1
        else:
            raise SamplingError(f"resampling budget exhausted after {resamples} rejects")
        if flavor == "totally_singular" and np.any(gram(b)):  # a defect of the graph construction
            raise RuntimeError("totally singular part failed the exact form check")
        parts.append(b)
        yield b, rejects


def sample_configuration(
    family: str, n: int, d: int, flavor: str, c: int, seed: int, p: int = PRIMES[0]
) -> Configuration:
    """The first c parts of the part stream for ``seed``."""
    if c < 1:
        raise ConfigError("need c >= 1 parts")
    stream = _part_stream(family, n, d, flavor, seed, p)
    drawn = [next(stream) for _ in range(c)]
    return Configuration(
        family=family, p=p, n=n, d=d, flavor=flavor, form=standard_form(family, n),
        parts=tuple(b for b, _ in drawn), seed=seed, resamples=sum(r for _, r in drawn),
    )


# ---------------------------------------------------------------------------
# Constraint assembly, shared by the F_p and the Q routes

def _unknowns(family: str, n: int) -> int:
    """Columns of the stabilizer system: the entries of X in gl, the
    upper-triangle entries of S in sp (symmetric) and so (antisymmetric)."""
    return rootsys.group_dim("GL" if family == "SL" else family, n)


def _lie_coordinates(coef: np.ndarray, family: str) -> np.ndarray:
    """Fold rows over the n x n entries of S (shape (rows, n, n)) onto the
    upper-triangle entries that parametrise S: symmetric for Sp,
    antisymmetric for SO."""
    n = coef.shape[-1]
    i, j = np.triu_indices(n, 0 if family == "Sp" else 1)
    if family == "Sp":
        return coef[:, i, j] + coef[:, j, i] * (i != j)
    return coef[:, i, j] - coef[:, j, i]


def _span_constraint(b: np.ndarray, ann: np.ndarray, family: str, form, p: int | None = None):
    """Rows of the linear system expressing X * col(b) inside col(b):
    w^T X b = 0 for every row w of ``ann``, which annihilates col(b), and
    every column b.  In gl the unknowns are the entries of X.  In sp/so,
    X = J^T S, so w^T X b = u^T S b with u = J w, and the unknowns are the
    upper-triangle entries of S.  ``form`` may be any Gram matrix J' with
    J'^T G = I for the form G that the part lives in (J for the standard
    form, B^-1 J B^-T in the basis B).  With ``p`` the products are reduced
    mod p before the fold adds them."""
    n, d = b.shape
    if family == "SL":
        return np.einsum("ai,jb->abij", ann, b).reshape(len(ann) * d, n * n)
    u = ann @ form.T if p is None else linalg.matmul_mod(ann, form.T, p)
    coef = np.einsum("ai,jb->abij", u, b).reshape(len(ann) * d, n, n)
    if p is not None:
        coef %= p
    return _lie_coordinates(coef, family)


def _part_rows(b: np.ndarray, family: str, form, p: int) -> np.ndarray:
    """The stabilizer rows of one part mod p."""
    return _span_constraint(b, linalg.nullspace_basis_mod(b.T, p), family, form, p)


def _form_constraint(j: np.ndarray) -> np.ndarray:
    """Rows over gl expressing X^T J + J X = 0."""
    n = j.shape[0]
    eye = np.eye(n, dtype=np.int64)
    t1 = np.einsum("is,jr->rsij", j, eye)
    t2 = np.einsum("ri,js->rsij", j, eye)
    return (t1 + t2).reshape(n * n, n * n)


# ---------------------------------------------------------------------------
# Adapted basis: the head parts' rows become deleted columns

def _head_size(parts, family: str, flavor: str, form, p: int) -> int:
    """How many leading ``parts`` the adapted basis is built on, by the head
    rules of the module docstring."""
    n, d = parts[0].shape
    if family == "SL":
        k = min(len(parts), n // d)
        pivots = linalg.rref_mod(np.concatenate(parts[:k], axis=1), p)[1]
        # the first i parts have rank i d exactly when columns 0..id-1 are all pivots
        lead = next((i for i, c in enumerate(pivots) if c != i), len(pivots))
        return min(k, lead // d)
    size = 2 if flavor == "totally_singular" else 1
    if len(parts) < size:
        return 0
    h = np.concatenate(parts[:size], axis=1)
    gram = linalg.matmul_mod(linalg.matmul_mod(h.T, form, p), h, p)
    if flavor == "totally_singular" and (gram[:d, :d].any() or gram[d:, d:].any()):
        return 0
    return size if linalg.det_mod(gram, p) else 0


def _free_columns(family: str, flavor: str, n: int, d: int, head: int) -> np.ndarray:
    """Columns left after deleting the coordinates that the head's rows fix,
    in the adapted basis with blocks W_1, ..., W_head of d columns, then C."""
    block_of = np.arange(n) // d  # head blocks 0..head-1, then C
    mask = np.zeros((n, n), dtype=bool)
    for i in range(head):
        if family == "SL":
            rows = block_of != i
        elif flavor == "totally_singular":
            rows = (block_of == i) | (block_of >= head)
        else:
            rows = block_of >= head
        mask[rows, i * d : (i + 1) * d] = True
    if family == "SL":
        return (~mask).ravel().nonzero()[0]
    i, j = np.triu_indices(n, 0 if family == "Sp" else 1)
    return (~(mask | mask.T)[i, j]).nonzero()[0]


@dataclass(frozen=True)
class _Adapted:
    """The stabilizer system in the basis B adapted to the head parts: a
    later part b gives the rows of B^-1 b, paired by F = B^-1 J B^-T, on
    the free columns."""

    family: str
    p: int
    inv: np.ndarray | None  # B^-1; None for the empty head, B = I
    form: np.ndarray | None  # F, or J for the empty head; None for SL
    free: np.ndarray

    def rows(self, b: np.ndarray) -> np.ndarray:
        if self.inv is None:
            return _part_rows(b, self.family, self.form, self.p)
        b = linalg.matmul_mod(self.inv, b, self.p)
        return _part_rows(b, self.family, self.form, self.p)[:, self.free]


def _adapted(parts, head: int, family: str, flavor: str, form, p: int) -> _Adapted:
    """The adapted system whose head is the first ``head`` parts, a size
    that ``_head_size`` accepted."""
    n, d = parts[0].shape
    free = _free_columns(family, flavor, n, d, head)
    if not head:
        return _Adapted(family, p, None, form, free)
    h = np.concatenate(parts[:head], axis=1)
    if family == "SL":
        # the coordinate vectors off the pivots of h^T complete h to a basis
        rest = np.delete(np.eye(n, dtype=np.int64), linalg.rref_mod(h.T, p)[1], axis=1)
    else:  # C = (col h)^perp, a complement since col h is nondegenerate
        rest = linalg.nullspace_basis_mod(linalg.matmul_mod(h.T, form, p), p).T
    inv = linalg.inv_mod(np.concatenate([h, rest], axis=1), p)
    if form is not None:
        form = linalg.matmul_mod(linalg.matmul_mod(inv, form, p), inv.T, p)
    return _Adapted(family, p, inv, form, free)


def _dims(parts, family: str, flavor: str, form, p: int, start: int = 1):
    """Stabilizer algebra dimension after each of ``parts`` (any iterable),
    c = start, start + 1, ..., as the module docstring's "Part streams"
    describes."""
    parts = iter(parts)
    drawn = [next(parts) for _ in range(start)]
    while True:
        head = _head_size(drawn, family, flavor, form, p)
        if head == len(drawn):
            yield len(_free_columns(family, flavor, *drawn[0].shape, head))
        elif len(drawn) == 1 and flavor == "totally_singular":  # a head needs two of them
            yield linalg.nullspace_dim_mod(_part_rows(drawn[0], family, form, p), p)
        else:
            break
        drawn.append(next(parts))
    adapted = _adapted(drawn, head, family, flavor, form, p)
    block = np.concatenate([adapted.rows(b) for b in drawn[head:]], axis=0)
    yield linalg.nullspace_dim_mod(block, p)
    echelon = linalg.EchelonMod(len(adapted.free), p)
    echelon.add(block)
    for b in parts:
        echelon.add(adapted.rows(b))
        yield echelon.nullity


def stabilizer_algebra_dim_once(config: Configuration) -> int:
    """Exact nullspace dimension of the stabilizer system for one sampled
    configuration, in gl for SL and in Lie coordinates for Sp/SO: the free
    columns of the adapted basis minus the rank of the later parts' rows."""
    return next(_dims(config.parts, config.family, config.flavor, config.form, config.p, start=len(config.parts)))


def _system_shape(config: Configuration, dim: int) -> SystemShape:
    """The shape of ``stabilizer_algebra_dim_once(config)``, whose answer is
    ``dim``, counted without assembling it: every part after the head gives
    (n - d) d rows."""
    head = _head_size(config.parts, config.family, config.flavor, config.form, config.p)
    columns = len(_free_columns(config.family, config.flavor, config.n, config.d, head))
    rows = (len(config.parts) - head) * (config.n - config.d) * config.d
    return SystemShape(_unknowns(config.family, config.n), head, columns, rows, columns - dim)


def _subspace_algebra(family: str) -> tuple[str, int]:
    """The algebra a subspace action is solved in, with the dimension of the
    scalars in it: they lie in every gl-stabilizer of subspaces but meet
    sp/so trivially."""
    return ("gl", 1) if family == "SL" else (family.lower(), 0)


def _runs(seed: int, trials: int, primes: tuple[int, ...]) -> list[tuple[int, int]]:
    """(prime, part stream seed) of every (prime, trial) pair, prime by
    prime; the minimum over them needs at least one of each."""
    if trials < 1:
        raise ConfigError("need trials >= 1")
    if not primes:
        raise ConfigError("need at least one prime")
    return [
        (p, int(np.random.SeedSequence(seed, spawn_key=(pi, t)).generate_state(1, dtype=np.uint64)[0]))
        for pi, p in enumerate(primes)
        for t in range(trials)
    ]


def _report(algebra: str, correction: int, dims: list[int], trials: int, primes: tuple[int, ...],
            resamples: int, seed: int, first_system: SystemShape) -> StabilizerReport:
    """The report of every route: ``dims`` lists the trials prime by prime,
    and ``correction`` is the dimension of the scalars in ``algebra``."""
    algebra_dim = min(dims)
    return StabilizerReport(
        algebra=algebra,
        algebra_dim=algebra_dim,
        projective_dim=algebra_dim - correction,
        trials=trials,
        stable=len(set(dims)) == 1,
        primes=tuple(primes),
        dims_by_prime=tuple(tuple(dims[i : i + trials]) for i in range(0, len(dims), trials)),
        resamples=resamples,
        seed=seed,
        first_system=first_system,
    )


def stabilizer_report(
    family: str,
    n: int,
    d: int,
    flavor: str,
    c: int,
    seed: int,
    trials: int = 5,
    primes: tuple[int, ...] = PRIMES,
) -> StabilizerReport:
    """Min-over-trials stabilizer dimension at each prime, cross-checked."""
    dims, resamples = [], 0
    for p, s in _runs(seed, trials, primes):
        config = sample_configuration(family, n, d, flavor, c, seed=s, p=p)
        resamples += config.resamples
        dims.append(stabilizer_algebra_dim_once(config))
        if len(dims) == 1:
            first_system = _system_shape(config, dims[0])
    return _report(*_subspace_algebra(family), dims, trials, primes, resamples, seed, first_system)


def estimate_b0(
    family: str,
    n: int,
    d: int,
    flavor: str,
    c_max: int,
    trials: int = 5,
    seed: int = 0,
    primes: tuple[int, ...] = PRIMES,
) -> B0Estimate:
    """Smallest c <= c_max whose generic configuration has a
    zero-dimensional stabilizer, with the orbit-dimension lower bound
    cross-checked.  Each (prime, trial) pair grows one part stream by one
    part per c, so the estimate draws b0 parts per stream and eliminates
    the rows of each part after the head once."""
    if c_max < 1:
        raise ConfigError("need c_max >= 1")
    form = standard_form(family, n)
    streams = [
        _dims((b for b, _ in _part_stream(family, n, d, flavor, s, p)), family, flavor, form, p)
        for p, s in _runs(seed, trials, primes)
    ]
    corr = _subspace_algebra(family)[1]
    proj_dims = []
    value = None
    for c in range(1, c_max + 1):
        dims = [next(s) for s in streams]
        if c == 1:
            # dim H from the first trial at the first prime, for the lower
            # bound from dim G and dim Omega = dim G - dim H
            dim_h = dims[0] - corr
        proj_dims.append(min(dims) - corr)
        if proj_dims[-1] == 0:
            value = c
            break
    dim_g = rootsys.group_dim(family, n)
    lb = bounds.lower_bound_b0(dim_g, dim_g - dim_h)
    if value is not None and value < lb:
        raise RuntimeError(
            f"estimate {value} fell below the dimension lower bound {lb}; "
            "this indicates a sampling or solver defect"
        )
    return B0Estimate(
        value=value, c_max=c_max, projective_dims=tuple(proj_dims), lower_bound=lb, seed=seed
    )


# ---------------------------------------------------------------------------
# Module actions (derived-action annihilators)

MODULE_KINDS = ("sym2", "so_tensor")


def module_stabilizer_dim(
    kind: str, n: int, c: int, seed: int, p: int = PRIMES[0]
) -> StabilizerReport:
    """Stabilizer algebra of c generic module vectors.

    sym2: X in sl_n annihilating c generic nondegenerate symmetric forms
    (X^T S + S X = 0), in gl coordinates with the form rows.  so_tensor:
    (X, Y) in so_n x so_n annihilating c generic tensors W
    (X W + W Y^T = 0), in antisymmetric coordinates.
    """
    if kind not in MODULE_KINDS:
        raise ConfigError(f"unsupported module kind {kind!r}")
    if n < 2 or c < 1:
        raise ConfigError(f"module actions need n >= 2 and c >= 1, got n={n}, c={c}")
    rng = _rng(seed, 0x30D, c)
    resamples = 0
    if kind == "sym2":
        algebra, blocks = "sl", [np.eye(n, dtype=np.int64).reshape(1, n * n)]  # trace X = 0
        for _ in range(c):
            for _ in range(RESAMPLE_BUDGET):
                a = rng.integers(0, p, size=(n, n), dtype=np.int64)
                s = np.triu(a) + np.triu(a, 1).T  # a + a^T: 0 diagonal at p = 2
                if linalg.det_mod(s, p) != 0:
                    break
                resamples += 1
            else:
                raise SamplingError(f"no nondegenerate symmetric form in {RESAMPLE_BUDGET} draws")
            blocks.append(_form_constraint(s))
    else:
        # so_tensor: so_n of the identity form, so X and Y are antisymmetric;
        # the unknowns are their strict upper triangles, [X | Y]
        algebra, blocks, eye = "so+so", [], np.eye(n, dtype=np.int64)
        for _ in range(c):
            w = rng.integers(0, p, size=(n, n), dtype=np.int64)
            tx = np.einsum("ir,js->rsij", eye, w).reshape(n * n, n, n)
            ty = np.einsum("is,rj->rsij", eye, w).reshape(n * n, n, n)
            blocks.append(np.concatenate([_lie_coordinates(tx, "SO"), _lie_coordinates(ty, "SO")], axis=1))
    system = np.concatenate(blocks, axis=0)
    dim = linalg.nullspace_dim_mod(system, p)
    rows, columns = system.shape
    return _report(algebra, 0, [dim], 1, (p,), resamples, seed,
                   SystemShape(columns, 0, columns, rows, columns - dim))


# ---------------------------------------------------------------------------
# Rational-field variant (small n)

def stabilizer_algebra_dim_rational(parts: list, family: str, n: int, form=None) -> int:
    """Exact stabilizer dimension over Q for an integer configuration.

    The same system as the mod-p route, with the annihilators and the rank
    taken over Q.  ``form`` must be the form over Q (as ``standard_form``
    gives it); parts that are totally singular only mod p do not belong here.
    """
    parts = [np.asarray(b) for b in parts]
    anns = []
    for b in parts:
        ann = linalg.nullspace_basis_rational(b.T.tolist())
        if len(ann) != n - b.shape[1]:
            raise ConfigError("part does not have full column rank")
        anns.append(np.array(ann, dtype=object).reshape(len(ann), n))
    system = np.concatenate(
        [_span_constraint(b, ann, family, form) for b, ann in zip(parts, anns)], axis=0
    )
    return _unknowns(family, n) - linalg.rank_rational(system.tolist())


#: the prime at which ``rational_report`` draws its parts, in one trial
RATIONAL_SAMPLE_PRIME = 97


def rational_report(family: str, n: int, d: int, flavor: str, c: int, seed: int) -> StabilizerReport:
    """The stabilizer of one configuration drawn at ``RATIONAL_SAMPLE_PRIME``,
    its small integer entries solved over Q in the plain basis: no head,
    every unknown a column, (n - d) d rows per part."""
    if flavor == "totally_singular":
        # a part totally singular mod p is not totally singular over Q
        raise ConfigError("the rational route does not handle totally singular parts")
    config = sample_configuration(family, n, d, flavor, c, seed=seed, p=RATIONAL_SAMPLE_PRIME)
    dim = stabilizer_algebra_dim_rational(config.parts, family, n, form=config.form)
    unknowns = _unknowns(family, n)
    return _report(*_subspace_algebra(family), [dim], 1, (RATIONAL_SAMPLE_PRIME,), config.resamples, seed,
                   SystemShape(unknowns, 0, unknowns, c * (n - d) * d, unknowns - dim))
