"""Numeric verification of generic stabilizer dimensions.

Configurations of subspaces (or module vectors) are sampled over a large
prime field and the stabilizer subalgebra

    { X in g : X * part  is contained in  part,  for every part }

is computed as an exact nullspace, by elimination mod p.  Over a prime of
size ~2^31 a random configuration sits in the generic locus except with
negligible probability; reports keep the minimum over independent trials
(the generic fiber dimension is the minimal one) and cross-check a second
prime.  Scalars are subtracted for linear-group actions, where the center
acts trivially on subspace varieties.

Coordinates.  For SL the unknowns are the n^2 entries of X in gl.  For Sp
and SO they are Lie-algebra coordinates: X = J^T S with S symmetric
(alternating J) or antisymmetric (symmetric J), so the unknowns are the
n(n+1)/2 or n(n-1)/2 upper-triangle entries of S and no form rows are
needed.  Every system has its rows from one rule, ``_product_rows``: the
entries of L X R as rows over a list of (i, j) entries of X, with i and j
swapped for X^T.  A part b with annihilator rows A gives those of
(A J^T) S b, the columns of S[i, j] and S[j, i] folded into one.  Each
``standard_form`` J is a signed permutation, so a product with J only
permutes and negates entries: the rows are exact integer products, reduced
mod p once.

Fixed head.  Over the algebraic closure GL_n is transitive on tuples of
floor(n/d) independent d-spaces, and (Witt) Sp_n and SO_n are transitive on
nondegenerate d-spaces and on transversal pairs of totally singular ones.
So a generic configuration is conjugate to one that starts with a fixed
head of exact integer coordinate blocks, and only the parts after it are
drawn.  In the standard basis e_1..e_m, f_1..f_m (m = floor(n/2)), then g
of norm 1 for odd n, and with k = floor(d/2), the head is:

* SL: the blocks e_{id+1}..e_{id+d}, i < floor(n/d);
* totally singular: span(e_1..e_d), then span(f_1..f_d), except for SO_2d
  with odd d, whose f-block lies in the other family;
* nondegenerate: span(e_1..e_k, f_1..f_k), with g for odd d.

For SO with even n and nondegenerate parts of odd d, the standard form has
g and g', of norms 1 and -1, where e_m and f_m were: x^2 - y^2 is a
hyperbolic plane for p != 2 and over Q, so it is the same form.

SO with odd n is refused at p = 2, as ``formulas`` refuses it: mod 2 its
form is not alternating, so its isometry group is not SO_n.

Every head part is a coordinate block W, and every standard form J is
monomial, so the rows of a head part are exactly coordinate functionals:
W fixes X(outside W, W), or S(x, W) for x in the support of J e_j for some
j outside W.  They delete columns, and only the later parts are eliminated
on the columns left, in the one form and basis that sampling also uses.
The blocks are disjoint, so a walk starts from one table, of the shortest
head prefix that deletes each column, and reads every prefix's count off
it.  The head of a configuration is the longest prefix of its parts equal
to the standard head, by exact comparison, so the nullity is the free
columns minus the rank for every configuration, generic or not.  The head
does not depend on the prime.  Drawn parts follow the whole head, so the
head of a sampled configuration of c parts is the first c standard head
parts.

Part streams.  Each (prime, trial) pair takes its parts from one stream:
the head, then parts drawn from an RNG whose key holds no part count, so
the configuration of c parts is a prefix of the one of c + 1
(``sample_configuration`` returns that prefix).  One walker, ``_Walk``,
solves a configuration part by part for both routes: a head part costs
one exact comparison and leaves the nullity at its prefix's count.  The
first part past the head builds the free (i, j) pairs and one reduced
echelon form (``linalg.EchelonMod``) on them, which the rows of each part
enter exactly once: ``_part_rows`` takes those pairs, so no deleted column
is assembled.  Once the nullity is the dimension of the scalars, which lie
in every stabilizer (1 in gl, 0 in sp and so), no later part's rows are
assembled.  ``estimate_b0`` steps one walk per stream by one part per c
and reads the nullity after each, so an estimate takes b0 parts per
stream, and its dimensions cannot increase with c.
``stabilizer_algebra_dim_once`` walks one configuration: it adds every
part but the last and takes the last by rank alone
(``EchelonMod.nullity_with``), which eliminates in sparsity order
(``linalg``, "Order").  For SL with n = k d and the head's k diagonal
blocks X_0..X_{k-1} left, a drawn graph [I_d; Y] gives the rows
Y_i X_0 = X_i Y_i, each block of them on its own X_i and the shared X_0:
with the columns of X_0, the densest, last, no pivot step leaves its block.

Sampling.  Every drawn part is a graph [I_d; Y] over the first d
coordinates, of full column rank as drawn; such d-spaces are dense and
open, so a generic configuration can be read there.  A linear or
nondegenerate part takes Y uniform, and a nondegenerate one is redrawn
until its Gram determinant is nonzero, the sampler's only open condition.
No condition ties a part to the parts before it: stabilizer dimension is
upper semicontinuous on Omega^c, so a special configuration can only raise
a nullity, and a zero nullity is a witness at any point.  A totally
singular part is the graph [x; S x] of a random symmetric (Sp) or
antisymmetric (SO) m x m matrix S on x = [I_d; Z], Z uniform, and
[x; (S - c c^T / 2) x; c^T x] with a random m-vector c for odd n (so
p != 2): all the totally singular d-spaces that project isomorphically onto
the first d coordinates.  For SO_2d with d = m they lie in the family of
span(e_1..e_d) (S = 0).

Certificates.  In any characteristic the stabilizer in G of a point has
dimension at most that of its Lie algebra, which lies in the algebra solved
here: a projective nullity of 0 proves b0 <= c in characteristic p.  A head
part is a coordinate block, and a drawn part [I_d; Y] reduces a
Z_(p)-point of Omega (Y integral but for the 1/2 of odd n, with Gram
determinant prime to p if nondegenerate) whose annihilator [-Y I] has rank
n - d over every field; ``_part_rows`` reads off its reduction
[(-Y) mod p | I].  So the system reduces one matrix over Z_(p), whose rank
over Q is at least its rank mod p: the zero proves it in characteristic 0.
For SL the gl system is the algebra A of the parts, and A^x is the
stabilizer in GL_n: A = scalars proves b1 <= c.  A positive nullity is only
evidence: the point may be special, or the Lie algebra exceed the group.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, linalg, rootsys

#: default prime (largest below 2^31) and the cross-check prime
PRIMES = (2147483647, 2147483629)

RESAMPLE_BUDGET = 64


class SamplingError(ValueError):
    """Resampling budget exhausted while drawing one part."""


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
    parts: tuple[np.ndarray, ...]
    seed: int
    resamples: int

    def __post_init__(self):
        for b in self.parts:
            b.setflags(write=False)


@dataclass(frozen=True)
class SystemShape:
    """Size of one solve: the unknowns, the head parts whose rows became
    deleted columns, the columns left, and the rows of the parts after the
    head on them with their rank.  A solve whose nullity reaches the
    scalars stops there, so it need not eliminate all of ``rows``.  A
    subspace report counts it from the request and its answer alone."""

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
    certified: dict | None  # what the value proves, as ``certificate`` gives it; None without a value


def standard_form(family: str, n: int, d: int, flavor: str) -> np.ndarray | None:
    """The fixed monomial Gram matrix J, with J J^T = I, in which the parts
    of ``_head(family, n, d, flavor)`` are coordinate blocks: alternating
    for Sp, symmetric for SO, none for SL.  B(e_i, f_i) = 1, and g has norm
    1; for SO with even n and nondegenerate parts of odd d, g and g' of norm
    -1 take the places of e_m and f_m.  Entries are signed, so the same
    matrix is the form over Q and, reduced mod p, over F_p."""
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
        elif flavor == "nondeg" and d % 2:
            j[[m - 1, n - 1], [n - 1, m - 1]] = 0
            j[m - 1, m - 1], j[n - 1, n - 1] = 1, -1
        return j
    raise ConfigError(f"unknown family {family!r}")


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The one place a seed enters numpy, so every route refuses a negative one."""
    if seed < 0:
        raise ConfigError(f"need seed >= 0, got {seed}")
    return np.random.SeedSequence(seed, spawn_key=key)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, *key)))


def _validate(family: str, n: int, d: int, flavor: str, p: int) -> None:
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
    if (family, n % 2, p) == ("SO", 1, 2):
        raise ConfigError("SO with odd n requires p != 2")
    if (family, flavor, n % 2, d % 2, p) == ("SO", "nondeg", 0, 1, 2):
        raise ConfigError("mod 2 the form of SO_n with even n is alternating: no nondegenerate odd-dimensional parts")
    _check_size(_unknowns(family, n))


def _check_size(unknowns: int) -> None:
    """Refuse before allocating: ``EchelonMod``'s products reach the column count as inner dimension."""
    if unknowns >= linalg.MAX_INNER:
        raise ConfigError(f"the stabilizer system has {unknowns} unknowns, not below 2**16")


def _part_stream(family: str, n: int, d: int, flavor: str, seed: int, p: int):
    """Stream of parts of the requested flavor: the standard head, then
    drawn parts that each meet only their own conditions (module docstring,
    "Sampling").  Yields (part, rejections before it), 0 for a head part.
    A request that ``_validate`` refuses raises ``ConfigError`` before any
    draw; running out of retries on one part raises ``SamplingError``.  The
    RNG key holds no part count, so c parts are a prefix of c + 1."""
    _validate(family, n, d, flavor, p)
    j = standard_form(family, n, d, flavor)
    rng = _rng(seed, 0xC0FF)
    eye, m = np.eye(d, dtype=np.int64), n // 2
    upper = np.triu(np.ones((m, m), dtype=bool))
    yield from ((b, 0) for b in _head(family, n, d, flavor))

    def gram(x: np.ndarray) -> np.ndarray:
        return linalg.matmul_mod(x.T @ j, x, p)  # J is a signed permutation: x^T J is exact

    def graph(rows: int) -> np.ndarray:  # [I_d; Y], Y uniform: of full column rank as drawn
        return np.concatenate([eye, rng.integers(0, p, size=(rows, d), dtype=np.int64)])

    def try_one() -> np.ndarray | None:
        if flavor == "totally_singular":  # the graph of the module docstring
            x = graph(m - d)
            a = rng.integers(0, p, size=(m, m), dtype=np.int64)
            s = np.where(upper, a, a.T) if family == "Sp" else (a - a.T) % p  # a + a^T: 0 diagonal at p = 2
            if n % 2 == 0:
                return np.concatenate([x, linalg.matmul_mod(s, x, p)])
            c = rng.integers(0, p, size=(m, 1), dtype=np.int64)
            s = (s - c @ c.T % p * ((p + 1) // 2)) % p  # c c^T < p^2 is exact; (p + 1) / 2 = 1/2 mod p
            return np.concatenate([x, linalg.matmul_mod(s, x, p), linalg.matmul_mod(c.T, x, p)])
        b = graph(n - d)
        return b if flavor == "linear" or linalg.det_mod(gram(b), p) else None

    while True:
        for rejects in range(RESAMPLE_BUDGET):
            b = try_one()
            if b is not None:
                break
        else:
            raise SamplingError(f"resampling budget exhausted after {RESAMPLE_BUDGET} rejects")
        if flavor == "totally_singular" and np.any(gram(b)):  # a defect of the graph construction
            raise RuntimeError("totally singular part failed the exact form check")
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
        family=family, p=p, n=n, d=d, flavor=flavor,
        parts=tuple(b for b, _ in drawn), seed=seed, resamples=sum(r for _, r in drawn),
    )


# ---------------------------------------------------------------------------
# Constraint assembly

def _unknowns(family: str, n: int) -> int:
    """Columns of the stabilizer system: the entries of X in gl, the
    upper-triangle entries of S in sp (symmetric) and so (antisymmetric)."""
    return rootsys.group_dim("GL" if family == "SL" else family, n)


def _upper(n: int, family: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the upper-triangle entries that parametrise S, row
    by row: with the diagonal for Sp (symmetric), without it for SO
    (antisymmetric)."""
    r = np.arange(n)
    return (r[:, None] <= r if family == "Sp" else r[:, None] < r).nonzero()


def _coordinates(family: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j) pair of every column of the stabilizer system: the entries
    of X row by row in gl, ``_upper`` in sp and so."""
    return tuple(np.indices((n, n)).reshape(2, -1)) if family == "SL" else _upper(n, family)


def _product_rows(left: np.ndarray, right: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The entries of left X right as rows over the entries X[i_k, j_k] of X
    only: column k is left[:, i_k] (x) right[j_k, :], with row (a, b) at a *
    right.shape[1] + b.  A term in X^T is this rule with i and j swapped."""
    return np.einsum("ak,kb->abk", left[:, i], right[j]).reshape(-1, len(i))


def _lie_rows(left: np.ndarray, right: np.ndarray, family: str, pairs) -> np.ndarray:
    """The entries of left S right as rows over the entries S[i_k, j_k] of
    ``pairs`` (upper-triangle entries, ``_upper``): S is symmetric for Sp and
    antisymmetric for SO, so the column of S[j, i] is added or subtracted."""
    i, j = pairs
    mirror = _product_rows(left, right, j, i)
    return _product_rows(left, right, i, j) + (mirror * (i != j) if family == "Sp" else -mirror)


def _span_constraint(b: np.ndarray, ann: np.ndarray, family: str, form, pairs=None) -> np.ndarray:
    """Rows expressing X * col(b) inside col(b): the entries of A X b for
    ``ann`` = A, which annihilates col(b), or of (A J^T) S b in sp/so (as
    J J^T = I), on the columns whose (i, j) pairs are ``pairs`` (default
    all, ``_coordinates``).  Unreduced: a folded entry adds two products
    below p^2."""
    pairs = _coordinates(family, len(b)) if pairs is None else pairs
    if family == "SL":
        return _product_rows(ann, b, *pairs)
    return _lie_rows(ann @ form.T, b, family, pairs)


def _part_rows(b: np.ndarray, family: str, form, p: int, pairs=None) -> np.ndarray:
    """The stabilizer rows of one part mod p, on the columns whose (i, j)
    pairs are ``pairs`` (default all): a walk passes its free columns, so
    no deleted column is built.  A graph [I_k; Y], as every drawn part
    is, has the annihilator [(-Y) mod p | I] (module docstring,
    "Certificates"); any other part takes a nullspace basis."""
    k = b.shape[1]
    if np.array_equal(b[:k], np.eye(k, dtype=np.int64)):
        ann = np.concatenate([-b[k:] % p, np.eye(len(b) - k, dtype=np.int64)], axis=1)
    else:
        ann = linalg.nullspace_basis_mod(b.T, p)
    return _span_constraint(b, ann, family, form, pairs) % p


def _form_constraint(j: np.ndarray) -> np.ndarray:
    """Rows over gl expressing X^T J + J X = 0."""
    eye, (r, s) = np.eye(len(j), dtype=np.int64), _coordinates("SL", len(j))
    return _product_rows(eye, j, s, r) + _product_rows(j, eye, r, s)


# ---------------------------------------------------------------------------
# The fixed head: its rows are deleted columns

def _head(family: str, n: int, d: int, flavor: str) -> list[np.ndarray]:
    """The standard head parts of the module docstring, n x d blocks of
    identity columns."""
    eye, m, k = np.eye(n, dtype=np.int64), n // 2, d // 2
    if family == "SL":
        return [eye[:, i * d : (i + 1) * d] for i in range(n // d)]
    if flavor == "totally_singular":  # for SO_2d with odd d the f-block lies in the other family
        return [eye[:, :d]] if (family, n, d % 2) == ("SO", 2 * d, 1) else [eye[:, :d], eye[:, m : m + d]]
    cols = [*range(k), *range(m, m + k)]
    if d % 2:
        cols.append(n - 1 if n % 2 else m - 1)  # g
    return [eye[:, cols]]


class _Walk:
    """One solve grown part by part (module docstring, "Part streams"):
    ``first`` is each column's shortest deleting head prefix, ``columns``
    what each head prefix leaves, and the first part past the head builds
    the ``pairs`` and the echelon that every later part enters."""

    def __init__(self, family: str, n: int, d: int, flavor: str, p: int):
        self.family, self.p, self.floor = family, p, _subspace_algebra(family)[1]
        self.form, self.head = standard_form(family, n, d, flavor), _head(family, n, d, flavor)
        self.coords, self.heads, self.echelon = _coordinates(family, n), 0, None
        # head part h deletes X(outside W, W) for its block W, or S(x, W) for x
        # in the support of J e_j, j outside W (module docstring, "Fixed head"):
        # entry (x, j) is first deleted by the part holding j (or x, in sp/so)
        w = np.array([0 * self.head[0], *self.head]).any(axis=2)
        out = ~w if self.form is None else ~w @ (self.form != 0).T
        part, never = w.argmax(axis=0), len(w)  # the head part holding coordinate j, 0 for none
        first = np.where(out[part].T & (part > 0), part, never)
        self.first = (first if family == "SL" else np.minimum(first, first.T))[self.coords]
        deleted = np.bincount(self.first, minlength=never).cumsum()[:never]  # by each head prefix
        self.columns = (len(self.first) - deleted).tolist()

    @property
    def free(self) -> np.ndarray:
        """The columns that the head prefix leaves."""
        return (self.first > self.heads).nonzero()[0]

    @property
    def nullity(self) -> int:
        return self.columns[self.heads] if self.echelon is None else self.echelon.nullity

    def _rows(self, b: np.ndarray) -> np.ndarray | None:
        """The rows of part ``b`` on the free columns; None for a head part,
        whose rows are deleted columns, and once the nullity is the floor."""
        if self.echelon is None:
            if self.heads < len(self.head) and np.array_equal(b, self.head[self.heads]):
                self.heads += 1
                return None
            self.pairs = tuple(x[self.free] for x in self.coords)
            self.echelon = linalg.EchelonMod(len(self.pairs[0]), self.p)
        if self.echelon.nullity == self.floor:
            return None
        return _part_rows(b, self.family, self.form, self.p, self.pairs)

    def add(self, b: np.ndarray) -> int:
        """The nullity with part ``b`` added."""
        if (rows := self._rows(b)) is not None:
            self.echelon.add(rows)
        return self.nullity

    def nullity_with(self, b: np.ndarray) -> int:
        """The nullity with part ``b``, by rank alone: it is not kept."""
        rows = self._rows(b)
        return self.nullity if rows is None else self.echelon.nullity_with(rows)


def stabilizer_algebra_dim_once(config: Configuration) -> int:
    """Exact nullspace dimension of the stabilizer system for one
    configuration, in gl for SL and in Lie coordinates for Sp/SO: one walk
    adds every part but the last and takes the last by rank alone (module
    docstring, "Part streams").  Any parts are solved exactly; only the
    prefix equal to the standard head deletes columns."""
    walk = _Walk(config.family, config.n, config.d, config.flavor, config.p)
    for b in config.parts[:-1]:
        walk.add(b)
    return walk.nullity_with(config.parts[-1])


def _system_shape(family: str, n: int, d: int, flavor: str, c: int, dim: int) -> SystemShape:
    """The shape of the solve of a sampled configuration of c parts, whose
    answer is ``dim``: its head is the first c standard head parts (module
    docstring, "Fixed head"), whose columns a walk counts as it starts, and
    every part after them gives (n - d) d rows.  The prime is unread."""
    walk = _Walk(family, n, d, flavor, PRIMES[0])
    heads = min(c, len(walk.head))
    columns = walk.columns[heads]
    return SystemShape(_unknowns(family, n), heads, columns, (c - heads) * (n - d) * d, columns - dim)


def _subspace_algebra(family: str) -> tuple[str, int]:
    """The algebra a subspace action is solved in, with the dimension of the
    scalars in it: they lie in every gl-stabilizer of subspaces but meet
    sp/so trivially."""
    return ("gl", 1) if family == "SL" else (family.lower(), 0)


def _runs(route: tuple, seed: int, trials: int, primes: tuple[int, ...]) -> list[tuple[int, int]]:
    """(prime, part stream seed) of every (prime, trial) pair, prime by
    prime, with ``route`` (family, n, d, flavor) admitted at every prime
    first; the minimum over them needs at least one of each."""
    if trials < 1:
        raise ConfigError("need trials >= 1")
    if not primes:
        raise ConfigError("need at least one prime")
    for p in primes:
        _validate(*route, p)
    return [
        (p, int(_seed_sequence(seed, pi, t).generate_state(1, dtype=np.uint64)[0]))
        for pi, p in enumerate(primes)
        for t in range(trials)
    ]


def _by_prime(dims: list[int], trials: int) -> tuple[tuple[int, ...], ...]:
    """The dimensions of ``_runs`` order, prime by prime."""
    return tuple(tuple(dims[i : i + trials]) for i in range(0, len(dims), trials))


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
        dims_by_prime=_by_prime(dims, trials),
        resamples=resamples,
        seed=seed,
        first_system=first_system,
    )


def _certified(algebra: str, correction: int, c: int, primes, dims_by_prime) -> dict | None:
    """The one rule for what a subspace solve (algebra gl, sp or so) of c
    parts proves (module docstring, "Certificates"): b1 <= c for gl and
    b0 <= c otherwise, at the primes whose minimum reached projective
    dimension 0; None when no prime did, or for a module algebra."""
    reached = [p for p, dims in zip(primes, dims_by_prime) if min(dims) == correction]
    if not reached or algebra not in ("gl", "sp", "so"):
        return None
    return {"measure": "b1" if algebra == "gl" else "b0", "c": c, "primes": reached}


def certificate(rep: StabilizerReport, c: int) -> dict | None:
    """What a report of c parts proves at projective dimension 0, else None."""
    return _certified(rep.algebra, rep.algebra_dim - rep.projective_dim, c, rep.primes, rep.dims_by_prime)


def stabilizer_report(family: str, n: int, d: int, flavor: str, c: int, seed: int, trials: int = 5,
                      primes: tuple[int, ...] = PRIMES) -> StabilizerReport:
    """Min-over-trials stabilizer dimension at each prime, cross-checked."""
    dims, resamples = [], 0
    for p, s in _runs((family, n, d, flavor), seed, trials, primes):
        config = sample_configuration(family, n, d, flavor, c, seed=s, p=p)
        resamples += config.resamples
        dims.append(stabilizer_algebra_dim_once(config))
    first_system = _system_shape(family, n, d, flavor, c, dims[0])
    return _report(*_subspace_algebra(family), dims, trials, primes, resamples, seed, first_system)


def estimate_b0(family: str, n: int, d: int, flavor: str, c_max: int, trials: int = 5, seed: int = 0,
                primes: tuple[int, ...] = PRIMES) -> B0Estimate:
    """Smallest c <= c_max whose generic configuration has a
    zero-dimensional stabilizer, with the orbit-dimension lower bound
    cross-checked; a ``value`` is a certified upper bound on b1 for SL and
    on b0 for Sp and SO, which ``certified`` records with the primes whose
    stream reached 0, by the rule of ``certificate``.  Each (prime,
    trial) pair grows one part stream by one part per c, so the estimate
    draws b0 parts per stream and eliminates the rows of each part after
    the head once."""
    if c_max < 1:
        raise ConfigError("need c_max >= 1")
    streams = [
        (_Walk(family, n, d, flavor, p), _part_stream(family, n, d, flavor, s, p))
        for p, s in _runs((family, n, d, flavor), seed, trials, primes)
    ]
    algebra, corr = _subspace_algebra(family)
    proj_dims = []
    value = None
    for c in range(1, c_max + 1):
        dims = [walk.add(next(stream)[0]) for walk, stream in streams]
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
        value=value, c_max=c_max, projective_dims=tuple(proj_dims), lower_bound=lb, seed=seed,
        certified=_certified(algebra, corr, value, primes, _by_prime(dims, trials)),
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
    _check_size(n * n if kind == "sym2" else n * (n - 1))  # gl, or the two strict upper triangles
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
        # the unknowns are their strict upper triangles, [X | Y]; the rows are
        # those of X W and of W Y^T = -W Y
        algebra, blocks, eye, upper = "so+so", [], np.eye(n, dtype=np.int64), _upper(n, "SO")
        for _ in range(c):
            w = rng.integers(0, p, size=(n, n), dtype=np.int64)
            blocks.append(np.concatenate([_lie_rows(eye, w, "SO", upper), -_lie_rows(w, eye, "SO", upper)], axis=1))
    system = np.concatenate(blocks, axis=0)
    dim = linalg.nullspace_dim_mod(system, p)
    rows, columns = system.shape
    return _report(algebra, 0, [dim], 1, (p,), resamples, seed,
                   SystemShape(columns, 0, columns, rows, columns - dim))
