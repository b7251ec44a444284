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
entries of L X R as rows over the entries of X, transposed for X^T.  A part
b with annihilator rows A gives those of (A J^T) S b, folded onto the upper
triangle.  Each ``standard_form`` J is a signed permutation, so a product
with J only permutes and negates entries: the rows are exact integer
products, reduced mod p once.

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
The head of a configuration is the longest prefix of its parts equal to the
standard head, by exact comparison, so the nullity is the free columns
minus the rank for every configuration, generic or not.  The head does not
depend on the prime.

Part streams.  Each (prime, trial) pair takes its parts from one stream:
the head, then parts drawn from an RNG whose key holds no part count, so
the configuration of c parts is a prefix of the one of c + 1
(``sample_configuration`` returns that prefix).
``stabilizer_algebra_dim_once`` solves one configuration: the free column
count when every part is a head part, else one elimination of the stacked
rows after the head.  ``estimate_b0`` runs ``_dims`` on each stream
instead.  While every part is a head part it yields the free column count;
from the first part past the head on, the rows of every part after the
head enter one reduced echelon form exactly once, and it yields the
nullity.  An estimate takes b0 parts per stream, and its dimensions
cannot increase with c.

Sampling.  A drawn part meets only its own conditions: full column rank,
a nonzero Gram determinant for a nondegenerate part, and the graph below
for a totally singular one.  No condition ties it to the parts before it:
stabilizer dimension is upper semicontinuous on Omega^c, so a special
configuration can only raise a nullity, and a zero nullity is a witness at
any point.  A totally singular part is the graph [x; S x] of a random
symmetric (Sp) or antisymmetric (SO) m x m matrix S on a random m x d
matrix x of rank d, and [x; (S - c c^T / 2) x; c^T x] with a random
m-vector c for odd n (so p != 2).  The graphs are generic: they are all
the totally singular d-spaces that project injectively onto the first m
coordinates.  For SO_2d with d = m they lie in the family of
span(e_1..e_d) (S = 0).

Certificates.  In any characteristic the stabilizer in G of a point has
dimension at most that of its Lie algebra, which lies in the algebra solved
here: a projective nullity of 0 proves b0 <= c in characteristic p.  Each
part reduces a Z_(p)-point of Omega (an integer block of full rank mod p,
of Gram determinant prime to p if nondegenerate, or a graph of x and S over
Z_(p)), so with annihilators over Z_(p) on the mod-p pivots the rank over Q
is at least the rank mod p: the zero proves it in characteristic 0 too.
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
    yield from ((b, 0) for b in _head(family, n, d, flavor))

    def gram(x: np.ndarray) -> np.ndarray:
        return linalg.matmul_mod(x.T @ j, x, p)  # J is a signed permutation: x^T J is exact

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
            s = (s - c @ c.T % p * ((p + 1) // 2)) % p  # c c^T < p^2 is exact; (p + 1) / 2 = 1/2 mod p
            return np.concatenate([x, linalg.matmul_mod(s, x, p), linalg.matmul_mod(c.T, x, p)])
        b = rng.integers(0, p, size=(n, d), dtype=np.int64)
        if flavor == "nondeg":
            return b if linalg.det_mod(gram(b), p) else None
        return b if linalg.rank_mod(b, p) == d else None

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
        family=family, p=p, n=n, d=d, flavor=flavor, form=standard_form(family, n, d, flavor),
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


def _lie_coordinates(coef: np.ndarray, family: str) -> np.ndarray:
    """Fold rows over the n x n entries of S (shape (rows, n, n)) onto the
    upper-triangle entries that parametrise S: symmetric for Sp,
    antisymmetric for SO."""
    i, j = _upper(coef.shape[-1], family)
    if family == "Sp":
        return coef[:, i, j] + coef[:, j, i] * (i != j)
    return coef[:, i, j] - coef[:, j, i]


def _product_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The entries of left X right as rows over the n x m entries of X, shape
    (rows, n, m).  A term in X^T is this rule transposed on its last axes."""
    return np.einsum("ai,jb->abij", left, right).reshape(-1, left.shape[1], right.shape[0])


def _span_constraint(b: np.ndarray, ann: np.ndarray, family: str, form) -> np.ndarray:
    """Rows expressing X * col(b) inside col(b): the entries of A X b for
    ``ann`` = A, which annihilates col(b), or of (A J^T) S b in sp/so (as
    J J^T = I).  Unreduced: a folded entry adds two products below p^2."""
    rows = _product_rows(ann if family == "SL" else ann @ form.T, b)
    return rows.reshape(len(rows), -1) if family == "SL" else _lie_coordinates(rows, family)


def _part_rows(b: np.ndarray, family: str, form, p: int) -> np.ndarray:
    """The stabilizer rows of one part mod p."""
    return _span_constraint(b, linalg.nullspace_basis_mod(b.T, p), family, form) % p


def _form_constraint(j: np.ndarray) -> np.ndarray:
    """Rows over gl expressing X^T J + J X = 0."""
    eye = np.eye(len(j), dtype=np.int64)
    return (_product_rows(eye, j).swapaxes(1, 2) + _product_rows(j, eye)).reshape(j.size, j.size)


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


def _free_columns(family: str, n: int, form, blocks) -> np.ndarray:
    """The columns left when the rows of ``blocks``, head parts, which are
    coordinate blocks, are deleted (module docstring, "Fixed head")."""
    mask = np.zeros((n, n), dtype=bool)
    for b in blocks:
        w = b.any(axis=1)
        mask |= np.outer(~w if form is None else form[:, ~w].any(axis=1), w)
    if family == "SL":
        return (~mask).ravel().nonzero()[0]
    return (~(mask | mask.T)[_upper(n, family)]).nonzero()[0]


def _dims(parts, family: str, n: int, d: int, flavor: str, p: int):
    """Stabilizer algebra dimension after each of ``parts`` (any iterable),
    c = 1, 2, ..., as the module docstring's "Part streams" describes."""
    head, form = _head(family, n, d, flavor), standard_form(family, n, d, flavor)
    h, free, echelon = 0, _free_columns(family, n, form, []), None
    for b in parts:
        if echelon is None and h < len(head) and np.array_equal(b, head[h]):
            h += 1
            free = _free_columns(family, n, form, head[:h])
            yield len(free)
            continue
        if echelon is None:
            echelon = linalg.EchelonMod(len(free), p)
        echelon.add(_part_rows(b, family, form, p)[:, free])
        yield echelon.nullity


def _head_system(config: Configuration):
    """(head parts, free columns) of one configuration.  Its head is the
    longest prefix of its parts equal to the standard head, by exact
    comparison, so any configuration gets its exact nullity."""
    head = _head(config.family, config.n, config.d, config.flavor)
    h = next((i for i, (b, s) in enumerate(zip(config.parts, head)) if not np.array_equal(b, s)),
             min(len(config.parts), len(head)))
    return h, _free_columns(config.family, config.n, config.form, head[:h])


def stabilizer_algebra_dim_once(config: Configuration) -> int:
    """Exact nullspace dimension of the stabilizer system for one sampled
    configuration, in gl for SL and in Lie coordinates for Sp/SO: the
    columns its head leaves minus the rank of the stacked rows of the parts
    after the head."""
    h, free = _head_system(config)
    if h == len(config.parts):
        return len(free)
    rows = [_part_rows(b, config.family, config.form, config.p)[:, free] for b in config.parts[h:]]
    return linalg.nullspace_dim_mod(np.concatenate(rows), config.p)


def _system_shape(config: Configuration, dim: int) -> SystemShape:
    """The shape of ``stabilizer_algebra_dim_once(config)``, whose answer is
    ``dim``, counted without assembling it: every part after the head gives
    (n - d) d rows."""
    h, free = _head_system(config)
    rows = (len(config.parts) - h) * (config.n - config.d) * config.d
    return SystemShape(_unknowns(config.family, config.n), h, len(free), rows, len(free) - dim)


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


def certificate(rep: StabilizerReport, c: int) -> dict | None:
    """What a subspace report (algebra gl, sp or so) of c parts proves at
    projective dimension 0 (module docstring, "Certificates"), else None."""
    if rep.projective_dim or rep.algebra not in ("gl", "sp", "so"):
        return None
    primes = [p for p, dims in zip(rep.primes, rep.dims_by_prime) if min(dims) == rep.algebra_dim]
    return {"measure": "b1" if rep.algebra == "gl" else "b0", "c": c, "primes": primes}


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
    for p, s in _runs((family, n, d, flavor), seed, trials, primes):
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
    cross-checked; a ``value`` is a certified upper bound on b1 for SL and
    on b0 for Sp and SO (module docstring, "Certificates").  Each (prime,
    trial) pair grows one part stream by one part per c, so the estimate
    draws b0 parts per stream and eliminates the rows of each part after
    the head once."""
    if c_max < 1:
        raise ConfigError("need c_max >= 1")
    streams = [
        _dims((b for b, _ in _part_stream(family, n, d, flavor, s, p)), family, n, d, flavor, p)
        for p, s in _runs((family, n, d, flavor), seed, trials, primes)
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
            tx, ty = _product_rows(eye, w), _product_rows(w, eye).swapaxes(1, 2)  # X W, W Y^T
            blocks.append(np.concatenate([_lie_coordinates(tx, "SO"), _lie_coordinates(ty, "SO")], axis=1))
    system = np.concatenate(blocks, axis=0)
    dim = linalg.nullspace_dim_mod(system, p)
    rows, columns = system.shape
    return _report(algebra, 0, [dim], 1, (p,), resamples, seed,
                   SystemShape(columns, 0, columns, rows, columns - dim))
