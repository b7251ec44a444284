"""Numeric verification of generic stabilizer dimensions.

Configurations of subspaces (or module vectors) are sampled uniformly over
a large prime field and the stabilizer subalgebra

    { X in g : X * part  is contained in  part,  for every part }

is computed as an exact nullspace, by elimination mod p.  Over a prime of
size ~2^31 a random configuration sits in the generic locus except with
negligible probability; reports keep the minimum over independent trials
(the generic fiber dimension is the minimal one) and cross-check a second
prime.  Scalars are subtracted for linear-group actions, where the center
acts trivially on subspace varieties.

Characteristic caveat: the dimension computed here is the Lie-algebra
stabilizer dimension, which matches the group stabilizer dimension at
generic points when the stabilizer scheme is smooth; the default primes
avoid the bad small characteristics where smoothness can fail.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rootsys

#: default prime (largest below 2^31) and the cross-check prime
PRIMES = (2147483647, 2147483629)

RESAMPLE_BUDGET = 64


class SamplingError(RuntimeError):
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


@dataclass(frozen=True)
class B0Estimate:
    value: int | None  # smallest c with projective_dim 0, None if not found
    c_max: int
    projective_dims: tuple[int, ...]  # indexed by c = 1..c_max (until found)
    lower_bound: int
    seed: int

    def render(self) -> str:
        return str(self.value) if self.value is not None else f"not found <= {self.c_max}"


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


def _random_lie_element(rng, family: str, n: int, j: np.ndarray, p: int) -> np.ndarray:
    """Uniform element of sp/so via the Gram matrix: J^-1 S with S symmetric
    (alternating form) or antisymmetric (symmetric form)."""
    a = rng.integers(0, p, size=(n, n), dtype=np.int64)
    s = (a + a.T) % p if family == "Sp" else (a - a.T) % p
    return linalg.matmul_mod(linalg.inv_mod(j, p), s, p)


def _random_isometry(rng, family: str, n: int, j: np.ndarray, p: int) -> np.ndarray:
    """Cayley transform (I - X)(I + X)^-1 of a random Lie-algebra element;
    preserves the form exactly in modular arithmetic."""
    eye = np.eye(n, dtype=np.int64)
    for _ in range(RESAMPLE_BUDGET):
        x = _random_lie_element(rng, family, n, j, p)
        try:
            inv = linalg.inv_mod((eye + x) % p, p)
        except linalg.SingularMatrixError:
            continue
        return linalg.matmul_mod((eye - x) % p, inv, p)
    raise SamplingError("could not sample an isometry (I + X kept degenerating)")


def sample_configuration(
    family: str, n: int, d: int, flavor: str, c: int, seed: int, p: int = PRIMES[0]
) -> Configuration:
    """c parts of the requested flavor with the open conditions enforced:
    full column rank, pairwise transversality where dimensions allow,
    exact (non)degeneracy against the standard form."""
    if c < 1:
        raise ConfigError("need c >= 1 parts")
    if family == "SL" and flavor != "linear":
        raise ConfigError("SL parts carry no form")
    if family in ("Sp", "SO") and flavor not in ("nondeg", "totally_singular"):
        raise ConfigError(f"flavor {flavor!r} invalid for {family}")
    if family == "Sp" and flavor == "nondeg" and d % 2:
        raise ConfigError("nondegenerate symplectic subspaces have even dimension")
    if not 1 <= d < n:
        raise ConfigError(f"need 1 <= d < n, got d={d}, n={n}")
    j = standard_form(family, n)
    rng = _rng(seed, 0xC0FF, c)
    resamples = 0
    parts: list[np.ndarray] = []

    def try_one() -> np.ndarray | None:
        if flavor == "totally_singular":
            m = n // 2
            if d > m:
                raise ConfigError("totally singular dimension exceeds the Witt index")
            coeff = rng.integers(0, p, size=(m, d), dtype=np.int64)
            if linalg.rank_mod(coeff, p) < d:
                return None
            frame = np.zeros((n, d), dtype=np.int64)
            frame[:m] = coeff
            g = _random_isometry(rng, family, n, j, p)
            return linalg.matmul_mod(g, frame, p)
        b = rng.integers(0, p, size=(n, d), dtype=np.int64)
        if linalg.rank_mod(b, p) < d:
            return None
        if flavor == "nondeg":
            gram = linalg.matmul_mod(linalg.matmul_mod(b.T, j, p), b, p)
            if linalg.det_mod(gram, p) == 0:
                return None
        return b

    def compatible(b: np.ndarray) -> bool:
        # pairwise open conditions against the parts already chosen
        for other in parts:
            if 2 * d <= n:
                joint = np.concatenate([other, b], axis=1)
                if linalg.rank_mod(joint, p) < 2 * d:
                    return False
                if flavor == "nondeg":
                    gram = linalg.matmul_mod(linalg.matmul_mod(joint.T, j, p), joint, p)
                    if linalg.det_mod(gram, p) == 0:
                        return False
        return True

    for _ in range(c):
        for attempt in range(RESAMPLE_BUDGET):
            b = try_one()
            if b is not None and compatible(b):
                parts.append(b)
                break
            resamples += 1
        else:
            raise SamplingError(f"resampling budget exhausted after {resamples} rejects")

    if flavor == "totally_singular":
        for b in parts:
            if np.any(linalg.matmul_mod(linalg.matmul_mod(b.T, j, p), b, p)):
                raise SamplingError("totally singular part failed the exact form check")

    return Configuration(
        family=family, p=p, n=n, d=d, flavor=flavor, form=j,
        parts=tuple(parts), seed=seed, resamples=resamples,
    )


# ---------------------------------------------------------------------------
# Constraint assembly, shared by the F_p and the Q routes

def _span_constraint(b: np.ndarray, ann: np.ndarray) -> np.ndarray:
    """Rows of the linear system expressing X * col(b) inside col(b):
    w^T X B = 0 for every row w of ``ann``, which annihilates col(b)."""
    n, d = b.shape
    return np.einsum("ai,jb->abij", ann, b).reshape(len(ann) * d, n * n)


def _form_constraint(j: np.ndarray) -> np.ndarray:
    """Rows expressing X^T J + J X = 0."""
    n = j.shape[0]
    eye = np.eye(n, dtype=np.int64)
    t1 = np.einsum("is,jr->rsij", j, eye)
    t2 = np.einsum("ri,js->rsij", j, eye)
    return (t1 + t2).reshape(n * n, n * n)


def _stabilizer_system(parts, annihilators, form) -> np.ndarray:
    """The stabilizer system of a configuration over Z (or Q), unreduced:
    span rows for every part, and the form rows unless ``form`` is None."""
    blocks = [_span_constraint(b, ann) for b, ann in zip(parts, annihilators)]
    if form is not None:
        blocks.append(_form_constraint(form))
    return np.concatenate(blocks, axis=0)


def stabilizer_algebra_dim_once(config: Configuration) -> int:
    """Exact nullspace dimension of the stabilizer system for one sampled
    configuration, in gl for SL and in the form algebra for Sp/SO."""
    p = config.p
    anns = [linalg.nullspace_basis_mod(b.T, p) for b in config.parts]
    return linalg.nullspace_dim_mod(_stabilizer_system(config.parts, anns, config.form), p)


def _scalar_correction(family: str) -> int:
    # scalars lie in every gl-stabilizer of subspaces but meet sp/so trivially
    return 1 if family == "SL" else 0


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
    dims_by_prime = []
    resamples = 0
    for pi, p in enumerate(primes):
        dims = []
        for t in range(trials):
            config = sample_configuration(
                family, n, d, flavor, c, seed=_trial_seed(seed, pi, c, t), p=p
            )
            resamples += config.resamples
            dims.append(stabilizer_algebra_dim_once(config))
        dims_by_prime.append(tuple(dims))
    all_dims = [x for row in dims_by_prime for x in row]
    algebra_dim = min(all_dims)
    corr = _scalar_correction(family)
    return StabilizerReport(
        algebra="gl" if family == "SL" else ("sp" if family == "Sp" else "so"),
        algebra_dim=algebra_dim,
        projective_dim=algebra_dim - corr,
        trials=trials,
        stable=len(set(all_dims)) == 1,
        primes=tuple(primes),
        dims_by_prime=tuple(dims_by_prime),
        resamples=resamples,
        seed=seed,
    )


def _trial_seed(seed: int, prime_index: int, c: int, trial: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(prime_index, c, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
    cross-checked."""
    if c_max < 1:
        raise ConfigError("need c_max >= 1")
    proj_dims = []
    value = None
    for c in range(1, c_max + 1):
        rep = stabilizer_report(family, n, d, flavor, c, seed=seed, trials=trials, primes=primes)
        if c == 1:
            # dim H from the first trial at the first prime, for the lower
            # bound from dim G and dim Omega = dim G - dim H
            dim_h = rep.dims_by_prime[0][0] - _scalar_correction(family)
        proj_dims.append(rep.projective_dim)
        if rep.projective_dim == 0:
            value = c
            break
    dim_g = rootsys.group_dim(family, n)
    dim_omega = dim_g - dim_h
    lb = -(-dim_g // dim_omega)
    if value is not None and value < lb:
        raise RuntimeError(
            f"estimate {value} fell below the dimension lower bound {lb}; "
            "this indicates a sampling or solver defect"
        )
    return B0Estimate(
        value=value, c_max=c_max, projective_dims=tuple(proj_dims), lower_bound=lb, seed=seed
    )


# ---------------------------------------------------------------------------
# Duality helper (linear actions): annihilator configurations

def dual_configuration(config: Configuration) -> Configuration:
    """Annihilator of each part: a (n-d)-subspace configuration whose
    stabilizer dimensions match the original's."""
    if config.family != "SL":
        raise ConfigError("duality is implemented for the linear family")
    parts = tuple(
        linalg.nullspace_basis_mod(b.T, config.p).T % config.p for b in config.parts
    )
    return Configuration(
        family="SL", p=config.p, n=config.n, d=config.n - config.d, flavor="linear",
        form=None, parts=parts, seed=config.seed, resamples=config.resamples,
    )


# ---------------------------------------------------------------------------
# Module actions (derived-action annihilators)

MODULE_KINDS = ("sym2", "so_tensor")


def module_stabilizer_dim(
    kind: str, n: int, c: int, seed: int, p: int = PRIMES[0]
) -> StabilizerReport:
    """Stabilizer algebra of c generic module vectors.

    sym2: X in sl_n annihilating c generic nondegenerate symmetric forms
    (X^T S + S X = 0).  so_tensor: (X, Y) in so_n x so_n annihilating c
    generic tensors W (X W + W Y^T = 0).
    """
    if kind not in MODULE_KINDS:
        raise ConfigError(f"unsupported module kind {kind!r}")
    rng = _rng(seed, 0x30D, c)
    if kind == "sym2":
        blocks = [np.eye(n, dtype=np.int64).reshape(1, n * n)]  # trace X = 0
        for _ in range(c):
            while True:
                a = rng.integers(0, p, size=(n, n), dtype=np.int64)
                s = (a + a.T) % p
                if linalg.det_mod(s, p) != 0:
                    break
            blocks.append(_form_constraint(s))
        system = np.concatenate(blocks, axis=0)
        dim = linalg.nullspace_dim_mod(system, p)
        return StabilizerReport(
            algebra="sl", algebra_dim=dim, projective_dim=dim, trials=1, stable=True,
            primes=(p,), dims_by_prime=((dim,),), resamples=0, seed=seed,
        )
    # so_tensor: unknowns [vec X | vec Y]
    j = np.eye(n, dtype=np.int64)  # split form is unnecessary; any symmetric works
    zero = np.zeros((n * n, n * n), dtype=np.int64)
    form_x = np.concatenate([_form_constraint(j), zero], axis=1)
    form_y = np.concatenate([zero, _form_constraint(j)], axis=1)
    blocks = [form_x, form_y]
    eye = np.eye(n, dtype=np.int64)
    for _ in range(c):
        w = rng.integers(0, p, size=(n, n), dtype=np.int64)
        tx = np.einsum("ir,js->rsij", eye, w).reshape(n * n, n * n) % p
        ty = np.einsum("is,rj->rsij", eye, w).reshape(n * n, n * n) % p
        blocks.append(np.concatenate([tx, ty], axis=1))
    system = np.concatenate(blocks, axis=0)
    dim = linalg.nullspace_dim_mod(system, p)
    return StabilizerReport(
        algebra="so+so", algebra_dim=dim, projective_dim=dim, trials=1, stable=True,
        primes=(p,), dims_by_prime=((dim,),), resamples=0, seed=seed,
    )


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
    system = _stabilizer_system(parts, anns, form if family in ("Sp", "SO") else None)
    return n * n - linalg.rank_rational(system.tolist())
