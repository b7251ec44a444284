import dataclasses
import hashlib
import json

import numpy as np
import pytest

from basesize import formulas as fm, genstab, linalg
from basesize.genstab import (
    PRIMES,
    ConfigError,
    estimate_b0,
    module_stabilizer_dim,
    sample_configuration,
    stabilizer_algebra_dim_once,
    stabilizer_algebra_dim_rational,
    stabilizer_report,
)


def test_primes_are_prime():
    from sympy import isprime

    assert all(isprime(p) for p in PRIMES)
    assert all(p < 2**31 for p in PRIMES)


# -- sampling ------------------------------------------------------------------

def test_sl_parts_are_transverse():
    cfg = sample_configuration("SL", 4, 2, "linear", 4, seed=1)
    assert len(cfg.parts) == 4
    for i, a in enumerate(cfg.parts):
        for b in cfg.parts[i + 1 :]:
            assert linalg.rank_mod(np.concatenate([a, b], axis=1), cfg.p) == 4


def test_totally_singular_exact():
    cfg = sample_configuration("Sp", 8, 4, "totally_singular", 2, seed=2)
    for b in cfg.parts:
        gram = linalg.matmul_mod(linalg.matmul_mod(b.T, cfg.form, cfg.p), b, cfg.p)
        assert not gram.any()
    # two generic half-dimension parts are complementary
    joint = np.concatenate(cfg.parts, axis=1)
    assert linalg.rank_mod(joint, cfg.p) == 8


def test_nondeg_gram_invertible():
    cfg = sample_configuration("Sp", 6, 2, "nondeg", 3, seed=3)
    for b in cfg.parts:
        gram = linalg.matmul_mod(linalg.matmul_mod(b.T, cfg.form, cfg.p), b, cfg.p)
        assert linalg.det_mod(gram, cfg.p) != 0


def _totally_singular_cases():
    cases = [("Sp", n, d) for n in range(4, 13, 2) for d in range(1, n // 2 + 1)]
    return cases + [("SO", n, d) for n in range(7, 13) for d in range(1, n // 2 + 1)]


@pytest.mark.parametrize("family,n,d", _totally_singular_cases())
def test_totally_singular_parts_are_drawn_without_an_inverse(monkeypatch, family, n, d):
    def no_inverse(*args):
        raise AssertionError("a totally singular part was drawn through a matrix inverse")

    monkeypatch.setattr(linalg, "inv_mod", no_inverse)
    # two maximal totally singular spaces of one SO_2d family meet in d mod 2
    joint_rank = 2 * d - (d % 2 if (family, n) == ("SO", 2 * d) else 0)
    for p in PRIMES:
        cfg = sample_configuration(family, n, d, "totally_singular", 3, seed=10 * n + d, p=p)
        for i, b in enumerate(cfg.parts):
            assert not linalg.matmul_mod(linalg.matmul_mod(b.T, cfg.form, p), b, p).any()
            assert linalg.rank_mod(b, p) == d
            if 2 * d <= n:
                for other in cfg.parts[:i]:
                    assert linalg.rank_mod(np.concatenate([other, b], axis=1), p) == joint_rank


def test_totally_singular_parts_at_p2():
    # odd n needs 1/2, which F_2 lacks; even n needs no division
    with pytest.raises(ConfigError, match="p != 2"):
        sample_configuration("SO", 7, 2, "totally_singular", 1, seed=0, p=2)
    cfg = sample_configuration("Sp", 6, 2, "totally_singular", 3, seed=0, p=2)
    assert len(cfg.parts) == 3
    for b in cfg.parts:
        assert not linalg.matmul_mod(linalg.matmul_mod(b.T, cfg.form, 2), b, 2).any()
    # every vector of F_2^4 with (x1, x2) != 0 is the graph of a symmetric S;
    # an alternating S would reach only 6 of these 12
    lines = {tuple(sample_configuration("Sp", 4, 1, "totally_singular", 1, seed=s, p=2).parts[0].ravel())
             for s in range(200)}
    assert len(lines) == 12


def test_sampler_validates_inputs():
    with pytest.raises(ConfigError):
        sample_configuration("Sp", 6, 3, "nondeg", 2, seed=0)  # odd d
    with pytest.raises(ConfigError):
        sample_configuration("SL", 4, 2, "nondeg", 2, seed=0)
    with pytest.raises(ConfigError):
        sample_configuration("Sp", 6, 4, "totally_singular", 1, seed=0)  # above Witt index


# -- stabilizer dimensions -----------------------------------------------------

def test_form_algebra_dimensions_at_c0_via_identity_part():
    # with d = n the span condition is void; the form rows alone must cut
    # gl down to sp/so of the right dimension
    from basesize.genstab import _form_constraint, standard_form

    for family, n, want in (("Sp", 6, 21), ("SO", 7, 21), ("SO", 8, 28)):
        j = standard_form(family, n)
        dim = linalg.nullspace_dim_mod(_form_constraint(j), PRIMES[0])
        assert dim == want


@pytest.mark.parametrize(
    "c,proj",
    [(1, 11), (4, 1), (5, 0)],
)
def test_sl42_chain(c, proj):
    rep = stabilizer_report("SL", 4, 2, "linear", c, seed=11, trials=3)
    assert rep.projective_dim == proj
    assert rep.stable


def test_sl21_borel():
    rep = stabilizer_report("SL", 2, 1, "linear", 1, seed=4, trials=2)
    assert rep.projective_dim == 2  # a Borel subgroup of the projective line


def test_sp62_torus_then_trivial():
    assert stabilizer_report("Sp", 6, 2, "nondeg", 3, seed=5, trials=3).projective_dim == 1
    assert stabilizer_report("Sp", 6, 2, "nondeg", 4, seed=5, trials=3).projective_dim == 0


def test_determinism():
    a = stabilizer_report("SL", 5, 2, "linear", 3, seed=99, trials=3)
    b = stabilizer_report("SL", 5, 2, "linear", 3, seed=99, trials=3)
    assert a == b
    c = stabilizer_report("SL", 5, 2, "linear", 3, seed=100, trials=3)
    assert c.seed != a.seed


def test_prime_independence():
    rep = stabilizer_report("SO", 8, 4, "totally_singular", 4, seed=6, trials=3)
    assert rep.stable
    assert len(set(rep.dims_by_prime[0] + rep.dims_by_prime[1])) == 1


@pytest.mark.parametrize(
    "family,n,d,flavor,want",
    [
        ("SL", 6, 2, "linear", 5),
        ("Sp", 8, 4, "totally_singular", 4),
        ("SO", 7, 1, "nondeg", 6),
    ],
)
def test_estimate_b0_known_values(family, n, d, flavor, want):
    est = estimate_b0(family, n, d, flavor, c_max=want + 2, trials=3, seed=7)
    assert est.value == want
    assert est.lower_bound <= want


@pytest.mark.parametrize("n,d", [(8, 3), (12, 4)])
def test_sp_totally_singular_k3_has_no_dense_orbit_on_triples(n, d):
    # 3 dim Omega = dim G, yet three generic spaces keep a stabilizer of
    # dimension floor(d/2); a fourth makes it finite
    three = stabilizer_report("Sp", n, d, "totally_singular", 3, seed=11, trials=1)
    four = stabilizer_report("Sp", n, d, "totally_singular", 4, seed=11, trials=1)
    assert three.dims_by_prime == ((d // 2,),) * len(PRIMES)
    assert four.dims_by_prime == ((0,),) * len(PRIMES)


def test_so10_half_dimension_odd_d_is_sampled():
    # two maximal totally singular subspaces of one SO10 family meet in odd
    # dimension, so the sampler asks pairs for joint rank 2d - 1, not 2d
    spec = fm.ActionSpec("SO", fm.Subspace(5, "totally_singular"), n=10, char="odd")
    b0 = fm.base_triple(spec).b0
    assert (b0.lo, b0.hi) == (5, 5)
    for seed in range(3):
        est = estimate_b0("SO", 10, 5, "totally_singular", c_max=7, trials=1, seed=seed)
        assert (est.value, est.projective_dims, est.lower_bound) == (5, (35, 25, 15, 6, 0), 5)


def test_estimate_b0_not_found():
    est = estimate_b0("SO", 8, 4, "totally_singular", c_max=3, trials=2, seed=7)
    assert est.value is None
    assert est.render() == "not found <= 3"


def test_more_transversal_parts_than_fit_are_a_config_error():
    # the projective line over F_2 has 3 points, all of them needed
    assert estimate_b0("SL", 2, 1, "linear", c_max=5, trials=1, primes=(2,)).value == 3
    # 5 pairwise transversal 2-spaces of F_2^4 form a spread, whose lines
    # are F_4-lines: F_4 scalars keep a stabilizer, and a sixth cannot exist
    with pytest.raises(ConfigError, match=r"at most \(p\^n - 1\)/\(p\^d - 1\) = 5 transversal 2-spaces"):
        estimate_b0("SL", 4, 2, "linear", c_max=7, trials=1, primes=(2,))


@pytest.mark.parametrize("n,d", [(6, 1), (6, 3), (8, 1), (8, 3)])
def test_odd_nondegenerate_parts_of_even_so_at_p2_are_a_config_error(monkeypatch, n, d):
    # mod 2 the form of SO_n with n even is alternating, so no part can be
    # drawn: the request is refused before any draw, not after the retries
    def unreachable(*args, **kwargs):
        raise AssertionError("a part was drawn although none can exist")

    monkeypatch.setattr(genstab, "_rng", unreachable)
    with pytest.raises(ConfigError, match="alternating"):
        estimate_b0("SO", n, d, "nondeg", c_max=3, trials=1, primes=(2,))


def test_semicontinuity_in_c():
    est = estimate_b0("SL", 6, 2, "linear", c_max=6, trials=3, seed=8)
    dims = est.projective_dims
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def _dual_configuration(cfg):
    """The annihilator of each part: an (n - d)-subspace configuration."""
    parts = tuple(linalg.nullspace_basis_mod(b.T, cfg.p).T % cfg.p for b in cfg.parts)
    return dataclasses.replace(cfg, d=cfg.n - cfg.d, parts=parts)


def test_duality_matches():
    for seed in range(3):
        cfg = sample_configuration("SL", 5, 2, "linear", 3, seed=seed)
        dual = _dual_configuration(cfg)
        assert dual.d == 3
        assert stabilizer_algebra_dim_once(cfg) == stabilizer_algebra_dim_once(dual)


# -- Lie-algebra coordinates and nested part streams ------------------------------

def _stream_dims(family, n, d, flavor, seed, p):
    """The solver over one part stream, from c = 1."""
    parts = (b for b, _ in genstab._part_stream(family, n, d, flavor, seed, p))
    return genstab._dims(parts, family, flavor, genstab.standard_form(family, n), p)


def _gl_reference_dim(cfg):
    """Nullity of the system over all n^2 entries of X: the span rows of
    every part and the n^2 rows of X^T J + J X = 0."""
    p, n = cfg.p, cfg.n
    blocks = [
        np.einsum("ai,jb->abij", linalg.nullspace_basis_mod(b.T, p), b).reshape(-1, n * n) % p
        for b in cfg.parts
    ]
    blocks.append(genstab._form_constraint(cfg.form))
    return linalg.nullspace_dim_mod(np.concatenate(blocks), p)


def _form_cases(n_max):
    cases = []
    for n in range(4, n_max + 1, 2):
        cases += [("Sp", n, d, "totally_singular") for d in range(1, n // 2 + 1)]
        cases += [("Sp", n, d, "nondeg") for d in range(2, n // 2 + 1, 2)]
    for n in range(5, n_max + 1):
        cases += [("SO", n, d, f) for d in range(1, n // 2 + 1) for f in ("totally_singular", "nondeg")]
    return cases


@pytest.mark.parametrize("family,n,d,flavor", _form_cases(10))
def test_lie_coordinates_match_the_gl_system_with_form_rows(family, n, d, flavor):
    for p in (101, PRIMES[0]):
        for c in (1, 2, 3):
            cfg = sample_configuration(family, n, d, flavor, c, seed=100 * n + d, p=p)
            assert stabilizer_algebra_dim_once(cfg) == _gl_reference_dim(cfg), (p, c)


@pytest.mark.parametrize(
    "family,n,d,flavor",
    [
        ("SL", 5, 1, "linear"), ("SL", 6, 2, "linear"),
        ("Sp", 6, 2, "nondeg"), ("Sp", 8, 4, "totally_singular"),
        ("SO", 7, 2, "nondeg"), ("SO", 10, 5, "totally_singular"),
    ],
)
def test_configurations_nest_and_incremental_dims_match_the_stacked_solve(family, n, d, flavor):
    seed, p = 21, PRIMES[0]
    dims = _stream_dims(family, n, d, flavor, seed, p)
    prev = None
    for c in range(1, 6):
        cfg = sample_configuration(family, n, d, flavor, c, seed=seed, p=p)
        if prev is not None:
            assert all((a == b).all() for a, b in zip(prev.parts, cfg.parts))
            assert cfg.resamples >= prev.resamples
        stacked = np.concatenate([genstab._part_rows(b, family, cfg.form, p) for b in cfg.parts])
        assert next(dims) == linalg.nullspace_dim_mod(stacked, p) == stabilizer_algebra_dim_once(cfg)
        prev = cfg


# (family, n, d, flavor, trials, seed) -> (value, head parts per stream)
_STREAM_COUNTS = {
    ("Sp", 6, 2, "nondeg", 2, 5): (4, 1),
    ("SL", 6, 2, "linear", 1, 5): (5, 3),
    ("Sp", 8, 4, "totally_singular", 1, 5): (4, 2),
    ("SO", 10, 5, "totally_singular", 1, 5): (5, 0),  # pairs meet: no head
}


def test_estimate_b0_draws_value_parts_per_stream_and_eliminates_each_once(monkeypatch):
    # every stream draws value parts; its head parts become deleted columns,
    # the first block past the head is eliminated on its own, and from the
    # next c on every part after the head enters one EchelonMod once; at
    # c = 1 only a lone totally singular part is eliminated
    part_stream, add, solve = genstab._part_stream, linalg.EchelonMod.add, linalg.nullspace_dim_mod
    drawn, added, solved = {}, {}, []

    def recording_stream(family, n, d, flavor, seed, p):
        for b, rejects in part_stream(family, n, d, flavor, seed, p):
            drawn.setdefault(seed, []).append(b)
            yield b, rejects

    monkeypatch.setattr(genstab, "_part_stream", recording_stream)
    monkeypatch.setattr(
        linalg.EchelonMod, "add", lambda self, rows: added.update({id(self): added.get(id(self), 0) + len(rows)}) or add(self, rows)
    )
    monkeypatch.setattr(linalg, "nullspace_dim_mod", lambda rows, p: solved.append(rows) or solve(rows, p))
    for (family, n, d, flavor, trials, seed), (value, head) in _STREAM_COUNTS.items():
        lone = int(flavor == "totally_singular")
        solved.clear()
        next(_stream_dims(family, n, d, flavor, seed, PRIMES[0]))
        assert len(solved) == lone
        drawn.clear()
        added.clear()
        solved.clear()
        est = estimate_b0(family, n, d, flavor, c_max=n + 2, trials=trials, seed=seed)
        assert est.value == value
        streams = trials * len(PRIMES)
        assert len(drawn) == streams and len(added) == streams and len(solved) == (1 + lone) * streams
        # each part gives (n - d) d rows
        assert sorted(added.values()) == [(value - head) * (n - d) * d] * streams
        # each stream's parts are the sampled configuration, with that head
        got = {s: list(parts) for s, parts in drawn.items()}
        for p, s in genstab._runs(seed, trials, PRIMES):
            cfg = sample_configuration(family, n, d, flavor, value, seed=s, p=p)
            assert len(got[s]) == value
            assert all((a == b).all() for a, b in zip(got[s], cfg.parts))
            assert genstab._head_size(cfg.parts, family, flavor, cfg.form, p) == head


def test_trials_below_one_and_no_primes_are_rejected():
    with pytest.raises(ConfigError, match="trials >= 1"):
        stabilizer_report("SL", 4, 2, "linear", 2, seed=0, trials=0)
    with pytest.raises(ConfigError, match="trials >= 1"):
        estimate_b0("SL", 4, 2, "linear", c_max=3, trials=0)
    with pytest.raises(ConfigError, match="one prime"):
        stabilizer_report("SL", 4, 2, "linear", 2, seed=0, trials=1, primes=())
    with pytest.raises(ConfigError, match="one prime"):
        estimate_b0("SL", 4, 2, "linear", c_max=3, trials=1, primes=())


# -- adapted basis -----------------------------------------------------------------

def _plain_dim(cfg):
    """Nullity of the stacked rows of every part in the standard basis."""
    rows = np.concatenate([genstab._part_rows(b, cfg.family, cfg.form, cfg.p) for b in cfg.parts])
    return linalg.nullspace_dim_mod(rows, cfg.p)


def _all_flavor_cases(n_max):
    """(family, flavor, n) -> every admissible d, n <= n_max."""
    cases = {("SL", "linear", n): range(1, n) for n in range(2, n_max + 1)}
    for n in range(4, n_max + 1, 2):
        cases["Sp", "totally_singular", n] = range(1, n // 2 + 1)
        cases["Sp", "nondeg", n] = range(2, n, 2)
    for n in range(3, n_max + 1):
        cases["SO", "totally_singular", n] = range(1, n // 2 + 1)
        cases["SO", "nondeg", n] = range(1, n)
    return cases


_ADAPTED_CASES = _all_flavor_cases(12)

#: SHA-256 of the ``stabilizer_report`` grid below, pinned while verify
#: solved the stacked system of all c parts at once
REPORT_DIGEST = "d8c2c03e5b7ce2431179e1f71a3aa92936ad5cc2d2a0f4f501ebaf3d910293c0"


def test_stabilizer_reports_are_pinned():
    # each record: the case, c, and the report's dimensions, resamples and
    # stability; the size of the first solve is a diagnostic and stays out
    digest = hashlib.sha256()
    count = 0
    for (family, flavor, n), ds in sorted(_all_flavor_cases(10).items()):
        for d in ds:
            for c in range(1, 5):
                rep = stabilizer_report(family, n, d, flavor, c, seed=0, trials=2, primes=PRIMES)
                record = [family, flavor, n, d, c, rep.dims_by_prime, rep.resamples, rep.stable, rep.projective_dim]
                digest.update(json.dumps(record).encode())
                count += 1
    assert count == 548
    assert digest.hexdigest() == REPORT_DIGEST, digest.hexdigest()


@pytest.mark.parametrize("family,flavor,n", sorted(_ADAPTED_CASES))
def test_adapted_nullity_matches_the_plain_stacked_system(family, flavor, n):
    for d in _ADAPTED_CASES[family, flavor, n]:
        for p in PRIMES:
            seed = 100 * n + d
            cfg = sample_configuration(family, n, d, flavor, 5, seed=seed, p=p)
            dims = _stream_dims(family, n, d, flavor, seed, p)
            for c in range(1, 6):
                prefix = dataclasses.replace(cfg, parts=cfg.parts[:c])
                want = _plain_dim(prefix)
                assert stabilizer_algebra_dim_once(prefix) == want == next(dims), (d, p, c)


def _degenerate(family, n, d, flavor, build):
    """A configuration of five sampled parts with some replaced by ``build``."""
    cfg = sample_configuration(family, n, d, flavor, 5, seed=3)
    parts = list(cfg.parts)
    build(parts, cfg.p)
    return dataclasses.replace(cfg, parts=tuple(parts))


def _in_span(parts, p):
    # part 3 inside the span of parts 1 and 2
    rng = np.random.default_rng(0)
    mix = rng.integers(0, p, size=(2 * parts[0].shape[1], parts[0].shape[1]))
    parts[2] = linalg.matmul_mod(np.concatenate(parts[:2], axis=1), mix, p)


_DEGENERATE_CASES = pytest.mark.parametrize(
    "family,n,d,flavor,build,head",
    [
        ("SL", 6, 2, "linear", lambda parts, p: None, 3),
        ("SL", 6, 2, "linear", lambda parts, p: parts.__setitem__(1, parts[0]), 1),  # a repeated part
        ("SL", 6, 2, "linear", _in_span, 2),
        ("SL", 9, 2, "linear", _in_span, 2),
        ("Sp", 8, 2, "totally_singular", lambda parts, p: None, 2),
        ("Sp", 8, 2, "totally_singular", lambda parts, p: parts.__setitem__(1, parts[0]), 0),
        ("SO", 10, 5, "totally_singular", lambda parts, p: None, 0),  # the pair meets in a line
        ("SO", 9, 3, "nondeg", lambda parts, p: None, 1),
        # an isotropic first part: its Gram matrix is zero
        ("Sp", 8, 2, "nondeg", lambda parts, p: parts.__setitem__(0, np.eye(8, 2, dtype=np.int64)), 0),
    ],
    ids=["sl-generic", "sl-repeated", "sl-in-span", "sl9-in-span", "sp-ts-generic", "sp-ts-repeated",
         "so10-ts-pairs-meet", "so-nondeg", "sp-nondeg-singular-gram"],
)


@_DEGENERATE_CASES
def test_degenerate_heads_fall_back_to_a_shorter_head(family, n, d, flavor, build, head):
    cfg = _degenerate(family, n, d, flavor, build)
    assert genstab._head_size(cfg.parts, family, flavor, cfg.form, cfg.p) == head
    adapted = genstab._adapted(cfg.parts, head, family, flavor, cfg.form, cfg.p)
    rows = np.concatenate([adapted.rows(b) for b in cfg.parts[head:]])
    dim = stabilizer_algebra_dim_once(cfg)
    assert linalg.nullspace_dim_mod(rows, cfg.p) == dim == _plain_dim(cfg)
    assert rows.shape[1] == len(adapted.free)
    assert genstab._system_shape(cfg, dim) == genstab.SystemShape(
        genstab._unknowns(family, n), head, len(adapted.free), len(rows), len(adapted.free) - dim
    )


@_DEGENERATE_CASES
def test_degenerate_parts_on_the_incremental_path(family, n, d, flavor, build, head):
    # the same parts one at a time: every prefix has the nullity of its
    # plain system, whatever head it allows
    cfg = _degenerate(family, n, d, flavor, build)
    dims = genstab._dims(cfg.parts, family, flavor, cfg.form, cfg.p)
    for c in range(1, 6):
        assert next(dims) == _plain_dim(dataclasses.replace(cfg, parts=cfg.parts[:c])), c


@pytest.mark.parametrize(
    "family,n,d,flavor",
    [("SL", 7, 2, "linear"), ("SL", 8, 4, "linear"), ("SL", 5, 3, "linear"), ("Sp", 10, 3, "totally_singular"),
     ("Sp", 8, 4, "totally_singular"), ("SO", 9, 2, "totally_singular"), ("Sp", 8, 2, "nondeg"),
     ("SO", 8, 3, "nondeg")],
)
def test_head_rows_are_the_deleted_coordinates(family, n, d, flavor):
    cfg = sample_configuration(family, n, d, flavor, 5, seed=9)
    head = genstab._head_size(cfg.parts, family, flavor, cfg.form, cfg.p)
    assert head > 0
    adapted = genstab._adapted(cfg.parts, head, family, flavor, cfg.form, cfg.p)
    rows = np.concatenate([
        genstab._part_rows(linalg.matmul_mod(adapted.inv, b, cfg.p), family, adapted.form, cfg.p)
        for b in cfg.parts[:head]
    ]) % cfg.p
    deleted = genstab._unknowns(family, n) - len(adapted.free)
    assert not rows[:, adapted.free].any()
    assert linalg.rank_mod(rows, cfg.p) == deleted


# -- module actions --------------------------------------------------------------

def test_sl2_two_quadratic_forms_rigid():
    rep = module_stabilizer_dim("sym2", 2, 2, seed=3)
    assert rep.algebra_dim == 0


def test_one_form_gives_orthogonal_algebra():
    for n in (2, 3, 4, 5):
        rep = module_stabilizer_dim("sym2", n, 1, seed=3)
        assert rep.algebra_dim == n * (n - 1) // 2


def test_so3_tensor_rigid():
    rep = module_stabilizer_dim("so_tensor", 3, 1, seed=3)
    assert rep.algebra_dim == 0


@pytest.mark.parametrize("n,c", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
def test_so_tensor_coordinates_match_the_gl_system_with_form_rows(n, c):
    # the same tensors W, with (X, Y) over all 2 n^2 entries and the form rows
    p, seed = PRIMES[0], 4
    rng = genstab._rng(seed, 0x30D, c)
    eye = np.eye(n, dtype=np.int64)
    zero = np.zeros((n * n, n * n), dtype=np.int64)
    form = genstab._form_constraint(eye)
    blocks = [np.concatenate([form, zero], axis=1), np.concatenate([zero, form], axis=1)]
    for _ in range(c):
        w = rng.integers(0, p, size=(n, n), dtype=np.int64)
        tx = np.einsum("ir,js->rsij", eye, w).reshape(n * n, n * n)
        ty = np.einsum("is,rj->rsij", eye, w).reshape(n * n, n * n)
        blocks.append(np.concatenate([tx, ty], axis=1))
    want = linalg.nullspace_dim_mod(np.concatenate(blocks), p)
    assert module_stabilizer_dim("so_tensor", n, c, seed=seed, p=p).algebra_dim == want


def test_sym2_forms_at_p2_are_symmetric_not_alternating(monkeypatch):
    # over F_2 the nondegenerate forms of rank 2 that are not alternating have
    # a 2-dimensional stabilizer in sl_2; the alternating one [[0,1],[1,0]]
    # has sl_2 itself, and a + a^T would only ever draw that one
    assert {module_stabilizer_dim("sym2", 2, 1, seed=s, p=2).algebra_dim for s in range(8)} == {2}
    # in odd dimension every alternating form is singular: the draws end
    assert module_stabilizer_dim("sym2", 3, 2, seed=0, p=2).trials == 1
    monkeypatch.setattr(genstab, "RESAMPLE_BUDGET", 0)
    with pytest.raises(genstab.SamplingError, match="no nondegenerate symmetric form in 0 draws"):
        module_stabilizer_dim("sym2", 3, 1, seed=0, p=2)


def test_module_kind_validated():
    with pytest.raises(ConfigError):
        module_stabilizer_dim("nope", 3, 1, seed=0)
    for kind, n, c in (("sym2", 1, 1), ("sym2", 0, 1), ("sym2", 3, 0), ("so_tensor", 3, -1)):
        with pytest.raises(ConfigError, match="n >= 2 and c >= 1"):
            module_stabilizer_dim(kind, n, c, seed=0)


# -- rational field -----------------------------------------------------------

def test_rational_agrees_with_modular_on_small_config():
    # the Sp case needs the standard form to be the symplectic form over Q
    for family, n, d, flavor in (
        ("SL", 3, 1, "linear"), ("SO", 7, 2, "nondeg"), ("SO", 8, 2, "nondeg"),
        ("Sp", 6, 2, "nondeg"), ("Sp", 8, 2, "nondeg"),
    ):
        cfg = sample_configuration(family, n, d, flavor, 2, seed=5, p=101)
        dim_p = stabilizer_algebra_dim_once(cfg)
        dim_q = stabilizer_algebra_dim_rational(
            [np.asarray(b) for b in cfg.parts], family, n, form=cfg.form
        )
        assert dim_p == dim_q, (family, n, d, flavor)


# -- the formula's dimensions against the solver ---------------------------------

def _subspace_cases(n_max):
    """The b0 sweep's subspace families, up to n_max."""
    cases = [("SL", n, d, "linear") for n in range(3, n_max + 1) for d in range(1, n // 2 + 1)]
    for n in range(4, n_max + 1, 2):
        cases += [("Sp", n, d, "totally_singular") for d in range(1, n // 2 + 1)]
        cases += [("Sp", n, d, "nondeg") for d in range(2, n // 2 + 1, 2)]
    for n in range(7, n_max + 1):
        cases += [("SO", n, d, "totally_singular") for d in range(1, n // 2 + 1)]
        cases += [("SO", n, d, "nondeg") for d in range(1, n // 2 + 1)]
    return cases


# estimate_b0 at seed 0, one trial, the first prime, c_max = n + 2:
# (value, projective_dims, lower_bound), pinned before the stabilizer
# engine became incremental in c; the generic dimensions do not depend on
# how the parts are drawn
B0_PINS = {
    ('SL', 3, 1, 'linear'): (4, (6, 4, 2, 0), 4),
    ('SL', 4, 1, 'linear'): (5, (12, 9, 6, 3, 0), 5),
    ('SL', 4, 2, 'linear'): (5, (11, 7, 3, 1, 0), 4),
    ('SL', 5, 1, 'linear'): (6, (20, 16, 12, 8, 4, 0), 6),
    ('SL', 5, 2, 'linear'): (4, (18, 12, 6, 0), 4),
    ('SL', 6, 1, 'linear'): (7, (30, 25, 20, 15, 10, 5, 0), 7),
    ('SL', 6, 2, 'linear'): (5, (27, 19, 11, 3, 0), 5),
    ('SL', 6, 3, 'linear'): (5, (26, 17, 8, 2, 0), 4),
    ('SL', 7, 1, 'linear'): (8, (42, 36, 30, 24, 18, 12, 6, 0), 8),
    ('SL', 7, 2, 'linear'): (5, (38, 28, 18, 8, 0), 5),
    ('SL', 7, 3, 'linear'): (4, (36, 24, 12, 0), 4),
    ('SL', 8, 1, 'linear'): (9, (56, 49, 42, 35, 28, 21, 14, 7, 0), 9),
    ('SL', 8, 2, 'linear'): (6, (51, 39, 27, 15, 3, 0), 6),
    ('SL', 8, 3, 'linear'): (5, (48, 33, 18, 3, 0), 5),
    ('SL', 8, 4, 'linear'): (5, (47, 31, 15, 3, 0), 4),
    ('Sp', 4, 1, 'totally_singular'): (4, (7, 4, 1, 0), 4),
    ('Sp', 4, 2, 'totally_singular'): (4, (7, 4, 1, 0), 4),
    ('Sp', 4, 2, 'nondeg'): (4, (6, 3, 1, 0), 3),
    ('Sp', 6, 1, 'totally_singular'): (6, (16, 11, 6, 3, 1, 0), 5),
    ('Sp', 6, 2, 'totally_singular'): (4, (14, 7, 1, 0), 3),
    ('Sp', 6, 3, 'totally_singular'): (4, (15, 9, 3, 0), 4),
    ('Sp', 6, 2, 'nondeg'): (4, (13, 6, 1, 0), 3),
    ('Sp', 8, 1, 'totally_singular'): (8, (29, 22, 15, 10, 6, 3, 1, 0), 6),
    ('Sp', 8, 2, 'totally_singular'): (4, (25, 14, 4, 0), 4),
    ('Sp', 8, 3, 'totally_singular'): (4, (24, 12, 1, 0), 3),
    ('Sp', 8, 4, 'totally_singular'): (4, (26, 16, 6, 0), 4),
    ('Sp', 8, 2, 'nondeg'): (4, (24, 13, 4, 0), 3),
    ('Sp', 8, 4, 'nondeg'): (3, (20, 6, 0), 3),
    ('SO', 7, 1, 'totally_singular'): (6, (16, 11, 6, 3, 1, 0), 5),
    ('SO', 7, 2, 'totally_singular'): (4, (14, 7, 1, 0), 3),
    ('SO', 7, 3, 'totally_singular'): (4, (15, 9, 3, 0), 4),
    ('SO', 7, 1, 'nondeg'): (6, (15, 10, 6, 3, 1, 0), 4),
    ('SO', 7, 2, 'nondeg'): (3, (11, 3, 0), 3),
    ('SO', 7, 3, 'nondeg'): (2, (9, 0), 2),
    ('SO', 8, 1, 'totally_singular'): (7, (22, 16, 10, 6, 3, 1, 0), 5),
    ('SO', 8, 2, 'totally_singular'): (4, (19, 10, 2, 0), 4),
    ('SO', 8, 3, 'totally_singular'): (4, (19, 10, 1, 0), 4),
    ('SO', 8, 4, 'totally_singular'): (7, (22, 16, 10, 6, 3, 1, 0), 5),
    ('SO', 8, 1, 'nondeg'): (7, (21, 15, 10, 6, 3, 1, 0), 4),
    ('SO', 8, 2, 'nondeg'): (4, (16, 6, 1, 0), 3),
    ('SO', 8, 3, 'nondeg'): (3, (13, 1, 0), 2),
    ('SO', 8, 4, 'nondeg'): (2, (12, 0), 2),
}


def test_b0_pins_cover_the_small_sweep():
    assert sorted(B0_PINS) == sorted(_subspace_cases(8))


@pytest.mark.parametrize("case", sorted(B0_PINS))
def test_estimate_b0_is_pinned(case):
    family, n, d, flavor = case
    est = estimate_b0(family, n, d, flavor, c_max=n + 2, trials=1, seed=0, primes=PRIMES[:1])
    assert (est.value, est.projective_dims, est.lower_bound) == B0_PINS[case]


@pytest.mark.parametrize("family,n,d,flavor", _subspace_cases(8))
def test_spec_dims_match_the_point_stabilizer(family, n, d, flavor):
    # dim G - dim Omega is the dimension of a point stabilizer: projective
    # for SL, where the scalars act trivially, and in sp/so otherwise
    spec = fm.ActionSpec(family, fm.Subspace(d, flavor), n=n, char="any" if family == "SL" else "odd")
    dim_g, dim_omega = fm.spec_dims(spec)
    rep = stabilizer_report(family, n, d, flavor, 1, seed=0, trials=1)
    assert rep.stable
    assert dim_g - dim_omega == (rep.projective_dim if family == "SL" else rep.algebra_dim)
