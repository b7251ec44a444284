import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from basesize import formulas as fm, genstab, linalg
from basesize.genstab import (
    PRIMES,
    ConfigError,
    estimate_b0,
    module_stabilizer_dim,
    sample_configuration,
    stabilizer_algebra_dim_once,
    stabilizer_report,
)


def test_primes_are_prime():
    from sympy import isprime

    assert all(isprime(p) for p in PRIMES)
    assert all(p < 2**31 for p in PRIMES)


def _form(cfg):
    """The standard form that a configuration's parts were drawn in."""
    return genstab.standard_form(cfg.family, cfg.n, cfg.d, cfg.flavor)


# -- sampling ------------------------------------------------------------------

def test_sl_parts_are_transverse():
    cfg = sample_configuration("SL", 4, 2, "linear", 4, seed=1)
    assert len(cfg.parts) == 4
    for i, a in enumerate(cfg.parts):
        for b in cfg.parts[i + 1 :]:
            assert linalg.nullspace_dim_mod(np.concatenate([a, b], axis=1), cfg.p) == 0


def test_totally_singular_exact():
    cfg = sample_configuration("Sp", 8, 4, "totally_singular", 2, seed=2)
    for b in cfg.parts:
        gram = linalg.matmul_mod(linalg.matmul_mod(b.T, _form(cfg), cfg.p), b, cfg.p)
        assert not gram.any()
    # two generic half-dimension parts are complementary
    joint = np.concatenate(cfg.parts, axis=1)
    assert linalg.nullspace_dim_mod(joint, cfg.p) == 0


def test_nondeg_gram_invertible():
    cfg = sample_configuration("Sp", 6, 2, "nondeg", 3, seed=3)
    for b in cfg.parts:
        gram = linalg.matmul_mod(linalg.matmul_mod(b.T, _form(cfg), cfg.p), b, cfg.p)
        assert linalg.det_mod(gram, cfg.p) != 0


def _totally_singular_cases():
    cases = [("Sp", n, d) for n in range(4, 13, 2) for d in range(1, n // 2 + 1)]
    return cases + [("SO", n, d) for n in range(7, 13) for d in range(1, n // 2 + 1)]


@pytest.mark.parametrize("family,n,d", _totally_singular_cases())
def test_totally_singular_parts_are_drawn_without_an_inverse(family, n, d):
    # the parts are the standard head and graphs [x; S x], so no matrix is
    # inverted (linalg has no inverse); two maximal totally singular spaces
    # of one SO_2d family meet in d mod 2
    joint_rank = 2 * d - (d % 2 if (family, n) == ("SO", 2 * d) else 0)
    for p in PRIMES:
        cfg = sample_configuration(family, n, d, "totally_singular", 3, seed=10 * n + d, p=p)
        for i, b in enumerate(cfg.parts):
            assert not linalg.matmul_mod(linalg.matmul_mod(b.T, _form(cfg), p), b, p).any()
            assert linalg.nullspace_dim_mod(b, p) == 0
            if 2 * d <= n:
                for other in cfg.parts[:i]:
                    assert linalg.nullspace_dim_mod(np.concatenate([other, b], axis=1), p) == 2 * d - joint_rank


def test_totally_singular_parts_at_p2():
    # SO with odd n is refused at p = 2; even n needs no division
    with pytest.raises(ConfigError, match="p != 2"):
        sample_configuration("SO", 7, 2, "totally_singular", 1, seed=0, p=2)
    cfg = sample_configuration("Sp", 6, 2, "totally_singular", 3, seed=0, p=2)
    assert len(cfg.parts) == 3
    for b in cfg.parts:
        assert not linalg.matmul_mod(linalg.matmul_mod(b.T, _form(cfg), 2), b, 2).any()
    # the first drawn part, after the head <e_1>, <f_1>, is the graph [x; S x]
    # on x = (1, z), z in F_2, and S x = (s11 + s12 z, s12 + s22 z) takes all
    # 4 values for a symmetric S: 8 lines, <e_1> among them.  The 4 graphs
    # over x = (0, 1) leave the chart, and an alternating S would reach only 4
    lines = {tuple(sample_configuration("Sp", 4, 1, "totally_singular", 3, seed=s, p=2).parts[2].ravel())
             for s in range(200)}
    assert len(lines) == 8


@pytest.mark.parametrize("p", PRIMES + (3, 5))
def test_every_drawn_part_is_a_graph_with_an_integral_annihilator(p):
    # every part after the head is [I_d; Y], so it has rank d as drawn, and
    # its annihilator mod p is [(-Y) mod p | I], the reduction of the
    # integral [-Y I] (module docstring, "Certificates")
    for (family, flavor, n), ds in sorted(_all_flavor_cases(9).items()):
        for d in ds:
            h = len(genstab._head(family, n, d, flavor))
            cfg = sample_configuration(family, n, d, flavor, h + 3, seed=n * d, p=p)
            for b in cfg.parts[h:]:
                assert (b[:d] == np.eye(d, dtype=np.int64)).all(), (family, flavor, n, d)
                want = np.concatenate([-b[d:] % p, np.eye(n - d, dtype=np.int64)], axis=1)
                assert np.array_equal(linalg.nullspace_basis_mod(b.T, p), want), (family, flavor, n, d)
                # _part_rows reads it off the graph: the same rows as from the basis
                rows = genstab._span_constraint(b, want, family, _form(cfg)) % p
                assert np.array_equal(genstab._part_rows(b, family, _form(cfg), p), rows), (family, flavor, n, d)


def test_sampler_validates_inputs():
    for args, message in (
        (("Sp", 6, 3, "nondeg"), "have even dimension"),
        (("SL", 4, 2, "nondeg"), "SL parts carry no form"),
        (("Sp", 6, 4, "totally_singular"), "exceeds the Witt index"),
        (("Sp", 6, 2, "linear"), "flavor 'linear' invalid for Sp"),
        (("SO", 7, 2, "linear"), "flavor 'linear' invalid for SO"),
        (("Sp", 5, 2, "nondeg"), "Sp needs even n"),
        (("GL", 4, 2, "linear"), "unknown family 'GL'"),
    ):
        with pytest.raises(ConfigError, match=message):
            sample_configuration(*args, 2, seed=0)
    with pytest.raises(ConfigError, match="need c_max >= 1"):
        estimate_b0("SL", 4, 2, "linear", c_max=0)


# -- stabilizer dimensions -----------------------------------------------------

def test_form_algebra_dimensions_at_c0_via_identity_part():
    # with d = n the span condition is void; the form rows alone must cut
    # gl down to sp/so of the right dimension
    from basesize.genstab import _form_constraint, standard_form

    for family, n, d, flavor, want in (
        ("Sp", 6, 2, "nondeg", 21), ("SO", 7, 2, "nondeg", 21), ("SO", 8, 2, "nondeg", 28), ("SO", 8, 3, "nondeg", 28),
    ):
        j = standard_form(family, n, d, flavor)
        assert np.array_equal(_form_constraint(j), _gl_form_rows(j))
        dim = linalg.nullspace_dim_mod(_form_constraint(j), PRIMES[0])
        assert dim == want


def _unit(n, m, i, j):
    e = np.zeros((n, m), dtype=np.int64)
    e[i, j] = 1
    return e


def test_product_rows_are_the_entries_of_left_x_right():
    # rectangular L (3 x 4) and R (5 x 2), so X is 4 x 5: the coefficient of
    # X_ij in row (a, b) is entry (a, b) of L E_ij R; a term L Y^T R in a
    # 5 x 4 unknown Y is the rule with the pairs swapped; any subset of the
    # pairs, in any order, gives those columns alone
    rng = np.random.default_rng(7)
    left, right = rng.integers(-9, 10, size=(3, 4)), rng.integers(-9, 10, size=(5, 2))
    i, j = np.indices((4, 5)).reshape(2, -1)
    r, s = np.indices((5, 4)).reshape(2, -1)
    rows, rows_t = genstab._product_rows(left, right, i, j), genstab._product_rows(left, right, s, r)
    assert rows.shape == rows_t.shape == (6, 20) and rows.dtype == np.int64
    for k in range(20):
        assert np.array_equal(rows[:, k], (left @ _unit(4, 5, i[k], j[k]) @ right).ravel()), k
        assert np.array_equal(rows_t[:, k], (left @ _unit(5, 4, r[k], s[k]).T @ right).ravel()), k
    some = rng.permutation(20)[:7]
    assert np.array_equal(genstab._product_rows(left, right, i[some], j[some]), rows[:, some])


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
    # dimension; the drawn graphs all lie in the family of the one head part
    spec = fm.ActionSpec("SO", fm.Subspace(5, "totally_singular"), n=10, char="odd")
    b0 = fm.base_triple(spec).b0
    assert (b0.lo, b0.hi) == (5, 5)
    for seed in range(3):
        est = estimate_b0("SO", 10, 5, "totally_singular", c_max=7, trials=1, seed=seed)
        assert (est.value, est.projective_dims, est.lower_bound) == (5, (35, 25, 15, 6, 0), 5)


def test_estimate_b0_not_found():
    est = estimate_b0("SO", 8, 4, "totally_singular", c_max=3, trials=2, seed=7)
    assert est.value is None
    assert (est.c_max, len(est.projective_dims)) == (3, 3)
    assert est.certified is None


def test_small_prime_estimates_are_upper_bounds_drawn_from_omega():
    # drawn parts need not be pairwise transversal: over F_2 a drawn point
    # [1; y] of the projective line is e_1 again (y = 0) or e_1 + e_2, the
    # third point after the head e_1, e_2, and 2-spaces of F_2^4 need not
    # form a spread (at most 5 transversal ones fit).  A special
    # configuration only raises the nullity, so each value is an upper
    # bound, at or above the one at the default primes; this seed's SL_2
    # stream draws e_1 + e_2 first, so it reaches the default 3
    for n, d, value in ((2, 1, 3), (4, 2, 5)):
        default = estimate_b0("SL", n, d, "linear", c_max=n + 4, trials=1).value
        est = estimate_b0("SL", n, d, "linear", c_max=n + 4, trials=1, primes=(2,))
        assert est.value == value >= default
        # every part the estimate drew is a point of Omega: a d-space of F_2^n
        [(p, stream_seed)] = genstab._runs(("SL", n, d, "linear"), est.seed, 1, (2,))
        cfg = sample_configuration("SL", n, d, "linear", value, seed=stream_seed, p=p)
        assert all(linalg.nullspace_dim_mod(b, p) == 0 for b in cfg.parts)


@pytest.mark.parametrize("n,d", [(6, 1), (6, 3), (8, 1), (8, 3)])
def test_odd_nondegenerate_parts_of_even_so_at_p2_are_a_config_error(monkeypatch, n, d):
    # mod 2 the form of SO_n with n even is alternating, so no part can be
    # drawn: the request is refused before any draw, not after the retries
    def unreachable(*args, **kwargs):
        raise AssertionError("a part was drawn although none can exist")

    monkeypatch.setattr(genstab, "_rng", unreachable)
    with pytest.raises(ConfigError, match="alternating"):
        estimate_b0("SO", n, d, "nondeg", c_max=3, trials=1, primes=(2,))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_so_nondegenerate_lines_at_p3_reach_b0(n):
    # a random line of F_3^n is nondegenerate with probability about 2/3;
    # asking it also to span a nondegenerate plane with every earlier part
    # ran out of retries at 19 of these 24 (n, seed) runs
    default = estimate_b0("SO", n, 1, "nondeg", c_max=n + 2, trials=2).value
    for seed in range(8):
        est = estimate_b0("SO", n, 1, "nondeg", c_max=n + 2, trials=2, seed=seed, primes=(3,))
        assert est.value is not None and est.value >= default == n - 1


def test_totally_singular_parts_at_small_primes_are_drawn():
    # the graphs need no part to be transversal to those before it, so every
    # draw ends in a part; pairwise checks ran out of retries at 14 of these
    # 732 runs (e.g. SO8 d=4 at p = 3 from c = 7 on)
    cases = [("Sp", n, d) for n in range(2, 11, 2) for d in range(1, n // 2 + 1)]
    cases += [("SO", n, d) for n in range(3, 11) for d in range(1, n // 2 + 1)]
    for family, n, d in cases:
        for p in (3, 5):
            for c in range(1, n + 3):
                cfg = sample_configuration(family, n, d, "totally_singular", c, seed=0, p=p)
                assert len(cfg.parts) == c


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

def _walk_dims(parts, family, n, d, flavor, p):
    """The nullity after each of ``parts`` (any iterable), by one walk."""
    walk = genstab._Walk(family, n, d, flavor, p)
    return (walk.add(b) for b in parts)


def _stream_dims(family, n, d, flavor, seed, p):
    """The solver over one part stream, from c = 1."""
    return _walk_dims((b for b, _ in genstab._part_stream(family, n, d, flavor, seed, p)), family, n, d, flavor, p)


def _walked(cfg):
    """One walk that has added every part of ``cfg``."""
    walk = genstab._Walk(cfg.family, cfg.n, cfg.d, cfg.flavor, cfg.p)
    for b in cfg.parts:
        walk.add(b)
    return walk


@pytest.mark.parametrize("family,n,d", [("Sp", 6, 2), ("SO", 7, 1), ("SO", 8, 3)])
def test_unreduced_span_rows_at_the_largest_entries_are_exact(family, n, d):
    # the mod-p rows are folded before their reduction: a folded entry adds
    # two products of size up to (p - 1)^2, which int64 must hold exactly;
    # alternating signs in A J^T make both kinds of fold reach that size
    p = PRIMES[0]
    form = genstab.standard_form(family, n, d, "nondeg")
    u = (p - 1) * np.array([[(-1) ** i for i in range(n)]] * 3, dtype=np.int64)
    ann, b = u @ form, np.full((n, 2), p - 1, dtype=np.int64)  # ann J^T = u, as J J^T = I
    rows = genstab._span_constraint(b, ann, family, form)
    exact = genstab._span_constraint(b.astype(object), ann.astype(object), family, form)
    assert (rows % p).tolist() == (exact % p).tolist()
    assert max(abs(int(v)) for v in exact.ravel()) == 2 * (p - 1) ** 2


def _gl_form_rows(j):
    """Rows over gl of X^T J + J X = 0, by index formulas of their own."""
    n = len(j)
    eye = np.eye(n, dtype=np.int64)
    return (np.einsum("is,jr->rsij", j, eye) + np.einsum("ri,js->rsij", j, eye)).reshape(n * n, n * n)


def _gl_reference_dim(cfg):
    """Nullity of the system over all n^2 entries of X: the span rows of
    every part and the n^2 rows of X^T J + J X = 0."""
    p, n = cfg.p, cfg.n
    blocks = [
        np.einsum("ai,jb->abij", linalg.nullspace_basis_mod(b.T, p), b).reshape(-1, n * n) % p
        for b in cfg.parts
    ]
    blocks.append(_gl_form_rows(_form(cfg)))
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
        # past b0 within five parts: the solves stop at the scalars
        ("SL", 3, 1, "linear"), ("Sp", 4, 1, "totally_singular"), ("SO", 5, 2, "nondeg"),
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
        stacked = np.concatenate([genstab._part_rows(b, family, _form(cfg), p) for b in cfg.parts])
        assert next(dims) == linalg.nullspace_dim_mod(stacked, p) == stabilizer_algebra_dim_once(cfg)
        prev = cfg


def _stacked_dim(cfg):
    """The reference solve: one elimination of every part's rows stacked,
    each part's annihilator a nullspace basis."""
    rows = [
        genstab._span_constraint(b, linalg.nullspace_basis_mod(b.T, cfg.p), cfg.family, _form(cfg)) % cfg.p
        for b in cfg.parts
    ]
    return linalg.nullspace_dim_mod(np.concatenate(rows), cfg.p)


def _recording(monkeypatch):
    """Counts of EchelonMod.add, EchelonMod.nullity_with and the
    nullspace bases that _part_rows takes, while the test runs."""
    counts = {"add": 0, "rank": 0, "basis": 0}
    add, rank, basis = linalg.EchelonMod.add, linalg.EchelonMod.nullity_with, linalg.nullspace_basis_mod

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg.EchelonMod, "add", counted("add", add))
    monkeypatch.setattr(linalg.EchelonMod, "nullity_with", counted("rank", rank))
    monkeypatch.setattr(linalg, "nullspace_basis_mod", counted("basis", basis))
    return counts


def _sl_repeated(cfg):
    # the second head part repeats the first: the head is one part
    return dataclasses.replace(cfg, parts=(cfg.parts[0],) + cfg.parts[:1] + cfg.parts[2:])


# (family, n, d, flavor, c, build) -> (EchelonMod.add calls, nullity_with calls, nullspace bases)
_ONE_PATH_CASES = {
    ("SL", 6, 2, "linear", 3, None): (0, 0, 0),  # every part in the head
    ("SL", 6, 2, "linear", 4, None): (0, 1, 0),  # one drawn part: rank alone
    ("Sp", 8, 2, "totally_singular", 3, None): (0, 1, 0),
    ("SO", 8, 3, "nondeg", 2, None): (0, 1, 0),
    ("SL", 6, 2, "linear", 5, None): (1, 1, 0),  # b1 = 5: the last drawn part by rank alone
    # past b0: nothing is assembled once the nullity is the scalars
    ("SL", 6, 2, "linear", 6, None): (2, 0, 0),
    ("SL", 4, 2, "linear", 8, None): (3, 0, 0),  # b1 = 5, then 1 for gl
    ("Sp", 8, 2, "totally_singular", 7, None): (2, 0, 0),  # b0 = 4, then 0 for sp
    ("SO", 7, 2, "nondeg", 8, None): (2, 0, 0),  # b0 = 3, then 0 for so
    # a head prefix broken early: the parts after the one-part head, the
    # third head block [0; I_2] among them, which is not a graph
    ("SL", 6, 2, "linear", 5, _sl_repeated): (3, 1, 1),
    # dual configurations: (n - d)-spaces that are not graphs
    ("SL", 5, 2, "linear", 3, _dual_configuration): (2, 1, 3),
    ("SL", 6, 2, "linear", 4, _dual_configuration): (3, 1, 3),  # the dual of <e_5, e_6> is a graph
}


@pytest.mark.parametrize("case", list(_ONE_PATH_CASES), ids=lambda case: "-".join(str(x) for x in case[:5])
                         + ("" if case[5] is None else case[5].__name__))
def test_one_solve_path_matches_the_stacked_rows(case, monkeypatch):
    # stabilizer_algebra_dim_once feeds the parts after the head to one
    # EchelonMod, measures the last by rank alone and assembles nothing once
    # the nullity is the dimension of the scalars; it must equal one
    # elimination of every part's stacked rows
    family, n, d, flavor, c, build = case
    for seed in range(3):
        cfg = sample_configuration(family, n, d, flavor, c, seed=seed)
        cfg = cfg if build is None else build(cfg)
        want = _stacked_dim(cfg)
        counts = _recording(monkeypatch)
        assert stabilizer_algebra_dim_once(cfg) == want, seed
        assert (counts["add"], counts["rank"], counts["basis"]) == _ONE_PATH_CASES[case], seed
        monkeypatch.undo()


def test_the_part_stream_assembles_nothing_past_the_scalars(monkeypatch):
    # the walk keeps giving the floor, and the stream keeps drawing its parts
    rows = []
    part_rows = genstab._part_rows
    monkeypatch.setattr(genstab, "_part_rows", lambda b, *args: rows.append(b) or part_rows(b, *args))
    for (family, n, d, flavor), (head, value, floor) in {
        ("SL", 4, 2, "linear"): (2, 5, 1), ("Sp", 8, 2, "totally_singular"): (2, 4, 0),
    }.items():
        rows.clear()
        drawn = []
        stream = (drawn.append(b) or b for b, _ in genstab._part_stream(family, n, d, flavor, 7, PRIMES[0]))
        dims = list(itertools.islice(_walk_dims(stream, family, n, d, flavor, PRIMES[0]), 9))
        assert dims[value - 1 :] == [floor] * (10 - value) and dims[value - 2] > floor
        assert len(drawn) == 9 and len(rows) == value - head


# (family, n, d, flavor, trials, seed) -> (value, head parts per stream)
_STREAM_COUNTS = {
    ("Sp", 6, 2, "nondeg", 2, 5): (4, 1),
    ("SL", 6, 2, "linear", 1, 5): (5, 3),
    ("Sp", 8, 4, "totally_singular", 1, 5): (4, 2),
    ("SO", 10, 5, "totally_singular", 1, 5): (5, 1),  # pairs meet: a one-part head
}


def test_estimate_b0_draws_value_parts_per_stream_and_eliminates_each_once(monkeypatch):
    # every stream yields value parts, its head parts fixed blocks that
    # become deleted columns, and every part after the head, the first block
    # included, enters one EchelonMod once; nothing is eliminated alone
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
        solved.clear()
        next(_stream_dims(family, n, d, flavor, seed, PRIMES[0]))
        assert not solved
        drawn.clear()
        added.clear()
        solved.clear()
        est = estimate_b0(family, n, d, flavor, c_max=n + 2, trials=trials, seed=seed)
        assert est.value == value
        streams = trials * len(PRIMES)
        assert len(drawn) == streams and len(added) == streams and not solved
        # each part gives (n - d) d rows
        assert sorted(added.values()) == [(value - head) * (n - d) * d] * streams
        # each stream's parts are the sampled configuration, with that head
        got = {s: list(parts) for s, parts in drawn.items()}
        for p, s in genstab._runs((family, n, d, flavor), seed, trials, PRIMES):
            cfg = sample_configuration(family, n, d, flavor, value, seed=s, p=p)
            assert len(got[s]) == value
            assert all((a == b).all() for a, b in zip(got[s], cfg.parts))
            assert _walked(cfg).heads == head


def test_trials_below_one_and_no_primes_are_rejected():
    with pytest.raises(ConfigError, match="trials >= 1"):
        stabilizer_report("SL", 4, 2, "linear", 2, seed=0, trials=0)
    with pytest.raises(ConfigError, match="trials >= 1"):
        estimate_b0("SL", 4, 2, "linear", c_max=3, trials=0)
    with pytest.raises(ConfigError, match="one prime"):
        stabilizer_report("SL", 4, 2, "linear", 2, seed=0, trials=1, primes=())
    with pytest.raises(ConfigError, match="one prime"):
        estimate_b0("SL", 4, 2, "linear", c_max=3, trials=1, primes=())


# -- the fixed head ----------------------------------------------------------------

def _plain_dim(cfg):
    """Nullity of the stacked rows of every part in the standard basis."""
    rows = np.concatenate([genstab._part_rows(b, cfg.family, _form(cfg), cfg.p) for b in cfg.parts])
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


@pytest.mark.parametrize("n,d", [(30, 6), (36, 9), (40, 8)])
def test_sl_on_one_part_past_the_head_keeps_gl_of_one_block(n, d):
    # n = k d at c = k + 1: the head leaves X = diag(X_0, .., X_{k-1}), and
    # the drawn graph [I_d; Y] gives Y_i X_0 = X_i Y_i, so X_i = Y_i X_0 Y_i^-1
    # and X_0 is free: the algebra is gl_d
    rep = stabilizer_report("SL", n, d, "linear", n // d + 1, seed=0, trials=1, primes=PRIMES[:1])
    assert (rep.algebra_dim, rep.projective_dim) == (d * d, d * d - 1)


def test_first_system_is_the_walk_of_the_first_sampled_configuration():
    # stabilizer_report counts the first solve from the standard head
    # alone; walking the configuration that solve sampled must give the same
    # head parts and free columns, and the rows after the head with their rank
    shapes = {}
    for (family, flavor, n), ds in sorted(_all_flavor_cases(10).items()):
        for d in ds:
            for c in range(1, 5):
                rep = stabilizer_report(family, n, d, flavor, c, seed=0, trials=1, primes=PRIMES[:1])
                [(p, s)] = genstab._runs((family, n, d, flavor), 0, 1, PRIMES[:1])
                cfg = sample_configuration(family, n, d, flavor, c, seed=s, p=p)
                walk = _walked(cfg)
                rows = [genstab._part_rows(b, family, _form(cfg), p)[:, walk.free] for b in cfg.parts[walk.heads :]]
                rank = len(walk.free) - linalg.nullspace_dim_mod(np.concatenate(rows), p) if rows else 0
                want = genstab.SystemShape(
                    genstab._unknowns(family, n), walk.heads, len(walk.free), sum(map(len, rows)), rank
                )
                assert rep.first_system == want, (family, flavor, n, d, c)
                shapes[family, flavor, n, d, c] = want
    assert len(shapes) == 548
    # c below the head length: the first c of SL_6's three blocks
    assert [shapes["SL", "linear", 6, 2, c].head_parts for c in (1, 2, 3, 4)] == [1, 2, 3, 3]
    assert shapes["SL", "linear", 6, 2, 1].rows == 0
    # SO_10 on totally singular 5-spaces: pairs meet, so the head is one part
    assert [shapes["SO", "totally_singular", 10, 5, c].head_parts for c in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert shapes["SO", "totally_singular", 10, 5, 4].rows == 3 * 5 * 5


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
        ("Sp", 8, 2, "totally_singular", lambda parts, p: parts.__setitem__(1, parts[0]), 1),
        ("SO", 10, 5, "totally_singular", lambda parts, p: None, 1),  # later pairs meet in a line
        ("SO", 9, 3, "nondeg", lambda parts, p: None, 1),
        # an isotropic first part: its Gram matrix is zero
        ("Sp", 8, 2, "nondeg", lambda parts, p: parts.__setitem__(0, np.eye(8, 2, dtype=np.int64)), 0),
        # the head blocks out of order, and a repeated head that holds g
        ("SL", 6, 2, "linear", lambda parts, p: parts.__setitem__(slice(0, 2), parts[1::-1]), 0),
        ("SO", 8, 3, "nondeg", lambda parts, p: parts.__setitem__(1, parts[0]), 1),
    ],
    ids=["sl-generic", "sl-repeated", "sl-in-span", "sl9-in-span", "sp-ts-generic", "sp-ts-repeated",
         "so10-ts-pairs-meet", "so-nondeg", "sp-nondeg-singular-gram", "sl-swapped-head", "so8-nondeg-repeated"],
)


@_DEGENERATE_CASES
def test_degenerate_heads_fall_back_to_a_shorter_head(family, n, d, flavor, build, head):
    # the head is the longest prefix equal to the standard head, so a
    # hand-built configuration is solved on the columns that prefix leaves
    cfg = _degenerate(family, n, d, flavor, build)
    walk = _walked(cfg)
    dim = stabilizer_algebra_dim_once(cfg)
    assert walk.heads == head
    assert dim == _plain_dim(cfg) == walk.echelon.nullity


@_DEGENERATE_CASES
def test_degenerate_parts_on_the_incremental_path(family, n, d, flavor, build, head):
    # the same parts one at a time: every prefix has the nullity of its
    # plain system, whatever head it allows
    cfg = _degenerate(family, n, d, flavor, build)
    dims = _walk_dims(cfg.parts, family, n, d, flavor, cfg.p)
    for c in range(1, 6):
        assert next(dims) == _plain_dim(dataclasses.replace(cfg, parts=cfg.parts[:c])), c


@pytest.mark.parametrize(
    "family,n,d,flavor",
    [("SL", 7, 2, "linear"), ("SL", 8, 4, "linear"), ("SL", 5, 3, "linear"), ("Sp", 10, 3, "totally_singular"),
     ("Sp", 8, 4, "totally_singular"), ("SO", 9, 2, "totally_singular"), ("Sp", 8, 2, "nondeg"),
     ("SO", 8, 3, "nondeg"), ("SO", 10, 5, "totally_singular"), ("SO", 9, 3, "nondeg"), ("SO", 12, 4, "nondeg")],
)
def test_head_rows_are_the_deleted_coordinates(family, n, d, flavor):
    # every head prefix, a set of coordinate blocks of the standard form,
    # has rows only on the columns it deletes, and all of them: the nullity
    # is the free columns minus the rank of the later rows
    cfg = sample_configuration(family, n, d, flavor, 5, seed=9)
    for c in range(1, 6):
        walk = _walked(dataclasses.replace(cfg, parts=cfg.parts[:c]))
        h, free = walk.heads, walk.free
        if not h:
            continue
        rows = np.concatenate([genstab._part_rows(b, family, _form(cfg), cfg.p) for b in cfg.parts[:h]])
        assert not rows[:, free].any()
        assert linalg.nullspace_dim_mod(rows, cfg.p) == len(free), c
    assert _walked(cfg).heads == len(genstab._head(family, n, d, flavor)) > 0


@pytest.mark.parametrize("family,flavor,n", sorted(_ADAPTED_CASES))
def test_head_prefix_counts_match_the_part_by_part_rule(family, flavor, n):
    # the walk counts every head prefix as it starts; fed its head one part
    # at a time, it must give the nullity of the stacked full rows of the
    # parts so far, and past the head its free columns and pairs must be the
    # columns on which every one of those rows is zero
    p, coords = PRIMES[0], genstab._coordinates(family, n)
    for d in _ADAPTED_CASES[family, flavor, n]:
        head, form = genstab._head(family, n, d, flavor), genstab.standard_form(family, n, d, flavor)
        rows = [genstab._part_rows(b, family, form, p) for b in head]
        walk = genstab._Walk(family, n, d, flavor, p)
        for h, b in enumerate(head, 1):
            assert walk.add(b) == linalg.nullspace_dim_mod(np.concatenate(rows[:h]), p) and walk.heads == h, (d, h)
        # the first drawn part of a stream, which follows the whole head
        drawn = next(itertools.islice(genstab._part_stream(family, n, d, flavor, n + d, p), len(head), None))[0]
        walk.add(drawn)
        free = (~np.concatenate(rows).any(axis=0)).nonzero()[0]
        assert walk.heads == len(head) and walk.free.tolist() == free.tolist(), d
        assert [x.tolist() for x in walk.pairs] == [x[free].tolist() for x in coords], d
        assert np.array_equal(genstab._part_rows(drawn, family, form, p, walk.pairs),
                              genstab._part_rows(drawn, family, form, p)[:, free]), d


@pytest.mark.parametrize("n,ds", [(40, (1, 3, 13, 20, 39)), (64, (1, 8, 21, 32)), (255, (1, 2, 17, 85, 127))])
def test_sl_head_prefix_counts_are_the_closed_form(n, ds):
    # each of SL's disjoint head blocks deletes the d (n - d) entries X(outside W, W)
    for d in ds:
        walk = genstab._Walk("SL", n, d, "linear", PRIMES[0])
        assert walk.columns == [n * n - h * d * (n - d) for h in range(n // d + 1)], d


def test_a_long_head_is_counted_in_square_memory():
    # one first-prefix table of n x n entries, not a mask per head prefix
    import tracemalloc

    tracemalloc.start()
    try:
        walk = genstab._Walk("SL", 255, 1, "linear", PRIMES[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(walk.columns) == 256 and peak < 8e6, peak


@pytest.mark.parametrize("family,n,d,flavor", [("SL", 6, 2, "linear"), ("Sp", 8, 2, "totally_singular"),
                                               ("SO", 9, 3, "nondeg")])
def test_head_parts_after_a_drawn_part_are_eliminated(family, n, d, flavor):
    # a first part that is not the head part deletes nothing, and a part
    # equal to a head part after a drawn part enters the echelon
    cfg = sample_configuration(family, n, d, flavor, len(genstab._head(family, n, d, flavor)) + 2, seed=4)
    head, drawn = cfg.parts[: -2], cfg.parts[-2:]
    for parts, heads in [(drawn[:1] + head, 0), (head[:1] + drawn[:1] + head, 1), (head + drawn + head, len(head))]:
        walk = _walk_dims(parts, family, n, d, flavor, cfg.p)
        for c in range(1, len(parts) + 1):
            assert next(walk) == _plain_dim(dataclasses.replace(cfg, parts=parts[:c])), (heads, c)
        walk = _walked(dataclasses.replace(cfg, parts=parts))
        assert walk.heads == heads and len(walk.free) == walk.columns[heads]
        assert walk.echelon.nullity == _plain_dim(dataclasses.replace(cfg, parts=parts))
        if not heads:
            assert walk.free.tolist() == list(range(genstab._unknowns(family, n)))


@pytest.mark.parametrize("p", PRIMES + (3, 5))
def test_standard_heads_are_exact_mod_p(p):
    # the sampler yields these blocks unchecked, so check every one here:
    # each is a block of distinct identity columns, and each form J has
    # J J^T = I, which X = J^T S needs
    def gram(x, j):
        return linalg.matmul_mod(linalg.matmul_mod(x.T, j, p), x, p)

    for (family, flavor, n), ds in sorted(_all_flavor_cases(12).items()):
        eye = np.eye(n, dtype=np.int64)
        for d in ds:
            j = genstab.standard_form(family, n, d, flavor)
            assert j is None if family == "SL" else (j @ j.T == eye).all(), (family, flavor, n, d)
            head = genstab._head(family, n, d, flavor)
            joint = np.concatenate(head, axis=1)
            assert all(b.shape == (n, d) for b in head) and head, (family, flavor, n, d)
            for b in head:
                cols = b.argmax(axis=0)
                assert len(set(cols)) == d and (b == eye[:, cols]).all(), (family, flavor, n, d)
            if family == "SL":
                assert len(head) == n // d
                assert linalg.nullspace_dim_mod(joint, p) == 0
            elif flavor == "totally_singular":
                assert all(not gram(b, j).any() for b in head)
                # two spaces of one SO_2d family meet in d mod 2: a pair heads no odd d
                if (family, n, d % 2) == ("SO", 2 * d, 1):
                    assert len(head) == 1
                else:
                    assert len(head) == 2 and linalg.det_mod(gram(joint, j), p)
            else:
                assert len(head) == 1 and linalg.det_mod(gram(joint, j), p), (family, n, d)


def test_so_of_odd_n_is_refused_at_p2(monkeypatch):
    # mod 2 the form of SO_n with odd n is not alternating, so its isometry
    # group is not SO_n: every route refuses the request before any draw
    def unreachable(*args, **kwargs):
        raise AssertionError("a part was drawn for a group that is not SO_n")

    monkeypatch.setattr(genstab, "_rng", unreachable)
    for n, d in ((3, 1), (5, 2), (7, 2), (7, 3)):
        for route in (
            lambda: stabilizer_report("SO", n, d, "nondeg", 2, seed=0, trials=1, primes=(2,)),
            lambda: estimate_b0("SO", n, d, "nondeg", c_max=3, trials=1, primes=(2,)),
            lambda: sample_configuration("SO", n, d, "nondeg", 1, seed=0, p=2),
        ):
            with pytest.raises(ConfigError, match=r"^SO with odd n requires p != 2$"):
                route()


def test_every_prime_is_admitted_before_the_first_draw(monkeypatch):
    # a route refused at one of its primes draws and solves nothing at the others
    solves, draws = [], []
    solve, rng = genstab.stabilizer_algebra_dim_once, genstab._rng
    monkeypatch.setattr(genstab, "stabilizer_algebra_dim_once", lambda cfg: solves.append(cfg) or solve(cfg))
    monkeypatch.setattr(genstab, "_rng", lambda *key: draws.append(key) or rng(*key))
    primes = (PRIMES[0], 2)
    for route, message in (
        (("SO", 21, 4, "nondeg"), r"^SO with odd n requires p != 2$"),
        (("SO", 8, 3, "nondeg"), r"^mod 2 the form of SO_n with even n is alternating"),
    ):
        with pytest.raises(ConfigError, match=message):
            stabilizer_report(*route, 6, seed=0, trials=5, primes=primes)
        with pytest.raises(ConfigError, match=message):
            estimate_b0(*route, c_max=6, trials=5, primes=primes)
    assert solves == [] and draws == []


def test_negative_seeds_are_a_config_error_on_every_route():
    routes = [
        lambda: stabilizer_report("SL", 4, 2, "linear", 2, seed=-5, trials=1),
        lambda: estimate_b0("SL", 4, 2, "linear", c_max=3, trials=1, seed=-5),
        lambda: sample_configuration("SL", 4, 2, "linear", 1, seed=-5),
        lambda: module_stabilizer_dim("sym2", 3, 1, seed=-5),
    ]
    for route in routes:
        with pytest.raises(ConfigError, match=r"^need seed >= 0, got -5$"):
            route()


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


@pytest.mark.parametrize("kind", genstab.MODULE_KINDS)
def test_module_stabilizer_dims_are_pinned(kind):
    # sym2: one generic form leaves so_n; two are simultaneously diagonal,
    # (I, D) with distinct entries, so X is diagonal and antisymmetric: 0.
    # so_tensor: X W = W Y makes X commute with the generic symmetric W W^T,
    # so X is diagonal and antisymmetric, and Y = W^-1 X W: 0
    for n in range(2, 9):
        want = [n * (n - 1) // 2, 0] if kind == "sym2" else [0, 0]
        assert [module_stabilizer_dim(kind, n, c, seed=n).algebra_dim for c in (1, 2)] == want, n


@pytest.mark.parametrize("n,c", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
def test_so_tensor_coordinates_match_the_gl_system_with_form_rows(n, c):
    # the same tensors W, with (X, Y) over all 2 n^2 entries and the form rows
    p, seed = PRIMES[0], 4
    rng = genstab._rng(seed, 0x30D, c)
    eye = np.eye(n, dtype=np.int64)
    zero = np.zeros((n * n, n * n), dtype=np.int64)
    form = _gl_form_rows(eye)
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
    # in odd dimension every alternating form is singular: the draws end,
    # and the redraws are counted (seed 0 redraws three singular forms)
    rep = module_stabilizer_dim("sym2", 3, 2, seed=0, p=2)
    assert (rep.trials, rep.resamples) == (1, 3)
    monkeypatch.setattr(genstab, "RESAMPLE_BUDGET", 0)
    with pytest.raises(genstab.SamplingError, match="no nondegenerate symmetric form in 0 draws"):
        module_stabilizer_dim("sym2", 3, 1, seed=0, p=2)


def test_module_kind_validated():
    with pytest.raises(ConfigError):
        module_stabilizer_dim("nope", 3, 1, seed=0)
    for kind, n, c in (("sym2", 1, 1), ("sym2", 0, 1), ("sym2", 3, 0), ("so_tensor", 3, -1)):
        with pytest.raises(ConfigError, match="n >= 2 and c >= 1"):
            module_stabilizer_dim(kind, n, c, seed=0)


# -- characteristic 0 ------------------------------------------------------------

def _q_matrix(rows) -> DomainMatrix:
    rows = [[QQ(int(x)) for x in r] for r in rows]
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ)


def _q_part_rows(b: np.ndarray, family: str, form) -> np.ndarray:
    """The stabilizer rows of an integer part over Q: sympy's annihilator of
    it over QQ, each row scaled to integers, through genstab's row rule."""
    ann = []
    for r in _q_matrix(b.T).nullspace().to_list():
        scale = math.lcm(*(x.denominator for x in r))
        ann.append([x.numerator * (scale // x.denominator) for x in r])
    return genstab._span_constraint(np.array(b.tolist(), dtype=object), np.array(ann, dtype=object), family, form)


def _q_nullity(parts, family: str, n: int, form) -> int:
    """Nullity over Q of the stabilizer system of integer parts, head-free:
    every part's rows on every unknown."""
    return genstab._unknowns(family, n) - _q_matrix(np.concatenate([_q_part_rows(b, family, form) for b in parts])).rank()


def test_rational_agrees_with_modular_on_small_config():
    # the Sp case needs the standard form to be the symplectic form over Q
    # SO with even n and odd d solves in the form with g and g'
    for family, n, d, flavor in (
        ("SL", 3, 1, "linear"), ("SO", 7, 2, "nondeg"), ("SO", 8, 2, "nondeg"),
        ("Sp", 6, 2, "nondeg"), ("Sp", 8, 2, "nondeg"), ("SO", 6, 1, "nondeg"), ("SO", 8, 3, "nondeg"),
    ):
        cfg = sample_configuration(family, n, d, flavor, 2, seed=5, p=101)
        assert stabilizer_algebra_dim_once(cfg) == _q_nullity(cfg.parts, family, n, _form(cfg)), (family, n, d, flavor)


def _integer_witness(family: str, n: int, d: int, flavor: str, c: int, seed: int) -> list[np.ndarray]:
    """c integer parts: the standard head, then graphs [I_d; Y] with small
    integer Y, as the sampler draws them mod p: for totally singular parts
    the graph [x; S x] of integer S on x = [I_d; Z] (scaled by 2 for odd n,
    where the graph has a 1/2).  An integer graph has rank d over every
    field, so no rank is checked."""
    rng, m = np.random.default_rng(seed), n // 2
    parts = genstab._head(family, n, d, flavor)

    def graph(rows):
        return np.concatenate([np.eye(d, dtype=np.int64), rng.integers(-3, 4, size=(rows, d))])

    while len(parts) < c:
        if flavor != "totally_singular":
            parts.append(graph(n - d))
            continue
        x, a = graph(m - d), rng.integers(-3, 4, size=(m, m))
        s = a + a.T if family == "Sp" else a - a.T
        if n % 2 == 0:
            parts.append(np.concatenate([x, s @ x]))
        else:
            v = rng.integers(-3, 4, size=(m, 1))
            parts.append(np.concatenate([2 * x, (2 * s - v @ v.T) @ x, 2 * v.T @ x]))
    return parts


@pytest.mark.parametrize("family,n,d,flavor", [
    ("Sp", 8, 3, "totally_singular"), ("Sp", 6, 2, "totally_singular"), ("SO", 8, 2, "totally_singular"),
    ("SO", 10, 3, "totally_singular"), ("Sp", 10, 3, "totally_singular"), ("SO", 7, 2, "totally_singular"),
    ("SL", 5, 2, "linear"), ("SL", 4, 1, "linear"), ("Sp", 8, 2, "nondeg"), ("SO", 7, 2, "nondeg"),
    ("SO", 8, 3, "nondeg"),
])
def test_a_zero_nullity_mod_p_lifts_to_characteristic_0(family, n, d, flavor):
    # an integer configuration, reduced mod p, is a Z_(p)-point: its rank
    # over Q is at least its rank mod p, so a projective nullity 0 mod p is
    # one over Q too (genstab's module docstring, "Certificates")
    p, form, c_max, scalars = PRIMES[0], genstab.standard_form(family, n, d, flavor), 5, int(family == "SL")
    parts = _integer_witness(family, n, d, flavor, c_max, seed=7)
    for b in parts:  # each part lies in Omega over Q and mod p
        if form is not None:
            gram = b.T @ form @ b  # small entries: exact in int64
            assert not gram.any() if flavor == "totally_singular" else linalg.det_mod(gram, p)
    dims_p = list(_walk_dims((b % p for b in parts), family, n, d, flavor, p))
    dims_q = [_q_nullity(parts[:c], family, n, form) for c in range(1, c_max + 1)]
    assert all(q <= dp for q, dp in zip(dims_q, dims_p)), (dims_q, dims_p)
    assert all(q == scalars for q, dp in zip(dims_q, dims_p) if dp == scalars), (dims_q, dims_p)
    # the witness reaches a certificate by c_max
    assert dims_p[-1] == scalars


def test_certificate_names_the_measure_and_the_primes_that_reached_zero():
    rep = stabilizer_report("SL", 3, 1, "linear", 4, seed=0, trials=2)
    assert rep.projective_dim == 0
    assert genstab.certificate(rep, 4) == {"measure": "b1", "c": 4, "primes": list(PRIMES)}
    rep = stabilizer_report("SO", 7, 2, "nondeg", 3, seed=0, trials=1)
    assert genstab.certificate(rep, 3) == {"measure": "b0", "c": 3, "primes": list(PRIMES)}
    # only the primes whose trials reached the minimum 0 are named
    mixed = dataclasses.replace(rep, dims_by_prime=((2, 0), (1,)))
    assert genstab.certificate(mixed, 3)["primes"] == [PRIMES[0]]
    # a positive dimension proves nothing; module reports are not covered
    assert genstab.certificate(stabilizer_report("SL", 3, 1, "linear", 3, seed=0, trials=1), 3) is None
    assert module_stabilizer_dim("sym2", 2, 2, seed=3).algebra_dim == 0
    assert genstab.certificate(module_stabilizer_dim("sym2", 2, 2, seed=3), 2) is None


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
# (value, projective_dims, lower_bound) for the whole b0 sweep; the n <= 8
# entries were pinned before the stabilizer engine became incremental in c,
# the rest while the head parts were still drawn.  The generic dimensions do
# not depend on how the parts are drawn
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
    ('SL', 9, 1, 'linear'): (10, (72, 64, 56, 48, 40, 32, 24, 16, 8, 0), 10),
    ('SL', 9, 2, 'linear'): (6, (66, 52, 38, 24, 10, 0), 6),
    ('SL', 9, 3, 'linear'): (5, (62, 44, 26, 8, 0), 5),
    ('SL', 9, 4, 'linear'): (4, (60, 40, 20, 0), 4),
    ('SL', 10, 1, 'linear'): (11, (90, 81, 72, 63, 54, 45, 36, 27, 18, 9, 0), 11),
    ('SL', 10, 2, 'linear'): (7, (83, 67, 51, 35, 19, 3, 0), 7),
    ('SL', 10, 3, 'linear'): (5, (78, 57, 36, 15, 0), 5),
    ('SL', 10, 4, 'linear'): (5, (75, 51, 27, 3, 0), 5),
    ('SL', 10, 5, 'linear'): (5, (74, 49, 24, 4, 0), 4),
    ('SL', 11, 1, 'linear'): (12, (110, 100, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0), 12),
    ('SL', 11, 2, 'linear'): (7, (102, 84, 66, 48, 30, 12, 0), 7),
    ('SL', 11, 3, 'linear'): (5, (96, 72, 48, 24, 0), 5),
    ('SL', 11, 4, 'linear'): (5, (92, 64, 36, 8, 0), 5),
    ('SL', 11, 5, 'linear'): (4, (90, 60, 30, 0), 4),
    ('SL', 12, 1, 'linear'): (13, (132, 121, 110, 99, 88, 77, 66, 55, 44, 33, 22, 11, 0), 13),
    ('SL', 12, 2, 'linear'): (8, (123, 103, 83, 63, 43, 23, 3, 0), 8),
    ('SL', 12, 3, 'linear'): (6, (116, 89, 62, 35, 8, 0), 6),
    ('SL', 12, 4, 'linear'): (5, (111, 79, 47, 15, 0), 5),
    ('SL', 12, 5, 'linear'): (5, (108, 73, 38, 3, 0), 5),
    ('SL', 12, 6, 'linear'): (5, (107, 71, 35, 5, 0), 4),
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
    ('Sp', 10, 1, 'totally_singular'): (10, (46, 37, 28, 21, 15, 10, 6, 3, 1, 0), 7),
    ('Sp', 10, 2, 'totally_singular'): (5, (40, 25, 11, 3, 0), 4),
    ('Sp', 10, 3, 'totally_singular'): (4, (37, 19, 2, 0), 4),
    ('Sp', 10, 4, 'totally_singular'): (4, (37, 19, 2, 0), 4),
    ('Sp', 10, 5, 'totally_singular'): (4, (40, 25, 10, 0), 4),
    ('Sp', 10, 2, 'nondeg'): (5, (39, 24, 11, 3, 0), 4),
    ('Sp', 10, 4, 'nondeg'): (3, (31, 9, 0), 3),
    ('Sp', 12, 1, 'totally_singular'): (12, (67, 56, 45, 36, 28, 21, 15, 10, 6, 3, 1, 0), 8),
    ('Sp', 12, 2, 'totally_singular'): (6, (59, 40, 22, 10, 3, 0), 5),
    ('Sp', 12, 3, 'totally_singular'): (4, (54, 30, 7, 0), 4),
    ('Sp', 12, 4, 'totally_singular'): (4, (52, 26, 2, 0), 3),
    ('Sp', 12, 5, 'totally_singular'): (4, (53, 28, 4, 0), 4),
    ('Sp', 12, 6, 'totally_singular'): (4, (57, 36, 15, 0), 4),
    ('Sp', 12, 2, 'nondeg'): (6, (58, 39, 22, 10, 3, 0), 4),
    ('Sp', 12, 4, 'nondeg'): (3, (46, 16, 0), 3),
    ('Sp', 12, 6, 'nondeg'): (3, (42, 9, 0), 3),
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
    ('SO', 9, 1, 'totally_singular'): (8, (29, 22, 15, 10, 6, 3, 1, 0), 6),
    ('SO', 9, 2, 'totally_singular'): (4, (25, 14, 4, 0), 4),
    ('SO', 9, 3, 'totally_singular'): (4, (24, 12, 1, 0), 3),
    ('SO', 9, 4, 'totally_singular'): (4, (26, 16, 6, 0), 4),
    ('SO', 9, 1, 'nondeg'): (8, (28, 21, 15, 10, 6, 3, 1, 0), 5),
    ('SO', 9, 2, 'nondeg'): (4, (22, 10, 3, 0), 3),
    ('SO', 9, 3, 'nondeg'): (3, (18, 3, 0), 2),
    ('SO', 9, 4, 'nondeg'): (2, (16, 0), 2),
    ('SO', 10, 1, 'totally_singular'): (9, (37, 29, 21, 15, 10, 6, 3, 1, 0), 6),
    ('SO', 10, 2, 'totally_singular'): (5, (32, 19, 7, 1, 0), 4),
    ('SO', 10, 3, 'totally_singular'): (4, (30, 15, 1, 0), 3),
    ('SO', 10, 4, 'totally_singular'): (4, (31, 17, 4, 0), 4),
    ('SO', 10, 5, 'totally_singular'): (5, (35, 25, 15, 6, 0), 5),
    ('SO', 10, 1, 'nondeg'): (9, (36, 28, 21, 15, 10, 6, 3, 1, 0), 5),
    ('SO', 10, 2, 'nondeg'): (5, (29, 15, 6, 1, 0), 3),
    ('SO', 10, 3, 'nondeg'): (3, (24, 6, 0), 3),
    ('SO', 10, 4, 'nondeg'): (3, (21, 1, 0), 2),
    ('SO', 10, 5, 'nondeg'): (2, (20, 0), 2),
    ('SO', 11, 1, 'totally_singular'): (10, (46, 37, 28, 21, 15, 10, 6, 3, 1, 0), 7),
    ('SO', 11, 2, 'totally_singular'): (5, (40, 25, 11, 3, 0), 4),
    ('SO', 11, 3, 'totally_singular'): (4, (37, 19, 2, 0), 4),
    ('SO', 11, 4, 'totally_singular'): (4, (37, 19, 2, 0), 4),
    ('SO', 11, 5, 'totally_singular'): (4, (40, 25, 10, 0), 4),
    ('SO', 11, 1, 'nondeg'): (10, (45, 36, 28, 21, 15, 10, 6, 3, 1, 0), 6),
    ('SO', 11, 2, 'nondeg'): (5, (37, 21, 10, 3, 0), 4),
    ('SO', 11, 3, 'nondeg'): (4, (31, 10, 1, 0), 3),
    ('SO', 11, 4, 'nondeg'): (3, (27, 3, 0), 2),
    ('SO', 11, 5, 'nondeg'): (2, (25, 0), 2),
    ('SO', 12, 1, 'totally_singular'): (11, (56, 46, 36, 28, 21, 15, 10, 6, 3, 1, 0), 7),
    ('SO', 12, 2, 'totally_singular'): (6, (49, 32, 16, 6, 1, 0), 4),
    ('SO', 12, 3, 'totally_singular'): (4, (45, 24, 4, 0), 4),
    ('SO', 12, 4, 'totally_singular'): (4, (44, 22, 2, 0), 3),
    ('SO', 12, 5, 'totally_singular'): (4, (46, 26, 6, 0), 4),
    ('SO', 12, 6, 'totally_singular'): (6, (51, 36, 21, 9, 1, 0), 5),
    ('SO', 12, 1, 'nondeg'): (11, (55, 45, 36, 28, 21, 15, 10, 6, 3, 1, 0), 6),
    ('SO', 12, 2, 'nondeg'): (6, (46, 28, 15, 6, 1, 0), 4),
    ('SO', 12, 3, 'nondeg'): (4, (39, 15, 3, 0), 3),
    ('SO', 12, 4, 'nondeg'): (3, (34, 6, 0), 3),
    ('SO', 12, 5, 'nondeg'): (3, (31, 1, 0), 2),
    ('SO', 12, 6, 'nondeg'): (2, (30, 0), 2),
}


def test_b0_pins_cover_the_small_sweep():
    assert sorted(B0_PINS) == sorted(_subspace_cases(12))


@pytest.mark.parametrize("case", sorted(B0_PINS))
def test_estimate_b0_is_pinned(case):
    family, n, d, flavor = case
    est = estimate_b0(family, n, d, flavor, c_max=n + 2, trials=1, seed=0, primes=PRIMES[:1])
    assert (est.value, est.projective_dims, est.lower_bound) == B0_PINS[case]


@pytest.mark.parametrize("case,measure", [(("SL", 3, 1, "linear"), "b1"), (("Sp", 6, 2, "totally_singular"), "b0")])
def test_estimate_b0_certifies_its_value(case, measure):
    family, n, d, flavor = case
    value = B0_PINS[case][0]
    est = estimate_b0(family, n, d, flavor, c_max=n + 2, trials=1, seed=0, primes=PRIMES[:1])
    assert est.certified == {"measure": measure, "c": value, "primes": [PRIMES[0]]}
    # one rule serves verify too: the report of the same value parts, drawn
    # from the same streams, certifies the same
    est = estimate_b0(family, n, d, flavor, c_max=n + 2, trials=2, seed=0)
    rep = stabilizer_report(family, n, d, flavor, est.value, seed=0, trials=2)
    assert est.certified == genstab.certificate(rep, est.value)
    assert est.certified["primes"] == list(PRIMES)


@pytest.mark.parametrize("family,n,d,flavor", _subspace_cases(8))
def test_spec_dims_match_the_point_stabilizer(family, n, d, flavor):
    # dim G - dim Omega is the dimension of a point stabilizer: projective
    # for SL, where the scalars act trivially, and in sp/so otherwise
    spec = fm.ActionSpec(family, fm.Subspace(d, flavor), n=n, char="any" if family == "SL" else "odd")
    dim_g, dim_omega = fm.spec_dims(spec)
    rep = stabilizer_report(family, n, d, flavor, 1, seed=0, trials=1)
    assert rep.stable
    assert dim_g - dim_omega == (rep.projective_dim if family == "SL" else rep.algebra_dim)
