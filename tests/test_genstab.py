import numpy as np
import pytest

from basesize import formulas as fm, genstab
from basesize.genstab import (
    PRIMES,
    ConfigError,
    dual_configuration,
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
    from basesize import linalg

    for i, a in enumerate(cfg.parts):
        for b in cfg.parts[i + 1 :]:
            assert linalg.rank_mod(np.concatenate([a, b], axis=1), cfg.p) == 4


def test_totally_singular_exact():
    from basesize import linalg

    cfg = sample_configuration("Sp", 8, 4, "totally_singular", 2, seed=2)
    for b in cfg.parts:
        gram = linalg.matmul_mod(linalg.matmul_mod(b.T, cfg.form, cfg.p), b, cfg.p)
        assert not gram.any()
    # two generic half-dimension parts are complementary
    joint = np.concatenate(cfg.parts, axis=1)
    assert linalg.rank_mod(joint, cfg.p) == 8


def test_nondeg_gram_invertible():
    from basesize import linalg

    cfg = sample_configuration("Sp", 6, 2, "nondeg", 3, seed=3)
    for b in cfg.parts:
        gram = linalg.matmul_mod(linalg.matmul_mod(b.T, cfg.form, cfg.p), b, cfg.p)
        assert linalg.det_mod(gram, cfg.p) != 0


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
    from basesize import linalg
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


def test_semicontinuity_in_c():
    est = estimate_b0("SL", 6, 2, "linear", c_max=6, trials=3, seed=8)
    dims = est.projective_dims
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_duality_matches():
    for seed in range(3):
        cfg = sample_configuration("SL", 5, 2, "linear", 3, seed=seed)
        dual = dual_configuration(cfg)
        assert dual.d == 3
        assert stabilizer_algebra_dim_once(cfg) == stabilizer_algebra_dim_once(dual)


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


def test_module_kind_validated():
    with pytest.raises(ConfigError):
        module_stabilizer_dim("nope", 3, 1, seed=0)


# -- rational field -----------------------------------------------------------

def test_rational_agrees_with_modular_on_small_config():
    # the Sp case needs the standard form to be the symplectic form over Q
    for family, n, d, flavor in (("SL", 3, 1, "linear"), ("SO", 7, 2, "nondeg"), ("Sp", 8, 2, "nondeg")):
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


@pytest.mark.parametrize("family,n,d,flavor", _subspace_cases(8))
def test_spec_dims_match_the_point_stabilizer(family, n, d, flavor):
    # dim G - dim Omega is the dimension of a point stabilizer: projective
    # for SL, where the scalars act trivially, and in sp/so otherwise
    spec = fm.ActionSpec(family, fm.Subspace(d, flavor), n=n, char="any" if family == "SL" else "odd")
    dim_g, dim_omega = fm.spec_dims(spec)
    rep = stabilizer_report(family, n, d, flavor, 1, seed=0, trials=1)
    assert rep.stable
    assert dim_g - dim_omega == (rep.projective_dim if family == "SL" else rep.algebra_dim)
