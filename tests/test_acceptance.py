"""Acceptance suite: one test per exit criterion, each printing a PASS line
and holding its stated runtime budget.  Run with ``pytest -v -s``."""
import dataclasses
import hashlib
import json
import random
import time

import numpy as np
import pytest

from basesize import bounds, finitecheck as fc, formulas as fm, genstab, linalg, rootsys
from basesize.classdata import load_shipped
from basesize.cli import emit_table
from basesize.formulas import ActionSpec, NonSubspace, Parabolic, Subspace, TorusNormalizer
from dimhalf import ExcludedCaseError, dimhalf_predicate, dimhalf_predicate_p2

EXPECTED_PARAB = """group,node,dim
E8,1,78
E8,2,92
E8,3,98
E8,4,106
E8,5,104
E8,6,97
E8,7,83
E8,8,57
E7,1,33
E7,2,42
E7,3,47
E7,4,53
E7,5,50
E7,6,42
E7,7,27
E6,1,16
E6,2,21
E6,3,25
E6,4,29
E6,5,25
E6,6,16
F4,1,15
F4,2,20
F4,3,20
F4,4,15
G2,1,5
G2,2,5
"""

EXPECTED_EP = """group,node,value
E8,1,4
E8,2,3
E8,3,3
E8,4,3
E8,5,3
E8,6,3
E8,7,4
E8,8,5
E7,1,5
E7,2,4
E7,3,4
E7,4,3
E7,5,3
E7,6,4
E7,7,6
E6,1,6
E6,2,5
E6,3,4
E6,4,4*
E6,5,4
E6,6,6
F4,1,5*
F4,2,4*
F4,3,4*
F4,4,5*
G2,1,4*
G2,2,4*
"""

EXPECTED_C = """group,subgroup,conditions,b
SL_n,GL_{n/2} wr S2,n >= 4,3
SL_n,Sp_n,n = 6,4
SL_n,Sp_n,n >= 8,3
Sp_n,Sp_{n/2} wr S2,n >= 8,3
Sp_n,Sp_{n/3} wr S3,n = 6,3
Sp_n,G2,"(n,p) = (6,2)",4
SO_n,GL_{n/2},n >= 10,3
SO_n,G2,"n = 7, p != 2",4
"""

EXPECTED_E = """group,subgroup,conditions,b
E8,A1E7,,3
E7,A1D6,,3
E7,T1E6,,3
E6,F4,,4
E6,D5T1,,3
E6,A1A5,p != 2,3
F4,B4,,4
F4,C4,p = 2,4
F4,D4,,3
F4,~D4,p = 2,3
G2,A2,,3
G2,~A2,p = 3,3
"""


def _report(number: int, name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} overran its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_table_reproduction():
    started = time.monotonic()
    assert emit_table("table:parab") == EXPECTED_PARAB
    ep = emit_table("table:ep")
    assert ep == EXPECTED_EP
    assert ep.count("*") == 7
    assert emit_table("table:c") == EXPECTED_C
    assert emit_table("table:e") == EXPECTED_E
    _report(1, "table reproduction, bit-exact", started, 1.0)


def test_criterion_2_q_criterion_reproduction():
    started = time.monotonic()
    g2 = load_shipped("g2_na2").records
    off = bounds.upper_bound_b1(g2, long_root_refinement=False)
    on = bounds.upper_bound_b1(g2, long_root_refinement=True)
    assert (off.value, on.value) == (4, 3)
    f4 = load_shipped("f4_b4").records
    assert bounds.upper_bound_b1(f4, long_root_refinement=True).value == 4
    _report(2, "exact rational criterion bounds", started, 1.0)


def test_criterion_3_sl_generic_stabilizers():
    started = time.monotonic()
    # expected values are the closed-form divisible-case results; the
    # decisions ledger records the one discrepant figure in the criterion's
    # parenthetical list, which the exact solver here independently refutes
    cases = {(4, 2): 5, (6, 2): 5, (6, 3): 5, (4, 1): 5, (5, 1): 6}
    for (n, d), want in cases.items():
        oracle = fm.subspace_triple(ActionSpec("SL", Subspace(d), n=n))
        assert oracle.as_tuple() == (want, want, want)
        est = genstab.estimate_b0("SL", n, d, "linear", c_max=want + 1, trials=5, seed=101)
        assert est.value == want, f"SL({n},{d}) estimated {est.value}, expected {want}"
        assert est.projective_dims[want - 2] > 0  # c-1 keeps a positive dimension
        assert est.lower_bound <= want
    rep = genstab.stabilizer_report("SL", 4, 2, "linear", 4, seed=101, trials=5)
    assert rep.projective_dim == 1  # the 1-dimensional torus below the threshold
    _report(3, "linear-group subspace verification", started, 30.0)


def test_criterion_4_sp_so_generic_stabilizers():
    started = time.monotonic()
    est = genstab.estimate_b0("Sp", 6, 2, "nondeg", c_max=5, trials=5, seed=102)
    assert est.value == 4
    assert genstab.stabilizer_report("Sp", 6, 2, "nondeg", 3, seed=102, trials=5).projective_dim == 1
    assert genstab.estimate_b0("Sp", 8, 4, "totally_singular", c_max=5, trials=5, seed=102).value == 4
    assert genstab.estimate_b0("SO", 7, 1, "nondeg", c_max=7, trials=5, seed=102).value == 6
    assert genstab.estimate_b0("SO", 8, 4, "totally_singular", c_max=8, trials=5, seed=102).value == 7
    _report(4, "symplectic/orthogonal verification", started, 60.0)


def test_criterion_5_module_corollaries():
    started = time.monotonic()
    assert genstab.module_stabilizer_dim("sym2", 2, 2, seed=7).algebra_dim == 0
    order, stab = fc.sl2_two_form_stabilizer(11, seed=7)
    assert order == 2
    eye = np.eye(2, dtype=np.int64)
    neg = (-eye) % 11
    assert {m.tobytes() for m in stab} == {eye.tobytes(), neg.tobytes()}
    _report(5, "module-action corollaries", started, 10.0)


def test_criterion_6_finite_cross_checks():
    started = time.monotonic()
    line5 = fc.pgl2_line_action(5)
    assert fc.exact_base_size(line5, seed=11) == 3
    pairs7 = fc.pgl2_pairs_action(7)
    assert fc.generic_tuple_stabilizer_order(
        pairs7, 2, seed=11, general_position=fc.disjoint_pairs
    ) == 2

    checks = []
    # the projective line of PGL2(5) against the 1-space formula of SL2
    triple = fm.subspace_triple(ActionSpec("SL", Subspace(1), n=2))
    checks.append(fc.cross_check_relations(triple, 3, q=5))
    # torus-normalizer pairs at q in {5, 7}
    tn = fm.torus_normalizer_triple(ActionSpec("SL", TorusNormalizer(), n=2))
    for q in (5, 7):
        pa = fc.pgl2_pairs_action(q)
        checks.append(fc.cross_check_relations(tn, fc.exact_base_size(pa, seed=11), q=q))
    # the symplectic decomposition pairs at q = 3
    sp = fc.sp4_decomposition_action(3)
    wreath = fm.nonsubspace_triple(ActionSpec("Sp", NonSubspace("Sp_{n/2} wr S2"), n=4, char="odd"))
    checks.append(fc.cross_check_relations(wreath, fc.exact_base_size(sp, seed=11), q=3))
    assert all(c["ok"] and c["applicable"] for c in checks)
    _report(6, "finite ground truth", started, 30.0)


# ---------------------------------------------------------------------------
# Criterion 7: randomized property suite

_EXC_LABEL_POOL = [
    ("E8", "A1E7", "any"), ("E8", "D8", "odd"), ("E8", "D8", "2"), ("E8", "A8", "any"),
    ("E8", "G2F4", "any"), ("E8", "A4^2", "any"), ("E8", "T8", "any"),
    ("E7", "A1D6", "any"), ("E7", "T1E6", "any"), ("E7", "A7", "odd"), ("E7", "A7", "2"),
    ("E7", "A2A5", "any"), ("E7", "A1F4", "any"),
    ("E6", "F4", "any"), ("E6", "D5T1", "any"), ("E6", "A1A5", "odd"), ("E6", "A1A5", "2"),
    ("E6", "C4", "odd"), ("E6", "A2G2", "any"), ("E6", "A2^3", "any"),
    ("F4", "B4", "any"), ("F4", "C4", "2"), ("F4", "D4", "any"), ("F4", "~D4", "2"),
    ("F4", "A1C3", "odd"), ("F4", "A2~A2", "any"),
    ("G2", "A2", "any"), ("G2", "~A2", "3"), ("G2", "A1~A1", "odd"), ("G2", "A1~A1", "2"),
    ("G2", "A1", "any"),
]

_CLASSICAL_LABEL_POOL = [
    ("SL", "Sp_n", "any", lambda r: 2 * r.randint(2, 6)),
    ("SL", "SO_n", "odd", lambda r: r.randint(3, 10)),
    ("SL", "GL_{n/2} wr S2", "odd", lambda r: 2 * r.randint(1, 6)),
    ("SL", "GL_{n/3} wr S3", "any", lambda r: 3 * r.randint(1, 4)),
    ("Sp", "Sp_{n/2} wr S2", "odd", lambda r: 4 * r.randint(1, 3)),
    ("Sp", "Sp_{n/3} wr S3", "any", lambda r: 6),
    ("Sp", "GL_{n/2}", "odd", lambda r: 2 * r.randint(2, 6)),
    ("Sp", "G2", "2", lambda r: 6),
    ("Sp", "O_n", "2", lambda r: 2 * r.randint(2, 6)),
    ("SO", "GL_{n/2}", "odd", lambda r: 2 * r.randint(4, 8)),
    ("SO", "O_{n/2} wr S2", "odd", lambda r: 2 * r.randint(4, 8)),
    ("SO", "O_{n/2} wr S2", "2", lambda r: 4 * r.randint(2, 4)),
    ("SO", "O_{n/4} wr S4", "odd", lambda r: 4 * r.randint(2, 4)),
    ("SO", "G2", "odd", lambda r: 7),
]


def _random_spec(rng: random.Random) -> ActionSpec | None:
    kind = rng.randrange(6)
    try:
        if kind == 0:  # SL subspace
            n = rng.randint(2, 14)
            d = rng.randint(1, max(1, n // 2))
            return ActionSpec("SL", Subspace(d), n=n)
        if kind == 1:  # Sp subspace
            n = 2 * rng.randint(2, 7)
            if rng.random() < 0.5:
                d = 2 * rng.randint(1, n // 4) if n >= 8 else 2
                return ActionSpec("Sp", Subspace(d, "nondeg"), n=n, char=rng.choice(["odd", "2"]))
            d = rng.randint(1, n // 2)
            return ActionSpec("Sp", Subspace(d, "totally_singular"), n=n, char=rng.choice(["odd", "2"]))
        if kind == 2:  # SO subspace
            n = rng.randint(7, 16)
            char = "odd" if n % 2 else rng.choice(["odd", "2"])
            flavor = rng.choice(["nondeg", "totally_singular"])
            d = rng.randint(1, n // 2)
            if char == "2" and flavor == "nondeg" and d != 1 and d % 2:
                d = 1
            return ActionSpec("SO", Subspace(d, flavor), n=n, char=char)
        if kind == 3:  # exceptional parabolic
            g = rng.choice(list(fm.PARABOLIC_TABLE))
            node = rng.randint(1, len(fm.PARABOLIC_TABLE[g]))
            return ActionSpec(g, Parabolic(node))
        if kind == 4:  # exceptional non-parabolic
            g, label, char = rng.choice(_EXC_LABEL_POOL)
            return ActionSpec(g, NonSubspace(label), char=char)
        fam, label, char, pick = rng.choice(_CLASSICAL_LABEL_POOL)
        return ActionSpec(fam, NonSubspace(label), n=pick(rng), char=char)
    except fm.SpecValidationError:
        return None


#: SHA-256 of the 200-spec suite's triples and dimensions (see below)
SUITE_DIGEST = "be88cbc84fee195e0c9bf84e1891511033a2fb4d0eced3fb88ceb010c367d52b"


def test_property_suite_results_are_pinned():
    # the same draw as the property suite; any change to a triple or to
    # spec_dims on these 200 specs changes the digest
    rng = random.Random(0xBA5E)
    digest = hashlib.sha256()
    done = 0
    while done < 200:
        spec = _random_spec(rng)
        if spec is None:
            continue
        try:
            triple = fm.base_triple(spec)
        except fm.SpecValidationError:
            continue
        digest.update(json.dumps([triple.to_json(), fm.spec_dims(spec)], sort_keys=True).encode())
        done += 1
    assert digest.hexdigest() == SUITE_DIGEST


_CAP_SIX = {("E7", 7), ("E6", 1), ("E6", 6)}
_BUR_FOUR = {("SL", 6, "Sp_n"), ("SO", 7, "G2"), ("Sp", 6, "G2")}


def _dual_configuration(cfg):
    """The annihilator of each part: an (n - d)-subspace configuration."""
    parts = tuple(linalg.nullspace_basis_mod(b.T, cfg.p).T % cfg.p for b in cfg.parts)
    return dataclasses.replace(cfg, d=cfg.n - cfg.d, parts=parts)


def test_criterion_7_property_suite():
    started = time.monotonic()
    rng = random.Random(0xBA5E)
    specs = []
    while len(specs) < 200:
        spec = _random_spec(rng)
        if spec is None:
            continue
        try:
            triple = fm.base_triple(spec)
        except fm.SpecValidationError:
            continue
        specs.append((spec, triple))

    for spec, t in specs:
        # elementwise ordering and the +1 gap between connected and generic
        assert t.b0.lo <= t.b.lo <= t.b1.lo
        assert t.b0.hi <= t.b.hi <= t.b1.hi
        if t.b0.is_point and t.b1.is_point:
            assert t.b1.hi <= t.b0.hi + 1

        subspace_like = isinstance(spec.subgroup, Subspace) or any(
            "subspace-equivalent" in w for w in t.warnings
        )
        if not subspace_like:
            assert t.b1.hi <= 6
            if t.b1.hi == 6:
                assert isinstance(spec.subgroup, Parabolic)
                assert (spec.family, spec.subgroup.node) in _CAP_SIX
            if spec.family in ("SL", "Sp", "SO") and isinstance(spec.subgroup, NonSubspace):
                assert t.b1.hi <= 4
                if t.b1.hi == 4:
                    key = (spec.family, spec.n, spec.subgroup.label)
                    assert key in _BUR_FOUR

        dims = fm.spec_dims(spec)
        if dims is not None:
            dim_g, dim_omega = dims
            assert bounds.lower_bound_b0(dim_g, dim_omega) <= t.b0.lo, (spec, t, dims)

    # the six-point equality cases really are emitted
    for g, node in _CAP_SIX:
        assert fm.parabolic_triple(g, node).b1.hi == 6

    # seeded semicontinuity and duality checks
    check_rng = random.Random(7)
    runs = 0
    while runs < 25:
        n = check_rng.randint(3, 6)
        d = check_rng.randint(1, n - 1)
        est = genstab.estimate_b0(
            "SL", n, min(d, n - 1), "linear", c_max=n + 2, trials=1,
            seed=check_rng.randrange(2**30), primes=genstab.PRIMES[:1],
        )
        dims = est.projective_dims
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        runs += 1
    runs = 0
    while runs < 25:
        n = check_rng.randint(3, 6)
        d = check_rng.randint(1, n - 1)
        c = check_rng.randint(1, 4)
        cfg = genstab.sample_configuration("SL", n, d, "linear", c, seed=check_rng.randrange(2**30))
        dual = _dual_configuration(cfg)
        assert genstab.stabilizer_algebra_dim_once(cfg) == genstab.stabilizer_algebra_dim_once(dual)
        runs += 1
    _report(7, "randomized property suite", started, 60.0)


# ---------------------------------------------------------------------------
# The whole formula surface, rejections included

_GRID_CLASSICAL_LABELS = [
    "GL_{n/2} wr S2", "GL_{n/2}wrS2", "GL_{n/3} wr S3", "GL_{n/4} wr S4",
    "GL_2 wr S3", "GL_{n/0} wr S2", "GL_n wr S1", "GL_{n/2}", "GL_n",
    "Sp_{n/2} wr S2", "Sp_{n/3} wr S3", "Sp_2 wr S4", "Sp_{n/2} wr S1",
    "Sp_n", "Sp_6", "Sp4xSp2", "Sp_4⊗Sp_2",
    "O_{n/2} wr S2", "O_{n/4} wr S4", "O_1 wr S8", "O_n", "O_{n/2}",
    "SO_{n/2} wr S2", "SO_n", "SO_7", "SO_{n/2}",
    "G2", "G_2", "E6", "junk", "",
]

_GRID_EXCEPTIONAL_LABELS = [
    "A1", "B2", "A1A2", "A1G2^2", "G2F4", "D8", "A1E7", "A8", "A2E6", "A4^2",
    "D4^2", "A2^4", "A1^8", "A2", "A1^2", "A1G2", "A1F4", "G2C3", "T1E6",
    "A1D6", "A7", "A2A5", "A1^3D4", "A1^7", "G2", "C4", "F4", "A2G2", "T1D5",
    "T2D4", "A1A5", "A2^3", "A1C3", "B4", "D4", "~D4", "A2~A2", "A1~A1", "~A2",
    # aliases and other spellings
    "D5T1", "D4T2", "E6T1", "E7A1", "D6A1", "A5A1", "A5A2", "E6A2", "A4A4",
    "D4D4", "A1A1", "A7.2", "A 2 ~A 2", "Ã2", "A1Ã1",
    # maximal tori, out-of-scope labels and junk
    "T2", "T4", "T6", "T7", "T8", "(2^2xD4).S3", "A1xS5", "X9", "",
]

_GRID_DIM_PAIRS = ((14, 6), (14, 8), (78, 39))


def _grid_specs():
    """(family, subgroup, n, char) for every spec shape the formula layer
    reads: about 25,000 of them."""
    chars = fm.CHAR_CASES
    for fam in fm.CLASSICAL_FAMILIES:
        for n in range(2, 17):
            for char in chars:
                for d in range(n + 1):
                    for flavor in fm.SUBSPACE_FLAVORS:
                        yield fam, Subspace(d, flavor), n, char
                for label in _GRID_CLASSICAL_LABELS:
                    yield fam, NonSubspace(label), n, char
                yield fam, TorusNormalizer(), n, char
            for node in range(10):
                yield fam, Parabolic(node), n, "any"
    for g in fm.EXCEPTIONAL_FAMILIES:
        for char in chars:
            for label in _GRID_EXCEPTIONAL_LABELS:
                yield g, NonSubspace(label), None, char
            for node in range(10):
                yield g, Parabolic(node), None, char
            yield g, TorusNormalizer(), None, char


def _outcome(call):
    try:
        out = call()
    except Exception as e:  # the class of a rejection is part of the result
        return type(e).__name__
    return out.to_json() if isinstance(out, fm.BaseTriple) else out


#: SHA-256 over the grid below, computed before the rule tables replaced
#: the dispatch functions of ``formulas``; re-pinned when the torus
#: normalizers of Sp_2 and SO_3 became rank one (2, 2, 3) and those of Sp
#: with odd n, SO_2 and SO_4 became rejections (66 entries), and again when
#: spec_dims of a classical Parabolic raised SpecValidationError instead of
#: AttributeError (450 entries)
GRID_DIGEST = "d31f9f14a7beb6f3396e506217c9dbcc847a54e3ff74d2c9fd8b92e62549503b"


def test_formula_grid_is_pinned():
    # each entry: the spec, its triple, spec_dims and both b > 2
    # predicates of tests/dimhalf.py, or the class of the error each of
    # them raises
    digest = hashlib.sha256()
    count = 0
    for family, subgroup, n, char in _grid_specs():
        try:
            spec = ActionSpec(family, subgroup, n=n, char=char)
        except fm.SpecValidationError as e:
            entry = [type(e).__name__]
        else:
            entry = [repr(spec), _outcome(lambda: fm.base_triple(spec)), _outcome(lambda: fm.spec_dims(spec))]
            for dim_g, dim_h in _GRID_DIM_PAIRS:
                entry.append(_outcome(lambda: dimhalf_predicate(spec, dim_g, dim_h)))
                entry.append(_outcome(lambda: dimhalf_predicate_p2(spec, dim_g, dim_h)))
        digest.update(json.dumps(entry, sort_keys=True).encode())
        count += 1
    assert count == 24810
    assert digest.hexdigest() == GRID_DIGEST, digest.hexdigest()


def test_b_above_two_matches_the_dimension_theorem():
    # the triple's exact base size exceeds 2 exactly when the theorem's
    # clauses hold, on every grid spec with a triple, known dimensions and a
    # characteristic case that settles p = 2 or p != 2; the p = 2 clauses
    # leave a few pairs out
    checked, excluded, wrong = 0, 0, []
    for family, subgroup, n, char in _grid_specs():
        two = fm._IS_TWO[char]
        if two is None:
            continue
        try:
            spec = ActionSpec(family, subgroup, n=n, char=char)
            dims, b = fm.spec_dims(spec), fm.base_triple(spec).b
        except (fm.SpecValidationError, fm.UnsupportedLabelError, rootsys.InvalidTypeError):
            continue
        if dims is None:
            continue
        predicate = dimhalf_predicate_p2 if two else dimhalf_predicate
        try:
            clauses = predicate(spec, dims[0], dims[0] - dims[1])
        except ExcludedCaseError:
            excluded += 1
            continue
        checked += 1
        if (b.lo > 2) != clauses:
            wrong.append(repr(spec))
    assert wrong == []
    assert (checked, excluded) == (2344, 9)
