import pytest

from basesize import bounds, formulas as fm
from basesize.formulas import (
    ActionSpec,
    NonSubspace,
    Parabolic,
    SpecValidationError,
    Subspace,
    TorusNormalizer,
    UnsupportedLabelError,
    base_triple,
    nonsubspace_triple,
    parabolic_triple,
    spec_from_json,
    subspace_triple,
    torus_normalizer_triple,
)


def pts(*vals):
    return tuple(vals)


# -- subspace actions ---------------------------------------------------------

@pytest.mark.parametrize(
    "n,d,want",
    [(4, 2, 5), (2, 1, 3), (6, 2, 5), (6, 3, 5), (4, 1, 5), (5, 1, 6), (9, 3, 5), (12, 4, 5)],
)
def test_sl_divisible(n, d, want):
    t = subspace_triple(ActionSpec("SL", Subspace(d), n=n))
    assert t.as_tuple() == (want, want, want)


def test_sl_nondivisible_interval():
    t = subspace_triple(ActionSpec("SL", Subspace(3), n=7))  # k = 3
    assert (t.b0.lo, t.b0.hi) == (4, 6)
    t = subspace_triple(ActionSpec("SL", Subspace(3), n=8))  # k = 3
    # the orbit-dimension bound ceil(63 / 15) = 5 beats k + 1 = 4
    assert (t.b0.lo, t.b0.hi) == (5, 6)
    t = subspace_triple(ActionSpec("SL", Subspace(3), n=10))  # k = 4
    assert (t.b0.lo, t.b0.hi) == (5, 6)
    t = subspace_triple(ActionSpec("SL", Subspace(4), n=18))  # k = 5
    assert (t.b0.lo, t.b0.hi) == (6, 7)


def test_sl_rejects_large_d():
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("SL", Subspace(3), n=4))


@pytest.mark.parametrize(
    "n,d,want",
    [(6, 2, 4), (8, 2, 4), (10, 2, 5), (12, 4, 3), (16, 4, 4)],
)
def test_sp_nondeg(n, d, want):
    t = subspace_triple(ActionSpec("Sp", Subspace(d, "nondeg"), n=n))
    assert t.as_tuple() == (want, want, want)


def test_sp_nondeg_halfdim_imprimitive_warning():
    t = subspace_triple(ActionSpec("Sp", Subspace(2, "nondeg"), n=4))
    assert t.as_tuple() == (4, 4, 4)
    assert any("imprimitive" in w for w in t.warnings)
    t = subspace_triple(ActionSpec("Sp", Subspace(4, "nondeg"), n=8))
    assert t.as_tuple() == (3, 3, 3)


def test_sp_totally_singular():
    assert subspace_triple(ActionSpec("Sp", Subspace(1, "totally_singular"), n=6)).as_tuple() == (6, 6, 6)
    assert subspace_triple(ActionSpec("Sp", Subspace(2, "totally_singular"), n=6, char="odd")).as_tuple() == (4, 4, 4)
    # 3 dim Omega = dim G = 36, yet three generic 3-spaces have a
    # 1-dimensional stabilizer: b0 = 4, and b, b1 are open in [4, 5]
    t = subspace_triple(ActionSpec("Sp", Subspace(3, "totally_singular"), n=8))
    assert ((t.b0.lo, t.b0.hi), (t.b.lo, t.b.hi), (t.b1.lo, t.b1.hi)) == ((4, 4), (4, 5), (4, 5))
    # half-dimension splits on the characteristic
    podd = subspace_triple(ActionSpec("Sp", Subspace(4, "totally_singular"), n=8, char="odd"))
    p2 = subspace_triple(ActionSpec("Sp", Subspace(4, "totally_singular"), n=8, char="2"))
    assert podd.as_tuple() == (4, 4, 5)
    assert p2.as_tuple() == (4, 4, 4)
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("Sp", Subspace(4, "totally_singular"), n=8, char="any"))


@pytest.mark.parametrize("char", ["odd", "2"])
def test_sp_totally_singular_k3_meets_orbit_bound(char):
    cases = [(n, d) for n in range(6, 17, 2) for d in range(2, n // 2) if -(-n // d) == 3]
    assert (10, 4) in cases and (12, 5) in cases and (16, 7) in cases
    for n, d in cases:
        spec = ActionSpec("Sp", Subspace(d, "totally_singular"), n=n, char=char)
        t = subspace_triple(spec)
        assert t.case_tag == "subspace:Sp.ts.k3"
        assert (t.b0.lo, t.b0.hi) == (4, 4), (n, d)
        assert t.b0.lo >= bounds.lower_bound_b0(*fm.spec_dims(spec)), (n, d)


def test_sp_full_orthogonal():
    t = subspace_triple(ActionSpec("Sp", Subspace(1, "On_in_Spn"), n=6, char="2"))
    assert t.as_tuple() == (6, 6, 7)
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("Sp", Subspace(1, "On_in_Spn"), n=6, char="odd"))
    # the flavor names one action: any other d used to get the d = 1 triple
    for d in (0, 2, 5, 6):
        with pytest.raises(SpecValidationError, match=f"^On_in_Spn needs d = 1, got d={d}$"):
            subspace_triple(ActionSpec("Sp", Subspace(d, "On_in_Spn"), n=6, char="2"))


@pytest.mark.parametrize(
    "n,d,want",
    [(9, 3, 3), (11, 3, 4), (12, 2, 6), (10, 4, 3)],
)
def test_so_nondeg_generic(n, d, want):
    t = subspace_triple(ActionSpec("SO", Subspace(d, "nondeg"), n=n, char="odd"))
    assert t.as_tuple() == (want, want, want)


def test_so_nondeg_hyperplane_parity():
    # n = (k-1)d + 1 with n odd keeps the generic value one higher
    assert subspace_triple(ActionSpec("SO", Subspace(2, "nondeg"), n=7, char="odd")).as_tuple() == (3, 3, 4)
    assert subspace_triple(ActionSpec("SO", Subspace(2, "nondeg"), n=9, char="odd")).as_tuple() == (4, 4, 5)


def test_so_nondeg_hyperplane_case():
    # n = (k-1)d + 1: even n drops the generic value too
    t = subspace_triple(ActionSpec("SO", Subspace(1, "nondeg"), n=7, char="odd"))
    assert t.as_tuple() == (6, 6, 7)
    t = subspace_triple(ActionSpec("SO", Subspace(1, "nondeg"), n=8, char="odd"))
    assert t.as_tuple() == (7, 7, 7)
    t = subspace_triple(ActionSpec("SO", Subspace(3, "nondeg"), n=10, char="odd"))
    assert t.as_tuple() == (3, 3, 3)


def test_so_odd_n_needs_odd_characteristic():
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("SO", Subspace(2, "nondeg"), n=9, char="2"))
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("SO", Subspace(2, "nondeg"), n=9, char="any"))


def test_so_p2_nondeg_parity_rules():
    t = subspace_triple(ActionSpec("SO", Subspace(2, "nondeg"), n=10, char="2"))
    assert t.as_tuple() == (5, 5, 5)
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("SO", Subspace(3, "nondeg"), n=10, char="2"))
    t = subspace_triple(ActionSpec("SO", Subspace(1, "nondeg"), n=8, char="2"))
    assert t.as_tuple() == (7, 7, 7)


def test_so_totally_singular_values():
    assert subspace_triple(ActionSpec("SO", Subspace(4, "totally_singular"), n=8)).as_tuple() == (7, 7, 7)
    assert subspace_triple(ActionSpec("SO", Subspace(6, "totally_singular"), n=12)).as_tuple() == (6, 6, 6)
    assert subspace_triple(ActionSpec("SO", Subspace(7, "totally_singular"), n=14)).as_tuple() == (5, 5, 5)
    assert subspace_triple(ActionSpec("SO", Subspace(3, "totally_singular"), n=9, char="odd")).as_tuple() == (3, 3, 3)
    assert subspace_triple(ActionSpec("SO", Subspace(3, "totally_singular"), n=8)).as_tuple() == (4, 4, 4)
    assert subspace_triple(ActionSpec("SO", Subspace(2, "totally_singular"), n=12)).as_tuple() == (6, 6, 6)


def test_so_ts_half_n10_open_interval():
    t = subspace_triple(ActionSpec("SO", Subspace(5, "totally_singular"), n=10))
    assert (t.b0.lo, t.b0.hi) == (5, 5)
    assert (t.b.lo, t.b.hi) == (5, 6)
    assert (t.b1.lo, t.b1.hi) == (5, 6)


def test_so_ts_d1():
    assert subspace_triple(ActionSpec("SO", Subspace(1, "totally_singular"), n=7, char="odd")).as_tuple() == (6, 6, 7)
    assert subspace_triple(ActionSpec("SO", Subspace(1, "totally_singular"), n=8, char="odd")).as_tuple() == (7, 7, 7)


def test_nonsingular_1spaces():
    t = subspace_triple(ActionSpec("SO", Subspace(1, "nonsingular_1space"), n=7, char="2"))
    assert t.as_tuple() == (6, 6, 7)
    t = subspace_triple(ActionSpec("SO", Subspace(1, "nonsingular_1space"), n=8, char="2"))
    assert t.as_tuple() == (7, 7, 7)
    with pytest.raises(SpecValidationError):
        subspace_triple(ActionSpec("SO", Subspace(1, "nonsingular_1space"), n=8, char="odd"))
    # any other d used to get the d = 1 triple
    for n, d in ((7, 3), (7, 0), (8, 2), (8, 4)):
        with pytest.raises(SpecValidationError, match=f"^nonsingular_1space needs d = 1, got d={d}$"):
            subspace_triple(ActionSpec("SO", Subspace(d, "nonsingular_1space"), n=n, char="2"))


# -- non-subspace classical ---------------------------------------------------

@pytest.mark.parametrize(
    "fam,n,label,char,want",
    [
        ("SL", 6, "Sp_n", "any", (4, 4, 4)),
        ("SL", 8, "Sp_n", "any", (3, 3, 3)),
        ("SL", 4, "GL_{n/2} wr S2", "any", (3, 3, 3)),
        ("SL", 6, "GL_{n/3} wr S3", "any", (2, 2, 2)),
        ("SL", 6, "SO_n", "odd", (2, 2, 3)),
        ("Sp", 8, "Sp_{n/2} wr S2", "any", (3, 3, 3)),
        ("Sp", 6, "Sp_{n/3} wr S3", "any", (3, 3, 3)),
        ("Sp", 8, "Sp_{n/4} wr S4", "any", (2, 2, 2)),
        ("Sp", 8, "GL_{n/2}", "odd", (2, 2, 3)),
        ("Sp", 6, "G2", "2", (4, 4, 4)),
        ("SO", 10, "GL_{n/2}", "any", (3, 3, 3)),
        ("SO", 12, "O_{n/2} wr S2", "odd", (2, 2, 3)),
        ("SO", 12, "O_{n/3} wr S3", "odd", (2, 2, 2)),
        ("SO", 7, "G2", "odd", (4, 4, 4)),
    ],
)
def test_classical_nonsubspace(fam, n, label, char, want):
    t = nonsubspace_triple(ActionSpec(fam, NonSubspace(label), n=n, char=char))
    assert t.as_tuple() == want


def test_so_p2_pair_stabilizer_open_middle():
    t = nonsubspace_triple(ActionSpec("SO", NonSubspace("O_{n/2} wr S2"), n=12, char="2"))
    assert (t.b0.lo, t.b0.hi) == (2, 2)
    assert (t.b.lo, t.b.hi) == (2, 3)
    assert (t.b1.lo, t.b1.hi) == (3, 3)


def test_subspace_equivalences_agree():
    # both routes to each equivalent action return the identical triple
    via_label = nonsubspace_triple(ActionSpec("SL", NonSubspace("Sp_n"), n=4))
    direct = subspace_triple(ActionSpec("SO", Subspace(1, "nondeg"), n=6, char="odd"))
    assert via_label.as_tuple() == direct.as_tuple() == (5, 5, 5)
    assert any("subspace-equivalent" in w for w in via_label.warnings)

    for char in ("odd", "2"):
        t = nonsubspace_triple(ActionSpec("Sp", NonSubspace("Sp_{n/2} wr S2"), n=4, char=char))
        assert t.as_tuple() == (4, 4, 5)

    t = nonsubspace_triple(ActionSpec("SO", NonSubspace("GL_{n/2}"), n=8))
    assert t.as_tuple() == subspace_triple(
        ActionSpec("SO", Subspace(2, "nondeg"), n=8, char="odd")
    ).as_tuple() == (4, 4, 4)

    t = nonsubspace_triple(ActionSpec("SO", NonSubspace("Sp4xSp2"), n=8, char="odd"))
    assert t.as_tuple() == (3, 3, 3)

    t = nonsubspace_triple(ActionSpec("SO", NonSubspace("SO_7"), n=8, char="odd"))
    assert t.as_tuple() == (7, 7, 7)

    t = nonsubspace_triple(ActionSpec("SO", NonSubspace("Sp_6"), n=8, char="2"))
    assert t.as_tuple() == (7, 7, 7)

    t = nonsubspace_triple(ActionSpec("Sp", NonSubspace("O_n"), n=8, char="2"))
    assert t.as_tuple() == (8, 8, 9)


def test_label_char_incompatibilities():
    with pytest.raises(SpecValidationError):
        nonsubspace_triple(ActionSpec("SL", NonSubspace("SO_n"), n=6, char="2"))
    with pytest.raises(SpecValidationError):
        nonsubspace_triple(ActionSpec("Sp", NonSubspace("GL_{n/2}"), n=8, char="2"))
    with pytest.raises(SpecValidationError):
        nonsubspace_triple(ActionSpec("SO", NonSubspace("G2"), n=7, char="2"))
    with pytest.raises(SpecValidationError):
        nonsubspace_triple(ActionSpec("F4", NonSubspace("A1C3"), char="2"))
    with pytest.raises(SpecValidationError):
        nonsubspace_triple(ActionSpec("G2", NonSubspace("~A2"), char="2"))


def test_unknown_label():
    with pytest.raises(SpecValidationError):
        nonsubspace_triple(ActionSpec("E8", NonSubspace("B7")))


# -- non-subspace exceptional -------------------------------------------------

@pytest.mark.parametrize(
    "g,label,char,want",
    [
        ("E8", "A1E7", "any", (3, 3, 3)),
        ("E7", "A1D6", "any", (3, 3, 3)),
        ("E7", "T1E6", "any", (3, 3, 3)),
        ("E6", "F4", "any", (4, 4, 4)),
        ("E6", "D5T1", "any", (3, 3, 3)),
        ("E6", "A1A5", "odd", (3, 3, 3)),
        ("F4", "B4", "any", (4, 4, 4)),
        ("F4", "C4", "2", (4, 4, 4)),
        ("F4", "D4", "any", (3, 3, 3)),
        ("F4", "~D4", "2", (3, 3, 3)),
        ("G2", "A2", "any", (3, 3, 3)),
        ("G2", "~A2", "3", (3, 3, 3)),
        ("E8", "D8", "odd", (2, 2, 3)),
        ("E7", "A7", "odd", (2, 2, 3)),
        ("E6", "C4", "odd", (2, 2, 3)),
        ("F4", "A1C3", "odd", (2, 2, 3)),
        ("G2", "A1~A1", "odd", (2, 2, 3)),
        ("E8", "D8", "2", (2, 2, 2)),
        ("E8", "G2F4", "any", (2, 2, 2)),
        ("E8", "A8", "any", (2, 2, 2)),
        ("E7", "A2A5", "any", (2, 2, 2)),
        ("E6", "A2G2", "any", (2, 2, 2)),
        ("G2", "A1", "any", (2, 2, 2)),
    ],
)
def test_exceptional_nonparabolic(g, label, char, want):
    t = nonsubspace_triple(ActionSpec(g, NonSubspace(label), char=char))
    assert t.as_tuple() == want


def test_exceptional_p2_open_cases():
    for g, label in (("E7", "A7"), ("E6", "A1A5"), ("G2", "A1~A1")):
        t = nonsubspace_triple(ActionSpec(g, NonSubspace(label), char="2"))
        assert (t.b0.lo, t.b0.hi) == (2, 2)
        assert (t.b.lo, t.b.hi) == (2, 3)
        assert (t.b1.lo, t.b1.hi) == (2, 3)


def test_out_of_scope_labels_raise_cleanly():
    with pytest.raises(UnsupportedLabelError):
        nonsubspace_triple(ActionSpec("E7", NonSubspace("(2^2xD4).S3"), char="odd"))
    with pytest.raises(UnsupportedLabelError):
        nonsubspace_triple(ActionSpec("E8", NonSubspace("A1xS5"), char="odd"))


# -- parabolic ----------------------------------------------------------------

def test_parabolic_values():
    assert parabolic_triple("E7", 7).as_tuple() == (6, 6, 6)
    assert parabolic_triple("E8", 2).as_tuple() == (3, 3, 3)
    assert parabolic_triple("E6", 1).as_tuple() == (6, 6, 6)
    t = parabolic_triple("F4", 1)
    assert (t.b0.lo, t.b0.hi) == (4, 5)
    t = parabolic_triple("E6", 4)
    assert (t.b1.lo, t.b1.hi) == (3, 4)
    t = parabolic_triple("G2", 2)
    assert (t.b0.lo, t.b0.hi) == (3, 4)


def test_parabolic_asterisk_count_is_seven():
    rows = fm.parabolic_table_rows()
    assert sum(1 for _, _, v in rows if v.endswith("*")) == 7
    assert len(rows) == 27


def test_parabolic_rejects_classical():
    with pytest.raises(SpecValidationError):
        parabolic_triple("SL", 1)
    with pytest.raises(SpecValidationError):
        parabolic_triple("G2", 3)


# -- torus normalizers -------------------------------------------------------

def test_torus_normalizer():
    # the rank-one groups SL_2 = Sp_2 and SO_3 = PGL_2: a generic pair has
    # a stabilizer of order 2
    for fam, n in (("SL", 2), ("Sp", 2), ("SO", 3)):
        spec = ActionSpec(fam, TorusNormalizer(), n=n)
        t = torus_normalizer_triple(spec)
        assert t.as_tuple() == (2, 2, 3)
        assert t.case_tag == "torus-normalizer:rank1 (generic pair stabilizer order 2)"
        assert fm.spec_dims(spec) == (3, 2)
    for fam, n in (("SL", 5), ("Sp", 6), ("SO", 5), ("SO", 6), ("E8", None)):
        t = torus_normalizer_triple(ActionSpec(fam, TorusNormalizer(), n=n))
        assert t.as_tuple() == (2, 2, 2)
    # the torus normalizer label of an exceptional group routes the same way
    t = nonsubspace_triple(ActionSpec("E8", NonSubspace("T8")))
    assert t.as_tuple() == (2, 2, 2)


@pytest.mark.parametrize("fam,n", [("Sp", 3), ("Sp", 7), ("SO", 2), ("SO", 4)])
def test_torus_normalizer_of_a_group_that_is_not_simple_is_rejected(fam, n):
    # Sp needs even n; SO_2 is a torus and SO_4 is not simple
    spec = ActionSpec(fam, TorusNormalizer(), n=n)
    with pytest.raises(SpecValidationError):
        torus_normalizer_triple(spec)
    with pytest.raises(SpecValidationError):
        fm.spec_dims(spec)


# -- dispatch and JSON --------------------------------------------------------

def test_base_triple_dispatch():
    assert base_triple(ActionSpec("SL", Subspace(2), n=4)).as_tuple() == (5, 5, 5)
    assert base_triple(ActionSpec("E7", Parabolic(7))).as_tuple() == (6, 6, 6)
    assert base_triple(ActionSpec("E6", NonSubspace("F4"))).as_tuple() == (4, 4, 4)
    with pytest.raises(SpecValidationError):
        base_triple(ActionSpec("SL", Parabolic(1), n=4))


@pytest.mark.parametrize("fam,n", [("SL", 4), ("Sp", 6), ("SO", 7)])
def test_spec_dims_rejects_a_classical_parabolic_as_base_triple_does(fam, n):
    spec = ActionSpec(fam, Parabolic(1), n=n)
    with pytest.raises(SpecValidationError) as triple_error:
        base_triple(spec)
    with pytest.raises(SpecValidationError) as dims_error:
        fm.spec_dims(spec)
    assert str(dims_error.value) == str(triple_error.value)


def test_spec_from_json_round_trips():
    spec = spec_from_json(
        {"family": "SL", "n": 4, "subgroup": {"subspace": {"d": 2}}}
    )
    assert base_triple(spec).as_tuple() == (5, 5, 5)
    spec = spec_from_json(
        {"family": "E6", "subgroup": {"parabolic": {"i": 1}}, "char": "any"}
    )
    assert base_triple(spec).as_tuple() == (6, 6, 6)
    spec = spec_from_json({"family": "Sp", "n": 6, "subgroup": "torus_normalizer"})
    assert base_triple(spec).as_tuple() == (2, 2, 2)
    with pytest.raises(SpecValidationError):
        spec_from_json({"family": "SL", "n": 4, "subgroup": {"weird": {}}})
    with pytest.raises(SpecValidationError, match="exceptional families take no n"):
        spec_from_json({"family": "E6", "n": 6, "subgroup": {"parabolic": {"i": 1}}})


def test_spec_from_json_requires_integers_and_strings():
    # 2.5 and 2.7 were read as n = 2.5 (giving [4.0, 6.0]) and d = 2
    for bad in (
        {"family": "SL", "n": 2.5, "subgroup": {"subspace": {"d": 1}}},
        {"family": "SL", "n": 8, "subgroup": {"subspace": {"d": 2.7}}},
        {"family": "SL", "n": 8, "subgroup": {"subspace": {"d": True}}},
        {"family": "E7", "subgroup": {"parabolic": {"i": "7"}}},
        {"family": "SO", "n": 8, "subgroup": {"nonsubspace": {"label": None}}},
        {"subgroup": "torus_normalizer"},
        ["SL", 8],
    ):
        with pytest.raises(SpecValidationError):
            spec_from_json(bad)


def test_json_rendering_carries_tags():
    out = base_triple(ActionSpec("F4", Parabolic(1))).to_json()
    assert out["b0"] == [4, 5]
    assert "case_tag" in out
