import pytest

from basesize import rootsys
from basesize.rootsys import (
    InvalidTypeError,
    LabelError,
    build_root_system,
    group_dim,
    group_rank,
    normalize_label,
    parabolic_dim,
    subgroup_dim,
)


@pytest.mark.parametrize(
    "family,rank,count",
    [
        ("A", 1, 1), ("A", 2, 3), ("A", 7, 28),
        ("B", 2, 4), ("B", 4, 16),
        ("C", 3, 9), ("C", 6, 36),
        ("D", 4, 12), ("D", 8, 56),
        ("E", 6, 36), ("E", 7, 63), ("E", 8, 120),
        ("F", 4, 24), ("G", 2, 6),
    ],
)
def test_positive_root_counts(family, rank, count):
    assert len(build_root_system(family, rank).positive_roots) == count


@pytest.mark.parametrize(
    "family,rank,dim",
    [("E", 6, 78), ("F", 4, 52), ("A", 1, 3), ("E", 8, 248), ("E", 7, 133)],
)
def test_dim_group(family, rank, dim):
    assert group_dim(f"{family}{rank}") == dim
    assert group_rank(f"{family}{rank}") == rank


@pytest.mark.parametrize("bad", [("A", 0), ("D", 3), ("E", 9), ("F", 3), ("G", 3), ("H", 2)])
def test_invalid_types_rejected(bad):
    with pytest.raises(InvalidTypeError):
        build_root_system(*bad)


def test_simple_roots_are_unit_vectors():
    rs = build_root_system("F", 4)
    units = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    for u in units:
        assert u in rs.positive_roots


def test_roots_sorted_deterministically():
    rs = build_root_system("E", 7)
    assert list(rs.positive_roots) == sorted(rs.positive_roots)
    assert build_root_system("E", 7).positive_roots == rs.positive_roots


@pytest.mark.parametrize("family,rank", [("B", 3), ("F", 4), ("G", 2), ("E", 6)])
def test_simple_reflections_permute_roots(family, rank):
    # s_i(beta) = beta - <beta, alpha_i^vee> alpha_i must land in +-Phi^+,
    # a sharp consistency check on both the Cartan matrix and the closure
    rs = build_root_system(family, rank)
    roots = set(rs.positive_roots)
    for beta in roots:
        for i in range(rank):
            pairing = sum(beta[j] * rs.cartan[i][j] for j in range(rank))
            img = tuple(
                b - (pairing if j == i else 0) for j, b in enumerate(beta)
            )
            neg = tuple(-x for x in img)
            assert img in roots or neg in roots


@pytest.mark.parametrize(
    "group,node,dim",
    [("E6", 1, 16), ("E7", 7, 27), ("G2", 1, 5), ("E8", 8, 57), ("F4", 2, 20)],
)
def test_parabolic_quotient_dims(group, node, dim):
    assert parabolic_dim(group, node) == dim


def test_parabolic_table_full():
    expected = {
        "E8": [78, 92, 98, 106, 104, 97, 83, 57],
        "E7": [33, 42, 47, 53, 50, 42, 27],
        "E6": [16, 21, 25, 29, 25, 16],
        "F4": [15, 20, 20, 15],
        "G2": [5, 5],
    }
    rows = rootsys.parabolic_dim_rows()
    got = {}
    for g, node, dim in rows:
        got.setdefault(g, []).append(dim)
    assert got == expected
    assert len(rows) == 27


def test_levi_counts_match_levi_type():
    # deleting node 1 of E6 leaves D5, and node 2 leaves A5: dim G/P counts
    # the positive roots outside the Levi
    e6 = len(build_root_system("E", 6).positive_roots)
    assert parabolic_dim("E6", 1) == e6 - len(build_root_system("D", 5).positive_roots)
    assert parabolic_dim("E6", 2) == e6 - len(build_root_system("A", 5).positive_roots)


def test_parabolic_node_range():
    for group in rootsys.EXCEPTIONAL_GROUPS:
        for node in range(10):
            if 1 <= node <= group_rank(group):
                assert 1 <= parabolic_dim(group, node) < group_dim(group)
            else:
                with pytest.raises(InvalidTypeError, match=f"node {node} out of range for {group}"):
                    parabolic_dim(group, node)
    with pytest.raises(InvalidTypeError):
        parabolic_dim("H4", 1)


@pytest.mark.parametrize(
    "label,dim",
    [("A1E7", 136), ("D8", 120), ("A1A5", 38), ("B4", 36), ("A2~A2", 16), ("T1E6", 79)],
)
def test_subgroup_dim(label, dim):
    assert subgroup_dim(label) == dim


def test_subgroup_dim_d8_matches_root_system():
    d8 = build_root_system("D", 8)
    assert subgroup_dim("D8") == 2 * len(d8.positive_roots) + 8 == 120


def test_unresolvable_label():
    with pytest.raises(LabelError):
        subgroup_dim("Z9")
    with pytest.raises(LabelError):
        subgroup_dim("A1 junk")


def test_descriptor_canonicalizes_aliases():
    assert normalize_label("A7.2") == "A7"
    assert subgroup_dim("A7.2") == 63
    assert normalize_label("D5T1") == "T1D5"
    assert normalize_label("E7 A1") == "A1E7"
    # a tilde written on the letter, precomposed or combining
    assert normalize_label("A2\u00c32") == normalize_label("A2A\u03032") == "A2~A2"
