"""The b > 2 predicate of the source paper's dimension theorem, as a test
oracle for the formula layer.

The exact base size of a primitive action exceeds 2 exactly when the point
stabilizer is large (dim H > dim G / 2) or the pair is one of a few
small-stabilizer exceptions.  ``dimhalf_predicate`` states this for p != 2;
``dimhalf_predicate_p2`` is the p = 2 variant, which drops the E6 case and
is undefined on the excluded pairs.
"""
from basesize import formulas as fm, rootsys


class ExcludedCaseError(ValueError):
    """The p = 2 variant of the b > 2 test excludes this pair."""


def dimhalf_predicate(spec, dim_G, dim_H):
    if fm._IS_TWO[spec.char] is not False:
        raise fm.SpecValidationError("this test is stated for p != 2; use dimhalf_predicate_p2 for p = 2")
    return _clauses(spec, dim_G, dim_H, include_e6_a1a5=True)


def dimhalf_predicate_p2(spec, dim_G, dim_H):
    if isinstance(spec.subgroup, fm.NonSubspace):
        label = rootsys.normalize_label(spec.subgroup.label)
        if spec.family == "SO" and spec.n % 4 == 0 and _wreath_of(spec, label) == ("O", 2):
            raise ExcludedCaseError("SO_n with the half-dimension pair stabilizer, n/2 even")
        if (spec.family, label) in (("E7", "A7"), ("E6", "A1A5"), ("G2", "A1~A1")):
            raise ExcludedCaseError(f"({spec.family}, {label}) is excluded for p = 2")
    return _clauses(spec, dim_G, dim_H, include_e6_a1a5=False)


def _wreath_of(spec, label):
    """(base, t) of a classical label, None for other labels."""
    parsed = fm.classical_label(label, spec.n) if spec.family in fm.CLASSICAL_FAMILIES else None
    return parsed and (parsed[0], parsed[2])


def _clauses(spec, dim_G, dim_H, include_e6_a1a5):
    if 2 * dim_H > dim_G:
        return True
    if spec.family == "SO" and isinstance(spec.subgroup, fm.Subspace) and spec.subgroup.flavor == "nondeg":
        d = spec.subgroup.d
        ell = spec.n - 2 * d
        if 2 <= ell <= d and ell * ell <= spec.n:
            return True
    if isinstance(spec.subgroup, fm.NonSubspace):
        label = rootsys.normalize_label(spec.subgroup.label)
        if spec.family == "SL" and spec.n >= 4 and _wreath_of(spec, label) == ("GL", 2):
            return True
        if spec.family == "Sp" and spec.n == 6 and _wreath_of(spec, label) == ("Sp", 3):
            return True
        if include_e6_a1a5 and (spec.family, label) == ("E6", "A1A5"):
            return True
    return False
