"""Closed-form base-size triples for every primitive action family.

The dispatcher returns a :class:`BaseTriple` of integer intervals for
(connected, exact, generic) base size.  Cases the theory leaves open are
returned as honest intervals with a clause tag; they are never collapsed
to a guess.  The subspace rules and the classical-label rules are ordered
tables read by one interpreter, :func:`_apply`; the exceptional labels and
parabolics are value tables.  :func:`_settle` builds every triple, and
:func:`classical_label` is the one parser of classical labels.  Actions
that are equivalent to a subspace action name that action in their rule,
so both descriptions return identical triples.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Union

from . import bounds, rootsys


class SpecValidationError(ValueError):
    """The action specification violates a precondition."""


class UnsupportedLabelError(ValueError):
    """A recognized maximal subgroup that is validated but out of scope."""


# ---------------------------------------------------------------------------
# Action specifications

CLASSICAL_FAMILIES = ("SL", "Sp", "SO")
EXCEPTIONAL_FAMILIES = ("E6", "E7", "E8", "F4", "G2")

SUBSPACE_FLAVORS = (
    "linear",            # SL on d-subspaces (no form)
    "nondeg",            # form restricts nondegenerately
    "totally_singular",  # form vanishes identically
    "nonsingular_1space",  # orthogonal 1-spaces off the quadric, char 2
    "On_in_Spn",         # the full orthogonal group inside Sp_n, char 2
)

CHAR_CASES = ("0", "2", "3", "odd", "not235", "any")

#: the conditions on p that each characteristic case rules out
_RULED_OUT = {
    "0": ("p = 2", "p = 3"), "2": ("p != 2", "p = 3"), "3": ("p = 2", "p != 3"),
    "odd": ("p = 2",), "not235": ("p = 2", "p = 3", "p = 5"), "any": (),
}
#: whether p = 2, or None when the characteristic case leaves it open
_IS_TWO = {case: True if "p != 2" in out else False if "p = 2" in out else None
           for case, out in _RULED_OUT.items()}


@dataclass(frozen=True)
class Subspace:
    d: int
    flavor: str = "linear"


@dataclass(frozen=True)
class NonSubspace:
    label: str


@dataclass(frozen=True)
class Parabolic:
    node: int


@dataclass(frozen=True)
class TorusNormalizer:
    pass


Subgroup = Union[Subspace, NonSubspace, Parabolic, TorusNormalizer]


@dataclass(frozen=True)
class ActionSpec:
    """A primitive action: group family, point-stabilizer descriptor, and
    the characteristic case the formulas should be read in."""

    family: str
    subgroup: Subgroup
    n: int | None = None  # dimension of the natural module, classical only
    char: str = "any"

    def __post_init__(self):
        if self.family not in CLASSICAL_FAMILIES + EXCEPTIONAL_FAMILIES:
            raise SpecValidationError(f"unknown family {self.family!r}")
        if self.char not in CHAR_CASES:
            raise SpecValidationError(f"unknown characteristic case {self.char!r}")
        if self.family in CLASSICAL_FAMILIES:
            if self.n is None or self.n < 2:
                raise SpecValidationError("classical families need n >= 2")
        elif self.n is not None:
            raise SpecValidationError("exceptional families take no n")
        if isinstance(self.subgroup, Subspace) and self.subgroup.flavor not in SUBSPACE_FLAVORS:
            raise SpecValidationError(f"unknown flavor {self.subgroup.flavor!r}")


def json_field(obj, key: str, kind: type, where: str):
    """obj[key], checked to be an int (not a bool) or a str."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if type(value) is not kind:
        what = "an integer" if kind is int else "a string"
        raise SpecValidationError(f"{where}: {key!r} must be {what}, got {value!r}")
    return value


def spec_from_json(obj) -> ActionSpec:
    """Build an ActionSpec from its JSON form (the CLI wire format)."""
    if not isinstance(obj, dict) or "family" not in obj or "subgroup" not in obj:
        raise SpecValidationError("a spec is a JSON object with 'family' and 'subgroup' keys")
    sub = obj["subgroup"]
    if sub == "torus_normalizer":
        subgroup: Subgroup = TorusNormalizer()
    elif isinstance(sub, dict) and "subspace" in sub:
        s = sub["subspace"]
        subgroup = Subspace(d=json_field(s, "d", int, "subspace"), flavor=s.get("flavor", "linear"))
    elif isinstance(sub, dict) and "nonsubspace" in sub:
        subgroup = NonSubspace(label=json_field(sub["nonsubspace"], "label", str, "nonsubspace"))
    elif isinstance(sub, dict) and "parabolic" in sub:
        subgroup = Parabolic(node=json_field(sub["parabolic"], "i", int, "parabolic"))
    else:
        raise SpecValidationError(f"unrecognized subgroup spec {sub!r}")
    if obj.get("n") is not None:
        json_field(obj, "n", int, "spec")
    return ActionSpec(
        family=obj["family"],
        n=obj.get("n"),
        subgroup=subgroup,
        char=str(obj.get("char", "any")),
    )


def require_char_prime(spec: ActionSpec, p: int) -> None:
    """Refuse a prime at which a condition ("p = k" or "p != k") that the
    characteristic case of ``spec`` rules out holds."""
    for condition in _RULED_OUT[spec.char]:
        _, op, k = condition.split()
        if (p == int(k)) == (op == "="):
            raise SpecValidationError(f"characteristic case {spec.char!r} rules out p = {p}")


# ---------------------------------------------------------------------------
# Triples

@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int

    def __post_init__(self):
        if not 1 <= self.lo <= self.hi:
            raise SpecValidationError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class BaseTriple:
    """Values or intervals for the (connected, exact, generic) base sizes."""

    b0: Interval
    b: Interval
    b1: Interval
    case_tag: str
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not (self.b0.lo <= self.b.lo <= self.b1.lo and self.b0.hi <= self.b.hi <= self.b1.hi):
            raise SpecValidationError(f"triple not ordered: {self}")
        if self.b0.is_point and self.b1.is_point and self.b1.hi > self.b0.hi + 1:
            raise SpecValidationError(f"generic base exceeds connected base + 1: {self}")

    def as_tuple(self) -> tuple[int, int, int]:
        if not (self.b0.is_point and self.b.is_point and self.b1.is_point):
            raise SpecValidationError("triple is an interval, not a point")
        return (self.b0.lo, self.b.lo, self.b1.lo)

    def to_json(self) -> dict:
        out = {
            "b0": [self.b0.lo, self.b0.hi],
            "b": [self.b.lo, self.b.hi],
            "b1": [self.b1.lo, self.b1.hi],
            "case_tag": self.case_tag,
        }
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


# ---------------------------------------------------------------------------
# The rule interpreter
#
# A rule table is an ordered list of rows (when, then, clause, warnings).
# ``when`` is a predicate on a :class:`_Case`, or None for every case; the
# first row whose ``when`` holds decides.  ``then`` is a point value, a
# (b0, b, b1) triple of values or (lo, hi) pairs, the equivalent subspace
# ActionSpec, a rejection reason, or a function of the case returning one
# of these.  Every table ends with a row whose ``when`` is None.

class _Case:
    """What the rules read: the spec, n, the subspace dimension or the size
    of a label's factor (d, None for a named subgroup), ceil(n/d), the
    factor count t, whether p = 2 (None when open) and the normalized
    label."""

    __slots__ = ("spec", "n", "d", "k", "t", "two", "label")

    def __init__(self, spec: ActionSpec, d: int | None, t: int = 1, label: str = ""):
        self.spec, self.n, self.d, self.t, self.label = spec, spec.n, d, t, label
        self.k = -(-spec.n // d) if d else 0
        self.two = _IS_TWO[spec.char]


def _rules(*rows) -> list[tuple]:
    """Rows written (when, then[, clause[, warnings]]), padded to four."""
    return [row + (None, ())[len(row) - 2:] for row in rows]


def _apply(rules: list[tuple], case: _Case) -> BaseTriple:
    for when, then, clause, warnings in rules:
        if when is None or when(case):
            return _settle(then(case) if callable(then) else then, clause, warnings)
    raise AssertionError("every rule table ends with an unconditional row")


@lru_cache(maxsize=None)  # intervals are frozen, so equal ones are shared
def _interval(x) -> Interval:
    return Interval(x, x) if type(x) is int else Interval(*x)


def _settle(then, clause: str, warnings: tuple[str, ...] = ()) -> BaseTriple:
    """The one triple constructor: ``then`` as :func:`_apply` reads it."""
    if type(then) is int:
        then = then, then, then
    if type(then) is tuple:
        return BaseTriple(*map(_interval, then), clause, warnings)
    if type(then) is str:
        raise SpecValidationError(then)
    return _retag(subspace_triple(then), clause)


def _retag(t: BaseTriple, tag: str) -> BaseTriple:
    return BaseTriple(t.b0, t.b, t.b1, f"{tag};{t.case_tag}",
                      t.warnings + ("subspace-equivalent action",))


# ---------------------------------------------------------------------------
# Subspace actions, keyed by (family, flavor)

_P2_OPEN = "{}: the value depends on whether p = 2; give a characteristic case"
_PAIR_ACTION = ("imprimitive: routed to the complementary-pair action",)
_half = lambda c: 2 * c.d == c.n
_k = lambda c: c.k
# n = (k - 1) d + 1: one space fewer suffices, generically so for even n
_hyperplane = lambda c: c.n == (c.k - 1) * c.d + 1


def _one_short(c: _Case) -> tuple[int, int, int]:
    return c.k - 1, c.k - 1, c.k - 1 if c.n % 2 == 0 else c.k


def _sl_interval(c: _Case) -> tuple:
    # the orbit-dimension bound can beat k+1; both ends stay certified
    iv = (max(c.k + 1, bounds.lower_bound_b0(*spec_dims(c.spec))), c.k + 2 + (c.k == 3))
    return iv, iv, iv


_D_UP_TO_HALF = (lambda c: not 1 <= c.d <= c.n // 2,
                 lambda c: f"need 1 <= d <= n/2, got d={c.d}, n={c.n}")
_SP_EVEN_N = (lambda c: c.n % 2 != 0 or c.n < 4, "Sp needs even n >= 4")
_SO_N = (lambda c: c.n < 5, "SO subspace actions are stated for n >= 5")
_SO_FORM = (
    _SO_N,
    (lambda c: c.n % 2 == 1 and c.two is not False, "SO with odd n requires p != 2"),
    (lambda c: c.n < 7 and c.d != 1, "SO subspace actions below n = 7 are supported for d = 1 only"),
)

_SUBSPACE_RULES = {
    ("SL", "linear"): _rules(
        _D_UP_TO_HALF,
        (lambda c: c.d == 1, lambda c: c.k + 1, "subspace:SL.d=1"),
        (_half, 5, "subspace:SL.d=n/2"),
        (lambda c: c.n % c.d == 0, lambda c: c.k + 2, "subspace:SL.1<d<n/2"),
        (None, _sl_interval,
         "subspace:SL.d-not-dividing-n (open interval; the numeric verifier pins instances)"),
    ),
    ("Sp", "On_in_Spn"): _rules(
        (lambda c: c.d != 1, lambda c: f"On_in_Spn needs d = 1, got d={c.d}"),
        _SP_EVEN_N,
        (lambda c: c.two is None, _P2_OPEN.format("orthogonal subgroup of Sp is maximal only for p = 2")),
        (lambda c: not c.two, "orthogonal subgroup of Sp requires p = 2"),
        (None, lambda c: (c.n, c.n, c.n + 1), "subspace:Sp.full-orthogonal-stabilizer.p2"),
    ),
    ("Sp", "nondeg"): _rules(
        _SP_EVEN_N,
        (lambda c: c.d % 2 != 0 or not 2 <= c.d <= c.n // 2,
         "nondegenerate subspaces of Sp need even 2 <= d <= n/2"),
        # stabilizer of one half is index 2 in the pair stabilizer: the
        # action is imprimitive; report the pair-action value
        (lambda c: (c.n, c.d) == (4, 2), 4, "subspace:Sp.nondeg-halfdim(pair action)", _PAIR_ACTION),
        (_half, 3, "subspace:Sp.nondeg-halfdim(pair action)", _PAIR_ACTION),
        (lambda c: (c.n, c.d) == (6, 2), 4, "subspace:Sp.nondeg.n6d2"),
        (None, _k, "subspace:Sp.nondeg.generic-k"),
    ),
    ("Sp", "totally_singular"): _rules(
        _SP_EVEN_N,
        _D_UP_TO_HALF,
        (lambda c: _half(c) and c.two is None, _P2_OPEN.format("Sp totally singular half-dimension")),
        (lambda c: _half(c) and c.two, 4, "subspace:Sp.ts-halfdim"),
        (_half, (4, 4, 5), "subspace:Sp.ts-halfdim"),
        # b0 = 4 for every d.  Write n = 2(d + j); then
        # 3 dim Omega - dim G = -2j^2 + (2d-1)j - d(d-1)/2, which is
        # negative unless n = 3d or n = 3d - 1, so the orbit-dimension
        # bound alone gives b0 >= 4.  In those two cases the stabilizer
        # of three generic spaces reduces to the congruence stabilizer
        # in GL_d of a generic d x d bilinear form, of dimension
        # floor(d/2) >= 1: no dense orbit on Omega^3.  At c = 4 the
        # verifier finds a finite stabilizer for every n <= 16.
        (lambda c: c.k == 3 and c.d == 2, 4, "subspace:Sp.ts.k3"),
        # b0 <= b <= b1 <= b0 + 1; nothing here settles whether the
        # finite part of the 4-point stabilizer vanishes, so b and b1
        # stay open
        (lambda c: c.k == 3, (4, (4, 5), (4, 5)), "subspace:Sp.ts.k3"),
        (None, _k, "subspace:Sp.ts.generic-k"),
    ),
    ("SO", "nonsingular_1space"): _rules(
        (lambda c: c.d != 1, lambda c: f"nonsingular_1space needs d = 1, got d={c.d}"),
        _SO_N,
        # for odd n this is the defining-characteristic-2 model of the
        # odd orthogonal group: the symplectic group on a hyperplane
        (lambda c: c.two is not True, "nonsingular 1-spaces only arise for p = 2"),
        (lambda c: c.n % 2 == 1, lambda c: (c.n - 1, c.n - 1, c.n), "subspace:SO.ns1.odd-n(p2)"),
        (None, lambda c: c.n - 1, "subspace:SO.ns1.even-n(p2)"),
    ),
    ("SO", "nondeg"): _rules(
        *_SO_FORM,
        _D_UP_TO_HALF,
        (lambda c: c.two and c.d != 1 and c.d % 2 != 0,
         "for p = 2 a nondegenerate subspace has d = 1 or d even"),
        (lambda c: _half(c) and c.two and c.n % 4 != 0,
         "half-dimension nondegenerate pairs need n = 0 mod 4 when p = 2"),
        (_half, (2, 2, 3), "subspace:SO.nondeg-halfdim(pair action)", _PAIR_ACTION),
        (_hyperplane, _one_short, "subspace:SO.nondeg.hyperplane-case"),
        (None, _k, "subspace:SO.nondeg.generic-k"),
    ),
    ("SO", "totally_singular"): _rules(
        *_SO_FORM,
        _D_UP_TO_HALF,
        (lambda c: c.d == 1, _one_short, "subspace:SO.ts.d1"),
        (lambda c: (c.n, c.d) == (10, 5), (5, (5, 6), (5, 6)), "subspace:SO.ts-halfdim.n10 (open)"),
        (_half, lambda c: {8: 7, 12: 6}.get(c.n, 5), "subspace:SO.ts-halfdim.c(n)"),
        (lambda c: c.k == 3, lambda c: 4 - (c.n == 3 * c.d), "subspace:SO.ts.k3"),
        (_hyperplane, _one_short, "subspace:SO.ts.hyperplane-case"),
        (None, _k, "subspace:SO.ts.generic-k"),
    ),
}
# every other flavor is refused after its family's preconditions
_SUBSPACE_RULES.update({
    (fam, flavor): _rules(*pre, (None, why.format(flavor)))
    for fam, pre, why in (
        ("SL", (), "SL subspace actions carry no form; use flavor 'linear'"),
        ("Sp", (_SP_EVEN_N,), "flavor {!r} invalid for Sp"),
        ("SO", _SO_FORM, "flavor {!r} invalid for SO (use nondeg/totally_singular/nonsingular_1space)"),
    )
    for flavor in SUBSPACE_FLAVORS if (fam, flavor) not in _SUBSPACE_RULES
})


def subspace_triple(spec: ActionSpec) -> BaseTriple:
    """Triple for a classical group acting on an orbit of subspaces of its
    natural module (or an action equivalent to one)."""
    if spec.family not in CLASSICAL_FAMILIES:
        raise SpecValidationError("subspace actions are classical")
    if not isinstance(spec.subgroup, Subspace):
        raise SpecValidationError("subspace_triple needs a Subspace subgroup")
    return _apply(_SUBSPACE_RULES[spec.family, spec.subgroup.flavor], _Case(spec, spec.subgroup.d))


# ---------------------------------------------------------------------------
# Non-subspace actions

_LABEL_RE = re.compile(r"^(?:(GL|Sp|SO|O)_?\{?(?:n(?:/(\d+))?|(\d+))\}?(?:wrS_?(\d+))?|(G2)|Sp_?4[x⊗]Sp_?2)$")


@lru_cache(maxsize=1024)
def classical_label(label: str, n: int) -> tuple[str, int | None, int] | None:
    """(base, size, t) for a normalized classical label inside a group on
    an n-dimensional module: ``GL_{n/2}wrS2`` gives ("GL", n/2, 2), a plain
    ``Sp_n`` gives ("Sp", n, 1), and the named subgroups ``G2`` and
    ``Sp4xSp2`` (the Sp4 (x) Sp2 tensor stabilizer) give size None.  None
    when the label has none of these shapes."""
    m = _LABEL_RE.match(label)
    if not m:
        return None
    base, divisor, absolute, t, g2 = m.groups()
    if base is None:
        return ("G2" if g2 else "Sp4xSp2"), None, 1
    t = 1 if t is None else int(t)
    if absolute is not None:
        return base, int(absolute), t
    if divisor is None:
        return base, n, t
    k = int(divisor)
    if k == 0 or n % k != 0:
        raise SpecValidationError(f"label {label!r} needs {k} | n, got n={n}")
    return base, n // k, t


def _so(n: int, d: int, flavor: str, char: str) -> ActionSpec:
    return ActionSpec("SO", Subspace(d, flavor), n=n, char=char)


# Classical labels, keyed by (family, factor base, t != 1), where the label
# names t factors of the base group, each of size d; the tensor and G2
# labels are their own base.  Every key ends in a rejection.
_LABEL_CASES = {
    ("SL", "GL", True): [
        (lambda c: c.t == 2 and c.n == 2, (2, 2, 3), "nonsubspace:SL2.torus-normalizer"),
        (lambda c: c.t == 2, 3, "nonsubspace:SL.GLhalf-wr-S2"),
        (None, 2, "nonsubspace:SL.GL-wr-St(t>=3)"),
    ],
    ("Sp", "Sp", True): [
        (lambda c: c.d % 2 != 0, lambda c: f"Sp_{c.d} factor needs even size"),
        # both characteristics land on the same 1-space value
        (lambda c: c.t == 2 and c.n == 4 and c.two, _so(5, 1, "nonsingular_1space", "2"), "nonsubspace:Sp4.Sp2-wr-S2->SO5-1spaces"),
        (lambda c: c.t == 2 and c.n == 4, _so(5, 1, "nondeg", "odd"), "nonsubspace:Sp4.Sp2-wr-S2->SO5-1spaces"),
        (lambda c: c.t == 2, 3, "nonsubspace:Sp.Sphalf-wr-S2"),
        (lambda c: (c.n, c.t) == (6, 3), 3, "nonsubspace:Sp6.Sp2-wr-S3"),
        (None, 2, "nonsubspace:Sp.Sp-wr-St(t>=4 or n>6)"),
    ],
    ("SO", "O", True): [
        (lambda c: c.t == 2 and c.two is False, (2, 2, 3), "nonsubspace:SO.Ohalf-wr-S2(p-odd)"),
        (lambda c: c.t == 2 and c.two and (c.n % 4 != 0 or c.n < 8),
         "O_{n/2} wr S2 < SO_n with p = 2 needs n = 0 mod 4, n >= 8"),
        (lambda c: c.t == 2 and c.two, (2, (2, 3), 3), "nonsubspace:SO.Ohalf-wr-S2(p2, open middle)"),
        (lambda c: c.t == 2, "O_{n/2} wr S2: give a characteristic case"),
        (None, 2, "nonsubspace:SO.O-wr-St(t>=3)"),
    ],
    ("SL", "Sp", False): [
        (lambda c: c.d != c.n or c.n % 2 != 0 or c.n < 4, "Sp_n < SL_n needs even n >= 4"),
        # the same value in every characteristic
        (lambda c: c.n == 4 and c.two, _so(6, 1, "nonsingular_1space", "2"), "nonsubspace:SL4.Sp4->SO6-1spaces"),
        (lambda c: c.n == 4, _so(6, 1, "nondeg", "odd"), "nonsubspace:SL4.Sp4->SO6-1spaces"),
        (None, lambda c: 4 if c.n == 6 else 3, "nonsubspace:SL.Sp_n"),
    ],
    ("SL", "SO", False): [
        (lambda c: c.d != c.n or c.n < 3, "SO_n < SL_n needs the full natural dimension"),
        (lambda c: c.two, "SO_n < SL_n is maximal only for p != 2"),
        (None, (2, 2, 3), "nonsubspace:SL.SO_n"),
    ],
    ("Sp", "GL", False): [
        (lambda c: 2 * c.d != c.n, "the Levi-type GL factor of Sp_n has size n/2"),
        (lambda c: c.two, "GL_{n/2} < Sp_n is maximal only for p != 2"),
        (None, (2, 2, 3), "nonsubspace:Sp.GLhalf"),
    ],
    ("Sp", "O", False): [
        (lambda c: c.d != c.n, "the orthogonal subgroup of Sp_n acts on the full module"),
        (lambda c: c.two is False, "O_n < Sp_n is maximal only for p = 2"),
        (None, lambda c: ActionSpec("Sp", Subspace(1, "On_in_Spn"), n=c.n, char="2"),
         "nonsubspace:Sp.On->hyperplane-action"),
    ],
    ("Sp", "G2", False): [
        (lambda c: c.n == 6 and c.two is False, "G2 < Sp6 requires p = 2"),
        (lambda c: c.n == 6, 4, "nonsubspace:Sp6.G2(p2)"),
    ],
    ("SO", "GL", False): [
        (lambda c: 2 * c.d != c.n, "the GL factor of SO_n has size n/2"),
        (lambda c: c.n == 8, lambda c: _so(8, 2, "nondeg", c.spec.char), "nonsubspace:SO8.GL4->nondeg-2spaces"),
        (lambda c: c.n < 10, "GL_{n/2} < SO_n needs even n >= 8"),
        (None, 3, "nonsubspace:SO.GLhalf"),
    ],
    ("SO", "SO", False): [
        (lambda c: (c.n, c.d) == (8, 7) and c.two, "irreducible SO7 < SO8 requires p != 2"),
        (lambda c: (c.n, c.d) == (8, 7), _so(8, 1, "nondeg", "odd"), "nonsubspace:SO8.SO7-irreducible->nondeg-1spaces"),
    ],
    ("SO", "Sp", False): [
        (lambda c: (c.n, c.d) == (8, 6) and c.two is False, "irreducible Sp6 < SO8 requires p = 2"),
        (lambda c: (c.n, c.d) == (8, 6), _so(8, 1, "nonsingular_1space", "2"), "nonsubspace:SO8.Sp6-irreducible->ns-1spaces"),
    ],
    ("SO", "Sp4xSp2", False): [
        (lambda c: c.n == 8 and c.two, "Sp4 (x) Sp2 < SO8 requires p != 2"),
        (lambda c: c.n == 8, _so(8, 3, "nondeg", "odd"), "nonsubspace:SO8.tensor->nondeg-3spaces"),
    ],
    ("SO", "G2", False): [
        (lambda c: c.n == 7 and c.two, "G2 < SO7 requires p != 2"),
        (lambda c: c.n == 7, 4, "nonsubspace:SO7.G2"),
    ],
}


def _label_rules(family: str, base: str, wreath: bool) -> list[tuple]:
    if wreath:
        first = [(lambda c: c.d * c.t != c.n, lambda c: f"label {c.label!r} does not decompose n={c.n}")]
        last = lambda c: f"wreath label {base} wr S{c.t} invalid inside {family}_n"
    else:
        first, last = [], {
            "G2": "G2 is maximal only in SO7 (p != 2) or Sp6 (p = 2)",
            "Sp4xSp2": "the Sp4 (x) Sp2 tensor stabilizer lives in SO8",
        }.get(base, lambda c: f"label {c.spec.subgroup.label!r} invalid inside {family}_{c.n}")
    return _rules(*first, *_LABEL_CASES.get((family, base, wreath), []), (None, last))


_LABEL_RULES = {
    (fam, base, wreath): _label_rules(fam, base, wreath)
    for fam in CLASSICAL_FAMILIES
    for base, wreath in [*product(("GL", "Sp", "SO", "O"), (False, True)), ("G2", False), ("Sp4xSp2", False)]
}


def nonsubspace_triple(spec: ActionSpec) -> BaseTriple:
    """Triple for a primitive non-subspace action, classical or exceptional.

    Labels listed as equivalent to subspace actions are dispatched through
    :func:`subspace_triple`, so both routes agree by construction.
    """
    if not isinstance(spec.subgroup, NonSubspace):
        raise SpecValidationError("nonsubspace_triple needs a NonSubspace subgroup")
    if spec.family in EXCEPTIONAL_FAMILIES:
        return _exceptional_nonparabolic(spec)
    label = rootsys.normalize_label(spec.subgroup.label)
    parsed = classical_label(label, spec.n)
    if parsed is None:
        raise SpecValidationError(f"unknown classical subgroup label {label!r}")
    base, size, t = parsed
    return _apply(_LABEL_RULES[spec.family, base, t != 1], _Case(spec, size, t, label))


# Exceptional groups: reductive maximal subgroups and their triples.

# labels valid per group, with an optional characteristic requirement
_EXC_LABELS: dict[str, dict[str, str | None]] = {
    "E8": {
        "A1": None, "B2": None, "A1A2": None, "A1G2^2": "p != 2", "G2F4": None,
        "D8": None, "A1E7": None, "A8": None, "A2E6": None, "A4^2": None,
        "D4^2": None, "A2^4": None, "A1^8": None,
    },
    "E7": {
        "A1": None, "A2": None, "A1^2": None, "A1G2": None, "A1F4": None,
        "G2C3": None, "T1E6": None, "A1D6": None, "A7": None, "A2A5": None,
        "A1^3D4": None, "A1^7": None,
    },
    "E6": {
        "A2": None, "G2": None, "C4": "p != 2", "F4": None, "A2G2": None,
        "T1D5": None, "T2D4": None, "A1A5": None, "A2^3": None,
    },
    "F4": {
        # p = 7 is finer than the characteristic cases modelled: accepted
        "A1": None, "G2": "p = 7", "A1G2": "p != 2", "A1C3": "p != 2", "B4": None,
        "C4": "p = 2", "D4": None, "~D4": "p = 2", "A2~A2": None,
    },
    "G2": {"A1": None, "A1~A1": None, "A2": None, "~A2": "p = 3"},
}

_OUT_OF_SCOPE_LABELS = {("E7", "(2^2xD4).S3"), ("E8", "A1xS5")}

_TORUS_INVERTING = ((2, 2, 3), "(torus-inverting centralizer)")
_OPEN_P2 = ((2, (2, 3), (2, 3)), "(p2, open)")

#: (group, label) -> (value, clause suffix), or a pair of them for p odd and
#: for p = 2; the clause is ``nonsubspace:<group>.<label><suffix>`` and a
#: value is a point or a triple.  Labels not listed give 2, "(generic)".
_EXC_VALUES = {
    ("E8", "A1E7"): (3, ""), ("E7", "A1D6"): (3, ""), ("E7", "T1E6"): (3, ""), ("E6", "F4"): (4, ""),
    ("E6", "T1D5"): (3, ""), ("F4", "B4"): (4, ""), ("F4", "D4"): (3, ""), ("G2", "A2"): (3, ""),
    ("F4", "C4"): (4, "(p2)"), ("F4", "~D4"): (3, "(p2)"), ("G2", "~A2"): (3, "(p3)"),
    ("E6", "C4"): _TORUS_INVERTING, ("F4", "A1C3"): _TORUS_INVERTING,
    ("E6", "A1A5"): ((3, ""), _OPEN_P2),
    ("E8", "D8"): (_TORUS_INVERTING, (2, "(p2)")),
    ("E7", "A7"): (_TORUS_INVERTING, _OPEN_P2),
    ("G2", "A1~A1"): (_TORUS_INVERTING, _OPEN_P2),
}


def _exceptional_nonparabolic(spec: ActionSpec) -> BaseTriple:
    g = spec.family
    label = rootsys.normalize_label(spec.subgroup.label)
    if (g, label) in _OUT_OF_SCOPE_LABELS:
        raise UnsupportedLabelError(
            f"{spec.subgroup.label} < {g}: validated but outside the formula tables"
        )
    if label.startswith("T") and label[1:].isdigit() and int(label[1:]) == rootsys.group_rank(g):
        return torus_normalizer_triple(ActionSpec(g, TorusNormalizer(), char=spec.char))
    labels = _EXC_LABELS[g]
    if label not in labels:
        raise SpecValidationError(f"unknown maximal subgroup label {label!r} for {g}")
    if labels[label] in _RULED_OUT[spec.char]:
        raise SpecValidationError(f"{label} < {g} requires {labels[label]}")
    value, suffix = _EXC_VALUES.get((g, label), (2, "(generic)"))
    if type(suffix) is not str:  # a p odd / p = 2 split
        two = _IS_TWO[spec.char]
        if two is None:
            raise SpecValidationError(f"{g} with {label}: give a characteristic case")
        value, suffix = suffix if two else value
    return _settle(value, f"nonsubspace:{g}.{label}{suffix}")


# ---------------------------------------------------------------------------
# Parabolic actions of the exceptional groups

#: (value, asterisk) per node; an asterisk widens the triple to [c-1, c].
PARABOLIC_TABLE: dict[str, tuple[tuple[int, bool], ...]] = {
    "E8": ((4, False), (3, False), (3, False), (3, False), (3, False), (3, False), (4, False), (5, False)),
    "E7": ((5, False), (4, False), (4, False), (3, False), (3, False), (4, False), (6, False)),
    "E6": ((6, False), (5, False), (4, False), (4, True), (4, False), (6, False)),
    "F4": ((5, True), (4, True), (4, True), (5, True)),
    "G2": ((4, True), (4, True)),
}


def parabolic_triple(group: str, node: int) -> BaseTriple:
    """Triple for an exceptional group acting on G/P_node."""
    if group not in PARABOLIC_TABLE:
        raise SpecValidationError(f"parabolic table covers exceptional groups only, not {group!r}")
    table = PARABOLIC_TABLE[group]
    if not 1 <= node <= len(table):
        raise SpecValidationError(f"{group} has no node {node}")
    c, star = table[node - 1]
    tag = f"parabolic:{group}.P{node}"
    if star:
        return _settle(((c - 1, c),) * 3, tag + " (open)")
    return _settle(c, tag)


def parabolic_table_rows() -> list[tuple[str, int, str]]:
    rows = []
    for g, entries in PARABOLIC_TABLE.items():
        for node, (c, star) in enumerate(entries, start=1):
            rows.append((g, node, f"{c}*" if star else str(c)))
    return rows


# ---------------------------------------------------------------------------
# Torus normalizers

def _simple_rank(spec: ActionSpec) -> int:
    """Rank of the group of ``spec``, rejecting the classical ones that are
    not simple (SO_2, SO_4) or not defined (Sp with odd n)."""
    if spec.family in EXCEPTIONAL_FAMILIES:
        return rootsys.group_rank(spec.family)
    if spec.family == "Sp" and spec.n % 2:
        raise SpecValidationError("Sp needs even n")
    if spec.family == "SO" and spec.n in (2, 4):
        raise SpecValidationError(f"SO_{spec.n} is not simple")
    return spec.n - 1 if spec.family == "SL" else spec.n // 2


def torus_normalizer_triple(spec: ActionSpec) -> BaseTriple:
    """Action on cosets of a maximal-torus normalizer: generically base 2,
    except the rank-one groups (SL_2 = Sp_2 and SO_3) where a generic pair
    has stabilizer of order 2."""
    if not isinstance(spec.subgroup, TorusNormalizer):
        raise SpecValidationError("torus_normalizer_triple needs a TorusNormalizer subgroup")
    if _simple_rank(spec) == 1:
        return _settle((2, 2, 3), "torus-normalizer:rank1 (generic pair stabilizer order 2)")
    return _settle(2, f"torus-normalizer:{spec.family}")


# ---------------------------------------------------------------------------
# Top-level dispatch

_CLASSICAL_PARABOLIC = "classical parabolic actions are subspace actions; use a Subspace subgroup"


def base_triple(spec: ActionSpec) -> BaseTriple:
    """Dispatch on the subgroup descriptor."""
    if isinstance(spec.subgroup, Subspace):
        return subspace_triple(spec)
    if isinstance(spec.subgroup, Parabolic):
        if spec.family in EXCEPTIONAL_FAMILIES:
            return parabolic_triple(spec.family, spec.subgroup.node)
        raise SpecValidationError(_CLASSICAL_PARABOLIC)
    if isinstance(spec.subgroup, TorusNormalizer):
        return torus_normalizer_triple(spec)
    return nonsubspace_triple(spec)


# ---------------------------------------------------------------------------
# Dimension helpers (for consistency cross-checks against the lower bound)

def spec_dims(spec: ActionSpec) -> tuple[int, int] | None:
    """(dim G, dim Omega) where computable; None when the label is not
    modelled.  Used to cross-check the orbit-dimension lower bound."""
    dim_g = rootsys.group_dim(spec.family, spec.n)
    if isinstance(spec.subgroup, TorusNormalizer):
        return dim_g, dim_g - _simple_rank(spec)
    if spec.family in EXCEPTIONAL_FAMILIES:
        if isinstance(spec.subgroup, Parabolic):
            return dim_g, rootsys.parabolic_dim(spec.family, spec.subgroup.node)
        if isinstance(spec.subgroup, NonSubspace):
            try:
                dim_h = rootsys.subgroup_dim(spec.subgroup.label)
            except rootsys.LabelError:
                return None
            return dim_g, dim_g - dim_h
        return None
    n = spec.n
    sub = spec.subgroup
    if isinstance(sub, Parabolic):
        raise SpecValidationError(_CLASSICAL_PARABOLIC)
    if isinstance(sub, Subspace):
        d = sub.d
        if spec.family == "SL":
            return dim_g, d * (n - d)
        if sub.flavor == "nondeg":
            return dim_g, dim_g - rootsys.group_dim(spec.family, d) - rootsys.group_dim(spec.family, n - d)
        if sub.flavor == "totally_singular":
            if spec.family == "Sp":
                return dim_g, d * (n - d) - d * (d - 1) // 2
            return dim_g, d * (n - d) - d * (d + 1) // 2
        if sub.flavor == "On_in_Spn":
            return dim_g, n
        if sub.flavor == "nonsingular_1space":
            return dim_g, n - 1
        return None
    parsed = classical_label(rootsys.normalize_label(sub.label), n)
    if parsed is None:
        return None
    base, size, t = parsed
    if size is None and base not in EXCEPTIONAL_FAMILIES:
        return None  # the Sp4xSp2 tensor stabilizer is not modelled
    # the scalars of GL factors are not in SL
    dim_h = t * rootsys.group_dim(base, size) - (1 if spec.family == "SL" and base == "GL" else 0)
    return dim_g, dim_g - dim_h


# ---------------------------------------------------------------------------
# Table emitters

def table_c_rows() -> list[tuple[str, str, str, int]]:
    """The classical non-subspace actions with base size above 2, with the
    value pulled from the dispatcher at a witness instance."""
    rows = [
        ("SL_n", "GL_{n/2} wr S2", "n >= 4", ("SL", 4, "GL_{n/2} wr S2", "odd")),
        ("SL_n", "Sp_n", "n = 6", ("SL", 6, "Sp_n", "odd")),
        ("SL_n", "Sp_n", "n >= 8", ("SL", 8, "Sp_n", "odd")),
        ("Sp_n", "Sp_{n/2} wr S2", "n >= 8", ("Sp", 8, "Sp_{n/2} wr S2", "odd")),
        ("Sp_n", "Sp_{n/3} wr S3", "n = 6", ("Sp", 6, "Sp_{n/3} wr S3", "odd")),
        ("Sp_n", "G2", "(n,p) = (6,2)", ("Sp", 6, "G2", "2")),
        ("SO_n", "GL_{n/2}", "n >= 10", ("SO", 10, "GL_{n/2}", "odd")),
        ("SO_n", "G2", "n = 7, p != 2", ("SO", 7, "G2", "odd")),
    ]
    return [(g, h, cond, nonsubspace_triple(ActionSpec(fam, NonSubspace(label), n=n, char=char)).b.lo)
            for g, h, cond, (fam, n, label, char) in rows]


def table_e_rows() -> list[tuple[str, str, str, int]]:
    """The exceptional non-parabolic actions with base size above 2."""
    rows = [
        ("E8", "A1E7", "", "any"),
        ("E7", "A1D6", "", "any"),
        ("E7", "T1E6", "", "any"),
        ("E6", "F4", "", "any"),
        ("E6", "D5T1", "", "any"),
        ("E6", "A1A5", "p != 2", "odd"),
        ("F4", "B4", "", "any"),
        ("F4", "C4", "p = 2", "2"),
        ("F4", "D4", "", "any"),
        ("F4", "~D4", "p = 2", "2"),
        ("G2", "A2", "", "any"),
        ("G2", "~A2", "p = 3", "3"),
    ]
    return [(g, h, cond, nonsubspace_triple(ActionSpec(g, NonSubspace(h), char=char)).b.lo)
            for g, h, cond, char in rows]
