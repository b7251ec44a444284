"""The benchmark's four workloads: inputs, operations and output checks.

Each workload turns ``--seed`` into a fixed list of operations.  An
operation is one call into ``basesize`` plus a check of its output against
a value that does not depend on the seed; a mismatch or an exception makes
the operation fail, it never stops the run.  Operations listed in
``ledger.json`` are known defects of the program: they are run and checked
like any other, and their failures are reported, but they do not make the
run incorrect.

Why these four:

* ``verify-large``: three big stabilizer solves where elimination in
  ``linalg`` is nearly all the time and sampling hardly runs.
* ``b0-sweep``: 118 ``estimate_b0`` calls with many small systems, so the
  sampler, per-call overhead and the loop over c show.
* ``finite``: exact base sizes and stabilizer orders of small permutation
  groups (PGL2(q) on lines and on point pairs), where group closure is
  most of the time and ``genstab`` does not run.
* ``catalogue``: microsecond closed-form, bound and table calls, where
  ``formulas``, ``bounds``, ``classdata`` and ``rootsys`` dominate.

Every workload also runs the same five CLI subcommands in subprocesses.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from basesize import bounds, classdata, cli, finitecheck as fc, formulas as fm, genstab
from basesize.formulas import ActionSpec, NonSubspace, Parabolic, Subspace, TorusNormalizer

NAMES = ("verify-large", "b0-sweep", "finite", "catalogue")

LEDGER: dict[str, dict[str, str]] = json.loads(
    (Path(__file__).resolve().parent / "ledger.json").read_text()
)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


@dataclass(frozen=True)
class CliCall:
    subcommand: str
    args: tuple[str, ...]
    check: Callable[[str], str | None]  # applied to stdout after exit code 0


def _sub_seed(seed: int, i: int) -> int:
    return (seed * 0x9E3779B1 + i) % 2**32


def _expect(**want) -> Callable[[object], str | None]:
    def check(out) -> str | None:
        bad = [f"{k}={getattr(out, k)!r} (want {v!r})" for k, v in want.items() if getattr(out, k) != v]
        return "; ".join(bad) or None

    return check


# ---------------------------------------------------------------------------
# verify-large

# (family, n, d, flavor, c) -> (algebra_dim, projective_dim); generic values
VERIFY_CASES = {
    ("Sp", 20, 4, "totally_singular", 5): (0, 0),
    ("SO", 20, 4, "totally_singular", 5): (0, 0),
    ("SL", 24, 6, "linear", 5): (36, 35),
}
VERIFY_CASES_TINY = {
    ("SL", 6, 2, "linear", 3): (12, 11),
    ("Sp", 8, 2, "totally_singular", 3): (4, 4),
}


def verify_large(seed: int, tiny: bool) -> list[Op]:
    ops = []
    for i, ((fam, n, d, flavor, c), (alg, proj)) in enumerate(
        (VERIFY_CASES_TINY if tiny else VERIFY_CASES).items()
    ):
        s = _sub_seed(seed, i)
        ops.append(Op(
            f"{fam} n={n} d={d} {flavor} c={c}",
            lambda fam=fam, n=n, d=d, flavor=flavor, c=c, s=s: genstab.stabilizer_report(
                fam, n, d, flavor, c, seed=s, trials=1, primes=genstab.PRIMES
            ),
            _expect(algebra_dim=alg, projective_dim=proj, stable=True),
        ))
    return ops


# ---------------------------------------------------------------------------
# b0-sweep


def sweep_cases(tiny: bool) -> list[tuple[str, int, int, str]]:
    """SL n=3..12 with d <= n/2; Sp totally singular and nondegenerate for
    even n=4..12; SO totally singular and nondegenerate for n=7..12."""
    if tiny:
        return [("SL", 4, 2, "linear"), ("Sp", 6, 2, "nondeg"), ("SO", 7, 2, "totally_singular")]
    cases = [("SL", n, d, "linear") for n in range(3, 13) for d in range(1, n // 2 + 1)]
    for n in range(4, 13, 2):
        cases += [("Sp", n, d, "totally_singular") for d in range(1, n // 2 + 1)]
        cases += [("Sp", n, d, "nondeg") for d in range(2, n // 2 + 1, 2)]
    for n in range(7, 13):
        cases += [("SO", n, d, "totally_singular") for d in range(1, n // 2 + 1)]
        cases += [("SO", n, d, "nondeg") for d in range(1, n // 2 + 1)]
    return cases


def _b0_check(lo: int, hi: int, certified: int) -> Callable[[object], str | None]:
    def check(est) -> str | None:
        if est.value is None:
            return f"not found by c_max={est.c_max}"
        if est.value < certified:
            return f"b0={est.value} below the certified bound {certified}"
        if not lo <= est.value <= hi:
            return f"b0={est.value} outside the formula interval [{lo},{hi}]"
        return None

    return check


def b0_sweep(seed: int, tiny: bool) -> list[Op]:
    ops = []
    for i, (fam, n, d, flavor) in enumerate(sweep_cases(tiny)):
        spec = ActionSpec(fam, Subspace(d, flavor), n=n, char="any" if fam == "SL" else "odd")
        b0 = fm.base_triple(spec).b0
        certified = bounds.lower_bound_b0(*fm.spec_dims(spec))
        s = _sub_seed(seed, i)
        ops.append(Op(
            f"{fam} n={n} d={d} {flavor}",
            lambda fam=fam, n=n, d=d, flavor=flavor, s=s: genstab.estimate_b0(
                fam, n, d, flavor, c_max=n + 2, trials=1, seed=s, primes=genstab.PRIMES[:1]
            ),
            _b0_check(b0.lo, b0.hi, certified),
        ))
    return ops


# ---------------------------------------------------------------------------
# finite


def _finite_op(label, build, want_base, cross, seed, pairs=False):
    """Build an action, find its exact base size, cross-check it against a
    formula triple and, for point pairs, the generic pair stabilizer."""

    def run():
        action = build()
        base = fc.exact_base_size(action, seed=seed)
        relation = fc.cross_check_relations(cross[0], base, q=cross[1])
        order = None
        if pairs:
            order = fc.generic_tuple_stabilizer_order(
                action, 2, seed=seed, general_position=fc.disjoint_pairs
            )
        return base, relation["ok"], order

    def check(out):
        base, ok, order = out
        bad = []
        if base != want_base:
            bad.append(f"base size {base} (want {want_base})")
        if not ok:
            bad.append("cross_check_relations failed")
        if pairs and order != 2:
            bad.append(f"generic pair stabilizer order {order} (want 2)")
        return "; ".join(bad) or None

    return Op(label, run, check)


def finite(seed: int, tiny: bool) -> list[Op]:
    line = fm.subspace_triple(ActionSpec("SL", Subspace(1), n=2))
    pairs = fm.torus_normalizer_triple(ActionSpec("SL", TorusNormalizer(), n=2))
    # Every op stays under 0.1 s, so a run samples each one about a hundred
    # times and its best time reflects the machine, not the moment.  Larger
    # actions (point pairs for q = 17..31, lines for q = 23..29, the Sp4(3)
    # decomposition pairs and SL2(31) two-form stabilizers: 0.2-4.5 s each,
    # up to 270 MB) left a few to a dozen samples per op, and their best
    # times moved 15-40 % between runs on a host with noisy neighbours.
    line_qs, pair_qs = ((5,), (7,)) if tiny else ((11, 13, 17, 19), (7, 11, 13))
    ops = []
    for q in line_qs:
        ops.append(_finite_op(f"PGL2({q}) line", lambda q=q: fc.pgl2_line_action(q), 3, (line, q),
                              _sub_seed(seed, q)))
    for q in pair_qs:
        ops.append(_finite_op(f"PGL2({q}) pairs", lambda q=q: fc.pgl2_pairs_action(q), 2, (pairs, q),
                              _sub_seed(seed, q), pairs=True))
    return ops


# ---------------------------------------------------------------------------
# catalogue

SUITE_SEED = 0xBA5E
SUITE_SIZE = 200

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
    """One draw from the property-suite distribution; consumes the RNG in
    the same order as the tier-1 property test, so the same seed gives the
    same suite."""
    kind = rng.randrange(6)
    try:
        if kind == 0:
            n = rng.randint(2, 14)
            return ActionSpec("SL", Subspace(rng.randint(1, max(1, n // 2))), n=n)
        if kind == 1:
            n = 2 * rng.randint(2, 7)
            if rng.random() < 0.5:
                d = 2 * rng.randint(1, n // 4) if n >= 8 else 2
                return ActionSpec("Sp", Subspace(d, "nondeg"), n=n, char=rng.choice(["odd", "2"]))
            d = rng.randint(1, n // 2)
            return ActionSpec("Sp", Subspace(d, "totally_singular"), n=n, char=rng.choice(["odd", "2"]))
        if kind == 2:
            n = rng.randint(7, 16)
            char = "odd" if n % 2 else rng.choice(["odd", "2"])
            flavor = rng.choice(["nondeg", "totally_singular"])
            d = rng.randint(1, n // 2)
            if char == "2" and flavor == "nondeg" and d != 1 and d % 2:
                d = 1
            return ActionSpec("SO", Subspace(d, flavor), n=n, char=char)
        if kind == 3:
            g = rng.choice(list(fm.PARABOLIC_TABLE))
            return ActionSpec(g, Parabolic(rng.randint(1, len(fm.PARABOLIC_TABLE[g]))))
        if kind == 4:
            g, label, char = rng.choice(_EXC_LABEL_POOL)
            return ActionSpec(g, NonSubspace(label), char=char)
        fam, label, char, pick = rng.choice(_CLASSICAL_LABEL_POOL)
        return ActionSpec(fam, NonSubspace(label), n=pick(rng), char=char)
    except fm.SpecValidationError:
        return None


def property_suite(seed: int, size: int) -> list[ActionSpec]:
    """``size`` specs accepted by ``base_triple``; seed 0 reproduces the
    tier-1 property suite (seed 0xBA5E)."""
    rng = random.Random(SUITE_SEED + seed)
    specs: list[ActionSpec] = []
    while len(specs) < size:
        spec = _random_spec(rng)
        if spec is None:
            continue
        try:
            fm.base_triple(spec)
        except fm.SpecValidationError:
            continue
        specs.append(spec)
    return specs


def spec_label(spec: ActionSpec) -> str:
    sub = spec.subgroup
    if isinstance(sub, Subspace):
        return f"{spec.family} n={spec.n} d={sub.d} {sub.flavor}"
    return f"{spec.family} n={spec.n} {sub} char={spec.char}"


def _triple_check(t) -> str | None:
    if t.b0.lo <= t.b.lo <= t.b1.lo and t.b0.hi <= t.b.hi <= t.b1.hi:
        return None
    return f"triple not ordered: {t.to_json()}"


def _dims_check(b0_lo: int) -> Callable[[object], str | None]:
    def check(dims) -> str | None:
        if dims is None or bounds.lower_bound_b0(*dims) <= b0_lo:
            return None
        return f"b0.lo={b0_lo} below the certified bound {bounds.lower_bound_b0(*dims)}"

    return check


# dataset -> (b1 without the long-root refinement, b1 with it)
PINNED_B1 = {
    "e6_f4": (4, 4), "e7_a7_p2": (3, 3), "e8_a1e7": (3, 3), "f4_b4": (5, 4), "g2_na2": (4, 3),
}
# datasets with a fixed characteristic -> b0 upper bound
PINNED_B0 = {"e7_a7_p2": 2}
TABLE_SHA256 = {
    "table:parab": "ae346038952acce2d5aa90ef71b9bfa907f5fb9e509b53ebe0b70f93044ac3fd",
    "table:ep": "9650272202d8bec89e86ebfb4eb464d4836cf785c19337c836c91e21986b0303",
    "table:c": "e2d4035cf90de06fb56455965f56b22d9d7fd8a3a956c7d60e14deb1497b7c32",
    "table:e": "7d2c4ccbb7d6a7ae3320d333a6d3aa1753ecbb89bfdc4ea9cceb41add24ba519",
}


def _value_check(want: int) -> Callable[[object], str | None]:
    def check(res) -> str | None:
        got = getattr(res, "value", None)
        return None if got == want else f"bound {got!r} ({type(res).__name__}), want {want}"

    return check


def _sha_check(want: str) -> Callable[[str], str | None]:
    return lambda text: None if hashlib.sha256(text.encode()).hexdigest() == want else "table bytes changed"


def catalogue(seed: int, tiny: bool) -> list[Op]:
    ops = []
    for spec in property_suite(seed, 20 if tiny else SUITE_SIZE):
        label = spec_label(spec)
        ops.append(Op(label, lambda spec=spec: fm.base_triple(spec), _triple_check))
        ops.append(Op(label, lambda spec=spec: fm.spec_dims(spec), _dims_check(fm.base_triple(spec).b0.lo)))
    for name in classdata.shipped_datasets():
        ds = classdata.load_shipped(name)
        for refine, want in zip((False, True), PINNED_B1[name]):
            ops.append(Op(
                f"b1 {name} refine={refine}",
                lambda recs=ds.records, refine=refine: bounds.upper_bound_b1(recs, long_root_refinement=refine),
                _value_check(want),
            ))
        if ds.characteristic not in ("any", ""):
            ops.append(Op(
                f"b0 {name}",
                lambda recs=ds.records, p=int(ds.characteristic): bounds.upper_bound_b0(recs, p=p),
                _value_check(PINNED_B0[name]),
            ))
    for table, sha in TABLE_SHA256.items():
        ops.append(Op(f"emit {table}", lambda table=table: cli.emit_table(table), _sha_check(sha)))
    return ops


SETUP = {"verify-large": verify_large, "b0-sweep": b0_sweep, "finite": finite, "catalogue": catalogue}


# ---------------------------------------------------------------------------
# CLI phase: the five subcommands on small inputs, with their outputs checked


def _json_check(path: tuple[str, ...], want) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        try:
            got = json.loads(stdout)
            for key in path:
                got = got[key]
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable output ({e})"
        return None if got == want else f"{'.'.join(path)}={got!r} (want {want!r})"

    return check


def cli_calls(seed: int) -> list[CliCall]:
    """The timed CLI phase: each subcommand once."""
    return [
        CliCall("formula", ("--spec", '{"family": "E8", "subgroup": {"parabolic": {"i": 1}}}'),
                _json_check(("outputs", "b"), [4, 4])),
        CliCall("bounds", ("--dataset", "f4_b4", "--refine-long-root"),
                _json_check(("outputs", "value"), 4)),
        CliCall("verify", ("--spec", '{"family": "Sp", "n": 6, "char": "odd", '
                                     '"subgroup": {"subspace": {"d": 2, "flavor": "totally_singular"}}}',
                           "--c", "3", "--trials", "1", "--seed", str(seed)),
                _json_check(("outputs", "projective_dim"), 1)),
        CliCall("finite", ("--family", "PGL", "--n", "2", "--q", "7", "--action", "projective-line",
                           "--seed", str(seed)),
                _json_check(("outputs", "base_size"), 3)),
        CliCall("emit", ("table:c",), _sha_check(TABLE_SHA256["table:c"])),
    ]


def traced_cli_calls(seed: int) -> list[CliCall]:
    """The traced CLI round: the timed calls plus the other modes of
    ``bounds``, ``verify`` and ``finite``, so that each of their layers
    shows in the trace of every workload."""
    return cli_calls(seed) + [
        CliCall("bounds", ("--dataset", "e7_a7_p2", "--mode", "b0"), _json_check(("outputs", "value"), 2)),
        CliCall("verify", ("--spec", '{"family": "SO", "n": 7, "char": "odd", '
                                     '"subgroup": {"subspace": {"d": 2, "flavor": "nondeg"}}}',
                           "--c", "2", "--trials", "1", "--seed", str(seed)),
                _json_check(("outputs", "algebra_dim"), 3)),
        CliCall("finite", ("--family", "PGL", "--n", "2", "--q", "7", "--action", "torus-normalizer",
                           "--mode", "order", "--seed", str(seed)),
                _json_check(("outputs", "generic_tuple_stabilizer_order"), 2)),
    ]
