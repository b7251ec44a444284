"""Command-line interface: one binary, five subcommands.

    bounds   --dataset <name> [--refine-long-root] [--mode b0|b1] [--char p]
    formula  --spec '<json>'
    verify   --spec '<json>' --c N [--trials N] [--seed N] [--prime P]
    finite   --family PGL|SL|Sp --n N --q Q --action <name> --mode base|order [--bound N]
    emit     table:parab|table:ep|table:c|table:e [--format csv|json]

``--dataset`` takes a shipped dataset name, a name under
``$BASESIZE_DATA_DIR`` or an absolute path; a relative path is looked up
in those two places, not in the working directory.
``finite`` runs projective-line and torus-normalizer on PGL_2,
decomposition-pairs on Sp_4 and two-symmetric-forms on SL_2; its
``config`` holds only the inputs the run reads.  ``bounds`` checks
``--char`` in both modes, 0 or a prime equal to the characteristic a
dataset header fixes; ``config`` records the one used as ``char``.

Machine output is JSON on stdout (CSV for tables); errors go to stderr;
``verify`` records carry the size of their first solve (no rows when all
parts head the basis) under ``diagnostics``, outside ``outputs``, with
``certified`` from ``genstab.certificate`` when a subspace spec reaches
projective_dim 0: ``--c`` then bounds b1 (SL) or b0 (Sp, SO).  Exit
codes: 0 success, 2 request error, 3 inconclusive bound, and 1 only when
stdout closes before the output is written.  The type of an error decides
its code: every request the package cannot answer raises a ``ValueError``
(or ``FileNotFoundError``), which ``main`` alone turns into exit 2 and
one ``error:`` line; a traceback is a bug.  Exit 2 covers malformed spec
JSON and datasets, a dataset characteristic other than "any", 0 or a
prime, a record ``element_order`` other than a prime (or 0, for unipotent
records only), a ``--prime``, ``--q`` or nonzero ``--char`` that is not a
prime below 2^31, a ``verify`` spec outside the classical subspace actions
(an exceptional family among them), a ``--char`` that contradicts the
dataset, a ``finite`` family or ``--n`` other than the action's, a
``--trials`` below 1 or a negative ``--seed`` on every ``verify`` route, a
``--bound`` or a module's ``--c`` below 1, a module ``n`` below 2, a
nondegenerate part of odd dimension for SO of even n at ``--prime 2``, SO
of odd n at ``--prime 2``, a ``verify`` prime (``--prime`` or a default
prime) that the spec's ``char`` rules out, on either side of p = 2 or of
p = 3 (p = 5 too for ``"not235"``), a ``--tuple-length`` that no tuple of
points, or of disjoint point pairs, can have, a verifier sampling failure
(``sym2`` forms at ``--prime 2`` among them) and a finite group that
outgrows ``--bound``.  Every run echoes the seeds and primes it used.
``emit`` output is byte-stable: it contains no timing or environment data.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import time
from fractions import Fraction

# genstab and finitecheck, and numpy with them, load inside the subcommands
# that use them, so formula, bounds and emit start without numpy
from . import __version__, bounds, classdata, formulas, rootsys

EXIT_OK = 0
EXIT_OUTPUT_CLOSED = 1
EXIT_SPEC_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _emit_csv(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# the row functions are looked up at call time, so a wrapper set on their
# module (as perfbench/tracer.py sets) sees the call
_TABLES = {
    "table:parab": (["group", "node", "dim"], lambda: rootsys.parabolic_dim_rows()),
    "table:ep": (["group", "node", "value"], lambda: formulas.parabolic_table_rows()),
    "table:c": (["group", "subgroup", "conditions", "b"], lambda: formulas.table_c_rows()),
    "table:e": (["group", "subgroup", "conditions", "b"], lambda: formulas.table_e_rows()),
}


def emit_table(name: str, fmt: str = "csv") -> str:
    if name not in _TABLES:
        raise formulas.SpecValidationError(f"unknown table {name!r}")
    header, rows = _TABLES[name][0], _TABLES[name][1]()
    if fmt == "csv":
        return _emit_csv(header, rows)
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], sort_keys=True) + "\n"
    raise formulas.SpecValidationError(f"unknown format {fmt!r}")


def _run_record(subcommand: str, config: dict, outputs: dict, started: float,
                diagnostics: dict | None = None) -> dict:
    canonical = json.dumps(config, sort_keys=True)
    record = {
        "subcommand": subcommand,
        "config": config,
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
        "version": __version__,
        "config_hash": hashlib.sha256((__version__ + canonical).encode()).hexdigest()[:16],
    }
    if diagnostics is not None:
        record["diagnostics"] = diagnostics
    return record


def _bound_to_json(result) -> tuple[dict, int]:
    inconclusive = isinstance(result, bounds.Inconclusive)
    out = {k: str(v) if v is None or isinstance(v, Fraction) else v
           for k, v in dataclasses.asdict(result).items()}
    return {**out, "inconclusive": inconclusive}, EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def cmd_bounds(args) -> int:
    started = time.monotonic()
    ds = classdata.load_dataset(classdata.dataset_path(args.dataset))
    # the characteristic is settled before the mode; header and --char agree
    p = None if ds.characteristic in ("any", "") else int(ds.characteristic)
    if args.char is not None:
        if args.char != 0:
            classdata.require_prime("--char", args.char)
        if p is not None and args.char != p:
            raise formulas.SpecValidationError(
                f"--char {args.char} contradicts the characteristic {p} of dataset {args.dataset}")
        p = args.char
    if args.mode == "b1":
        result = bounds.upper_bound_b1(ds.records, long_root_refinement=args.refine_long_root)
    elif p is None:
        raise formulas.SpecValidationError("--mode b0 needs --char (dataset has no fixed characteristic)")
    else:
        result = bounds.upper_bound_b0(ds.records, p=p)
    out, code = _bound_to_json(result)
    config = {
        "dataset": str(args.dataset),
        "group": ds.group,
        "subgroup": ds.subgroup_label,
        "mode": args.mode,
        "char": p,
        "refine_long_root": bool(args.refine_long_root),
        "sup_ratio": str(ds.sup_ratio),
    }
    print(json.dumps(_run_record("bounds", config, out, started), sort_keys=True))
    return code


def _load_spec(text: str):
    try:
        return json.loads(text)
    except RecursionError as e:
        raise formulas.SpecValidationError("spec JSON is nested too deeply") from e


def cmd_formula(args) -> int:
    started = time.monotonic()
    spec_obj = _load_spec(args.spec)
    spec = formulas.spec_from_json(spec_obj)
    triple = formulas.base_triple(spec)
    out = triple.to_json()
    print(json.dumps(_run_record("formula", {"spec": spec_obj}, out, started), sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import genstab

    started = time.monotonic()
    spec_obj = _load_spec(args.spec)
    if args.trials < 1:
        raise formulas.SpecValidationError("need --trials >= 1")
    if args.prime is not None:
        classdata.require_prime("--prime", args.prime)
    primes = (args.prime,) if args.prime else genstab.PRIMES
    if isinstance(spec_obj, dict) and "module" in spec_obj:
        n = formulas.json_field(spec_obj, "n", int, "module spec")
        rep = genstab.module_stabilizer_dim(spec_obj["module"], n, args.c, seed=args.seed, p=primes[0])
    else:
        spec = formulas.spec_from_json(spec_obj)
        if spec.family not in formulas.CLASSICAL_FAMILIES or not isinstance(spec.subgroup, formulas.Subspace):
            raise formulas.SpecValidationError("verify handles classical subspace actions")
        for p in primes:
            formulas.require_char_prime(spec, p)
        route = (spec.family, spec.n, spec.subgroup.d, spec.subgroup.flavor, args.c)
        rep = genstab.stabilizer_report(*route, seed=args.seed, trials=args.trials, primes=primes)
    # config echoes the primes and trials that ran, which the route chose
    config = {"spec": spec_obj, "c": args.c, "trials": rep.trials, "seed": args.seed, "primes": list(rep.primes)}
    out = dataclasses.asdict(rep)
    diagnostics = out.pop("first_system")
    if certified := genstab.certificate(rep, args.c):
        diagnostics["certified"] = certified
    print(json.dumps(_run_record("verify", config, out, started, diagnostics=diagnostics), sort_keys=True))
    return EXIT_OK


#: actions of ``finite``: (family, n, finitecheck builder of the permutation
#: action, or None for the matrix computation of two-symmetric-forms)
_FINITE_ACTIONS = {
    "projective-line": ("PGL", 2, "pgl2_line_action"),
    "torus-normalizer": ("PGL", 2, "pgl2_pairs_action"),
    "decomposition-pairs": ("Sp", 4, "sp4_decomposition_action"),
    "two-symmetric-forms": ("SL", 2, None),
}


def cmd_finite(args) -> int:
    from . import finitecheck

    started = time.monotonic()
    if args.bound is None:
        args.bound = finitecheck.DEFAULT_ELEMENT_BOUND
    if args.bound < 1:
        raise formulas.SpecValidationError("need --bound >= 1")
    classdata.require_prime("--q", args.q)
    # config holds only the inputs the run reads, so equal work gets one config_hash
    config = {"family": args.family, "n": args.n, "q": args.q, "action": args.action, "bound": args.bound}
    family, n, builder = _FINITE_ACTIONS[args.action]
    if (args.family, args.n) != (family, n):
        raise formulas.SpecValidationError(f"{args.action} runs on {family} with n={n}")
    if builder is None:  # one computation, whatever the mode
        config["seed"] = args.seed
        order, stab = finitecheck.sl2_two_form_stabilizer(args.q, seed=args.seed, bound=args.bound)
        out = {"stabilizer_order": order, "elements": stab.tolist()}
    elif args.mode == "base":
        config["mode"] = "base"
        action = getattr(finitecheck, builder)(args.q, bound=args.bound)
        out = {"base_size": finitecheck.exact_base_size(action), "points": len(action.points),
               "group_order": action.order}
    else:
        config.update(mode="order", seed=args.seed, tuple_length=args.tuple_length)
        action = getattr(finitecheck, builder)(args.q, bound=args.bound)
        length, points = args.tuple_length, len(action.points)
        if not 0 <= length <= points:
            raise formulas.SpecValidationError(f"--tuple-length {length} is not in 0..{points}, the point count")
        draw = finitecheck.disjoint_pairs if args.action == "torus-normalizer" else None
        order = finitecheck.generic_tuple_stabilizer_order(action, length, seed=args.seed, general_position=draw)
        out = {"generic_tuple_stabilizer_order": order, "tuple_length": length,
               "points": points, "group_order": action.order}
    print(json.dumps(_run_record("finite", config, out, started), sort_keys=True))
    return EXIT_OK


def cmd_emit(args) -> int:
    sys.stdout.write(emit_table(args.table, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="basesize", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="subcommand")

    b = sub.add_parser("bounds", help="criterion bounds from a class-dimension dataset")
    b.add_argument("--dataset", required=True)
    b.add_argument("--refine-long-root", action="store_true")
    b.add_argument("--mode", choices=("b0", "b1"), default="b1")
    b.add_argument("--char", type=int, default=None)
    b.set_defaults(func=cmd_bounds)

    f = sub.add_parser("formula", help="closed-form base-size triple for an action spec")
    f.add_argument("--spec", required=True)
    f.set_defaults(func=cmd_formula)

    v = sub.add_parser("verify", help="numeric generic-stabilizer dimension")
    v.add_argument("--spec", required=True)
    v.add_argument("--c", type=int, required=True)
    v.add_argument("--trials", type=int, default=5)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--prime", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    fin = sub.add_parser("finite", help="exact base sizes for small finite groups")
    fin.add_argument("--family", required=True)
    fin.add_argument("--n", type=int, required=True)
    fin.add_argument("--q", type=int, required=True)
    fin.add_argument("--action", choices=tuple(_FINITE_ACTIONS), required=True)
    fin.add_argument("--mode", choices=("base", "order"), default="base")
    fin.add_argument("--seed", type=int, default=0)
    fin.add_argument("--tuple-length", type=int, default=2)
    fin.add_argument("--bound", type=int, default=None)
    fin.set_defaults(func=cmd_finite)

    e = sub.add_parser("emit", help="reproduce a reference table byte-stably")
    e.add_argument("table")
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.set_defaults(func=cmd_emit)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "subcommand", None):
        ap.print_usage(sys.stderr)
        return EXIT_SPEC_ERROR
    try:
        return args.func(args)
    # the one place that turns a request error into exit 2: every such
    # error of the package is a ValueError, json.JSONDecodeError,
    # genstab.SamplingError and finitecheck.EnumerationBoundExceeded among them
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC_ERROR


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so the flush at
        # interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        code = EXIT_OUTPUT_CLOSED
    raise SystemExit(code)


if __name__ == "__main__":
    run()
