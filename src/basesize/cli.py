"""Command-line interface: one binary, five subcommands.

    bounds   --dataset <file> [--refine-long-root] [--mode b0|b1] [--char p]
    formula  --spec '<json>'
    verify   --spec '<json>' --c N [--trials N] [--seed N] [--prime P] [--rational]
    finite   --family PGL|SL|Sp --n N --q Q --action <name> --mode base|order
    emit     table:parab|table:ep|table:c|table:e [--format csv|json]

Machine output is JSON on stdout (CSV for tables); diagnostics go to
stderr.  Exit codes: 0 success, 2 specification/validation error
(including malformed spec JSON and malformed datasets) or a verifier
sampling failure, 3 inconclusive bound.  Every run echoes its
seeds and primes.  ``emit`` output is byte-stable: it contains no timing
or environment data.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time

import numpy as np

from . import __version__, bounds, classdata, finitecheck, formulas, genstab

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _emit_csv(header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def emit_table(name: str, fmt: str = "csv") -> str:
    from . import rootsys

    if name == "table:parab":
        header, rows = ["group", "node", "dim"], rootsys.parabolic_dim_rows()
    elif name == "table:ep":
        header, rows = ["group", "node", "value"], formulas.parabolic_table_rows()
    elif name == "table:c":
        header, rows = ["group", "subgroup", "conditions", "b"], formulas.table_c_rows()
    elif name == "table:e":
        header, rows = ["group", "subgroup", "conditions", "b"], formulas.table_e_rows()
    else:
        raise formulas.SpecValidationError(f"unknown table {name!r}")
    if fmt == "csv":
        return _emit_csv(header, rows)
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], sort_keys=True) + "\n"
    raise formulas.SpecValidationError(f"unknown format {fmt!r}")


def _run_record(subcommand: str, config: dict, outputs: dict, started: float) -> dict:
    canonical = json.dumps(config, sort_keys=True)
    return {
        "subcommand": subcommand,
        "config": config,
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - started, 6),
        "version": __version__,
        "config_hash": hashlib.sha256((__version__ + canonical).encode()).hexdigest()[:16],
    }


def _bound_to_json(result) -> tuple[dict, int]:
    if isinstance(result, bounds.Inconclusive):
        return (
            {
                "kind": result.kind,
                "inconclusive": True,
                "reason": result.reason,
                "sup_ratio": str(result.sup_ratio),
            },
            EXIT_INCONCLUSIVE,
        )
    return (
        {
            "kind": result.kind,
            "inconclusive": False,
            "value": result.value,
            "witness": result.witness,
            "q_at_value": str(result.q_at_value),
        },
        EXIT_OK,
    )


def cmd_bounds(args) -> int:
    started = time.monotonic()
    ds = classdata.load_dataset(classdata.dataset_path(args.dataset))
    if args.mode == "b1":
        result = bounds.upper_bound_b1(ds.records, long_root_refinement=args.refine_long_root)
    else:
        if args.char is not None:
            p = args.char
        elif ds.characteristic not in ("any", ""):
            p = int(ds.characteristic)
        else:
            print("error: --mode b0 needs --char (dataset has no fixed characteristic)", file=sys.stderr)
            return EXIT_SPEC_ERROR
        result = bounds.upper_bound_b0(ds.records, p=p)
    out, code = _bound_to_json(result)
    config = {
        "dataset": str(args.dataset),
        "group": ds.group,
        "subgroup": ds.subgroup_label,
        "mode": args.mode,
        "refine_long_root": bool(args.refine_long_root),
        "sup_ratio": str(ds.sup_ratio),
    }
    print(json.dumps(_run_record("bounds", config, out, started), sort_keys=True))
    return code


def cmd_formula(args) -> int:
    started = time.monotonic()
    spec_obj = json.loads(args.spec)
    spec = formulas.spec_from_json(spec_obj)
    triple = formulas.base_triple(spec)
    out = triple.to_json()
    print(json.dumps(_run_record("formula", {"spec": spec_obj}, out, started), sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.monotonic()
    spec_obj = json.loads(args.spec)
    primes = (args.prime,) if args.prime else genstab.PRIMES
    config = {
        "spec": spec_obj,
        "c": args.c,
        "trials": args.trials,
        "seed": args.seed,
        "primes": list(primes),
        "rational": bool(args.rational),
    }
    if isinstance(spec_obj, dict) and "module" in spec_obj:
        n = formulas._json_field(spec_obj, "n", int, "module spec")
        rep = genstab.module_stabilizer_dim(spec_obj["module"], n, args.c, seed=args.seed, p=primes[0])
    else:
        spec = formulas.spec_from_json(spec_obj)
        if not isinstance(spec.subgroup, formulas.Subspace):
            raise formulas.SpecValidationError("verify handles classical subspace actions")
        if args.rational:
            if spec.subgroup.flavor == "totally_singular":
                # parts are sampled mod p, and a part totally singular mod p
                # is not totally singular over Q
                raise genstab.ConfigError("--rational does not handle totally singular parts")
            cfg = genstab.sample_configuration(
                spec.family, spec.n, spec.subgroup.d, spec.subgroup.flavor,
                args.c, seed=args.seed, p=97,
            )
            dim = genstab.stabilizer_algebra_dim_rational(
                [np.asarray(b) for b in cfg.parts], spec.family, spec.n, form=cfg.form
            )
            out = {"algebra": "gl" if spec.family == "SL" else "form", "algebra_dim": dim,
                   "field": "rational", "note": "entries sampled as small integers"}
            print(json.dumps(_run_record("verify", config, out, started), sort_keys=True))
            return EXIT_OK
        rep = genstab.stabilizer_report(
            spec.family, spec.n, spec.subgroup.d, spec.subgroup.flavor,
            args.c, seed=args.seed, trials=args.trials, primes=primes,
        )
    out = {
        "algebra": rep.algebra,
        "algebra_dim": rep.algebra_dim,
        "projective_dim": rep.projective_dim,
        "trials": rep.trials,
        "stable": rep.stable,
        "primes": list(rep.primes),
        "dims_by_prime": [list(x) for x in rep.dims_by_prime],
        "resamples": rep.resamples,
        "seed": rep.seed,
    }
    print(json.dumps(_run_record("verify", config, out, started), sort_keys=True))
    return EXIT_OK


_FINITE_ACTIONS = ("projective-line", "torus-normalizer", "decomposition-pairs", "two-symmetric-forms")


def cmd_finite(args) -> int:
    started = time.monotonic()
    config = {
        "family": args.family, "n": args.n, "q": args.q,
        "action": args.action, "mode": args.mode, "seed": args.seed,
        "tuple_length": args.tuple_length, "bound": args.bound,
    }
    if args.action == "two-symmetric-forms":
        if (args.family, args.n) != ("SL", 2):
            raise formulas.SpecValidationError("two-symmetric-forms runs on SL with n=2")
        order, stab = finitecheck.sl2_two_form_stabilizer(args.q, seed=args.seed)
        out = {"stabilizer_order": order,
               "elements": [[list(r) for r in m] for m in stab]}
        print(json.dumps(_run_record("finite", config, out, started), sort_keys=True))
        return EXIT_OK
    if args.action == "projective-line":
        if args.family not in ("PGL", "SL") or args.n != 2:
            raise formulas.SpecValidationError("projective-line runs on PGL with n=2")
        action = finitecheck.pgl2_line_action(args.q, bound=args.bound)
    elif args.action == "torus-normalizer":
        if args.family not in ("PGL", "SL") or args.n != 2:
            raise formulas.SpecValidationError("torus-normalizer runs on PGL with n=2")
        action = finitecheck.pgl2_pairs_action(args.q, bound=args.bound)
    elif args.action == "decomposition-pairs":
        if args.family != "Sp" or args.n != 4:
            raise formulas.SpecValidationError("decomposition-pairs runs on Sp with n=4")
        action = finitecheck.sp4_decomposition_action(args.q, bound=args.bound)
    else:
        raise formulas.SpecValidationError(f"unknown action {args.action!r}")
    if args.mode == "base":
        value = finitecheck.exact_base_size(action, seed=args.seed)
        out = {"base_size": value, "points": len(action.points), "group_order": action.order}
    else:
        predicate = finitecheck.disjoint_pairs if args.action == "torus-normalizer" else None
        order = finitecheck.generic_tuple_stabilizer_order(
            action, args.tuple_length, seed=args.seed, general_position=predicate
        )
        out = {"generic_tuple_stabilizer_order": order, "tuple_length": args.tuple_length,
               "points": len(action.points), "group_order": action.order}
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
    v.add_argument("--rational", action="store_true")
    v.set_defaults(func=cmd_verify)

    fin = sub.add_parser("finite", help="exact base sizes for small finite groups")
    fin.add_argument("--family", required=True)
    fin.add_argument("--n", type=int, required=True)
    fin.add_argument("--q", type=int, required=True)
    fin.add_argument("--action", choices=_FINITE_ACTIONS, required=True)
    fin.add_argument("--mode", choices=("base", "order"), default="base")
    fin.add_argument("--seed", type=int, default=0)
    fin.add_argument("--tuple-length", type=int, default=2)
    fin.add_argument("--bound", type=int, default=finitecheck.DEFAULT_ELEMENT_BOUND)
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
    except (
        formulas.SpecValidationError,
        formulas.UnsupportedLabelError,
        classdata.DatasetError,
        bounds.BoundInputError,
        genstab.ConfigError,
        genstab.SamplingError,
        FileNotFoundError,
        json.JSONDecodeError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SPEC_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
