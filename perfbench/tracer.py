"""Span tracing around the public functions of the ``basesize`` modules.

The tracer patches module attributes from outside the package, so no code
under ``src/`` changes.  Calls between the package's own functions go
through module globals, so a patched attribute also sees the calls a module
makes to itself.  Spans (name, start, end, parent, op id, phase) are kept in
memory; counts derived from call arguments and results are attached to the
span that produced them.  Self time is a span's duration minus the part its
child spans cover.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

MODULES = ("cli", "formulas", "bounds", "classdata", "rootsys", "genstab", "linalg", "finitecheck")

# Leaf helpers called hundreds of thousands of times inside the finite
# closures; wrapping them would make the traced run mostly tracer.
_SKIP = {"finitecheck.mat_mul", "finitecheck.mat_vec", "finitecheck.identity"}

_I63 = 2**63


@dataclass
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    op: int = -1
    phase: str = ""
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.end - self.start


def _shape(a) -> tuple[int, ...]:
    shape = getattr(a, "shape", None)
    if shape is not None:
        return tuple(shape)
    rows = len(a)
    return (rows, len(a[0]) if rows else 0)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counts computed from the arguments and result of one call.
def _count_nullspace(args, kwargs, out):
    rows, cols = _shape(args[0])
    rank = cols - out
    return {"elim_rows": rows, "elim_cols": cols, "elim_ops": rank * rows * cols}


def _count_matmul(args, kwargs, out):
    inner = _shape(args[0])[-1]
    p = _arg(args, kwargs, 2, "p")
    return {"object": int(inner * (p - 1) * (p - 1) >= _I63)}


def _count_sample(args, kwargs, out):
    c = _arg(args, kwargs, 4, "c")
    return {"accepted": c, "attempted": c + out.resamples, "resamples": out.resamples}


def _count_perm_closure(args, kwargs, out):
    return {"elements": int(out.shape[0]), "bytes": int(out.nbytes)}


def _count_matrix_closure(args, kwargs, out):
    return {"elements": len(out)}


def _count_action(args, kwargs, out):
    return {"points": len(out.points)}


def _count_bound(args, kwargs, out):
    return {"inconclusive": int(type(out).__name__ == "Inconclusive")}


COUNTERS = {
    "linalg.nullspace_dim_mod": _count_nullspace,
    "linalg.matmul_mod": _count_matmul,
    "genstab.sample_configuration": _count_sample,
    "finitecheck.close_perm_group": _count_perm_closure,
    "finitecheck.close_matrix_group": _count_matrix_closure,
    "finitecheck.pgl2_line_action": _count_action,
    "finitecheck.pgl2_pairs_action": _count_action,
    "finitecheck.sp4_decomposition_action": _count_action,
    "bounds.upper_bound_b1": _count_bound,
    "bounds.upper_bound_b0": _count_bound,
}


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` patch
    and restore the module attributes."""

    def __init__(self, phase: str = ""):
        self.spans: list[Span] = []
        self.op = -1
        self.phase = phase
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, qual: str, fn):
        counter = COUNTERS.get(qual)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qual, clock(), parent=stack[-1] if stack else -1, op=self.op, phase=self.phase)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        import importlib

        for short in MODULES:
            mod = importlib.import_module(f"{package.__name__}.{short}")
            for name, obj in list(vars(mod).items()):
                qual = f"{short}.{name}"
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or qual in _SKIP
                ):
                    continue
                self._saved.append((mod, name, obj))
                setattr(mod, name, self._wrap(qual, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()


def write_spans(spans: list[Span], fh) -> None:
    """One JSON object per line; ``parent`` indexes the spans of the same
    phase."""
    for s in spans:
        fh.write(json.dumps(s.__dict__, separators=(",", ":")) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# Per-layer metrics


class _Tree:
    """Child lists over one list of spans (parents are indices into it)."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def covered(self, i: int, names) -> int:
        """Time inside span i covered by its nearest descendants named in
        ``names``."""
        total = 0
        for c in self.children[i]:
            if self.spans[c].name in names:
                total += self.spans[c].dur
            else:
                total += self.covered(c, names)
        return total

    def outermost(self, names) -> list[int]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name not in names:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name not in names:
                p = self.spans[p].parent
            if p < 0:
                out.append(i)
        return out


def _module_names(spans: list[Span], module: str) -> set[str]:
    return {s.name for s in spans if s.name.startswith(module + ".")}


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Additive per-layer totals (seconds and counts) over a list of spans
    whose parent indices refer to the same list."""
    t = _Tree(spans)

    def secs(names) -> float:
        names = {names} if isinstance(names, str) else set(names)
        return sum(spans[i].dur for i in t.outermost(names)) / 1e9

    def calls(name) -> int:
        return sum(1 for s in spans if s.name == name)

    def count(name, key) -> int:
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def minus(names, inner) -> float:
        names = {names} if isinstance(names, str) else set(names)
        inner = {inner} if isinstance(inner, str) else set(inner)
        return sum(spans[i].dur - t.covered(i, inner) for i in t.outermost(names)) / 1e9

    solves_in_estimates = sum(
        1 for s in spans
        if s.name == "genstab.stabilizer_algebra_dim_once" and _has_ancestor(spans, s, "genstab.estimate_b0")
    )
    actions = ("finitecheck.pgl2_line_action", "finitecheck.pgl2_pairs_action",
               "finitecheck.sp4_decomposition_action")
    closures = ("finitecheck.close_perm_group", "finitecheck.close_matrix_group")
    return {
        "linalg.nullspace_dim_s": secs("linalg.nullspace_dim_mod"),
        "linalg.rref_s": secs("linalg.rref_mod"),
        "linalg.rref_calls": calls("linalg.rref_mod"),
        "linalg.matmul_s": secs("linalg.matmul_mod"),
        "linalg.matmul_calls": calls("linalg.matmul_mod"),
        "linalg.inv_s": secs("linalg.inv_mod"),
        "linalg.det_s": secs("linalg.det_mod"),
        "linalg.rank_calls": calls("linalg.rank_mod"),
        "linalg.elim_rows": count("linalg.nullspace_dim_mod", "elim_rows"),
        "linalg.elim_cols": count("linalg.nullspace_dim_mod", "elim_cols"),
        "linalg.elim_ops_computed": count("linalg.nullspace_dim_mod", "elim_ops"),
        "linalg.matmul_object_calls": count("linalg.matmul_mod", "object"),
        "genstab.sample_s": secs("genstab.sample_configuration"),
        "genstab.sample_calls": calls("genstab.sample_configuration"),
        "genstab.resamples": count("genstab.sample_configuration", "resamples"),
        "genstab.parts_accepted": count("genstab.sample_configuration", "accepted"),
        "genstab.parts_attempted": count("genstab.sample_configuration", "attempted"),
        "genstab.solve_s": secs("genstab.stabilizer_algebra_dim_once"),
        "genstab.assemble_s": minus("genstab.stabilizer_algebra_dim_once", "linalg.nullspace_dim_mod"),
        "genstab.solves": calls("genstab.stabilizer_algebra_dim_once"),
        "genstab.solves_in_estimates": solves_in_estimates,
        "genstab.estimates": calls("genstab.estimate_b0"),
        "finitecheck.build_s": minus(actions, closures[0]),
        "finitecheck.closure_s": secs(closures),
        "finitecheck.group_elements": sum(count(n, "elements") for n in closures),
        "finitecheck.perm_bytes_computed": count(closures[0], "bytes"),
        "finitecheck.base_s": secs("finitecheck.exact_base_size"),
        "finitecheck.order_s": minus(
            ("finitecheck.generic_tuple_stabilizer_order", "finitecheck.sl2_two_form_stabilizer"),
            closures,
        ),
        "finitecheck.points": sum(count(n, "points") for n in actions),
        "formulas.base_triple_s": secs("formulas.base_triple"),
        "formulas.base_triple_calls": calls("formulas.base_triple"),
        "formulas.spec_dims_s": secs("formulas.spec_dims"),
        "formulas.table_rows_s": secs(("formulas.table_c_rows", "formulas.table_e_rows",
                                       "formulas.parabolic_table_rows")),
        "bounds.upper_bound_b1_s": secs("bounds.upper_bound_b1"),
        "bounds.upper_bound_b0_s": secs("bounds.upper_bound_b0"),
        "bounds.inconclusive": count("bounds.upper_bound_b1", "inconclusive")
        + count("bounds.upper_bound_b0", "inconclusive"),
        "classdata.load_s": secs(("classdata.loads", "classdata.load_dataset", "classdata.load_shipped")),
        "rootsys.s": secs(_module_names(spans, "rootsys")),
    }


def _has_ancestor(spans: list[Span], s: Span, name: str) -> bool:
    p = s.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def finish_ratios(totals: dict[str, float]) -> dict[str, float]:
    """Turn the additive helper totals into the reported ratios."""
    out = dict(totals)
    accepted = out.pop("genstab.parts_accepted")
    attempted = out.pop("genstab.parts_attempted")
    in_estimates = out.pop("genstab.solves_in_estimates")
    estimates = out.pop("genstab.estimates")
    out["genstab.sample_accept_ratio"] = accepted / attempted if attempted else 0.0
    out["genstab.solves_per_estimate"] = in_estimates / estimates if estimates else 0.0
    return out
