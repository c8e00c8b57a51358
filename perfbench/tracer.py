"""Spans and counts around the engine's public functions, from outside.

The tracer replaces each traced function at every place it is bound: the
defining module, every other ``symflow`` module that imported it by name,
and every alias in a class body (``Expr.__radd__`` is ``Expr.__add__``).
Spans are kept in memory while units run and written out at the end.
Coefficient products and ``Fraction`` constructions take well under a
microsecond each, so they are counted, not timed.

Only work inside a unit is recorded: set-up (imports, built-in systems,
warm caches) runs with ``unit`` at -1 and leaves no spans or counts.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# name -> (module, attribute, class or None); methods are patched on the class.
SPANS = {
    "expr.substitute": ("symflow.expr", "substitute", "Expr"),
    "expr.mul": ("symflow.expr", "__mul__", "Expr"),
    "expr.add": ("symflow.expr", "__add__", "Expr"),
    "expr.total_derivative": ("symflow.expr", "total_derivative", "Expr"),
    "expr.diff": ("symflow.expr", "diff", "Expr"),
    "expr.eval_numeric": ("symflow.expr", "eval_numeric", "Expr"),
    "jetsys.reduce": ("symflow.jetsys", "reduce", "SolvedFormClosure"),
    "jetsys.rule": ("symflow.jetsys", "rule", "SolvedFormClosure"),
    "jetsys.consistent_assignment": ("symflow.jetsys", "consistent_assignment", None),
    "linsym.frechet": ("symflow.linsym", "frechet", None),
    "linsym.verify_symmetry": ("symflow.linsym", "verify_symmetry", None),
    "linsym.generate_determining": ("symflow.linsym", "generate_determining", None),
    "linsym.verify_solution": ("symflow.linsym", "verify_solution", "DeterminingSystem"),
    "conslaw.combined_closure": ("symflow.conslaw", "combined_closure", None),
    "conslaw.conserved_vector": ("symflow.conslaw", "conserved_vector", None),
    "conslaw.verify_divergence": ("symflow.conslaw", "verify_divergence", None),
    "liealg.structure_table": ("symflow.liealg", "structure_table", None),
    "liealg.killing": ("symflow.liealg", "killing", "StructureTable"),
    "liealg.adjoint": ("symflow.liealg", "adjoint", None),
    "liealg.normalize_triple": ("symflow.liealg", "normalize_triple", None),
    "grpflow.verify_flow_properties": ("symflow.grpflow", "verify_flow_properties", None),
    "numcheck.transformed_residual_orders": (
        "symflow.numcheck", "transformed_residual_orders", None,
    ),
}

UNIT_SPAN = "unit"

# Per-layer metrics the traced run reports, with their units.
KERNEL_OPS = ("substitute", "mul", "add", "total_derivative", "diff", "eval_numeric")
LAYER_METRICS = {
    "expr.coeff_mul.calls": "count",
    "expr.coeff_mul.int_calls": "count",
    "expr.coeff_mul.int_ratio": "ratio",
    "expr.fraction_new.calls": "count",
    **{f"expr.{op}.{kind}": unit for op in KERNEL_OPS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "expr.substitute.s": "s",
    "expr.substitute.peak_terms": "count",
    "jetsys.reduce.calls": "count",
    "jetsys.reduce.self_s": "s",
    "jetsys.reduce.passes": "count",
    "jetsys.reduce.extra_passes": "count",
    "jetsys.rule.lookups": "count",
    "jetsys.rule.generated": "count",
    "jetsys.rule.hit_ratio": "ratio",
    "jetsys.rule.gen_s": "s",
    "jetsys.consistent_assignment.s": "s",
    "linsym.frechet.s": "s",
    "linsym.verify_symmetry.s": "s",
    "linsym.generate_determining.s": "s",
    "linsym.verify_solution.s": "s",
    "conslaw.combined_closure.s": "s",
    "conslaw.conserved_vector.s": "s",
    "conslaw.verify_divergence.s": "s",
    "liealg.structure_table.s": "s",
    "liealg.killing.calls": "count",
    "liealg.killing.s": "s",
    "liealg.adjoint.calls": "count",
    "liealg.adjoint.s": "s",
    "liealg.normalize_triple.s": "s",
    "grpflow.verify_flow_properties.s": "s",
    "numcheck.transformed_residual_orders.s": "s",
}


def _is_gaussian_integer(value) -> bool:
    if type(value) is int:
        return True
    if isinstance(value, Fraction):
        return value.denominator == 1
    return value.re.denominator == 1 and value.im.denominator == 1


class Tracer:
    def __init__(self):
        self.unit = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # finished spans: (span id, name id, parent span id or -1, unit, start, end)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next = 0
        self.counts: Counter = Counter()
        self.sites: dict[str, int] = {}

    # -- recording ------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self) -> tuple[int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, nid, parent, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, nid, parent, self.unit, start, end))

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.unit < 0:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, nid, parent, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def begin_unit(self, unit: int):
        self.unit = unit
        self._unit_span = self._open() + (perf_counter(),)

    def end_unit(self):
        sid, parent, start = self._unit_span
        self._close(sid, self._name_id(UNIT_SPAN), parent, start)
        self.unit = -1

    # -- installation ---------------------------------------------------------
    def install(self):
        """Wrap every traced function at all its binding sites."""
        for name, (module_name, attr, owner) in SPANS.items():
            module = sys.modules[module_name]
            on_result = self._on_result(name)
            if owner is None:
                self.sites[name] = self._patch_modules(getattr(module, attr), name, on_result)
            else:
                self.sites[name] = self._patch_class(getattr(module, owner), attr, name, on_result)
        self._count_coefficients(sys.modules["symflow.expr"].ComplexRational)

    def _on_result(self, name: str):
        counts = self.counts
        if name == "expr.substitute":
            def peak(result):
                if len(result.terms) > counts["expr.substitute.peak_terms"]:
                    counts["expr.substitute.peak_terms"] = len(result.terms)
            return peak
        if name == "jetsys.rule":
            def unresolved(result):
                if result is None:
                    counts["jetsys.rule.unresolved"] += 1
            return unresolved
        return None

    def _patch_modules(self, original, name, on_result) -> int:
        wrapped = self.wrap(name, original, on_result)
        sites = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != "symflow" and not module_name.startswith("symflow."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    sites += 1
        return sites

    def _patch_class(self, cls, attr, name, on_result) -> int:
        original = vars(cls)[attr]
        wrapped = self.wrap(name, original, on_result)
        sites = 0
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, wrapped)
                sites += 1
        return sites

    def _count_coefficients(self, complex_rational):
        tracer = self
        counts = self.counts
        mul = complex_rational.__mul__

        def counted_mul(a, b):
            if tracer.unit >= 0:
                counts["expr.coeff_mul.calls"] += 1
                if _is_gaussian_integer(a) and _is_gaussian_integer(b):
                    counts["expr.coeff_mul.int_calls"] += 1
            return mul(a, b)

        complex_rational.__mul__ = counted_mul
        new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            if tracer.unit >= 0:
                counts["expr.fraction_new.calls"] += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = counted_new

    # -- reporting ------------------------------------------------------------
    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": sorted(self.spans)}, handle)

    def layer_metrics(self) -> dict[str, float]:
        return layer_metrics(self.names, self.spans, self.counts)


def layer_metrics(names, spans, counts) -> dict[str, float]:
    """Per-layer values from finished spans and L0 counts.

    ``.self_s`` is a span's duration minus its children's (spans of one
    thread nest, so the children's durations are the part they cover).
    ``.s`` is inclusive time over the outermost span of that name, so a
    recursive call is not counted twice.
    """
    spans = sorted(spans)
    name_of = {s[0]: names[s[1]] for s in spans}
    duration = {s[0]: s[5] - s[4] for s in spans}
    child_time = Counter()
    passes = Counter()
    generating = set()
    for sid, _nid, parent, _unit, _start, _end in spans:
        if parent not in name_of:
            continue
        child_time[parent] += duration[sid]
        if name_of[sid] == "expr.substitute" and name_of[parent] == "jetsys.reduce":
            passes[parent] += 1
        if name_of[sid] == "jetsys.reduce" and name_of[parent] == "jetsys.rule":
            generating.add(parent)

    calls = Counter()
    self_s = Counter()
    inclusive = Counter()
    gen_s = 0.0
    ancestors: dict[int, frozenset] = {}
    under_generation: dict[int, bool] = {}
    for sid, _nid, parent, _unit, _start, _end in spans:
        name = name_of[sid]
        if parent in name_of:
            ancestors[sid] = ancestors[parent] | {name_of[parent]}
            under_generation[sid] = under_generation[parent] or parent in generating
        else:
            ancestors[sid] = frozenset()
            under_generation[sid] = False
        calls[name] += 1
        self_s[name] += duration[sid] - child_time[sid]
        if name not in ancestors[sid]:
            inclusive[name] += duration[sid]
        if sid in generating and not under_generation[sid]:
            gen_s += duration[sid]

    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.s"] = inclusive[name]
    mul_calls = counts["expr.coeff_mul.calls"]
    int_calls = counts["expr.coeff_mul.int_calls"]
    lookups = calls["jetsys.rule"]
    hits = lookups - len(generating) - counts["jetsys.rule.unresolved"]
    out.update(
        {
            "expr.coeff_mul.calls": mul_calls,
            "expr.coeff_mul.int_calls": int_calls,
            "expr.coeff_mul.int_ratio": int_calls / mul_calls if mul_calls else 0.0,
            "expr.fraction_new.calls": counts["expr.fraction_new.calls"],
            "expr.substitute.peak_terms": counts["expr.substitute.peak_terms"],
            "jetsys.reduce.passes": sum(passes.values()),
            "jetsys.reduce.extra_passes": sum(max(0, n - 1) for n in passes.values()),
            "jetsys.rule.lookups": lookups,
            "jetsys.rule.generated": len(generating),
            "jetsys.rule.hit_ratio": hits / lookups if lookups else 0.0,
            "jetsys.rule.gen_s": gen_s,
        }
    )
    return {metric: out[metric] for metric in LAYER_METRICS}
