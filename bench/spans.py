"""Span tracing of dompoly from outside the package.

``Tracer.install`` replaces every public function of every dompoly module,
and the Poly operators named in POLY_METHODS, with a wrapper that records a
span (id, parent id, layer, name, start, end).  The layer is the module's
short name.  A function that another module imported under its own name is
replaced there too, and so are references held in module-level tables such
as the CLI's join-operand table, so every call path is seen.

Spans live in memory until ``write`` at the end of the run.  A span opened
on a pool thread with no open span of its own takes the CLI call in flight
as its parent, so self times stay attributed when the program fans out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "cli",
    "graphs",
    "enumeration",
    "polynomials",
    "formulas",
    "realroots",
    "complexroots",
    "plotting",
)

POLY_METHODS = ("__mul__", "__rmul__", "__pow__", "eval_exact")

#: Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
#: Times and counts are per pass of the workload's call list.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.calls": "count",
    "graphs.build_s": "s",
    "graphs.parse_s": "s",
    "graphs.calls": "count",
    "enumeration.dompoly_s": "s",
    "enumeration.calls": "count",
    "enumeration.subsets": "count",
    "enumeration.subsets_per_s": "1/s",
    "polynomials.mul_s": "s",
    "polynomials.mul_calls": "count",
    "polynomials.mul_coeff_products": "count",
    "polynomials.eval_exact_s": "s",
    "polynomials.eval_exact_calls": "count",
    "polynomials.coeff_bits_max": "bits",
    "formulas.calls": "count",
    "realroots.certify_s": "s",
    "realroots.certify_calls": "count",
    "realroots.sturm_s": "s",
    "realroots.sign_s": "s",
    "realroots.chain_len_sum": "count",
    "realroots.chain_bits_max": "bits",
    "complexroots.find_roots_s": "s",
    "complexroots.find_roots_calls": "count",
    "complexroots.roots_found": "count",
    "complexroots.roots_per_s": "1/s",
    "complexroots.degree_max": "count",
    "complexroots.residual_max": "ratio",
    "complexroots.csv_s": "s",
    "plotting.render_s": "s",
    "plotting.svg_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _bits(coeffs) -> int:
    return max(map(int.bit_length, coeffs), default=0)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._lock = threading.Lock()
        self._on_result = {
            "domination_polynomial": self._count_subsets,
            "__mul__": self._count_mul,
            "__rmul__": self._count_mul,
            "__pow__": self._count_pow,
            "sturm_sequence": self._count_chain,
            "find_roots": self._count_roots,
            "render_scatter": self._count_svg,
        }

    # -- counters taken from arguments and return values ----------------------

    def _max(self, key: str, value) -> None:
        if value > self.counts[key]:
            self.counts[key] = value

    def _count_subsets(self, args, result) -> None:
        self.counts["enumeration.subsets"] += 1 << args[0].n

    def _count_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        a, b = args
        nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.counts["polynomials.mul_coeff_products"] += len(a.coeffs) * nb
        self._max("polynomials.coeff_bits_max", _bits(result.coeffs))

    def _count_pow(self, args, result) -> None:
        self._max("polynomials.coeff_bits_max", _bits(result.coeffs))

    def _count_chain(self, args, result) -> None:
        self.counts["realroots.chain_len_sum"] += len(result)
        self._max("realroots.chain_bits_max", max(_bits(q.coeffs) for q in result))

    def _count_roots(self, args, result) -> None:
        self.counts["complexroots.roots_found"] += len(result.roots)
        self._max("complexroots.degree_max", args[0].degree)
        self._max("complexroots.residual_max", max((r[2] for r in result.roots), default=0.0))

    def _count_svg(self, args, result) -> None:
        self.counts["plotting.svg_bytes"] += len(result)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        on_result = self._on_result.get(name)
        spans, local, ids, lock = self.spans, self._local, self._ids, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, layer, name, t0, t1))
                if parent is None:
                    self._root = None
            if on_result is not None:
                with lock:
                    on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"dompoly.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(layer, name, obj)

        def rebind(value):
            if inspect.isfunction(value):
                return wrapped.get(value, value)
            if isinstance(value, tuple):
                return tuple(rebind(v) for v in value)
            return value

        for mod in [importlib.import_module("dompoly"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, value in obj.items():
                        obj[key] = rebind(value)
                else:
                    new = rebind(obj)
                    if new is not obj:
                        setattr(mod, name, new)

        poly = modules["polynomials"].Poly
        for name in POLY_METHODS:
            setattr(poly, name, self._wrap("polynomials", name, vars(poly)[name]))

    # -- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it that child spans cover."""
        children = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = []
        for sid, _, _, _, t0, t1 in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out.append((t1 - t0) - covered)
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics keyed as in UNITS; times and counts are per pass."""
        total = defaultdict(float)  # inclusive seconds per function name
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        func_self = defaultdict(float)
        for (_, _, layer, name, t0, t1), own in zip(self.spans, self.self_times()):
            total[name] += t1 - t0
            calls[name] += 1
            layer_self[layer] += own
            layer_calls[layer] += 1
            func_self[name] += own
        c = self.counts
        sums = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        sums.update(
            {
                "cli.calls": calls["main"],
                "graphs.build_s": total["build_family"],
                "graphs.parse_s": total["parse_edge_list"],
                "graphs.calls": layer_calls["graphs"],
                "enumeration.dompoly_s": total["domination_polynomial"],
                "enumeration.calls": calls["domination_polynomial"],
                "enumeration.subsets": c["enumeration.subsets"],
                "polynomials.mul_s": total["__mul__"] + total["__rmul__"],
                "polynomials.mul_calls": calls["__mul__"] + calls["__rmul__"],
                "polynomials.mul_coeff_products": c["polynomials.mul_coeff_products"],
                "polynomials.eval_exact_s": total["eval_exact"],
                "polynomials.eval_exact_calls": calls["eval_exact"],
                "formulas.calls": layer_calls["formulas"],
                "realroots.certify_s": total["certify_cg"],
                "realroots.certify_calls": calls["certify_cg"],
                "realroots.sturm_s": total["sturm_sequence"],
                "realroots.sign_s": func_self["certify_cg"],
                "realroots.chain_len_sum": c["realroots.chain_len_sum"],
                "complexroots.find_roots_s": total["find_roots"],
                "complexroots.find_roots_calls": calls["find_roots"],
                "complexroots.roots_found": c["complexroots.roots_found"],
                "complexroots.csv_s": total["roots_csv"],
                "plotting.render_s": total["render_scatter"],
                "plotting.svg_bytes": c["plotting.svg_bytes"],
            }
        )
        m = {name: value / passes for name, value in sums.items()}

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m.update(
            {
                "enumeration.subsets_per_s": ratio(
                    c["enumeration.subsets"], total["domination_polynomial"]
                ),
                "polynomials.coeff_bits_max": c["polynomials.coeff_bits_max"],
                "realroots.chain_bits_max": c["realroots.chain_bits_max"],
                "complexroots.roots_per_s": ratio(
                    c["complexroots.roots_found"], total["find_roots"]
                ),
                "complexroots.degree_max": c["complexroots.degree_max"],
                "complexroots.residual_max": c["complexroots.residual_max"],
            }
        )
        return {name: m[name] for name in UNITS if name in m}

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent, layer, name, start, end (s)."""
        origin = self.spans[0][4] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as f:
            for sid, parent, layer, name, t0, t1 in self.spans:
                f.write(json.dumps([sid, parent, layer, name, t0 - origin, t1 - origin]))
                f.write("\n")
