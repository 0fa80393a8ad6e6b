"""Spans around the public function of each module, recorded from outside
the program.

:class:`Tracer` replaces each traced function, under every name a module of
the package binds it to, with a wrapper that records a span: name, start,
end, parent span and a few sizes read off the call's arguments or result.
Spans stay in memory; :func:`summarize` turns one pass's spans into per-name
call counts, total and self times (a span minus its children) and sizes.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from time import perf_counter


def _ring_suffix(args, kwargs) -> str:  # noqa: ANN001
    ring = args[2] if len(args) > 2 else kwargs["ring"]
    return "." + ring.value


def _system_size(result) -> dict:  # noqa: ANN001
    return {
        "rows": len(result.matrix),
        "cols": len(result.variables),
        "nnz": sum(1 for row in result.matrix for a in row if a),
    }


def _denominator_bits(result) -> dict:  # noqa: ANN001
    if result.certificate is None:
        return {}
    scale = lcm(*(Fraction(y).denominator for y in result.certificate.multipliers))
    return {"max_denominator_bits": scale.bit_length() - 1}


# (defining module, function, span-name suffix from the call, sizes from the result)
TARGETS = (
    ("documents", "parse_scenario", None, None),
    ("model", "support_of", None, None),
    ("model", "check_no_signalling", None, None),
    ("model", "support_violations", None, None),
    ("extendability", "global_sections", None, lambda found: {"found": len(found)}),
    ("extendability", "is_extendable_at", None, None),
    ("extendability", "classify", None, None),
    ("cohomology", "all_obstructions", None, None),
    ("cohomology", "obstruction", None, None),
    ("cohomology", "build_obstruction_system", None, _system_size),
    ("cohomology", "verify_witness", None, None),
    ("linalg", "solve_linear", _ring_suffix, _denominator_bits),
    ("linalg", "check_certificate", None, None),
    ("analysis", "false_positives", None, None),
    ("report", "build_report", None, None),
    ("report", "emit_report", None, None),
)

# Sizes summed over a pass, except these, which keep their maximum.
MAXIMA = {"max_denominator_bits"}


class Tracer:
    """Install with :meth:`install`, undo with :meth:`remove`.  A span is the
    list [name, start, end, parent index (-1 at top level), sizes]."""

    def __init__(self, package: str = "contextuality"):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name: str, suffix, sizes):  # noqa: ANN001
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name + suffix(args, kwargs) if suffix else name, 0.0, 0.0, -1, None]
            span[3] = stack[-1] if stack else -1
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if sizes:
                span[4] = sizes(result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == self.package or key.startswith(self.package + ".")
        ]
        for module_name, function, suffix, sizes in TARGETS:
            home = sys.modules.get(f"{self.package}.{module_name}")
            original = getattr(home, function, None)
            if original is None:
                self.missing.append(f"{module_name}.{function}")
                continue
            wrapper = self._wrap(original, f"{module_name}.{function}", suffix, sizes)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patched.append((module, attribute, original))

    def remove(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, s (total time), self_s, and summed sizes."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for k, (name, start, end, _, sizes) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[k]
        for key, value in (sizes or {}).items():
            if key in MAXIMA:
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return out
