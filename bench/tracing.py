"""Spans and work counts around calls into each layer of ``cluster_forge``.

The program carries no instrumentation of its own, so the tracer patches
it from outside: each traced method is replaced on its class, and each
traced module-level function is replaced in every ``cluster_forge`` module
that holds it, because ``invariants``, ``degeneration`` and ``corpus`` bind
``rat_equal``, ``poly_exact_div`` and friends by name.  Click commands are
traced through their callbacks.

Spans are aggregated by (name, parent name); a span's self time is its
duration minus the durations of the spans it directly encloses.
"""

import sys
import time

from cluster_forge import cli, corpus, degeneration, exact_algebra, gfan
from cluster_forge import invariants, seeds

LA = exact_algebra.LaurentPoly
PRF = exact_algebra.PosRatFunc

#: (layer, function, owner, attribute); an owner is a module or a class.
TARGETS = [
    ("exact_algebra", "mul", LA, "__mul__"),
    ("exact_algebra", "power", LA, "power"),
    ("exact_algebra", "poly_exact_div", exact_algebra, "poly_exact_div"),
    ("exact_algebra", "expand", PRF, "expand"),
    ("exact_algebra", "reduced", PRF, "reduced"),
    ("exact_algebra", "evaluate", PRF, "evaluate"),
    ("exact_algebra", "prf_sum", exact_algebra, "prf_sum"),
    ("exact_algebra", "rat_equal", exact_algebra, "rat_equal"),
    ("exact_algebra", "limit_t_zero", exact_algebra, "limit_t_zero"),
    ("seeds", "mutate_y_seed", seeds, "mutate_y_seed"),
    ("seeds", "mutate_cluster_seed", seeds, "mutate_cluster_seed"),
    ("invariants", "separation_check", invariants, "separation_check"),
    ("invariants", "f_polynomials", invariants, "f_polynomials"),
    ("invariants", "c_matrix", invariants, "c_matrix"),
    ("invariants", "g_matrix_degrees", invariants, "g_matrix_degrees"),
    ("gfan", "enumerate_gfan", gfan, "enumerate_gfan"),
    ("gfan", "star", gfan, "star"),
    ("gfan", "fan_to_json", gfan, "fan_to_json"),
    ("gfan", "fan_from_json", gfan, "fan_from_json"),
    ("degeneration", "transition", degeneration.Family, "transition"),
    ("degeneration", "pullback_to_initial", degeneration.Family,
     "pullback_to_initial"),
    ("degeneration", "degree_check", degeneration, "degree_check"),
    ("degeneration", "limit_check", degeneration, "limit_check"),
    ("degeneration", "glue_ring_check", degeneration, "glue_ring_check"),
    ("degeneration", "fiber_iso_check", degeneration, "fiber_iso_check"),
    ("degeneration", "strata_consistency_check", degeneration,
     "strata_consistency_check"),
    ("degeneration", "central_fiber_toric_check", degeneration,
     "central_fiber_toric_check"),
    ("degeneration", "cocycle_check", degeneration, "cocycle_check"),
    ("corpus", "run_a2_tables", corpus, "run_a2_tables"),
    ("corpus", "run_gr25", corpus, "run_gr25"),
    ("corpus", "run_dp5", corpus, "run_dp5"),
]
CLI_COMMANDS = ["mutate", "fan", "star", "verify", "degenerate", "table"]

#: Exact work counts, named <layer>.<function>.<count>.
COUNTS = [
    "exact_algebra.mul.term_products",
    "exact_algebra.mul.max_terms",
    "exact_algebra.power.exp1_calls",
    "exact_algebra.poly_exact_div.inexact",
    "exact_algebra.reduced.rewrites",
    "gfan.enumerate_gfan.cones",
]


def span_names():
    return ([f"{layer}.{name}" for layer, name, _, _ in TARGETS]
            + [f"cli.{c}" for c in CLI_COMMANDS])


def metric_names():
    """Every per-layer metric, in the order they are reported."""
    out = []
    for s in span_names():
        out += [f"{s}.calls", f"{s}.self_s"]
    return out + COUNTS


class Tracer:
    """Patches the program on ``install`` and restores it on ``uninstall``.

    ``spans`` maps (name, parent) to [calls, total seconds, self seconds];
    ``counts`` maps each name in COUNTS to its total (a maximum for
    ``max_terms``).
    """

    def __init__(self):
        self.stack = [["<root>", 0.0]]
        self.spans = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self._undo = []

    # -- spans -----------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark's cases use this directly."""
        frame = [name, 0.0]
        parent = self.stack[-1]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            parent[1] += dt
            row = self.spans.setdefault((name, parent[0]), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dt
            row[2] += dt - frame[1]

    def _wrap(self, name, fn):
        span = self.span
        counts = self.counts

        if name == "exact_algebra.mul":
            def wrapper(a, b):
                counts["exact_algebra.mul.term_products"] += (
                    len(a.terms) * len(b.terms))
                out = span(name, fn, a, b)
                if len(out.terms) > counts["exact_algebra.mul.max_terms"]:
                    counts["exact_algebra.mul.max_terms"] = len(out.terms)
                return out
        elif name == "exact_algebra.power":
            def wrapper(p, k):
                if k == 1:
                    counts["exact_algebra.power.exp1_calls"] += 1
                return span(name, fn, p, k)
        elif name == "exact_algebra.poly_exact_div":
            def wrapper(a, b):
                try:
                    return span(name, fn, a, b)
                except exact_algebra.InexactDivision:
                    counts["exact_algebra.poly_exact_div.inexact"] += 1
                    raise
        elif name == "exact_algebra.reduced":
            def wrapper(f):
                out = span(name, fn, f)
                if out != f:
                    counts["exact_algebra.reduced.rewrites"] += 1
                return out
        elif name == "gfan.enumerate_gfan":
            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                counts["gfan.enumerate_gfan.cones"] += len(out.cones)
                return out
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ---------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cluster_forge" or name.startswith("cluster_forge.")]
        for layer, name, owner, attr in TARGETS:
            orig = getattr(owner, attr)
            wrapper = self._wrap(f"{layer}.{name}", orig)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapper)
        for cmd in CLI_COMMANDS:
            command = cli.main.commands[cmd]
            self._set(command, "callback",
                      self._wrap(f"cli.{cmd}", command.callback))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls and self seconds per traced function,
        then the work counts."""
        calls = dict.fromkeys(span_names(), 0)
        self_s = dict.fromkeys(span_names(), 0.0)
        for (name, _), (n, _, s) in self.spans.items():
            if name in calls:
                calls[name] += n
                self_s[name] += s
        out = {}
        for s in span_names():
            out[f"{s}.calls"] = {"value": calls[s], "unit": "count"}
            out[f"{s}.self_s"] = {"value": self_s[s], "unit": "s"}
        for c in COUNTS:
            out[c] = {"value": self.counts[c], "unit": "count"}
        return out

    def table(self):
        """The aggregated spans, heaviest self time first."""
        rows = [{"name": name, "parent": parent, "calls": n, "total_s": t,
                 "self_s": s}
                for (name, parent), (n, t, s) in self.spans.items()]
        return sorted(rows, key=lambda r: -r["self_s"])
