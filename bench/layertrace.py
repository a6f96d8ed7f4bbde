"""Per-layer tracing of tautring from outside the package.

``install`` replaces each listed function with a wrapper, in every
``tautring`` module namespace that holds it (``verify`` imports
``pair_strata`` by name, so rebinding ``integrate.pair_strata`` alone would
miss the calls from ``verify``).  A wrapper counts calls and self time:
span time minus the time of wrapped calls made inside it.  Inclusive time
is added only at the outermost call of a function, so recursion does not
count twice.

Full spans (name, start, end, parent span, operation) are kept for the
layer-entry functions.  The hot leaves in ``HOT`` are called up to millions
of times per pass; for them only the counters are kept, so the trace stays
within memory.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "graphs": ("enumerate_stable_graphs", "canonical", "automorphism_count",
               "isomorphisms", "contract"),
    "strata": ("generators", "make_stratum", "restrict", "off_locus_strata"),
    "product": ("multiply", "multiply_mixed", "multiply_strata",
                "contraction_structures"),
    "integrate": ("pairing_matrix", "pair_strata", "class_pairing_vector",
                  "evaluate", "stratum_integral", "kappa_psi_integral",
                  "psi_integral", "fraction_free_echelon",
                  "solve_linear_system", "matrix_rank"),
    "pixton": ("pixton_class", "pixton_mixed", "closed_weighting_value",
               "interpolate_constant_term", "hain_divisor", "exp_class",
               "delta_factor"),
    "verify": ("check_section7", "check_multiplicativity",
               "check_exp_identities", "check_gplus1",
               "is_zero_mod_pairing", "in_span_mod_pairing"),
}

# Counted and timed, but no span per call.
HOT = frozenset({
    "integrate.psi_integral", "product.contraction_structures",
    "strata.make_stratum", "graphs.canonical", "graphs.automorphism_count",
})

# Functions whose non-empty returns are counted, for a useful-work ratio.
RATIO = frozenset({"product.contraction_structures"})

# Functions the workloads call, or that decide a verdict; these also
# report inclusive time.
ENTRY = ("verify.check_section7", "verify.check_multiplicativity",
         "verify.check_exp_identities", "verify.check_gplus1",
         "verify.is_zero_mod_pairing", "verify.in_span_mod_pairing",
         "integrate.pairing_matrix", "integrate.kappa_psi_integral")

TRACED = tuple("%s.%s" % (mod, fn) for mod, fns in LAYERS.items()
               for fn in fns)


class _Frame:
    __slots__ = ("span", "child_s")

    def __init__(self, span: int | None) -> None:
        self.span = span
        self.child_s = 0.0


class LayerTrace:
    """Counters, self and inclusive times, and spans of the wrapped calls."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.nonempty: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.depth: Counter[str] = Counter()
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.op: int | None = None
        self._stack: list[_Frame] = []

    def _span_parent(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    def wrap(self, name: str, fn):
        hot = name in HOT
        ratio = name in RATIO
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hot:
                frame = _Frame(None)
            else:
                # reserve the span's slot now, so children can name it
                frame = _Frame(len(self.spans))
                self.spans.append(None)
                parent = self._span_parent()
            stack.append(frame)
            self.depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[name, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                self.depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dur - frame.child_s
                if not self.depth[name]:
                    self.incl_s[name] += dur
                if stack:
                    stack[-1].child_s += dur
                if not hot:
                    self.spans[frame.span] = (name, start, end, parent,
                                              self.op)
            if ratio and result:
                self.nonempty[name] += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded tautring module."""
        modules = [m for key, m in sys.modules.items()
                   if key == "tautring" or key.startswith("tautring.")]
        for name in TRACED:
            mod, fn_name = name.split(".")
            orig = getattr(sys.modules["tautring." + mod], fn_name)
            wrapper = self.wrap(name, orig)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        """Per-function counts and times, named <module>.<fn>.<metric>."""
        out: dict[str, float] = {}
        for name in TRACED:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        for name in ENTRY:
            out[name + ".incl_s"] = self.incl_s[name]
        cs = "product.contraction_structures"
        out[cs + ".useful_ratio"] = (self.nonempty[cs] / self.calls[cs]
                                     if self.calls[cs] else 0.0)
        out["pixton.interpolate_constant_term.failed"] = self.raised[
            "pixton.interpolate_constant_term", "ThresholdError"]
        return out
