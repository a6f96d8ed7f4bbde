"""Verification bundles: locus restriction, equality and membership modulo
the intersection pairing, and one-shot reproductions of the computational
claims (multiplicativity on the treelike locus, exp identities, the fixed
genus-1 three-pointed counterexample, and degree-(g+1) vanishing).

Equality verdicts are decided against all tautological generators of
complementary degree, so a passing equality is "pass-mod-pairing-kernel":
equal up to classes pairing to zero against everything tautological.
Inequality and linear-independence verdicts are absolute.  Every fail
carries a concrete witness.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import DomainError, make_graph
from .integrate import (_cogenerator_rows, _span_solution,
                        class_pairing_vector, matrix_rank)
from .pixton import (
    RamificationData,
    delta_factor,
    exp_class,
    pixton_class,
    pixton_mixed,
    q_form,
)
from .product import multiply, multiply_mixed
from .strata import (
    DecoratedStratum,
    MixedClass,
    TautClass,
    generators,
    locus_name,
    make_stratum,
    off_locus_strata,
    restrict,
    single,
)

PASS = "pass"
PASS_MOD = "pass-mod-pairing-kernel"
FAIL = "fail"


@dataclass
class CheckReport:
    """Verdict plus parameters and a witness; serializable to JSON.

    runtime_ms is informational and excluded from any determinism guarantee.
    """

    name: str
    params: dict
    verdict: str
    witness: dict = field(default_factory=dict)
    runtime_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict.startswith("pass")

    def to_payload(self, with_runtime: bool = True) -> dict:
        out = {
            "name": self.name,
            "params": _jsonify(self.params),
            "verdict": self.verdict,
            "witness": _jsonify(self.witness),
        }
        if with_runtime:
            out["runtime_ms"] = self.runtime_ms
        return out

    def to_json(self, with_runtime: bool = True) -> str:
        return json.dumps(self.to_payload(with_runtime), sort_keys=True)


def _jsonify(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _timed(report: CheckReport, t0: float) -> CheckReport:
    report.runtime_ms = int((time.monotonic() - t0) * 1000)
    return report


# ---------------------------------------------------------------------------
# pairing-based decision procedures


def _separating(x: TautClass, cogens: list[DecoratedStratum]) -> dict | None:
    """The first cogenerator pairing nonzero with x, with that pairing, from
    x's ``_cogenerator_rows``; the walk stops at its row graph.  The rows
    come graph by graph, so this is the first in list order only because
    each graph's cogenerators are contiguous in cogens: it is given only
    ``generators`` and section 7's filtered copy of it."""
    for i, _, value in _cogenerator_rows(x, cogens):
        if value:
            return {"generator": cogens[i].label(), "pairing": value}
    return None


def is_zero_mod_pairing(x: TautClass) -> CheckReport:
    """Pass when x pairs to zero against every complementary generator."""
    t0 = time.monotonic()
    name = "is-zero-mod-pairing"
    params = {"g": x.g, "n": x.n, "degree": x.degree}
    dim = 3 * x.g - 3 + x.n
    if x.degree > dim:
        return _timed(CheckReport(name, params, PASS_MOD, {
            "note": "degree exceeds the dimension; the class group vanishes",
        }), t0)
    cogens = generators(x.g, x.n, dim - x.degree)
    hit = _separating(x, cogens)
    if hit is not None:
        return _timed(CheckReport(name, params, FAIL, hit), t0)
    return _timed(CheckReport(name, params, PASS_MOD, {
        "generators_checked": len(cogens),
    }), t0)


def in_span_mod_pairing(x: TautClass,
                        strata: list[DecoratedStratum]) -> CheckReport:
    """Solve <x - sum lambda_s s, c> = 0 over all complementary generators c
    as integer equations read from one pairing block; pass returns the
    coefficients, one per label (a stratum listed twice gets the sum of its
    copies'), fail an unsatisfiable echelon row."""
    t0 = time.monotonic()
    name = "in-span-mod-pairing"
    params = {"g": x.g, "n": x.n, "degree": x.degree,
              "span": [s.label() for s in strata]}
    for s in strata:
        if s.degree != x.degree:
            raise DomainError("span stratum degree %d != class degree %d"
                              % (s.degree, x.degree))
    dim = 3 * x.g - 3 + x.n
    if x.degree > dim:
        return _timed(CheckReport(name, params, PASS_MOD, {
            "coefficients": {},
            "note": "degree exceeds the dimension",
        }), t0)
    sol, residual = _span_solution(x, strata)
    if sol is None:
        return _timed(CheckReport(name, params, FAIL, {
            "residual_row": residual,
            "note": "unsatisfiable echelon row of the augmented system "
                    "(zero coefficients, nonzero right side)",
        }), t0)
    coefficients: dict[str, Fraction] = {}
    for s, c in zip(strata, sol):  # a repeated stratum's copies add up
        coefficients[s.label()] = coefficients.get(s.label(), 0) + c
    return _timed(CheckReport(name, params, PASS_MOD, {
        "coefficients": coefficients,
    }), t0)


# ---------------------------------------------------------------------------
# named check bundles


def _drc(data: RamificationData) -> TautClass:
    """2^{-g} times the degree-g part of the ramification cycle."""
    return pixton_class(data, data.g).scale(Fraction(1, 2 ** data.g))


def check_multiplicativity(data_a: RamificationData, data_b: RamificationData,
                           locus: str = "tl") -> CheckReport:
    """Compare D_A * D_B with D_A * D_{A+B}, where D = 2^{-g} x (degree-g
    cycle).  On locus "all" this is a raw equality check; on a proper locus
    the check passes when the difference lies in the span of degree-2g
    strata supported off the locus (all modulo the pairing)."""
    t0 = time.monotonic()
    if (data_a.g, data_a.n) != (data_b.g, data_b.n):
        raise DomainError("mismatched (g, n)")
    g, n = data_a.g, data_a.n
    if 2 * g > 3 * g - 3 + n:
        raise DomainError("dimension too small for a degree-2g product")
    locus = locus_name(locus)
    params = {
        "g": g, "n": n, "locus": locus,
        "k_a": data_a.k, "A": list(data_a.A),
        "k_b": data_b.k, "B": list(data_b.A),
    }
    data_ab = RamificationData(g, n, data_a.k + data_b.k,
                               tuple(x + y for x, y in zip(data_a.A, data_b.A)))
    # D_A * D_B - D_A * D_{A+B} as one product, by bilinearity
    diff = multiply(_drc(data_a), _drc(data_b).sub(_drc(data_ab)))
    if locus == "all":
        inner = is_zero_mod_pairing(diff)
    else:
        strata = off_locus_strata(g, n, 2 * g, locus)
        inner = in_span_mod_pairing(diff, strata)
    return _timed(CheckReport("multiplicativity", params, inner.verdict,
                              inner.witness), t0)


def check_exp_identities(data: RamificationData) -> CheckReport:
    """Three identities tying the graded cycle to its degree-1 part:

    * per degree d, [exp(P^1)]_d - P^d lies in the span of degree-d strata
      with an edge not separating off a tree (off the compact-type locus);
    * the compact-type restriction of P^1 equals the divisor 2*hain
      (syntactic identity on stratum coefficients);
    * per degree d, [sum_e P^e - exp(2*hain) * delta]_d lies in the span of
      degree-d strata off the treelike locus, delta the graded loop factor.
    """
    t0 = time.monotonic()
    g, n = data.g, data.n
    dim = 3 * g - 3 + n
    params = {"g": g, "n": n, "k": data.k, "A": list(data.A)}
    full = pixton_mixed(data)
    p1 = full.part(1)

    qf = q_form(data)
    if restrict(p1, "ct") != qf:
        return _timed(CheckReport("exp-identities", params, FAIL, {
            "identity": "ct-restriction",
            "note": "compact-type part of the degree-1 cycle differs from "
                    "the quadratic divisor",
        }), t0)

    # identity, minuend, subtrahend, and the locus whose complement spans
    exp_p1 = exp_class(MixedClass(g, n, {1: p1}))
    target = multiply_mixed(exp_class(MixedClass(g, n, {1: qf})),
                            delta_factor(g, n))
    for identity, lhs, rhs, locus in (
            ("exp-vs-graded", exp_p1, full, "ct"),
            ("treelike-factorization", full, target, "tl")):
        for d in range(0, dim + 1):
            inner = in_span_mod_pairing(lhs.part(d).sub(rhs.part(d)),
                                        off_locus_strata(g, n, d, locus))
            if not inner.passed:
                return _timed(CheckReport("exp-identities", params, FAIL, {
                    "identity": identity, "degree": d,
                    "inner": inner.witness,
                }), t0)

    return _timed(CheckReport("exp-identities", params, PASS_MOD, {
        "degrees_checked": dim + 1,
    }), t0)


def check_gplus1(data: RamificationData) -> CheckReport:
    """The degree-(g+1) part pairs to zero against everything."""
    t0 = time.monotonic()
    params = {"g": data.g, "n": data.n, "k": data.k, "A": list(data.A),
              "degree": data.g + 1}
    cls = pixton_class(data, data.g + 1)
    inner = is_zero_mod_pairing(cls)
    return _timed(CheckReport("gplus1-vanishing", params, inner.verdict,
                              inner.witness), t0)


# ---------------------------------------------------------------------------
# the fixed genus-1, 3-pointed counterexample


SECTION7_A = (2, 4, -6)
SECTION7_B = (-3, -1, 4)


def _s7_divisor(a: tuple[int, int, int]) -> TautClass:
    return _drc(RamificationData(1, 3, 0, a))


def _s7_banana(i: int) -> DecoratedStratum:
    """Two-edge graph separating marking i from the other two; both
    vertices rational, so the stratum misses the treelike locus."""
    rest = tuple(sorted({1, 2, 3} - {i}))
    graph = make_graph([0, 0], [(i,), rest], [(0, 1), (0, 1)])
    return make_stratum(graph, {}, {}, {})


def _s7_irr() -> TautClass:
    graph = make_graph([0], [(1, 2, 3)], [(0, 0)])
    return single(1, 3, make_stratum(graph, {}, {}, {}))


def check_section7() -> list[CheckReport]:
    """Five claims about the fixed data a=(2,4,-6), b=(-3,-1,4), k=0 on the
    genus-1, 3-pointed space."""
    reports: list[CheckReport] = []
    g, n = 1, 3
    base_params = {"g": g, "n": n, "k": 0,
                   "a": list(SECTION7_A), "b": list(SECTION7_B)}
    da = _s7_divisor(SECTION7_A)
    db = _s7_divisor(SECTION7_B)
    dab = _s7_divisor(tuple(x + y for x, y in zip(SECTION7_A, SECTION7_B)))
    prod_b = multiply(da, db)
    prod_ab = multiply(da, dab)
    diff = prod_b.sub(prod_ab)

    # 1. the two products differ (not even equal modulo the pairing)
    t0 = time.monotonic()
    zr = is_zero_mod_pairing(diff)
    if zr.verdict == FAIL:
        reports.append(_timed(CheckReport(
            "section7-products-differ", dict(base_params), PASS,
            {"separating_generator": zr.witness["generator"],
             "pairing_gap": zr.witness["pairing"]}), t0))
    else:
        reports.append(_timed(CheckReport(
            "section7-products-differ", dict(base_params), FAIL,
            {"note": "products agree modulo the pairing"}), t0))

    # 2. the difference lies in the span of the three banana strata
    t0 = time.monotonic()
    span = in_span_mod_pairing(diff, [_s7_banana(i) for i in (1, 2, 3)])
    reports.append(_timed(CheckReport(
        "section7-banana-span", dict(base_params, **span.params),
        span.verdict, span.witness), t0))

    # 3. both products restrict nontrivially to the treelike locus: each
    # pairs nonzero against some treelike complementary generator
    t0 = time.monotonic()
    dim = 3 * g - 3 + n
    cogens = [c for c in generators(g, n, dim - 2) if c.graph.is_treelike()]
    hits = {label: _separating(restrict(cls, "tl"), cogens)
            for label, cls in (("a*b", prod_b), ("a*(a+b)", prod_ab))}
    verdict = FAIL if None in hits.values() else PASS
    wit = {label: hit or "treelike restriction pairs to zero"
           for label, hit in hits.items()}
    reports.append(_timed(CheckReport(
        "section7-treelike-nontrivial", dict(base_params), verdict, wit), t0))

    # 4. the self-intersection of the nonseparating boundary divisor
    # pairs to zero in degree 2
    t0 = time.monotonic()
    irr = _s7_irr()
    zz = is_zero_mod_pairing(multiply(irr, irr))
    reports.append(_timed(CheckReport(
        "section7-irr-square-zero", dict(base_params), zz.verdict,
        zz.witness), t0))

    # 5. D_a*(D_b - D_{a+b}), D_a*irr, irr*(D_b - D_{a+b}) are linearly
    # independent as pairing vectors
    t0 = time.monotonic()
    i1 = diff
    i2 = multiply(da, irr)
    i3 = multiply(irr, db.sub(dab))
    cogens2 = generators(g, n, dim - 2)
    rank = matrix_rank([class_pairing_vector(v, cogens2)
                        for v in (i1, i2, i3)])
    verdict = PASS if rank == 3 else FAIL
    reports.append(_timed(CheckReport(
        "section7-rank-three", dict(base_params), verdict,
        {"rank": rank,
         "vectors": ["a*(b - (a+b))", "a*irr", "irr*(b - (a+b))"]}), t0))
    return reports

