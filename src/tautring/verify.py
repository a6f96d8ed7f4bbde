"""Verification bundles: locus restriction, equality and membership modulo
the intersection pairing, and one-shot reproductions of the computational
claims (multiplicativity on the treelike locus, exp identities, the fixed
genus-1 three-pointed counterexample, and degree-(g+1) vanishing).

Equality verdicts are decided against all tautological generators of
complementary degree, so a passing equality is "pass-mod-pairing-kernel":
equal up to classes pairing to zero against everything tautological.
Inequality and linear-independence verdicts are absolute.  Every fail
carries a concrete witness.  A bundle reads each (space, degree) it decides
from one pairing block, ``integrate._cogenerator_rows``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .graphs import DomainError, make_graph
from .integrate import _cogenerator_rows, _span_solution, _sparse_row, \
    matrix_rank
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


def _separating(rows: Iterable[tuple], k: int,
               cogens: Sequence[DecoratedStratum],
               keep: Callable[..., bool] = lambda c: True) -> dict | None:
    """The first of the ``_cogenerator_rows`` rows whose cogenerator c
    passes keep and pairs nonzero with class k, as c's label and that
    pairing.  Rows are read lazily, so a walk stops at that row's graph.
    cogens is a whole ``generators`` tuple, so the rows come in its order."""
    for i, _, values in rows:
        if values[k] and keep(cogens[i]):
            return {"generator": cogens[i].label(), "pairing": values[k]}
    return None


def _span_verdict(strata: Sequence[DecoratedStratum],
                  equations: Sequence[dict[int, int]]) -> tuple[str, dict]:
    """Solve the span equations of strata: pass with the coefficients, one
    per label (a stratum listed twice gets the sum of its copies'), or fail
    with an unsatisfiable echelon row."""
    sol, residual = _span_solution(equations, len(strata))
    if sol is None:
        return FAIL, {"residual_row": residual,
                      "note": "unsatisfiable echelon row of the augmented "
                              "system (zero coefficients, nonzero right side)"}
    coefficients: dict[str, Fraction] = {}
    for s, c in zip(strata, sol):
        coefficients[s.label()] = coefficients.get(s.label(), 0) + c
    return PASS_MOD, {"coefficients": coefficients}


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
    hit = _separating(_cogenerator_rows((x,), cogens), 0, cogens)
    return _timed(CheckReport(name, params, PASS_MOD if hit is None else FAIL,
                              hit or {"generators_checked": len(cogens)}), t0)


def in_span_mod_pairing(x: TautClass,
                        strata: list[DecoratedStratum]) -> CheckReport:
    """Solve <x - sum lambda_s s, c> = 0 over all complementary generators c
    as integer equations read from one pairing block: ``_span_verdict``."""
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
    cogens = generators(x.g, x.n, dim - x.degree)
    verdict, witness = _span_verdict(strata, [
        _sparse_row([*span.items(), (len(strata), value)])
        for _, span, (value,) in _cogenerator_rows((x,), cogens, strata)])
    return _timed(CheckReport(name, params, verdict, witness), t0)


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

    exp_p1 = exp_class(MixedClass(g, n, {1: p1}))
    target = multiply_mixed(exp_class(MixedClass(g, n, {1: qf})),
                            delta_factor(g, n))
    # one block per degree: the off-compact-type strata span exp-vs-graded,
    # and those of them off the treelike locus span treelike-factorization
    tl_failure = None  # reported after exp-vs-graded in every degree
    for d in range(0, dim + 1):
        ct = off_locus_strata(g, n, d, "ct")
        tl = [p for p, s in enumerate(ct) if not s.graph.is_treelike()]
        at = {p: q for q, p in enumerate(tl)}
        classes = (exp_p1.part(d).sub(full.part(d)),
                   full.part(d).sub(target.part(d)))
        eqs_ct, eqs_tl = [], []
        for _, span, (x, y) in _cogenerator_rows(
                classes, generators(g, n, dim - d), ct):
            eqs_ct.append(_sparse_row([*span.items(), (len(ct), x)]))
            eqs_tl.append(_sparse_row([*((at[p], v) for p, v in span.items()
                                         if p in at), (len(tl), y)]))
        verdict, witness = _span_verdict(ct, eqs_ct)
        if verdict == FAIL:
            return _timed(CheckReport("exp-identities", params, FAIL, {
                "identity": "exp-vs-graded", "degree": d, "inner": witness,
            }), t0)
        verdict, witness = _span_verdict([ct[p] for p in tl], eqs_tl)
        if verdict == FAIL and tl_failure is None:
            tl_failure = {"identity": "treelike-factorization", "degree": d,
                          "inner": witness}
    return _timed(CheckReport(
        "exp-identities", params, FAIL if tl_failure else PASS_MOD,
        tl_failure or {"degrees_checked": dim + 1}), t0)


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


def check_section7() -> list[CheckReport]:
    """Five claims about the fixed data a=(2,4,-6), b=(-3,-1,4), k=0 on the
    genus-1, 3-pointed space, read from one block of the degree-1
    generators against the degree-2 classes and the three banana strata.
    Each runtime_ms counts from the start of the bundle."""
    t0 = time.monotonic()
    g, n = 1, 3
    base_params = {"g": g, "n": n, "k": 0,
                   "a": list(SECTION7_A), "b": list(SECTION7_B)}
    da, db, dab = (_drc(RamificationData(g, n, 0, a)) for a in (
        SECTION7_A, SECTION7_B, tuple(map(sum, zip(SECTION7_A, SECTION7_B)))))
    irr = single(g, n, make_stratum(make_graph([0], [(1, 2, 3)], [(0, 0)]),
                                    {}, {}, {}))
    # two-edge graphs separating marking i from the other two; both
    # vertices rational, so the strata miss the treelike locus
    bananas = [make_stratum(make_graph(
        [0, 0], [(i,), tuple(sorted({1, 2, 3} - {i}))], [(0, 1), (0, 1)]),
        {}, {}, {}) for i in (1, 2, 3)]
    prod_b, prod_ab = multiply(da, db), multiply(da, dab)
    classes = (prod_b.sub(prod_ab), multiply(da, irr),  # the rank vectors
               multiply(irr, db.sub(dab)), multiply(irr, irr),
               restrict(prod_b, "tl"), restrict(prod_ab, "tl"))
    cogens = generators(g, n, 1)
    rows = list(_cogenerator_rows(classes, cogens, bananas))
    reports: list[CheckReport] = []

    def report(name: str, verdict: str, witness: dict, **params) -> None:
        reports.append(_timed(CheckReport(
            name, dict(base_params, **params), verdict, witness), t0))

    # 1. the two products differ (not even equal modulo the pairing)
    hit = _separating(rows, 0, cogens)
    report("section7-products-differ", FAIL if hit is None else PASS,
           {"note": "products agree modulo the pairing"} if hit is None else
           {"separating_generator": hit["generator"],
            "pairing_gap": hit["pairing"]})

    # 2. the difference lies in the span of the three banana strata
    verdict, witness = _span_verdict(bananas, [_sparse_row(
        [*span.items(), (3, values[0])]) for _, span, values in rows])
    report("section7-banana-span", verdict, witness, degree=2,
           span=[s.label() for s in bananas])

    # 3. both products restrict nontrivially to the treelike locus: each
    # pairs nonzero against some treelike complementary generator
    hits = {label: _separating(rows, k, cogens,
                               lambda c: c.graph.is_treelike())
            for label, k in (("a*b", 4), ("a*(a+b)", 5))}
    report("section7-treelike-nontrivial",
           FAIL if None in hits.values() else PASS,
           {label: hit or "treelike restriction pairs to zero"
            for label, hit in hits.items()})

    # 4. the self-intersection of the nonseparating boundary divisor
    # pairs to zero in degree 2
    hit = _separating(rows, 3, cogens)
    report("section7-irr-square-zero", PASS_MOD if hit is None else FAIL,
           hit or {"generators_checked": len(cogens)})

    # 5. D_a*(D_b - D_{a+b}), D_a*irr, irr*(D_b - D_{a+b}) are linearly
    # independent as pairing vectors
    rank = matrix_rank([values[:3] for _, _, values in rows])
    report("section7-rank-three", PASS if rank == 3 else FAIL,
           {"rank": rank,
            "vectors": ["a*(b - (a+b))", "a*irr", "irr*(b - (a+b))"]})
    return reports
