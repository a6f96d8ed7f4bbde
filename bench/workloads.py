"""Operations of each benchmark workload, with the oracle that checks each.

Runs inside the child process only, after ``import tautring.cli``.  Every
call into tautring goes through a module attribute (``verify.check_gplus1``,
not a name imported from it), so the tracer's rebinding of that attribute
is seen here too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Any, Callable

from tautring import integrate, verify
from tautring.pixton import RamificationData

PASS = "pass"
PASS_MOD = "pass-mod-pairing-kernel"
FAIL = "fail"


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``run`` computes, ``check`` judges the
    result against an oracle that does not use the code under test."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# ---------------------------------------------------------------------------
# paper_checks


# Multiplicativity data for (g, n) = (1, 3), k = 0.  Every pair has
# sum|A| = 12, sum|B| = 8 and sum|A+B| = 6, so the weighting sums, whose
# cost grows with residue_bound(), cost the same for each pick.  The first
# pair is the section-7 data; the rest relabel its markings or flip all
# signs.  On the full space every pair gives unequal products (verdict
# fail); on the treelike locus the paper's theorem gives pass.
MULT_13 = (
    ((2, 4, -6), (-3, -1, 4)),
    ((4, 2, -6), (-1, -3, 4)),
    ((-6, 2, 4), (4, -3, -1)),
    ((-2, -4, 6), (3, 1, -4)),
    ((4, -6, 2), (-1, 4, -3)),
    ((-4, 6, -2), (1, -4, 3)),
)

# Multiplicativity data for (g, n) = (2, 2), k = 0, treelike locus.  With
# n = 2 and k = 0 a vector is (x, -x), so equal sums mean the same |x|:
# the members are the sign flips and the swap of ((1, -1), (2, -2)).
MULT_22 = (
    ((1, -1), (2, -2)),
    ((-1, 1), (-2, 2)),
    ((2, -2), (1, -1)),
    ((-2, 2), (-1, 1)),
)


SECTION7_VERDICTS = {
    "section7-products-differ": PASS,
    "section7-banana-span": PASS_MOD,
    "section7-treelike-nontrivial": PASS,
    "section7-irr-square-zero": PASS_MOD,
    "section7-rank-three": PASS,
}


def _section7_ok(reports: list) -> bool:
    """Acceptance criteria 01-05."""
    r = {x.name: x for x in reports}
    return ({name: x.verdict for name, x in r.items()} == SECTION7_VERDICTS
            and "separating_generator" in r["section7-products-differ"].witness
            and len(r["section7-banana-span"].witness["coefficients"]) == 3
            and r["section7-rank-three"].witness["rank"] == 3)


def _mult(g: int, n: int, pair: tuple, locus: str) -> Callable[[], Any]:
    A, B = pair
    return lambda: verify.check_multiplicativity(
        RamificationData(g, n, 0, A), RamificationData(g, n, 0, B), locus)


def _verdict_is(expected: str) -> Callable[[Any], bool]:
    def check(report) -> bool:
        if report.verdict != expected:
            return False
        # a fail must carry a generator that pairs nonzero as its witness
        return expected != FAIL or report.witness["pairing"] != 0
    return check


def paper_checks(rng: random.Random) -> list[Op]:
    m13 = rng.choice(MULT_13)
    m22 = rng.choice(MULT_22)
    return [
        Op("check_section7", verify.check_section7, _section7_ok),
        Op("multiplicativity_1_3_tl %s" % (m13,), _mult(1, 3, m13, "tl"),
           _verdict_is(PASS_MOD)),
        Op("multiplicativity_1_3_all %s" % (m13,), _mult(1, 3, m13, "all"),
           _verdict_is(FAIL)),
        Op("multiplicativity_2_2_tl %s" % (m22,), _mult(2, 2, m22, "tl"),
           _verdict_is(PASS_MOD)),
        Op("exp_identities_2_1_1_(3,)",
           lambda: verify.check_exp_identities(
               RamificationData(2, 1, 1, (3,))),
           _verdict_is(PASS_MOD)),
        Op("gplus1_2_2_0_(2,-2)",
           lambda: verify.check_gplus1(RamificationData(2, 2, 0, (2, -2))),
           _verdict_is(PASS_MOD)),
    ]


# ---------------------------------------------------------------------------
# pairing_ranks


def keel_betti(n: int) -> list[int]:
    """Even Betti numbers of Mbar_{0,n} from Keel's recursion (Trans. AMS
    330, 1992), P_{m+1} = (1+t) P_m + t/2 sum_{j=2}^{m-2} C(m,j) P_{j+1}
    P_{m-j+1} with P_3 = 1.  Independent of every tautring code path."""
    polys = {3: [1]}
    for m in range(3, n):
        twice = [0] * (m - 1)
        for i, c in enumerate(polys[m]):
            twice[i] += 2 * c
            twice[i + 1] += 2 * c
        for j in range(2, m - 1):
            for a, x in enumerate(polys[j + 1]):
                for b, y in enumerate(polys[m - j + 1]):
                    twice[a + b + 1] += comb(m, j) * x * y
        polys[m + 1] = [c // 2 for c in twice]
    return polys[n]


def expected_ranks() -> dict[tuple[int, int], list[int]]:
    """Ranks of the pairing matrices in every degree.  (0,6) comes from
    Keel's Betti numbers; on (1,4), h^2 = 2^n - n in degree 1 and rank 1 in
    degrees 0 and top are geometry, degree 2 is the value measured when the
    benchmark was written; (2,1) is all measured values.  Each row must be
    symmetric, rank_d = rank_{dim-d}."""
    table = {
        (0, 6): keel_betti(6),
        (1, 4): [1, 2 ** 4 - 4, 23, 2 ** 4 - 4, 1],
        (2, 1): [1, 3, 5, 3, 1],
    }
    for (g, n), ranks in table.items():
        if len(ranks) != 3 * g - 3 + n + 1 or ranks != ranks[::-1]:
            raise ValueError("bad expected ranks for (%d, %d)" % (g, n))
    return table


def pairing_ranks(rng: random.Random) -> list[Op]:
    ops = []
    for (g, n), ranks in expected_ranks().items():
        for d, rank in enumerate(ranks):
            ops.append(Op("pairing_matrix(%d,%d,%d).rank" % (g, n, d),
                          lambda g=g, n=n, d=d:
                          integrate.pairing_matrix(g, n, d).rank,
                          lambda got, rank=rank: got == rank))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# correlators_cold / correlators_warm


# Sum of all 515 integrals below, as computed when the benchmark was written.
CORRELATOR_TOTAL = Fraction(190930145167, 207360)


def _partitions(k: int, largest: int | None = None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def correlator_queries() -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Every top-degree monomial psi^e kappa_p on Mbar_{g,n}, g <= 3,
    n <= 3, with e sorted (the integral is symmetric in the markings)."""
    out = []
    for g in range(4):
        for n in range(4):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for e in itertools.combinations_with_replacement(
                    range(dim, -1, -1), n):
                for p in _partitions(dim - sum(e)):
                    out.append((g, e, p))
    return out


def _correlator_oracle(g: int, e: tuple[int, ...], p: tuple[int, ...]
                       ) -> Fraction | None:
    """Closed forms: genus 0 pure psi, (n-3)!/prod d_i!, and the one-point
    <tau_{3g-2}>_g = 1/(24^g g!).  None where neither applies."""
    if p:
        return None
    if g == 0:
        denom = 1
        for d in e:
            denom *= factorial(d)
        return Fraction(factorial(len(e) - 3), denom)
    if len(e) == 1:
        return Fraction(1, 24 ** g * factorial(g))
    return None


def _correlator_op(g, e, p, values: list[Fraction]) -> Op:
    oracle = _correlator_oracle(g, e, p)

    def run() -> Fraction:
        value = integrate.kappa_psi_integral(g, e, p)
        values.append(value)
        return value

    def check(value) -> bool:
        return isinstance(value, Fraction) and (oracle is None
                                                or value == oracle)

    return Op("kappa_psi_integral(%d,%s,%s)" % (g, e, p), run, check)


def correlators(rng: random.Random) -> list[Op]:
    values: list[Fraction] = []
    ops = [_correlator_op(g, e, p, values) for g, e, p in correlator_queries()]
    rng.shuffle(ops)
    # the total checks every value the closed forms cannot
    ops.append(Op("total of %d integrals" % len(ops),
                  lambda: sum(values, Fraction(0)),
                  lambda total: len(values) == len(ops) - 1
                  and total == CORRELATOR_TOTAL))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass of ``workload``; ``seed`` fixes their
    order and the paper_checks data picks."""
    rng = random.Random(seed)
    if workload == "paper_checks":
        ops = paper_checks(rng)
        rng.shuffle(ops)
        return ops
    if workload == "pairing_ranks":
        return pairing_ranks(rng)
    if workload in ("correlators_cold", "correlators_warm"):
        return correlators(rng)
    raise ValueError("unknown workload %r" % workload)
