import hashlib
import json
import random
from fractions import Fraction

import pytest

from tautring.graphs import DomainError, make_graph
from tautring.integrate import pair_classes, pair_strata
from tautring.pixton import RamificationData
from tautring.product import multiply
from tautring.strata import TautClass, generators, make_stratum, single
from tautring.verify import (
    CheckReport,
    check_exp_identities,
    check_gplus1,
    check_multiplicativity,
    check_section7,
    in_span_mod_pairing,
    is_zero_mod_pairing,
)

from oracles import gauss_jordan_solve, ungrouped_pairing


def smooth(g, n):
    return make_graph([g], [tuple(range(1, n + 1))], [])


def test_zero_class_passes():
    rep = is_zero_mod_pairing(TautClass(1, 2, 1))
    assert rep.verdict == "pass-mod-pairing-kernel"
    assert rep.witness["generators_checked"] == 5


def test_nonzero_class_fails_with_witness():
    psi = single(1, 1, make_stratum(smooth(1, 1), {1: 1}, {}, {}))
    rep = is_zero_mod_pairing(psi)
    assert rep.verdict == "fail"
    assert rep.witness["pairing"] == Fraction(1, 24)


def test_degree_beyond_dimension_is_vacuous():
    rep = is_zero_mod_pairing(TautClass(1, 1, 5))
    assert rep.passed


def test_span_membership_with_verified_certificate():
    g, n = 1, 2
    sm = smooth(g, n)
    kap = single(g, n, make_stratum(sm, {}, {}, {0: (1,)}))
    span = [make_stratum(sm, {1: 1}, {}, {}),
            make_stratum(sm, {2: 1}, {}, {}),
            make_stratum(make_graph([1, 0], [(), (1, 2)], [(0, 1)]),
                         {}, {}, {})]
    rep = in_span_mod_pairing(kap, span)
    assert rep.verdict == "pass-mod-pairing-kernel"
    coeffs = rep.witness["coefficients"]
    # the certificate must reproduce every pairing of the target class
    for c in generators(g, n, 1):
        got = sum((coeffs[s.label()] * pair_strata(s, c) for s in span),
                  Fraction(0))
        want = sum((w * pair_strata(s, c) for s, w in kap.terms.items()),
                   Fraction(0))
        assert got == want


def test_span_failure_carries_residual():
    g, n = 1, 2
    psi = single(g, n, make_stratum(smooth(g, n), {1: 1}, {}, {}))
    irr = make_stratum(make_graph([0], [(1, 2)], [(0, 0)]), {}, {}, {})
    rep = in_span_mod_pairing(psi, [irr])
    assert rep.verdict == "fail"
    row = rep.witness["residual_row"]
    assert row[-1] != 0 and all(v == 0 for v in row[:-1])


def test_span_rejects_degree_mismatch():
    g, n = 1, 2
    psi = single(g, n, make_stratum(smooth(g, n), {1: 1}, {}, {}))
    banana = make_stratum(
        make_graph([0, 0], [(1,), (2,)], [(0, 1), (0, 1)]), {}, {}, {})
    with pytest.raises(DomainError):
        in_span_mod_pairing(psi, [banana])


def test_check_report_serialization():
    rep = CheckReport("demo", {"x": Fraction(1, 3)}, "pass",
                      {"v": [Fraction(2), "s"]}, runtime_ms=17)
    full = json.loads(rep.to_json())
    assert full["params"]["x"] == "1/3"
    assert full["witness"]["v"] == ["2", "s"]
    assert full["runtime_ms"] == 17
    bare = json.loads(rep.to_json(with_runtime=False))
    assert "runtime_ms" not in bare
    assert rep.passed


def test_multiplicativity_input_validation():
    with pytest.raises(DomainError):
        check_multiplicativity(RamificationData(1, 2, 0, (1, -1)),
                               RamificationData(1, 3, 0, (1, 0, -1)))
    with pytest.raises(DomainError):
        # degree 2g exceeds the dimension of the one-pointed genus-1 space
        check_multiplicativity(RamificationData(1, 1, 0, (0,)),
                               RamificationData(1, 1, 0, (0,)))


def test_multiplicativity_passes_on_treelike_locus():
    rep = check_multiplicativity(RamificationData(1, 2, 0, (1, -1)),
                                 RamificationData(1, 2, 0, (3, -3)), "tl")
    assert rep.verdict == "pass-mod-pairing-kernel"


def test_locus_aliases_give_identical_reports():
    # the counterexample data, which fails on the full space
    da = RamificationData(1, 3, 0, (2, 4, -6))
    db = RamificationData(1, 3, 0, (-3, -1, 4))
    reports = [check_multiplicativity(da, db, locus).to_payload(False)
               for locus in ("all", "ALL", "Full")]
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["witness"]["pairing"] == "27/2"


def test_exp_identities_smallest_case():
    rep = check_exp_identities(RamificationData(1, 1, 0, (0,)))
    assert rep.passed
    assert rep.witness["degrees_checked"] == 2


def test_gplus1_small_case():
    rep = check_gplus1(RamificationData(1, 2, 1, (1, 1)))
    assert rep.passed
    assert rep.params["degree"] == 2


def test_section7_bundle_verdicts():
    reports = check_section7()
    by_name = {r.name: r for r in reports}
    assert len(reports) == 5
    assert by_name["section7-products-differ"].verdict == "pass"
    assert by_name["section7-banana-span"].verdict == "pass-mod-pairing-kernel"
    assert by_name["section7-treelike-nontrivial"].verdict == "pass"
    assert by_name["section7-irr-square-zero"].verdict == \
        "pass-mod-pairing-kernel"
    assert by_name["section7-rank-three"].verdict == "pass"
    assert by_name["section7-rank-three"].witness["rank"] == 3


def test_gplus1_monomial_count_pinned(monkeypatch):
    # each group of structure pairs is expanded once, and a factor on the
    # graph with no edges is pulled back onto the other factor's graph:
    # 2,096 monomials reach the products and pairings of this check through
    # product.expand and product.pullback.  Expanding every entry made
    # 2,164, and one monomial per structure pair made 18,268
    from tautring import product

    counted = [0]
    original_expand, original_pullback = product.expand, product.pullback

    def counting_expand(*args):
        for monomial in original_expand(*args):
            counted[0] += 1
            yield monomial

    def counting_pullback(*args):
        monomials = original_pullback(*args)
        counted[0] += len(monomials)
        return monomials

    monkeypatch.setattr(product, "expand", counting_expand)
    monkeypatch.setattr(product, "pullback", counting_pullback)
    assert check_gplus1(RamificationData(2, 2, 0, (2, -2))).passed
    assert counted[0] == 2096


def test_verdict_searches_match_ungrouped_oracle():
    # is_zero_mod_pairing reads a class's cogenerator rows graph by graph
    # and stops at the first nonzero one, pair_classes pairs with one
    # block: the witness must still be the first cogenerator whose oracle
    # pairing is nonzero, with that value, and pair_classes the
    # coefficient-weighted oracle sum
    rng = random.Random(1515)
    oracle = {}

    def oracle_pairing(x, y):
        total = Fraction(0)
        for s, c in x.terms.items():
            for t, d in y.terms.items():
                if s.degree + t.degree != 3 * x.g - 3 + x.n:
                    continue
                if (s, t) not in oracle:
                    oracle[s, t] = ungrouped_pairing(s, t)
                total += c * d * oracle[s, t]
        return total

    def random_class(g, n, d):
        x = TautClass(g, n, d)
        for s in generators(g, n, d):
            if rng.random() < 0.4:
                x.iadd_term(s, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return x

    def orthogonal_class(g, n, d, cogens):
        # random classes, eliminated against each of cogens in turn, so
        # the witness lies past them
        pool = [random_class(g, n, d) for _ in range(len(cogens) + 1)]
        for c in cogens:
            values = [oracle_pairing(u, single(g, n, c)) for u in pool]
            pivot = next((i for i, v in enumerate(values) if v), None)
            if pivot is not None:
                p, pv = pool.pop(pivot), values.pop(pivot)
                pool = [u.sub(p.scale(v / pv)) for u, v in zip(pool, values)]
        return pool[0]

    cases = []
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        for d in range(dim + 1):
            cogens = generators(g, n, dim - d)
            run = sum(1 for c in cogens if c.graph == cogens[0].graph)
            cases += [(random_class(g, n, d), 0),
                      (orthogonal_class(g, n, d, cogens[:run]), run)]
    irr = single(1, 3, make_stratum(make_graph([0], [(1, 2, 3)], [(0, 0)]),
                                    {}, {}, {}))
    cases.append((multiply(irr, irr), 0))  # pairs to zero with everything
    witnesses = []
    for x, skipped in cases:
        dim = 3 * x.g - 3 + x.n
        cogens = generators(x.g, x.n, dim - x.degree)
        first = next(((i, v) for i, c in enumerate(cogens)
                      if (v := oracle_pairing(x, single(x.g, x.n, c)))),
                     None)
        rep = is_zero_mod_pairing(x)
        if first is None:
            assert rep.verdict == "pass-mod-pairing-kernel"
        else:
            assert first[0] >= skipped
            assert rep.verdict == "fail"
            assert rep.witness == {"generator": cogens[first[0]].label(),
                                   "pairing": first[1]}
        witnesses.append(first and first[0])
        y = random_class(x.g, x.n, dim - x.degree)
        assert pair_classes(x, y) == oracle_pairing(x, y)
        if 2 * x.degree == dim:
            assert pair_classes(x, x) == oracle_pairing(x, x)
    # some witnesses lie past the first cogenerator
    assert witnesses[-1] is None and len([w for w in witnesses if w]) >= 3


def test_span_certificates_match_ungrouped_oracle():
    # in_span_mod_pairing solves sum_j lambda_j <s_j, c> = <x, c> over every
    # complementary generator c: it must pass exactly when the oracle's
    # system is consistent, with coefficients that satisfy each oracle
    # equation, and fail with a residual row (zero coefficients, nonzero
    # right side) otherwise.  Spans: empty, random, a repeated stratum and
    # one holding x's own strata
    rng = random.Random(2828)
    oracle = {}

    def pairing(s, c):
        if (s, c) not in oracle:
            oracle[s, c] = ungrouped_pairing(s, c)
        return oracle[s, c]

    payloads = []
    passes = fails = 0
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        for d in range(dim + 1):
            gens, cogens = generators(g, n, d), generators(g, n, dim - d)
            for _ in range(2):
                x = TautClass(g, n, d)
                for s in gens:
                    if rng.random() < 0.3:
                        x.iadd_term(s, Fraction(rng.randint(-6, 6),
                                                rng.randint(1, 4)))
                few = rng.sample(gens, min(len(gens), rng.randint(1, 4)))
                twice = rng.choice(gens)
                spans = [[], few, [twice, *few, twice],
                         [*rng.sample(gens, min(len(gens), 2)), *x.terms]]
                for span in spans:
                    rep = in_span_mod_pairing(x, span)
                    payloads.append(rep.to_json(with_runtime=False))
                    rows = [[pairing(s, c) for s in span] for c in cogens]
                    rhs = [sum((w * pairing(s, c) for s, w in x.terms.items()),
                               Fraction(0)) for c in cogens]
                    _, ref_residual = gauss_jordan_solve(rows, rhs)
                    assert rep.passed == (ref_residual is None), (x, span)
                    if not rep.passed:
                        row = rep.witness["residual_row"]
                        assert len(row) == len(span) + 1
                        assert row[-1] and not any(row[:-1])
                        fails += 1
                        continue
                    passes += 1
                    coeffs = rep.witness["coefficients"]
                    assert set(coeffs) == {s.label() for s in span}
                    # a repeated stratum has one label, its copies' sum
                    for row, y in zip(rows, rhs):
                        assert sum((coeffs[s.label()] * v
                                    for s, v in dict(zip(span, row)).items()),
                                   Fraction(0)) == y
    assert passes > 20 and fails > 10, (passes, fails)
    x = single(1, 3, generators(1, 3, 1)[0])
    with pytest.raises(DomainError):
        in_span_mod_pairing(x, [generators(1, 3, 1)[1],
                                generators(0, 5, 1)[0]])
    digest = hashlib.sha256("\n".join(payloads).encode()).hexdigest()
    assert digest == \
        "1d33643c835daa5465bf715ac1f767545ee49ea59ef20c21f89dfbda8bf3d990"


def test_span_block_has_one_column_per_distinct_stratum(monkeypatch):
    # a span certificate is one block with the complementary generators as
    # rows and one column per distinct stratum of the span and the class:
    # a stratum listed twice in the span, or also in the class, is one
    # column.  Its coefficients must solve every oracle equation
    from tautring import integrate

    blocks = []
    real = integrate._pairings

    def spy(rows, cols):
        blocks.append((rows, cols))
        return real(rows, cols)

    monkeypatch.setattr(integrate, "_pairings", spy)
    g, n, d = 1, 3, 1
    gens, cogens = generators(g, n, d), generators(g, n, 3 * g - 3 + n - d)
    x = TautClass(g, n, d)
    for k, s in enumerate(gens[1:4]):
        x.iadd_term(s, Fraction(2 * k - 3, k + 2))
    span = [gens[4], gens[1], gens[0], *x.terms, gens[4]]
    rep = in_span_mod_pairing(x, span)
    assert len(blocks) == 1
    rows, cols = blocks[0]
    assert rows == cogens
    assert len(cols) == len(set(cols)) == 5
    assert set(cols) == set(span) | set(x.terms)
    assert rep.passed
    coeffs = rep.witness["coefficients"]
    assert set(coeffs) == {s.label() for s in span}
    for c in cogens:
        rhs = sum((w * ungrouped_pairing(s, c) for s, w in x.terms.items()),
                  Fraction(0))
        assert sum((coeffs[s.label()] * ungrouped_pairing(s, c)
                    for s in dict.fromkeys(span)), Fraction(0)) == rhs
