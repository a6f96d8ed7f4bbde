import itertools
import math
import random
from fractions import Fraction

import pytest

from tautring.graphs import DomainError, make_graph
from tautring.integrate import (
    double_factorial,
    evaluate,
    fraction_free_echelon,
    kappa_psi_integral,
    matrix_rank,
    pair_classes,
    pair_strata,
    pairing_matrix,
    psi_integral,
    solve_linear_system,
    stratum_integral,
)
from tautring.product import multiply_strata
from tautring.strata import generators, make_stratum, single

from oracles import dvv_correlator


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(7) == 105
    with pytest.raises(DomainError):
        double_factorial(4)


def test_base_correlators():
    assert psi_integral(0, (0, 0, 0)) == 1
    assert psi_integral(1, (1,)) == Fraction(1, 24)


def test_known_correlators():
    assert psi_integral(1, (0, 2)) == Fraction(1, 24)
    assert psi_integral(1, (1, 1)) == Fraction(1, 24)
    assert psi_integral(2, (4,)) == Fraction(1, 1152)
    assert psi_integral(2, (0, 5)) == Fraction(1, 1152)
    assert psi_integral(2, (1, 4)) == Fraction(1, 384)
    assert psi_integral(2, (2, 3)) == Fraction(29, 5760)


def test_dimension_mismatch_is_zero():
    assert psi_integral(1, (0,)) == 0
    assert psi_integral(0, (1, 0, 0)) == 0
    assert psi_integral(2, (9,)) == 0


def test_unstable_is_zero():
    assert psi_integral(0, (0, 0)) == 0
    assert psi_integral(1, ()) == 0


def test_genus_zero_closed_formula_exhaustive():
    # <tau_{d_1}...tau_{d_n}>_0 = (n-3)! / prod d_i!  when sum d_i = n-3
    for n in range(3, 8):
        target = n - 3
        stack = [((), target)]
        while stack:
            prefix, rest = stack.pop()
            if len(prefix) == n:
                if rest == 0:
                    expect = Fraction(math.factorial(n - 3))
                    for d in prefix:
                        expect /= math.factorial(d)
                    assert psi_integral(0, prefix) == expect
                continue
            for d in range(rest + 1):
                stack.append((prefix + (d,), rest - d))


def test_string_and_dilaton_seeded_random():
    rng = random.Random(1029)
    checked = 0
    while checked < 200:
        g = rng.randint(0, 3)
        n = rng.randint(1, 6)
        if 2 * g - 2 + n <= 0:
            continue
        dim = 3 * g - 3 + n
        cuts = sorted(rng.randint(0, dim) for _ in range(n - 1))
        d = tuple(b - a for a, b in zip([0] + cuts, cuts + [dim]))
        base = psi_integral(g, d)
        string = sum(psi_integral(g, d[:i] + (d[i] - 1,) + d[i + 1:])
                     for i in range(n) if d[i] > 0)
        assert psi_integral(g, (0,) + d) == string
        assert psi_integral(g, (1,) + d) == (2 * g - 2 + n) * base
        checked += 1


def test_correlators_match_plain_dvv_recursion():
    # every sorted exponent vector with g <= 3 and n <= 5, against the DVV
    # recursion with no string or dilaton shortcut
    checked = 0
    for g in range(4):
        for n in range(6):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0:
                continue
            for exps in itertools.combinations_with_replacement(
                    range(dim + 1), n):
                if sum(exps) == dim:
                    assert psi_integral(g, exps) == dvv_correlator(g, exps), \
                        (g, exps)
                    checked += 1
    assert checked == 140


def test_kappa_integrals():
    assert kappa_psi_integral(1, (0,), (1,)) == Fraction(1, 24)
    assert kappa_psi_integral(0, (0, 0, 0, 0), (1,)) == 1
    assert kappa_psi_integral(0, (0,) * 5, (2,)) == 1
    assert kappa_psi_integral(0, (0,) * 6, (3,)) == 1
    assert kappa_psi_integral(0, (0,) * 5, (1, 1)) == 5
    assert kappa_psi_integral(2, (), (1, 1, 1)) == Fraction(43, 2880)
    # off-dimension and unstable
    assert kappa_psi_integral(1, (1,), (1,)) == 0
    assert kappa_psi_integral(1, (), (1,)) == 0


def test_kappa_order_invariance():
    rng = random.Random(7)
    for _ in range(20):
        g = rng.randint(0, 2)
        n = rng.randint(1, 4)
        if 2 * g - 2 + n <= 0:
            continue
        parts = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        a = kappa_psi_integral(g, exps, tuple(parts))
        rng.shuffle(parts)
        assert kappa_psi_integral(g, exps, tuple(parts)) == a


def test_stratum_and_class_evaluation():
    sm = make_graph([1], [(1,)], [])
    psi = make_stratum(sm, {1: 1}, {}, {})
    kap = make_stratum(sm, {}, {}, {0: (1,)})
    loop = make_stratum(make_graph([0], [(1,)], [(0, 0)]), {}, {}, {})
    assert stratum_integral(psi) == Fraction(1, 24)
    assert stratum_integral(kap) == Fraction(1, 24)
    assert stratum_integral(loop) == Fraction(1, 2)
    assert evaluate(single(1, 1, psi).scale(Fraction(48))) == 2


def test_pairing_symmetry_random():
    rng = random.Random(31337)
    gens1 = generators(1, 2, 1)
    for _ in range(12):
        s = rng.choice(gens1)
        t = rng.choice(gens1)
        assert pair_strata(s, t) == pair_strata(t, s)


def test_fused_pairing_matches_product_route():
    # pair_strata integrates product monomials in place; the oracle builds
    # the product class and evaluates it
    pairs = nonzero = 0
    for g, n in [(0, 5), (1, 2), (1, 3), (2, 0)]:
        dim = 3 * g - 3 + n
        for d in range(dim + 1):
            for s in generators(g, n, d):
                for t in generators(g, n, dim - d):
                    value = pair_strata(s, t)
                    assert value == evaluate(multiply_strata(s, t)), (s, t)
                    pairs += 1
                    nonzero += value != 0
    assert (pairs, nonzero) == (1553, 1118)


def test_pair_classes_type_check():
    x = single(1, 1, generators(1, 1, 1)[0])
    y = single(1, 2, generators(1, 2, 1)[0])
    with pytest.raises(DomainError):
        pair_classes(x, y)


def test_pairing_matrix_values_and_rank():
    pm = pairing_matrix(1, 1, 1)
    assert len(pm.rows) == 3 and len(pm.cols) == 1
    flat = sorted(pm.entries[i][0] for i in range(3))
    assert flat == [Fraction(1, 24), Fraction(1, 24), Fraction(1, 2)]
    assert pm.rank == 1
    assert pairing_matrix(1, 2, 1).rank == 2
    # out-of-range degrees give empty matrices
    assert pairing_matrix(1, 1, 2).rows == ()
    assert pairing_matrix(1, 1, -1).rows == ()


def keel_betti(n):
    """Even Betti numbers of Mbar_{0,n} by Keel's recursion (Trans. AMS 330,
    1992): P_{m+1} = (1+t) P_m + (t/2) sum_{j=2}^{m-2} C(m,j) P_{j+1} P_{m-j+1}
    with P_3 = 1."""
    P = {3: [1]}
    for m in range(3, n):
        twice = [0] * (m - 1)
        for i, c in enumerate(P[m]):
            twice[i] += 2 * c
            twice[i + 1] += 2 * c
        for j in range(2, m - 1):
            for a, x in enumerate(P[j + 1]):
                for b, y in enumerate(P[m - j + 1]):
                    twice[a + b + 1] += math.comb(m, j) * x * y
        P[m + 1] = [c // 2 for c in twice]
    return P[n]


def test_pairing_ranks_match_betti_numbers():
    # the pairing is perfect on R*(Mbar_{0,n}) = H^{2*}(Mbar_{0,n})
    for n in (5, 6):
        betti = keel_betti(n)
        assert betti[1] == 2 ** (n - 1) - math.comb(n, 2) - 1
        assert [pairing_matrix(0, n, d).rank for d in range(n - 2)] == betti
    # h^2(Mbar_{1,n}) = 2^n - n, and rank_d = rank_{dim-d}
    ranks = [pairing_matrix(1, 3, d).rank for d in range(4)]
    assert ranks[1] == 2 ** 3 - 3
    assert ranks == ranks[::-1]


def gauss_rank_oracle(rows):
    rows = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_fraction_free_echelon_matches_gauss_oracle():
    rng = random.Random(2718)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                 for _ in range(n)] for _ in range(m)]
        assert matrix_rank(rows) == gauss_rank_oracle(rows)
    r, piv, ech = fraction_free_echelon([[Fraction(2), Fraction(4)],
                                         [Fraction(1), Fraction(3)]])
    assert r == 2 and piv == (0, 1)


def test_solve_linear_system():
    rows = [[Fraction(1), Fraction(2)],
            [Fraction(2), Fraction(4)],
            [Fraction(0), Fraction(1)]]
    sol, res = solve_linear_system(rows, [Fraction(5), Fraction(10), Fraction(2)])
    assert sol == [Fraction(1), Fraction(2)] and res is None
    sol, res = solve_linear_system(rows, [Fraction(5), Fraction(11), Fraction(2)])
    assert sol is None and res is not None
    # underdetermined: free variables default to zero, residual empty
    sol, res = solve_linear_system([[Fraction(0), Fraction(1)]], [Fraction(7)])
    assert res is None
    assert sol[1] == 7
