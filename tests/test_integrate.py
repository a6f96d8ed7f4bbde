import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from tautring.graphs import DomainError, make_graph
from tautring.integrate import (
    _pairings,
    _sparse_row,
    class_pairing_vector,
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
from tautring.strata import TautClass, generators, make_stratum, single

from oracles import (
    bareiss_rank,
    dvv_correlator,
    gauss_jordan_solve,
    subset_kappa_integral,
    ungrouped_pairing,
)


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


def _partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def test_kappa_integrals_match_subset_oracle():
    # the sub-multiset sum against the plain sum over subsets: every
    # top-degree psi^e kappa_p with g <= 3, n <= 3 (e sorted), then on (1,3)
    # and (2,1) every ordering of e and of the multi-part p
    top = 0
    for g in range(4):
        for n in range(4):
            if 2 * g - 2 + n <= 0:
                continue
            dim = 3 * g - 3 + n
            for e in itertools.combinations_with_replacement(
                    range(dim, -1, -1), n):
                for p in _partitions(dim - sum(e)):
                    assert kappa_psi_integral(g, e, p) == \
                        subset_kappa_integral(g, e, p), (g, e, p)
                    top += 1
    assert top == 515
    multi = 0
    for g, n in [(1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        for e in itertools.product(range(dim + 1), repeat=n):
            for p in _partitions(dim - sum(e)):
                for q in set(itertools.permutations(p)) if len(p) > 1 else ():
                    assert kappa_psi_integral(g, e, q) == \
                        subset_kappa_integral(g, e, q), (g, e, q)
                    multi += 1
    assert multi == 17


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


def test_off_dimension_vertex_integrates_to_zero():
    # top degree overall, but psi(m1) sits on the genus-0 vertex, whose
    # dimension is 0: the local dimension guard must make it vanish (the
    # genus-1 vertex alone would give 1/24)
    G = make_graph([1, 0], [(), (1, 2)], [(0, 1)])
    s = make_stratum(G, {1: 1})
    assert s.degree == 2 and not s.is_valid()
    assert stratum_integral(s) == 0
    # a negative exponent and an off-dimension key vanish too
    assert kappa_psi_integral(1, (-1,), (2,)) == 0
    assert kappa_psi_integral(1, (1,), (1,)) == 0


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


def test_pullback_pairings_match_ungrouped_oracle():
    # a factor on the graph with no edges is pulled back onto the other
    # factor's graph instead of walking common degenerations; as a row
    # and as a column it must give the oracle's excess-intersection sum
    pairs = nonzero = 0
    for g, n in [(0, 5), (1, 2), (1, 3), (2, 0), (0, 6)]:
        dim = 3 * g - 3 + n
        for d in range(dim + 1):
            for s in generators(g, n, d):
                if s.graph.num_edges:
                    continue
                for t in generators(g, n, dim - d):
                    value = ungrouped_pairing(s, t)
                    assert pair_strata(s, t) == value, (s, t)
                    assert pair_strata(t, s) == value, (t, s)
                    pairs += 1
                    nonzero += value != 0
    assert (pairs, nonzero) == (5273, 4006)


def test_complementary_pairing_matrix_is_the_transpose():
    # for 2d > dim the matrix is built from its complement's entries; every
    # entry must still be the pairing of its row and column
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        for d in range(dim // 2 + 1, dim + 1):
            pm = pairing_matrix(g, n, d)
            assert pm.rows == generators(g, n, d)
            assert pm.cols == generators(g, n, dim - d)
            for i, s in enumerate(pm.rows):
                for j, t in enumerate(pm.cols):
                    assert pm.entries[i][j] == pair_strata(s, t)
            assert pm.rank == pairing_matrix(g, n, dim - d).rank
            assert pm.rank == matrix_rank(pm.entries)


def test_complementary_entries_are_built_on_first_read():
    # a 2d <= dim matrix holds integer rows from the call; no matrix holds
    # dense entries until they are read, and a 2d > dim matrix takes its
    # rank from its complement and its entries as the transpose of the
    # complement's
    pairing_matrix.cache_clear()
    for g, n in [(0, 6), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        for d in range(dim + 1):
            pm = pairing_matrix(g, n, d)
            assert (pm.int_rows is not None) == (2 * d <= dim)
            assert "entries" not in vars(pm)
            if 2 * d > dim:
                assert pm.rank == pairing_matrix(g, n, dim - d).rank
                assert "entries" not in vars(pm)
                assert pm.entries == tuple(zip(*pairing_matrix(
                    g, n, dim - d).entries))
            else:
                assert len(pm.entries) == len(pm.rows)
            assert "entries" in vars(pm)


def test_integer_rows_hold_the_entries():
    # each stored row is its nonzero columns ascending, with numerators
    # over the least common denominator; every other entry is zero
    for g, n in [(0, 5), (1, 3), (2, 1), (0, 6)]:
        dim = 3 * g - 3 + n
        for d in range(dim + 1):
            pm = pairing_matrix(g, n, d)
            assert pm.rank == matrix_rank(pm.entries)
            if 2 * d > dim:
                assert pm.int_rows is None
                continue
            assert len(pm.int_rows) == len(pm.rows)
            for (cols, nums, den), row in zip(pm.int_rows, pm.entries):
                assert list(cols) == sorted(set(cols)) and len(nums) == len(cols)
                assert den > 0 and all(nums) and math.gcd(den, *nums) == 1
                assert [Fraction(x, den) for x in nums] == [row[j] for j in cols]
                assert not any(x for j, x in enumerate(row) if j not in cols)


def test_pair_classes_type_check():
    x = single(1, 1, generators(1, 1, 1)[0])
    y = single(1, 2, generators(1, 2, 1)[0])
    with pytest.raises(DomainError):
        pair_classes(x, y)


def test_class_pairing_vector_type_check_and_zero_class():
    # a cogenerator of another space is refused before any degeneration
    # index is read, as a DomainError and not a KeyError
    x = single(1, 3, generators(1, 3, 1)[0])
    cogens = generators(0, 5, 1)
    with pytest.raises(DomainError):
        class_pairing_vector(x, cogens)
    cogens = generators(1, 3, 2)
    assert class_pairing_vector(TautClass(1, 3, 1), cogens) == \
        (Fraction(0),) * len(cogens)


def test_pairing_block_empty_shapes():
    # no rows or no columns: a block yields no nonzero row, and a class
    # paired with no column gives no pairings
    rows, cols = generators(1, 3, 1), generators(1, 3, 2)
    assert list(_pairings((), cols)) == []
    assert list(_pairings(rows, ())) == []
    assert list(_pairings((), ())) == []
    assert class_pairing_vector(single(1, 3, rows[0]), ()) == ()
    assert class_pairing_vector(TautClass(1, 3, 1), ()) == ()


def test_pairing_entries_pinned():
    # every entry of every pairing matrix on three spaces, one row per line
    digest = hashlib.sha256()
    count = 0
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        for d in range(3 * g - 3 + n + 1):
            for row in pairing_matrix(g, n, d).entries:
                digest.update((",".join(str(x) for x in row) + "\n").encode())
                count += len(row)
    assert count == 2281
    assert digest.hexdigest() == ("3876b0349044c18271d81471ba4b2052"
                                  "ea5d1b1196d99500ad024dfd3f2f27bc")


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


def test_pairing_matrix_refuses_unstable_type():
    # refused in every degree, as generators refuses it, not an empty matrix
    for g, n, d in [(0, 2, 0), (0, 2, 5), (1, 0, 0), (-1, 4, 0)]:
        with pytest.raises(DomainError):
            pairing_matrix(g, n, d)


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
    # (1,4): h^2 = 2^4 - 4, and 23 in the middle degree, the square
    # 129 x 129 matrix, as the benchmark's oracle has it
    assert [pairing_matrix(1, 4, d).rank for d in range(5)] == \
        [1, 12, 23, 12, 1]


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
    r, piv, ech = fraction_free_echelon([{0: 2, 1: 4}, {0: 1, 1: 3}])
    assert r == 2 and piv == (0, 1)


def test_matrix_rank_matches_plain_bareiss():
    # matrices are ranked through the distinct primitive vectors of their
    # longer side (the columns of a wide one): that must agree with dense
    # Bareiss on the matrix itself (the oracle's) and with the sparse
    # elimination of its rows
    rng = random.Random(1515)

    def entry(zero=0.3):
        if rng.random() < zero:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    shapes = [(1, 1), (1, 6), (6, 1), (3, 8), (8, 3), (5, 5), (2, 13),
              (13, 2), (7, 7)]
    cases = []
    for m, n in shapes:
        for _ in range(6):
            rows = [[entry() for _ in range(n)] for _ in range(m)]
            if m > 1:
                rows[rng.randrange(m)] = [Fraction(0)] * n  # a zero row
            cases.append(rows)
        cases.append([[Fraction(0)] * n for _ in range(m)])
    # square and rank-deficient, 30-70% zeros: an m x r times r x m
    # product of sparse integer factors, rows scaled
    for m in (3, 6, 9, 14, 20):
        for r in range(1, m):
            zero = rng.uniform(0.3, 0.7)
            left = [[entry(zero).numerator for _ in range(r)] for _ in range(m)]
            right = [[entry(zero).numerator for _ in range(m)] for _ in range(r)]
            rows = [[Fraction(sum(a * right[k][j] for k, a in enumerate(row)),
                              rng.randint(1, 6)) for j in range(m)]
                    for row in left]
            cases.append(rows)
    for rows in cases:
        rank = bareiss_rank(rows)
        assert matrix_rank(rows) == fraction_free_echelon(
            [_sparse_row(r) for r in rows])[0] == rank, \
            rows
    # planted rank r: an m x r times an r x n integer product, rows scaled
    for m, n, r in [(4, 9, 2), (9, 4, 3), (6, 6, 4), (3, 10, 3), (10, 3, 1),
                    (12, 7, 5)]:
        left = [[rng.randint(-5, 5) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(r)]
        rows = [[Fraction(sum(a * right[k][j] for k, a in enumerate(row)),
                          den) for j in range(n)]
                for row, den in zip(left, [rng.randint(1, 6) for _ in left])]
        assert matrix_rank(rows) == bareiss_rank(rows) == r
    # planted rank r with repeated vectors: rows, and separately columns,
    # drawn from r independent ones up to nonzero multiples, zero ones mixed
    # in, so the distinct primitive vectors are fewer than the side's
    scales = [Fraction(1), Fraction(-1), Fraction(3), Fraction(-3),
              Fraction(-1, 2)]
    for m, n, r in [(1, 7, 1), (7, 1, 1), (1, 5, 0), (11, 4, 2), (4, 11, 3),
                    (9, 9, 3), (15, 6, 4), (6, 15, 4)]:
        for transpose in (False, True):
            k, length = (n, m) if transpose else (m, n)
            basis = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(length)] for _ in range(r)]
            vectors = [b[:] for b in basis]
            while len(vectors) < k:
                c = rng.choice(scales) if r and rng.random() > 0.2 else 0
                vectors.append([c * x for x in rng.choice(basis)]
                               if c else [Fraction(0)] * length)
            rng.shuffle(vectors)
            rows = ([list(col) for col in zip(*vectors)] if transpose
                    else vectors)
            assert matrix_rank(rows) == bareiss_rank(rows) == \
                bareiss_rank(basis), (rows, r)
    assert matrix_rank([]) == 0
    # every pairing matrix of three spaces, (0,5) from Keel's Betti numbers
    expected = {(0, 5): [1, 5, 1], (1, 3): [1, 5, 5, 1],
                (2, 1): [1, 3, 5, 3, 1]}
    for (g, n), ranks in expected.items():
        for d, rank in enumerate(ranks):
            pm = pairing_matrix(g, n, d)
            assert pm.rank == bareiss_rank(pm.entries) == rank


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


def test_solve_linear_system_rejects_mismatched_right_side():
    # zip would drop the second equation and return x = 1
    with pytest.raises(DomainError):
        solve_linear_system([[Fraction(1)], [Fraction(2)]], [Fraction(1)])
    with pytest.raises(DomainError):
        solve_linear_system([[Fraction(1)]], [Fraction(1), Fraction(2)])
    with pytest.raises(DomainError):
        solve_linear_system([], [Fraction(1)])


def test_ragged_rows_are_refused():
    # zip(*rows) would truncate the columns to rank [[1, 2, 3], [3]] as 1,
    # and the flattened augmented rows would read the second right side as
    # a coefficient and return [-1/2, 3/4]
    with pytest.raises(DomainError):
        matrix_rank([[Fraction(1), Fraction(2), Fraction(3)], [Fraction(3)]])
    with pytest.raises(DomainError):
        solve_linear_system([[Fraction(1), Fraction(2)], [Fraction(3)]],
                            [Fraction(1), Fraction(2)])
    assert matrix_rank([[], []]) == 0
    assert solve_linear_system([[], []], [Fraction(0), Fraction(0)]) == \
        ([], None)


def test_solve_linear_system_matches_gauss_jordan():
    # consistent systems with free variables: the same solution (free
    # variables zero); inconsistent ones: a residual row with zero
    # coefficients and a nonzero right side, as the reference finds one
    rng = random.Random(4242)
    consistent = inconsistent = 0
    for _ in range(120):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(m, n))
        left = [[rng.randint(-3, 3) * (rng.random() < 0.6) for _ in range(r)]
                for _ in range(m)]
        right = [[rng.randint(-3, 3) * (rng.random() < 0.6) for _ in range(n)]
                 for _ in range(r)]
        rows = [[Fraction(sum(a * right[k][j] for k, a in enumerate(row)),
                          rng.randint(1, 4)) for j in range(n)]
                for row in left]
        if rng.random() < 0.5:  # b in the column space
            x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(n)]
            rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0))
                   for row in rows]
        else:
            rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                   for _ in range(m)]
        sol, res = solve_linear_system(rows, rhs)
        ref_sol, ref_res = gauss_jordan_solve(rows, rhs)
        assert sol == ref_sol, (rows, rhs)
        if ref_res is None:
            assert res is None
            consistent += 1
            assert all(sum((a * b for a, b in zip(row, sol)), Fraction(0)) == y
                       for row, y in zip(rows, rhs))
        else:
            assert res is not None and len(res) == n + 1
            assert not any(res[:n]) and res[n]
            inconsistent += 1
    assert consistent > 20 and inconsistent > 20


def test_integer_sums_match_per_term_fraction_sums():
    # coefficients over large pairwise coprime denominators: the products,
    # pairing vectors and span right sides summed in integers over one
    # denominator must equal their term-by-term Fraction sums
    from tautring.product import multiply
    from tautring.verify import in_span_mod_pairing

    primes = [p for p in range(10 ** 6, 10 ** 6 + 4000)
              if all(p % q for q in range(2, 1001))]
    rng = random.Random(2930)

    def random_class(g, n, d):
        x = TautClass(g, n, d)
        for s in generators(g, n, d):
            if rng.random() < 0.5:
                x.iadd_term(s, Fraction(rng.choice([-7, -2, 1, 3, 5]),
                                        primes.pop()))
        return x

    checked = 0
    for g, n, dx, dy in [(0, 5, 1, 1), (1, 3, 1, 1), (1, 3, 1, 2),
                         (2, 1, 1, 2), (2, 1, 2, 2)]:
        dim = 3 * g - 3 + n
        x, y = random_class(g, n, dx), random_class(g, n, dy)
        ref = TautClass(g, n, dx + dy)
        for s, a in x.terms.items():
            for t, b in y.terms.items():
                for st, c in multiply_strata(s, t).terms.items():
                    ref.iadd_term(st, a * b * c)
        assert multiply(x, y) == ref, (g, n, dx, dy)
        cogens = generators(g, n, dim - dx)
        vector = tuple(sum((a * pair_strata(s, c) for s, a in x.terms.items()),
                           Fraction(0)) for c in cogens)
        assert class_pairing_vector(x, cogens) == vector
        # a span of x's own strata and two more always holds x; its
        # coefficients must solve the equations built term by term
        span = list(dict.fromkeys([*rng.sample(generators(g, n, dx), 2),
                                   *x.terms]))
        rep = in_span_mod_pairing(x, span)
        assert rep.passed
        coeffs = rep.witness["coefficients"]
        for c, value in zip(cogens, vector):
            assert sum((coeffs[s.label()] * pair_strata(s, c) for s in span),
                       Fraction(0)) == value
        checked += bool(ref.terms) + any(vector)
    assert checked == 10
