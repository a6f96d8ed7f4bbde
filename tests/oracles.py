"""Reference computations for the tests, kept independent of the code they
check: nothing here calls into the weighting-sum machinery of
tautring.pixton, the excess-intersection product of tautring.product or the
kappa reduction of tautring.integrate.  Only subset_kappa_integral, which
checks that kappa reduction, takes its pure psi integrals from
tautring.integrate.psi_integral; dvv_correlator checks those.  The
ungrouped product builds its structures from tautring.graphs and integrates
one monomial at a time with monomial_integral, which reads each vertex's
points off the graph and integrates them with subset_kappa_integral.  The
linear-algebra references (dense Bareiss, Gauss-Jordan over Fractions)
share nothing with tautring.integrate, and the generator reference is the
make_stratum round trip that tautring.strata.generators replaced.  The
weighting-sum constant terms have closed forms on one-vertex graphs and on
trees (loop_constant_term, tree_constant_term), and hain_divisor_by_subsets
is Hain's divisor summed over every (g', P) with both sides compared."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

from tautring.graphs import (
    automorphism_count,
    contract,
    enumerate_stable_graphs,
    isomorphisms,
    make_graph,
)
from tautring.integrate import psi_integral
from tautring.strata import TautClass, _decorations, make_stratum


def psi_times(i, x):
    """Product with the psi class at marking i: raise its exponent on every
    term, with no common degeneration involved."""
    out = TautClass(x.g, x.n, x.degree + 1)
    for s, c in x.terms.items():
        pl = dict(s.psi_leg)
        pl[i] = pl.get(i, 0) + 1
        out.iadd_term(make_stratum(s.graph, pl, s.psi_he, s.kappa), c)
    return out


def kappa1_times(x):
    """Product with kappa_1: one kappa_1 factor on each vertex in turn."""
    out = TautClass(x.g, x.n, x.degree + 1)
    for s, c in x.terms.items():
        for v in range(s.graph.num_vertices):
            kp = dict(s.kappa)
            kp[v] = kp.get(v, ()) + (1,)
            out.iadd_term(make_stratum(s.graph, s.psi_leg, s.psi_he, kp), c)
    return out


def residue_bound(data):
    """max(sum |A_i|, |k|(2g-2+n)): a modulus bound that depends on the
    ramification data alone, at or above every graph's weighting threshold."""
    return max(sum(abs(x) for x in data.A),
               abs(data.k) * (2 * data.g - 2 + data.n))


def weighting_targets(G, data):
    """k(2g(v)-2+n(v)) minus the A_i of the legs at v, per vertex v, with
    n(v) counting legs and half-edges."""
    valence = [len(G.legs[v]) for v in range(G.num_vertices)]
    for u, v in G.edges:
        valence[u] += 1
        valence[v] += 1
    return [data.k * (2 * G.genera[v] - 2 + valence[v])
            - sum(data.A[m - 1] for m in G.legs[v])
            for v in range(G.num_vertices)]


def max_cut_target(G, data):
    """The largest |sum_{v in S} t_v| over all vertex sets S."""
    t = weighting_targets(G, data)
    return max(abs(sum(s)) for size in range(len(t) + 1)
               for s in itertools.combinations(t, size))


def brute_force_weighting_value(G, data, mvec, r):
    """r^{-h1} times the sum of prod_e (w(h)w(h'))^{m_e+1} over all
    weightings mod r of G, found by trying every per-edge weight.

    Edge e = (u, v) has half-edge 2e at u with weight w_e in [0, r) and
    half-edge 2e+1 at v with weight -w_e mod r.  A weighting is kept when at
    every vertex v the weights of its half-edges plus the A_i of its legs are
    congruent to k(2g(v)-2+n(v)) mod r.
    """
    V, E = G.num_vertices, G.num_edges
    targets = weighting_targets(G, data)
    total = 0
    for w in itertools.product(range(r), repeat=E):
        sums = [0] * V
        for (u, v), we in zip(G.edges, w):
            sums[u] += we
            sums[v] -= we
        if any((s - t) % r for s, t in zip(sums, targets)):
            continue
        term = 1
        for we, m in zip(w, mvec):
            term *= (we * (-we % r)) ** (m + 1)
        total += term
    return Fraction(total, r ** (E - V + 1))


@functools.cache
def bernoulli(m):
    """B_m with B_1 = -1/2, by sum_{j<=m} binom(m+1, j) B_j = 0."""
    if m == 0:
        return Fraction(1)
    return -sum((math.comb(m + 1, j) * bernoulli(j) for j in range(m)),
                Fraction(0)) / (m + 1)


def loop_constant_term(mvec):
    """The r-constant term of the weighting sum of a one-vertex graph for
    A = 0, k = 0: every loop weight runs freely over [0, r), so the average
    is a product over the loops of r^{-1} sum_w (w(r-w))^{m+1}, whose
    constant term is (-1)^{m+1} B_{2m+2}."""
    return math.prod((-1) ** (m + 1) * bernoulli(2 * m + 2) for m in mvec)


def tree_constant_term(G, data, mvec):
    """The r-constant term of the weighting sum of a tree: edge e takes the
    weight s_e mod r, s_e the sum of the weighting_targets on one side of
    e, so it contributes (s_e (r - s_e))^{m_e+1} for r > |s_e|, with
    constant term (-s_e^2)^{m_e+1}."""
    targets = weighting_targets(G, data)
    out = 1
    for e, m in enumerate(mvec):
        side = {G.edges[e][0]}
        grown = True
        while grown:
            grown = False
            for f, (u, v) in enumerate(G.edges):
                if f != e and (u in side) != (v in side):
                    side |= {u, v}
                    grown = True
        out *= (-sum(targets[v] for v in side) ** 2) ** (m + 1)
    return out


def hain_divisor_by_subsets(data):
    """Hain's divisor with its boundary part summed over every genus g'
    and marking set P on one side of a separating edge, both sides
    computed and compared wherever a divisor is met twice."""
    g, n, k = data.g, data.n, data.k
    a = data.a
    main = make_graph([g], [tuple(range(1, n + 1))], [])
    out = TautClass(g, n, 1)
    for i in range(1, n + 1):
        out.iadd_term(make_stratum(main, psi_leg={i: 1}),
                      Fraction((a[i - 1] + k) ** 2, 2))
    out.iadd_term(make_stratum(main, kappa={0: (1,)}), Fraction(-k * k, 2))
    seen = {}
    marks = tuple(range(1, n + 1))
    for gp in range(g + 1):
        for size in range(n + 1):
            for P in itertools.combinations(marks, size):
                Pc = tuple(m for m in marks if m not in P)
                if 2 * gp - 1 + len(P) <= 0 or 2 * (g - gp) - 1 + len(Pc) <= 0:
                    continue
                stratum = make_stratum(
                    make_graph([gp, g - gp], [P, Pc], [(0, 1)]))
                x = sum(a[i - 1] for i in P) - (2 * gp - 1) * k
                coeff = Fraction(-x * x, 2)
                assert seen.setdefault(stratum, coeff) == coeff
    for stratum, coeff in seen.items():
        out.iadd_term(stratum, coeff)
    return out


def _double_factorial(k):
    return math.prod(range(k, 0, -2))


@functools.cache
def dvv_correlator(g, exps):
    """<tau_{exps[0]} ... tau_{exps[-1]}>_g by the plain DVV recursion on the
    largest index, with no string or dilaton shortcut; zero off dimension or
    unstable.  exps must be a tuple."""
    n = len(exps)
    if g < 0 or min(exps, default=0) < 0 or 2 * g - 2 + n <= 0 \
            or sum(exps) != 3 * g - 3 + n:
        return Fraction(0)
    exps = tuple(sorted(exps, reverse=True))
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(1, 24)
    k = exps[0] - 1
    rest = exps[1:]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        merged = rest[:j] + (dj + k,) + rest[j + 1:]
        total += (Fraction(_double_factorial(2 * k + 2 * dj + 1),
                           _double_factorial(2 * dj - 1))
                  * dvv_correlator(g, merged))
    for a in range(k):
        b = k - 1 - a
        w = Fraction(_double_factorial(2 * a + 1)
                     * _double_factorial(2 * b + 1), 2)
        total += w * dvv_correlator(g - 1, (a, b) + rest)
        for mask in range(1 << len(rest)):
            part = tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            comp = tuple(rest[i] for i in range(len(rest))
                         if not mask >> i & 1)
            for g1 in range(g + 1):
                left = dvv_correlator(g1, (a,) + part)
                if left:
                    total += w * left * dvv_correlator(g - g1, (b,) + comp)
    return total / _double_factorial(2 * k + 3)



@functools.cache
def subset_kappa_integral(g, psi, kappa):
    """Integral of prod psi_i^{psi[i]} * prod_a kappa_a over Mbar_{g,n} by
    pushing the last kappa part to a new marking, summed over every subset T
    of the other parts (no grouping of equal parts):
    sum_T (-1)^{|T|} <psi, psi_new^{b_m + 1 + sum_T b_j}, kappa_{rest}>.
    psi and kappa must be tuples."""
    if not kappa:
        return psi_integral(g, psi)
    last, others = kappa[-1], kappa[:-1]
    total = Fraction(0)
    for mask in range(1 << len(others)):
        chosen = [others[i] for i in range(len(others)) if mask >> i & 1]
        kept = tuple(others[i] for i in range(len(others))
                     if not mask >> i & 1)
        total += ((-1) ** len(chosen)
                  * subset_kappa_integral(g, psi + (last + 1 + sum(chosen),),
                                          kept))
    return total


@functools.cache
def _structures(G, target):
    """Every way G contracts onto target: each choice of |E(target)| kept
    edges whose contraction is isomorphic to target, times the
    isomorphisms, as (kept edges, half-edge transport, preimage vertices)."""
    out = []
    E, eT = G.num_edges, target.num_edges
    for kept in itertools.combinations(range(E), eT):
        H, vmap, hemap_c = contract(G, frozenset(range(E)) - frozenset(kept))
        inv_c = {w: h for h, w in hemap_c.items()}
        for vperm, hemap_phi in isomorphisms(target, H):
            out.append((frozenset(kept),
                        {h: inv_c[hemap_phi[h]] for h in range(2 * eT)},
                        [[w for w in range(G.num_vertices)
                          if vmap[w] == vperm[v]]
                         for v in range(target.num_vertices)]))
    return out


def ungrouped_monomials(sa, sb):
    """The monomials (G, psi_leg, psi_he, kappa, coeff) of [sa] * [sb], one
    per structure pair and choice of targets, with coefficient
    (-1)^(shared edges) / (|Aut A| |Aut B|): the excess-intersection sum of
    Graber-Pandharipande, Appendix A, with no grouping and no pruning (a
    monomial above a vertex dimension integrates to zero and makes an
    invalid stratum)."""
    GA, GB = sa.graph, sb.graph
    g, n = GA.genus(), GA.num_legs
    pref = Fraction(1, automorphism_count(GA) * automorphism_count(GB))
    pl = Counter(dict(sa.psi_leg))
    pl.update(dict(sb.psi_leg))
    max_edges = min(GA.num_edges + GB.num_edges, 3 * g - 3 + n)
    for G in enumerate_stable_graphs(g, n, max_edges):
        every = frozenset(range(G.num_edges))
        for ka, he_a, vpre_a in _structures(G, GA):
            for kb, he_b, vpre_b in _structures(G, GB):
                if ka | kb != every:
                    continue
                shared = sorted(ka & kb)
                ph0 = Counter()
                # (degree, [(vertex, half-edge or None), ...]) per factor: a
                # kappa part lands on one preimage vertex, each excess
                # factor -psi_h - psi_h' on one of its half-edges
                factors = []
                for st, he, vpre in ((sa, he_a, vpre_a), (sb, he_b, vpre_b)):
                    for h, e in st.psi_he:
                        ph0[he[h]] += e
                    for v, parts in st.kappa:
                        factors += [(a, [(w, None) for w in vpre[v]])
                                    for a in parts]
                factors += [(1, [(None, 2 * e), (None, 2 * e + 1)])
                            for e in shared]
                coeff = pref * (-1) ** len(shared)
                for choice in itertools.product(*(opts for _, opts in factors)):
                    ph = Counter(ph0)
                    kp = {}
                    for (a, _), (w, h) in zip(factors, choice):
                        if h is None:
                            kp.setdefault(w, []).append(a)
                        else:
                            ph[h] += 1
                    yield G, dict(pl), dict(ph), kp, coeff


def monomial_integral(G, pl, ph, kp):
    """1/|Aut G| times the product over the vertices v of the integral of
    the psi of v's legs (pl) and half-edges (ph) and of v's kappa parts."""
    value = Fraction(1, automorphism_count(G))
    for v, gv in enumerate(G.genera):
        hes = [2 * e + i for e, ends in enumerate(G.edges)
               for i in (0, 1) if ends[i] == v]
        psi = tuple(pl.get(m, 0) for m in G.legs[v]) \
            + tuple(ph.get(h, 0) for h in hes)
        value *= subset_kappa_integral(gv, psi, tuple(kp.get(v, ())))
    return value


def ungrouped_product(s, t):
    """([s] * [t], <s, t>) from the ungrouped monomials: the product
    collected into strata, and the sum of each coefficient times
    monomial_integral, which is the pairing in complementary degree."""
    out = TautClass(s.graph.genus(), s.graph.num_legs, s.degree + t.degree)
    value = Fraction(0)
    for G, pl, ph, kp, c in ungrouped_monomials(s, t):
        out.iadd_term(make_stratum(G, pl, ph, kp), c)
        value += c * monomial_integral(G, pl, ph, kp)
    return out, value


def ungrouped_pairing(s, t):
    """<s, t> alone from the ungrouped monomials: the sum of each
    coefficient times monomial_integral, with no product collected."""
    return sum((c * monomial_integral(G, pl, ph, kp)
                for G, pl, ph, kp, c in ungrouped_monomials(s, t)),
               Fraction(0))


def bssz_psi_integral(g, a, s):
    """The integral of psi_s^{2g-3+n} over DR_g(a), s counted from 1, by the
    formula of Buryak-Shadrin-Spitz-Zvonkine ("Integrals of psi-classes over
    double ramification cycles", arXiv:1211.5273):

        [z^{2g}] prod_{i != s} S(a_i z) / S(z),   S(z) = sinh(z/2) / (z/2),

    with the series truncated past z^{2g}."""
    def series(c):
        # sinh(x)/x at x = c z / 2: the z^k coefficient, k even
        return [Fraction(c ** k, 2 ** k * math.factorial(k + 1)) if k % 2 == 0
                else Fraction(0) for k in range(2 * g + 1)]

    num = series(0)
    for i, ai in enumerate(a, 1):
        if i != s:
            f = series(ai)
            num = [sum(num[j] * f[k - j] for j in range(k + 1))
                   for k in range(2 * g + 1)]
    den = series(1)
    quot = []
    for k in range(2 * g + 1):
        quot.append(num[k] - sum(den[j] * quot[k - j] for j in range(1, k + 1)))
    return quot[2 * g]


def bareiss_rank(rows):
    """Rank by dense Bareiss elimination over the integers, after clearing
    each row's denominators; every division by the previous pivot is
    checked to be exact."""
    mat = []
    for r in rows:
        den = math.lcm(*(Fraction(x).denominator for x in r))
        mat.append([int(Fraction(x) * den) for x in r])
    nrows, ncols = len(mat), len(mat[0]) if mat else 0
    rank, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, nrows):
            head = mat[i][col]
            for j in range(col, ncols):
                q, rem = divmod(mat[i][j] * mat[rank][col]
                                - mat[rank][j] * head, prev)
                assert not rem, "Bareiss division not exact"
                mat[i][j] = q
        prev = mat[rank][col]
        rank += 1
        if rank == nrows:
            break
    return rank


def gauss_jordan_solve(rows, rhs):
    """(solution, None) of A x = b with free variables zero, or (None,
    row) with row a reduced row of the augmented matrix whose coefficients
    are all zero and whose right side is not: reduced row echelon form
    over Fractions."""
    aug = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        if col == ncols:
            return None, aug[r]
        pivots.append(col)
    sol = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        sol[col] = aug[r][ncols]
    return sol, None


def make_stratum_generators(g, n, d):
    """The generators of codimension d on Mbar_{g,n} as they were built
    before orbit representatives: make_stratum on every decoration of every
    graph, deduplicated, sorted by sort_key."""
    if d > 3 * g - 3 + n:
        return ()
    seen = {}
    for graph in enumerate_stable_graphs(g, n, d):
        if graph.num_edges <= d:
            for pl, ph, kp in _decorations(graph, d - graph.num_edges):
                seen.setdefault(make_stratum(graph, pl, ph, kp))
    return tuple(sorted(seen, key=lambda s: s.sort_key()))
