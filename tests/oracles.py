"""Reference computations for the tests, kept independent of the code they
check: nothing here calls into the weighting-sum machinery of
tautring.pixton or the excess-intersection product of tautring.product."""

import itertools
from fractions import Fraction

from tautring.strata import TautClass, make_stratum


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


def brute_force_weighting_value(G, data, mvec, r):
    """r^{-h1} times the sum of prod_e (w(h)w(h'))^{m_e+1} over all
    weightings mod r of G, found by trying every per-edge weight.

    Edge e = (u, v) has half-edge 2e at u with weight w_e in [0, r) and
    half-edge 2e+1 at v with weight -w_e mod r.  A weighting is kept when at
    every vertex v the weights of its half-edges plus the A_i of its legs are
    congruent to k(2g(v)-2+n(v)) mod r, n(v) counting legs and half-edges.
    """
    V, E = G.num_vertices, G.num_edges
    valence = [len(G.legs[v]) for v in range(V)]
    for u, v in G.edges:
        valence[u] += 1
        valence[v] += 1
    targets = [data.k * (2 * G.genera[v] - 2 + valence[v])
               - sum(data.A[m - 1] for m in G.legs[v]) for v in range(V)]
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
