"""Reference computations for the tests, kept independent of the code they
check: nothing here calls into the weighting-sum machinery of
tautring.pixton."""

import itertools
from fractions import Fraction


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
