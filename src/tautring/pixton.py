"""Pixton-type cycles from weightings mod r, and related classes.

The degree-d cycle P_g^{d,k}(A) on Mbar_{g,n} is assembled over stable graphs
with at most d edges.  Decorations come from the exponential factors

    legs:     exp(A_i^2 psi_i)
    vertices: exp(-k^2 kappa_1(v))
    edges:    (1 - exp(-w(h)w(h')(psi_h + psi_h'))) / (psi_h + psi_h')

where w ranges over weightings mod r (legs carry A_i, edge halves sum to 0,
vertex sums hit k(2g(v)-2+n(v))).  For each edge-power vector the weighting
sum, averaged by r^{-h1}, is a polynomial in r above the threshold
C = 1/2 sum_v |t_v| over the vertex targets t_v (proof at _weighting_ct);
its constant term enters the coefficient.  The vertex equations of each
(graph, data) pair are solved once, in one pass over a spanning tree
(_edge_forms): every edge weight becomes a form in the h1 free weights.
Each sample enumerates all r^{h1} free-weight vectors through that table in
integer arithmetic (closed_weighting_value), and the constant term is
interpolated from samples at r = C+1, C+2, ...

pixton_class adds each graph's terms with _add_graph_terms; delta_factor
adds only those of the one-vertex graphs, with A = 0 and k = 0.  The
degree-1 part on trees must reproduce twice Hain's divisor, whose boundary
divisors are the one-edge trees of enumerate_stable_graphs(g, n, 1); that
pin plus the vanishing of the degree-(g+1) cycle modulo the pairing fix
every normalization choice here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .graphs import DomainError, StableGraph, check_stable_type, \
    enumerate_stable_graphs, read_int
from .strata import MixedClass, TautClass, compositions, fundamental_stratum, \
    make_stratum, single, unit
from .product import multiply_mixed


@dataclass(frozen=True)
class RamificationData:
    """Type (g, n), integer twist k, and integer vector A summing to
    k(2g-2+n).  The shifted vector a with a_i = A_i - k sums to k(2g-2)."""

    g: int
    n: int
    k: int
    A: tuple[int, ...]

    def __post_init__(self):
        for name in ("g", "n", "k"):
            object.__setattr__(self, name, read_int(getattr(self, name)))
        object.__setattr__(self, "A", tuple(read_int(x) for x in self.A))
        if self.n != len(self.A):
            raise DomainError("A must have length n")
        check_stable_type(self.g, self.n)
        if sum(self.A) != self.k * (2 * self.g - 2 + self.n):
            raise DomainError("sum(A) = %d != k(2g-2+n) = %d"
                              % (sum(self.A), self.k * (2 * self.g - 2 + self.n)))

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(x - self.k for x in self.A)

    @staticmethod
    def from_a(g: int, n: int, k: int, a: Sequence[int]) -> "RamificationData":
        return RamificationData(g, n, k, tuple(read_int(x) + k for x in a))

    @property
    def dim(self) -> int:
        return 3 * self.g - 3 + self.n


# ---------------------------------------------------------------------------
# weightings mod r


def _vertex_targets(G: StableGraph, data: RamificationData) -> list[int]:
    """k(2g(v)-2+n(v)) minus the leg residues at v, per vertex."""
    return [data.k * (2 * gv - 2 + len(legs) + len(hes))
            - sum(data.A[m - 1] for m in legs)
            for gv, legs, hes, _ in G.vertex_data]


@functools.cache
def _edge_forms(G: StableGraph, data: RamificationData) -> tuple:
    """The weighting system of G solved once: (C, h1, forms), with C the
    threshold 1/2 sum_v |t_v| = max_S |sum_{v in S} t_v| (the t_v sum to 0)
    and, per edge e = (u, v), the form (c_e, ((j, s_j), ...)) of
    y_e = c_e + sum_j s_j x_j, the weight of its half-edge 2e at u
    (half-edge 2e+1 at v weighs -y_e).

    A breadth-first walk from vertex 0 records each vertex's parent edge;
    the h1 edges off the tree (loops among them) carry the free weights x_j.
    A vertex's residual is t_v minus the weights its free edges put there.
    In reverse visit order each child's residual fixes its parent edge (sign
    +1 when the child holds the even half-edge) and adds onto the parent's.
    The root residual is then zero, as the t_v sum to 0 and every free
    weight enters twice with opposite signs.  Each fundamental cycle crosses
    a tree edge at most once, so every s_j is +1 or -1.
    """
    targets = _vertex_targets(G, data)
    parent = {0: -1}
    order = [0]
    for u in order:
        for h in G.half_edges_at(u):
            w = G.half_edge_vertex[h ^ 1]
            if w not in parent:
                parent[w] = h // 2
                order.append(w)
    tree = set(parent.values())
    free = [e for e in range(G.num_edges) if e not in tree]
    # residual[v] = [constant, coefficient of x_0, x_1, ...]
    residual = [[t] + [0] * len(free) for t in targets]
    forms: list = [None] * G.num_edges
    for j, e in enumerate(free):
        u, v = G.edges[e]
        forms[e] = (0, ((j, 1),))
        residual[u][j + 1] -= 1
        residual[v][j + 1] += 1
    for child in reversed(order[1:]):
        e = parent[child]
        u, v = G.edges[e]
        s = 1 if u == child else -1
        res = residual[child]
        forms[e] = (s * res[0],
                    tuple((j, s * x) for j, x in enumerate(res[1:]) if x))
        up = residual[v if u == child else u]
        for i, x in enumerate(res):
            up[i] += x
    if any(residual[0]):
        raise ArithmeticError("inconsistent residue propagation at the root")
    return sum(abs(t) for t in targets) // 2, len(free), tuple(forms)


def closed_weighting_value(G: StableGraph, data: RamificationData,
                           mvec: Sequence[int], r: int) -> Fraction:
    """r^{-h1} times the sum of prod_e (w(h)w(h'))^{m_e+1} over the r^{h1}
    weightings mod r of G, for edge powers mvec and a modulus r above the
    threshold C.

    Everything about G and the data is read from the table of _edge_forms:
    the free weights x in [0, r)^{h1} give y_e = (c_e + sum_j s_j x_j) mod r
    on the even half-edge of each edge.  Since w(h') = r - w(h) mod r, the
    edge contributes (y_e(r-y_e))^{m_e+1}.  A bridge has no free term, so
    its factor is one constant per sample.  The sum runs over Python ints,
    divided once at the end.
    """
    threshold, nfree, forms = _edge_forms(G, data)
    if r <= threshold:
        raise DomainError("modulus r=%d not above the threshold %d"
                          % (r, threshold))
    if len(mvec) != len(forms):
        raise DomainError("edge power vector length mismatch")
    bridges = 1
    edges = []
    for (c, eps), m in zip(forms, mvec):
        if eps:
            edges.append((c, eps, [(y * (r - y)) ** (m + 1) for y in range(r)]))
        else:
            bridges *= ((c % r) * (r - c % r)) ** (m + 1)
    total = 0
    for xs in itertools.product(range(r), repeat=nfree):
        term = bridges
        for c, eps, values in edges:
            term *= values[(c + sum(s * xs[j] for j, s in eps)) % r]
        total += term
    return Fraction(total, r ** nfree)


# ---------------------------------------------------------------------------
# interpolation


def interpolate_constant_term(samples: Sequence[tuple[int, Fraction]],
                              degree_bound: int) -> Fraction:
    """Constant term of the degree-<=degree_bound polynomial through the
    samples.  A surplus sample off the interpolant raises ArithmeticError:
    above the proven threshold that is a defect, never bad input."""
    if degree_bound < 0:
        raise DomainError("degree bound must be nonnegative")
    pts = [(int(x), Fraction(y)) for x, y in samples]
    if len({x for x, _ in pts}) != len(pts):
        raise DomainError("sample points must be distinct")
    if len(pts) < degree_bound + 1:
        raise DomainError("need at least %d samples, got %d"
                          % (degree_bound + 1, len(pts)))
    fit = pts[:degree_bound + 1]
    # Newton divided differences
    xs = [x for x, _ in fit]
    coef = [y for _, y in fit]
    for level in range(1, len(fit)):
        for i in range(len(fit) - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])

    def eval_at(x: int) -> Fraction:
        acc = coef[-1]
        for i in range(len(fit) - 2, -1, -1):
            acc = acc * (x - xs[i]) + coef[i]
        return acc

    for x, y in pts[degree_bound + 1:]:
        got = eval_at(x)
        if got != y:
            raise ArithmeticError("surplus sample at r=%d gives %s, "
                                  "interpolant predicts %s" % (x, y, got))
    return eval_at(0)


@functools.cache
def _weighting_ct(G: StableGraph, data: RamificationData,
                  mvec: tuple[int, ...]) -> Fraction:
    """r-constant term of the weighting sum S(r) for fixed edge powers mvec.

    With D = 2 sum_e (m_e+1) and C = _edge_forms(G, data)[0], the
    average Q(r) = r^{-h1} S(r) (closed_weighting_value) is sampled at
    r = C+1, ..., C+D+2: the first D+1 samples fit, the last one checks.
    Degree: each of the r^{h1} terms is at most (r^2/4)^{D/2}.  Threshold:
    loops add Faulhaber sums, polynomial for all r >= 1.  Take the other y_e
    in [0, r] (y(r-y) vanishes at both ends); for each wrap vector k the
    weightings are the lattice points of {0 <= y <= r, By = t + rk}, with B
    the incidence matrix of G.  B is totally unimodular, so a weighted sum
    over these points is one polynomial per chamber of (t + rk, r) (vector
    partition functions: Sturmfels 1995; Beck-Robins).  Each wall is a cut
    sum_{v in S} t_v = -Nr with N an integer, and N != 0 needs r <= C: for
    r > C no wall is crossed and S is a polynomial, hence so is Q, which
    JPPZ (arXiv:1602.04705) make polynomial for large r.  Cost: every vertex
    has 2g(v)-2+n(v) > 0, so C <= sum_i |A_i|.
    """
    degree = 2 * sum(m + 1 for m in mvec)
    start = _edge_forms(G, data)[0] + 1
    samples = [(r, closed_weighting_value(G, data, mvec, r))
               for r in range(start, start + degree + 2)]
    return interpolate_constant_term(samples, degree)


# ---------------------------------------------------------------------------
# the cycles


def _add_graph_terms(out: TautClass, G: StableGraph,
                     data: RamificationData, d: int) -> None:
    """Add to out the degree-d cycle's terms on G: each split of the d - |E|
    free degrees over the legs with A_i != 0, the vertices (k != 0) and the
    edges, times the constant term of its weighting sum."""
    A = data.A
    E = G.num_edges
    active_legs = [m for m in G.markings() if A[m - 1] != 0]
    nverts = G.num_vertices if data.k != 0 else 0
    for comp in compositions(d - E, len(active_legs) + nverts + E):
        p = comp[:len(active_legs)]
        q = comp[len(active_legs):len(active_legs) + nverts]
        mvec = comp[len(active_legs) + nverts:]
        coeff = _weighting_ct(G, data, tuple(mvec))
        if not coeff:
            continue
        pl: dict[int, int] = {}
        for m, pw in zip(active_legs, p):
            if pw:
                coeff *= Fraction(A[m - 1] ** (2 * pw), factorial(pw))
                pl[m] = pw
        kp: dict[int, tuple[int, ...]] = {}
        for v, qv in enumerate(q):
            if qv:
                coeff *= Fraction((-data.k * data.k) ** qv, factorial(qv))
                kp[v] = (1,) * qv
        for m in mvec:
            coeff *= Fraction((-1) ** m, factorial(m + 1))
        for split in itertools.product(*[range(m + 1) for m in mvec]):
            mult = 1
            ph: dict[int, int] = {}
            for ei, (m, mh) in enumerate(zip(mvec, split)):
                mult *= comb(m, mh)
                if mh:
                    ph[2 * ei] = mh
                if m - mh:
                    ph[2 * ei + 1] = m - mh
            out.iadd_term(make_stratum(G, pl, ph, kp), coeff * mult)


@functools.cache
def pixton_class(data: RamificationData, d: int) -> TautClass:
    """The degree-d cycle P_g^{d,k}(A) as a TautClass (shared; do not mutate).

    Degrees above 3g-3+n give the zero class (the cycle group vanishes
    there), which the degree-(g+1) vanishing checks rely on at small (g,n).
    """
    if d < 0:
        raise DomainError("negative degree")
    out = TautClass(data.g, data.n, d)
    if d <= data.dim:
        for G in enumerate_stable_graphs(data.g, data.n, d):
            _add_graph_terms(out, G, data, d)
    return out


def pixton_mixed(data: RamificationData) -> MixedClass:
    """All degrees of the cycle, up to the dimension."""
    return MixedClass(data.g, data.n, {d: pixton_class(data, d)
                                       for d in range(data.dim + 1)})


def hain_divisor(data: RamificationData) -> TautClass:
    """The theta-pullback divisor:

        -(k^2/2) kappa_1 + 1/2 sum_j (a_j+k)^2 psi_j
        - 1/2 sum_{(g',P)} (a_P - (2g'-1)k)^2 delta_{g',P}

    with each separating boundary divisor delta_{g',P} = delta_{g-g',P^c}
    counted once, as a one-edge tree; a_P sums a over P."""
    g, n, k, a = data.g, data.n, data.k, data.a
    out = TautClass(g, n, 1)
    main, *boundary = enumerate_stable_graphs(g, n, 1)
    for i in range(1, n + 1):  # iadd_term drops zero coefficients
        out.iadd_term(make_stratum(main, psi_leg={i: 1}),
                      Fraction((a[i - 1] + k) ** 2, 2))
    out.iadd_term(make_stratum(main, kappa={0: (1,)}), Fraction(-k * k, 2))
    for graph in [G for G in boundary if G.num_vertices == 2]:  # separating
        left, right = (Fraction(-(sum(a[m - 1] for m in legs)
                                  - (2 * gv - 1) * k) ** 2, 2)
                       for gv, legs, _, _ in graph.vertex_data)
        if left != right:
            raise ArithmeticError("the two sides of %s disagree"
                                  % graph.encode())
        out.iadd_term(make_stratum(graph), left)
    return out


def q_form(data: RamificationData) -> TautClass:
    """Twice Hain's divisor (the degree-1 tree part of the degree-1 cycle)."""
    return hain_divisor(data).scale(Fraction(2))


def delta_factor(g: int, n: int) -> MixedClass:
    """The loop factor: the sub-sum of the cycle over one-vertex graphs with
    no kappa decorations and no psi on legs (psi on loop half-edges kept).
    Independent of A, so built from A = 0, k = 0, which give neither."""
    data = RamificationData(g, n, 0, (0,) * n)
    out = MixedClass(g, n)
    for d in range(data.dim + 1):
        part = TautClass(g, n, d)
        for G in enumerate_stable_graphs(g, n, d):
            if G.num_vertices == 1:
                _add_graph_terms(part, G, data, d)
        out.set_part(part)
    return out


def exp_class(M: MixedClass) -> MixedClass:
    """exp of a mixed class, truncated at the dimension.  The degree-0 part
    must be zero or the fundamental class; exp applies to the positive part."""
    deg0 = M.part(0)
    if not deg0.is_zero():
        fund = single(M.g, M.n, fundamental_stratum(M.g, M.n))
        if deg0 != fund:
            raise DomainError("exp needs degree-0 part zero or fundamental")
    pos = MixedClass(M.g, M.n)
    for dd in M.degrees():
        if dd >= 1:
            pos.set_part(M.part(dd))
    out = unit(M.g, M.n)
    powk = unit(M.g, M.n)
    fact = 1
    for j in range(1, M.dim + 1):
        powk = multiply_mixed(powk, pos)
        fact *= j
        if not powk.degrees():
            break
        out = out.add(powk.scale(Fraction(1, fact)))
    return out
