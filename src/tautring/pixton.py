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
(graph, data) pair are solved once over a spanning tree (_edge_forms).  A
bridge's weight is a constant, so its factor is exact; per modulus r =
C+1, C+2, ... one integer _value_table of the edges on a cycle serves every
edge-power vector of the graph, and the constant terms are interpolated
in integer Lagrange form.

pixton_class, pixton_mixed and delta_factor (the one-vertex graphs, A = 0,
k = 0) pass over the graphs once, adding each graph's terms in all their
degrees with _add_graph_terms.  The degree-1 part on trees must reproduce
twice Hain's divisor, whose boundary divisors are the one-edge trees of
enumerate_stable_graphs(g, n, 1); that pin plus the vanishing of the
degree-(g+1) cycle modulo the pairing fix every normalization choice here.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from typing import Iterable, Sequence

from .graphs import DomainError, StableGraph, check_stable_type, \
    enumerate_stable_graphs, read_int
from .strata import MixedClass, TautClass, _intern, compositions, \
    fundamental_stratum, make_stratum, single, unit
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


def _value_table(G: StableGraph, data: RamificationData, r: int) -> Counter:
    """Counts of the vectors (y_e(r-y_e)) over the edges e on a cycle as the
    free weights x run over [0, r)^{h1}, y_e = (c_e + sum_j s_j x_j) mod r
    (_edge_forms): the one enumeration of (G, data, r), in integers."""
    _, nfree, forms = _edge_forms(G, data)
    values = [y * (r - y) for y in range(r)]
    return Counter(tuple([values[(c + sum([s * xs[j] for j, s in eps])) % r]
                          for c, eps in forms if eps])
                   for xs in itertools.product(range(r), repeat=nfree))


def _table_sum(table: Counter, powers: Sequence[int]) -> int:
    """sum over the table of count * prod_e value_e^{power_e}."""
    return sum([n * prod(map(pow, key, powers)) for key, n in table.items()])


def closed_weighting_value(G: StableGraph, data: RamificationData,
                           mvec: Sequence[int], r: int) -> Fraction:
    """r^{-h1} times the sum of prod_e (w(h)w(h'))^{m_e+1} over the r^{h1}
    weightings mod r of G, for edge powers mvec and r above the threshold C:
    the _value_table at r times ((c_e mod r)(r - c_e mod r))^{m_e+1} per
    bridge."""
    threshold, nfree, forms = _edge_forms(G, data)
    if r <= threshold:
        raise DomainError("modulus r=%d not above the threshold %d"
                          % (r, threshold))
    if len(mvec) != len(forms):
        raise DomainError("edge power vector length mismatch")
    bridges = prod([((c % r) * (r - c % r)) ** (m + 1)
                    for (c, eps), m in zip(forms, mvec) if not eps])
    powers = [m + 1 for (_, eps), m in zip(forms, mvec) if eps]
    return Fraction(bridges * _table_sum(_value_table(G, data, r), powers),
                    r ** nfree)


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
    # Lagrange form: y_i / prod_{j != i} (x_i - x_j) = scaled_i / den
    xs, ys = zip(*pts[:degree_bound + 1])
    nodes = [prod([xi - xj for xj in xs if xj != xi]) * y.denominator
             for xi, y in zip(xs, ys)]
    den = lcm(*nodes)
    scaled = [y.numerator * (den // w) for w, y in zip(nodes, ys)]

    def at(x: int) -> int:  # the interpolant at x, times den
        return sum([a * prod([x - xj for xj in xs if xj != xi])
                    for a, xi in zip(scaled, xs)])

    for x, y in pts[degree_bound + 1:]:
        if at(x) * y.denominator != y.numerator * den:
            raise ArithmeticError("surplus sample at r=%d gives %s, "
                                  "interpolant predicts %s"
                                  % (x, y, Fraction(at(x), den)))
    return Fraction(at(0), den)


def _weighting_ct(G: StableGraph, data: RamificationData,
                  mvec: tuple[int, ...]) -> Fraction:
    """r-constant term of the weighting sum S(r) for fixed edge powers mvec.

    With C = _edge_forms(G, data)[0], a bridge's form is a cut sum c_e, so
    for r > C its weight is |c_e| or r - |c_e| and its factor the
    polynomial (|c_e|(r - |c_e|))^{m_e+1}, (-c_e^2)^{m_e+1} at r = 0.  The
    rest, N(r), averages prod (y_e(r-y_e))^{m_e+1} over the edges on a
    cycle: 1 on a tree, else sampled at r = C+1, ..., C+D+2, D = 2 sum
    (m_e+1) over those edges, D+1 samples to fit and one to check.  Each of
    the r^{h1} terms is at most (r^2/4)^{D/2}.  Loops add Faulhaber sums,
    polynomial for r >= 1.  Take the other y_e in [0, r] (y(r-y) vanishes
    at both ends); per wrap vector k the weightings are the lattice points
    of {0 <= y <= r, By = t + rk}, B the incidence matrix of G.  B is
    totally unimodular, so a weighted sum over them is one polynomial per
    chamber of (t + rk, r) (vector partition functions: Sturmfels 1995;
    Beck-Robins).  A wall is a cut sum_{v in S} t_v = -Nr, N an integer,
    and N != 0 needs r <= C.  For r > C no wall is crossed, and the bridge
    weights are fixed and interior: N, whose summand does not read them, is
    one polynomial there (JPPZ, arXiv:1602.04705: for large r).  Every
    vertex has 2g(v)-2+n(v) > 0, so C <= sum_i |A_i|.
    """
    return _weighting_cts(G, data, (mvec,))[mvec]


def _weighting_cts(G: StableGraph, data: RamificationData,
                   mvecs: Iterable[tuple[int, ...]]
                   ) -> dict[tuple[int, ...], Fraction]:
    """_weighting_ct per vector in mvecs, from one _value_table per modulus
    r, read by every vector whose window holds r and then dropped."""
    C, nfree, forms = _edge_forms(G, data)
    out, windows = {}, []  # windows: (mvec, bridge value, powers, samples)
    for mvec in mvecs:
        bridges = prod([(-c * c) ** (m + 1)
                        for (c, eps), m in zip(forms, mvec) if not eps])
        powers = [m + 1 for (_, eps), m in zip(forms, mvec) if eps]
        if bridges and powers:
            windows.append((mvec, bridges, powers, []))
        else:
            out[mvec] = Fraction(bridges)
    top = max([2 * sum(powers) for _, _, powers, _ in windows], default=-2)
    for r in range(C + 1, C + top + 3):
        table = _value_table(G, data, r)
        for _, _, powers, samples in windows:
            if r <= C + 2 * sum(powers) + 2:
                samples.append((r, Fraction(_table_sum(table, powers),
                                            r ** nfree)))
    for mvec, bridges, powers, samples in windows:
        out[mvec] = bridges * interpolate_constant_term(samples,
                                                        2 * sum(powers))
    return out


# ---------------------------------------------------------------------------
# the cycles


def _add_graph_terms(parts: dict[int, TautClass], G: StableGraph,
                     data: RamificationData) -> None:
    """Add to each parts[d], d >= |E|, the degree-d cycle's terms on the
    canonical G: each split of the d - |E| free degrees over the legs with
    A_i != 0, the vertices (k != 0) and the edges, times the constant term
    of its weighting sum, all from one _weighting_cts."""
    A, E = data.A, G.num_edges
    active_legs = [m for m in G.markings() if A[m - 1] != 0]
    head = len(active_legs) + (G.num_vertices if data.k != 0 else 0)
    splits = [comp for d in parts if d >= E
              for comp in compositions(d - E, head + E)]
    cts = _weighting_cts(G, data, dict.fromkeys(c[head:] for c in splits))
    for comp in splits:
        mvec, qs = comp[head:], comp[len(active_legs):head]
        if not cts[mvec]:
            continue
        pl = tuple([(m, p) for m, p in zip(active_legs, comp) if p])
        kp = tuple([(v, (1,) * q) for v, q in enumerate(qs) if q])
        coeff = cts[mvec] * Fraction(
            prod([A[m - 1] ** (2 * p) for m, p in pl])
            * (-data.k * data.k) ** sum(qs) * (-1) ** sum(mvec),
            prod(map(factorial, comp[:head]))
            * prod([factorial(m + 1) for m in mvec]))
        part = parts[E + sum(comp)]
        for split in itertools.product(*[range(m + 1) for m in mvec]):
            ph = tuple([(h, e) for ei, (m, mh) in enumerate(zip(mvec, split))
                        for h, e in ((2 * ei, mh), (2 * ei + 1, m - mh)) if e])
            part.iadd_term(_intern((G, pl, ph, kp)),
                           coeff * prod(map(comb, mvec, split)))


def _parts(data: RamificationData, degrees: Sequence[int],
           one_vertex: bool = False) -> dict[int, TautClass]:
    """The cycle's parts in degrees (each at most the dimension), from one
    pass over the graphs (only the one-vertex graphs if one_vertex)."""
    parts = {d: TautClass(data.g, data.n, d) for d in degrees}
    for G in enumerate_stable_graphs(data.g, data.n, max(degrees)):
        if G.num_vertices == 1 or not one_vertex:
            _add_graph_terms(parts, G, data)
    return parts


@functools.cache
def pixton_class(data: RamificationData, d: int) -> TautClass:
    """The degree-d cycle P_g^{d,k}(A) as a TautClass (shared; do not mutate).

    Degrees above 3g-3+n give the zero class (the cycle group vanishes
    there), which the degree-(g+1) vanishing checks rely on at small (g,n).
    """
    if d < 0:
        raise DomainError("negative degree")
    if d > data.dim:
        return TautClass(data.g, data.n, d)
    return _parts(data, (d,))[d]


def pixton_mixed(data: RamificationData) -> MixedClass:
    """All degrees of the cycle, up to the dimension, in one graph pass."""
    return MixedClass(data.g, data.n, _parts(data, range(data.dim + 1)))


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
    return MixedClass(g, n, _parts(data, range(data.dim + 1), True))


def exp_class(M: MixedClass) -> MixedClass:
    """exp of a mixed class, truncated at the dimension.  The degree-0 part
    must be zero or the fundamental class; exp applies to the positive part."""
    deg0 = M.part(0)
    if not deg0.is_zero() and \
            deg0 != single(M.g, M.n, fundamental_stratum(M.g, M.n)):
        raise DomainError("exp needs degree-0 part zero or fundamental")
    pos = MixedClass(M.g, M.n, {d: M.part(d) for d in M.degrees() if d >= 1})
    out = power = unit(M.g, M.n)
    for j in range(1, M.dim + 1):  # power = pos^j / j!
        power = multiply_mixed(power, pos).scale(Fraction(1, j))
        if not power.degrees():
            break
        out = out.add(power)
    return out
