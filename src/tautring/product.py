"""Multiplication of decorated stratum classes.

The product of two stratum classes [S_A], [S_B] on Mbar_{g,n} is computed by
excess intersection on common degenerations (Graber-Pandharipande,
"Constructions of nontautological classes", Appendix A).  A generic
structure on a stable graph G is a pair of edge subsets K_A, K_B of E(G)
with K_A union K_B = E(G), together with identifications

    phi_A : graph(S_A) -> G / (E - K_A),    phi_B : graph(S_B) -> G / (E - K_B)

(contract the complementary edges).  Each structure contributes the
decoration of G obtained by transporting both decorations along the
contractions (psi classes land on the corresponding legs and surviving
half-edges; a kappa_a on a vertex distributes as a sum over the preimage
vertices) times the excess factor

    prod over e in K_A cap K_B of (- psi_h(e) - psi_h'(e)),

expanded into monomials.  With stratum classes normalized by 1/|Aut|, the
total product is 1/(|Aut A| * |Aut B|) times the sum over all structures of
the resulting canonical decorated strata.  Monomials exceeding a vertex
moduli dimension vanish; they are pruned as they are generated, by tracking
how far each vertex is below its dimension (its deficit).

For one kept subset K the maps phi_A are phi_0 o alpha, alpha in
Aut(graph(S_A)), with phi_0 the inverse canonical relabeling of G/(E - K):
transporting along phi_0 o alpha is transporting the alpha-image of the
decoration along phi_0.  So ``_contractions`` keeps one structure per kept
subset, and the sum over alpha runs over the orbit of the decoration, each
image weighted by its stabilizer order (``DecoratedStratum.orbit``).
``_degenerations`` inverts those tables once per space and edge bound, so a
product visits only the common degenerations of its factors.

A product splits into work on the two graphs and work on the two
decorations.  On the graphs: the common degenerations G of GA and GB, each
with its compatible (K_A, K_B, K_A & K_B) triples.  ``side_groups(s, G)``
counts one factor's structures on G composed with its orbit, per kept
subset.  ``expand`` counts the structure pairs on G by transported
decoration and shared edges and expands each count once, as a signed int.

One walk, ``product_walk(rows, cols)``, runs the three over blocks of
products, with the strata grouped by graph.  Per row graph GA it walks
GA's degenerations once, in one ``_degenerations`` entry whose bound covers
the column graph with the most edges, and takes on each G the column
graphs among G's contraction targets: every graph pair's common
degenerations come from that one walk, and G with more edges than
|E_A| + |E_B| are skipped.  A row stratum's side groups are computed once
per degeneration, and expansions are yielded lazily per row graph.
``multiply`` consumes the walk over the terms of two classes
(``multiply_strata`` is one entry), the pairings of ``integrate`` integrate
its monomials in place; no product is memoised.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

from .graphs import (
    DomainError,
    StableGraph,
    canonical,
    contract,
    enumerate_stable_graphs,
)
from .strata import DecoratedStratum, MixedClass, TautClass, make_stratum, single

# A contraction structure of G onto a target graph GA:
#   (kept edge subset K, half-edge transport GA-he -> G-he,
#    per-GA-vertex tuple of preimage vertices of G)
Structure = tuple[frozenset[int], dict[int, int], tuple[tuple[int, ...], ...]]


@functools.cache
def _contractions(G: StableGraph) -> dict[StableGraph, tuple[Structure, ...]]:
    """One contraction structure of G per kept-edge subset, filed under its
    canonical target, subsets by size, then in combinations order.  Its maps
    invert the canonical relabeling of the contraction; the target's
    automorphisms enter through the factor's ``orbit``."""
    out: dict[StableGraph, list[Structure]] = {}
    E = G.num_edges
    for size in range(E + 1):
        for kept in itertools.combinations(range(E), size):
            H, vmap, hemap_c = contract(G, frozenset(range(E)) - frozenset(kept))
            target, vcan, hcan = canonical(H)
            vpre = tuple(tuple(w for w, v in enumerate(vmap) if vcan[v] == t)
                         for t in range(target.num_vertices))
            out.setdefault(target, []).append(
                (frozenset(kept), {hcan[w]: h for h, w in hemap_c.items()}, vpre))
    return {T: tuple(structs) for T, structs in out.items()}


def contraction_structures(G: StableGraph, target: StableGraph) -> tuple[Structure, ...]:
    """How G contracts onto the canonical graph ``target``: one structure per
    choice of kept edges K with G/(E-K) isomorphic to target."""
    return _contractions(G).get(target, ())


@functools.cache
def _degenerations(g: int, n: int, max_edges: int
                   ) -> dict[StableGraph, dict[StableGraph, tuple[Structure, ...]]]:
    """Every target graph of Mbar_{g,n}, mapped to the graphs with at most
    max_edges edges that contract onto it, in enumeration order, each with
    its structures: ``_contractions`` inverted once per space."""
    index: dict[StableGraph, dict[StableGraph, tuple[Structure, ...]]] = {}
    for G in enumerate_stable_graphs(g, n, max_edges):
        for target, structs in _contractions(G).items():
            index.setdefault(target, {})[G] = structs
    return index


# Compatible kept-edge subsets on a common degeneration G:
#   (K_A, K_B, K_A & K_B) with K_A | K_B = E(G)
Triple = tuple[frozenset[int], frozenset[int], frozenset[int]]


def side_groups(st: DecoratedStratum, G: StableGraph
                ) -> tuple[dict[frozenset[int], dict[tuple, int]], tuple[int, ...]]:
    """One factor's share of a product on its degeneration G.  Per kept-edge
    subset: its structure composed with each orbit image, counted with the
    image's multiplicity by (transported (half-edge, exponent) pairs,
    (kappa part, preimage vertices) pairs).  And per vertex of G: the
    degree of the factor's leg psi there."""
    groups: dict[frozenset[int], dict[tuple, int]] = {}
    for kept, he, vpre in _contractions(G)[st.graph]:
        counts = groups[kept] = {}
        for (psi_he, kappa), mult in st.orbit:
            key = (tuple(sorted([(he[h], e) for h, e in psi_he])) if psi_he
                   else (),
                   tuple(sorted([(a, vpre[v]) for v, parts in kappa
                                 for a in parts])) if kappa else ())
            counts[key] = counts.get(key, 0) + mult
    if not st.psi_leg:
        return groups, (0,) * G.num_vertices
    pl = dict(st.psi_leg)
    return groups, tuple(sum([pl.get(m, 0) for m in legs])
                         for _, legs, _, _ in G.vertex_data)


def _merged(a: tuple, b: tuple) -> tuple:
    """The sorted union of two sorted tuples."""
    return tuple(sorted(a + b)) if a and b else a or b


def expand(G: StableGraph, triples: list[Triple], side_a: tuple,
           side_b: tuple) -> Iterator[tuple[dict, dict, int]]:
    """Monomials (psi_he, kappa, sign) of a product on G, from the two
    factors' ``side_groups``, with sign an int: structure pairs are counted
    by (merged psi_he, merged kappa parts, shared edges) and each count is
    expanded once, none above a vertex dimension.  In complementary degree
    each vertex is met exactly."""
    (groups_a, legs_a), (groups_b, legs_b) = side_a, side_b
    counts: dict[tuple, int] = {}
    for ka, kb, shared in triples:
        for (psi_a, kappa_a), count_a in groups_a[ka].items():
            for (psi_b, kappa_b), count_b in groups_b[kb].items():
                key = (_merged(psi_a, psi_b), _merged(kappa_a, kappa_b), shared)
                counts[key] = counts.get(key, 0) + count_a * count_b
    base = [vd[3] - a - b for vd, a, b in zip(G.vertex_data, legs_a, legs_b)]
    he_vertex = G.half_edge_vertex
    for (psi, kappa, shared), count in counts.items():
        deficit = list(base)
        ph0: dict[int, int] = {}
        for h, e in psi:
            ph0[h] = ph0.get(h, 0) + e
            deficit[he_vertex[h]] -= e
        if min(deficit) < 0:
            continue
        if not kappa and not shared:
            yield ph0, {}, count
            continue
        # (degree, ((vertex charged, target), ...)) per factor: a kappa
        # part targets a vertex, an excess psi a half-edge
        factors = [(a, tuple((w, w) for w in vs)) for a, vs in kappa]
        nk = len(factors)
        factors += [(1, tuple((he_vertex[h], h) for h in (2 * e, 2 * e + 1)))
                    for e in sorted(shared)]
        # branch only on targets whose vertex still has room
        level = [((), deficit)]
        for a, options in factors:
            level = [(c + (t,), d[:v] + [d[v] - a] + d[v + 1:])
                     for c, d in level for v, t in options if d[v] >= a]
        for choice, _ in level:
            ph = dict(ph0)
            for h in choice[nk:]:
                ph[h] = ph.get(h, 0) + 1
            kp: dict[int, list[int]] = {}
            for (a, _), w in zip(factors, choice[:nk]):
                kp.setdefault(w, []).append(a)
            yield ph, kp, -count if len(shared) % 2 else count


def _by_graph(strata: Sequence[DecoratedStratum]) -> dict[StableGraph, list[int]]:
    """The positions of the strata, grouped by graph in first-seen order."""
    out: dict[StableGraph, list[int]] = {}
    for i, s in enumerate(strata):
        out.setdefault(s.graph, []).append(i)
    return out


def product_walk(rows: Sequence[DecoratedStratum], cols: Sequence[DecoratedStratum],
                 upper: bool = False) -> Iterator[tuple[StableGraph, Iterator]]:
    """The walk of the module docstring over the products rows[i] * cols[j]:
    per row graph GA, (GA, its entries (i, j, G, monomials)), monomials the
    lazy ``expand`` on the common degeneration G, signs summing to |Aut A|
    |Aut B| times the product there.  Consume one row graph's entries
    before the next.  With upper (for rows == cols), only the column graphs
    from GA on, and j >= i on GA itself.  Refuses strata not all on one
    (g, n)."""
    row_graphs, col_graphs = _by_graph(rows), _by_graph(cols)
    if len({(G.genus(), G.num_legs) for G in (*row_graphs, *col_graphs)}) > 1:
        raise DomainError("cannot combine strata on different moduli spaces")
    if not col_graphs:
        return
    order = {GB: b for b, GB in enumerate(col_graphs)}
    max_b = max(GB.num_edges for GB in col_graphs)

    def entries(GA, a, row_ids):
        g, n, ea = GA.genus(), GA.num_legs, GA.num_edges
        index = _degenerations(g, n, min(ea + max_b, 3 * g - 3 + n))
        for G, structs_a in index[GA].items():
            E = G.num_edges
            row_shares = {}
            for GB, structs_b in _contractions(G).items():
                b = order.get(GB)
                if b is None or upper and b < a or E > ea + GB.num_edges:
                    continue
                triples = [(ka, kb, ka & kb) for ka, _, _ in structs_a
                           for kb, _, _ in structs_b if len(ka | kb) == E]
                if not triples:
                    continue
                col_ids = col_graphs[GB]
                col_shares = [side_groups(cols[j], G) for j in col_ids]
                for i in row_ids:
                    share_s = row_shares.get(i)
                    if share_s is None:
                        share_s = row_shares[i] = side_groups(rows[i], G)
                    for j, share_t in zip(col_ids, col_shares):
                        if not (upper and b == a and j < i):
                            yield i, j, G, expand(G, triples, share_s, share_t)

    for GA, row_ids in row_graphs.items():
        yield GA, entries(GA, order.get(GA), row_ids)


def leg_psi(sa: DecoratedStratum, sb: DecoratedStratum) -> dict[int, int]:
    """The leg psi exponents of a product: the two factors' added."""
    pl = dict(sa.psi_leg)
    for m, e in sb.psi_leg:
        pl[m] = pl.get(m, 0) + e
    return pl


def multiply(x: TautClass, y: TautClass) -> TautClass:
    """Product of two classes, from one ``product_walk`` over their terms:
    per entry and degeneration the int signs are added per stratum, then
    scaled once by c_s c_t / (|Aut A| |Aut B|)."""
    if (x.g, x.n) != (y.g, y.n):
        raise DomainError("cannot multiply classes on different moduli spaces")
    out = TautClass(x.g, x.n, x.degree + y.degree)
    if out.degree > 3 * x.g - 3 + x.n:
        return out
    rows, cols = tuple(x.terms), tuple(y.terms)
    for _, entries in product_walk(rows, cols):
        for i, j, G, monomials in entries:
            s, t = rows[i], cols[j]
            signs: dict[DecoratedStratum, int] = {}
            pl = leg_psi(s, t)
            for ph, kp, sign in monomials:
                st = make_stratum(G, pl, ph, kp)
                signs[st] = signs.get(st, 0) + sign
            c = (x.terms[s] * y.terms[t]
                 * s.graph.inverse_aut * t.graph.inverse_aut)
            for st, sign in signs.items():
                out.iadd_term(st, c * sign)
    return out


def multiply_strata(sa: DecoratedStratum, sb: DecoratedStratum) -> TautClass:
    """Product of two stratum classes, the one-entry ``multiply``."""
    return multiply(*(single(s.graph.genus(), s.graph.num_legs, s)
                      for s in (sa, sb)))


def multiply_mixed(x: MixedClass, y: MixedClass) -> MixedClass:
    """Degree-wise convolution of mixed classes, truncated at the dimension."""
    if (x.g, x.n) != (y.g, y.n):
        raise DomainError("cannot multiply classes on different moduli spaces")
    out = MixedClass(x.g, x.n)
    for da, xa in x.parts.items():
        for db, yb in y.parts.items():
            out.set_part(out.part(da + db).add(multiply(xa, yb)))
    return out
