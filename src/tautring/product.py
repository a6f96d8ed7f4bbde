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
Aut(graph(S_A)), with phi_0 any one isomorphism onto G/(E - K):
transporting along phi_0 o alpha is transporting the alpha-image of the
decoration along phi_0.  So ``_contractions`` keeps one structure per kept
subset, built through the contraction of one edge, and the sum over alpha
runs over the orbit of the decoration, each image weighted by its
stabilizer order (``DecoratedStratum.orbit``).  These tables live for the
whole process, so they are kept small: an edge subset is an int bitmask,
bit e for edge e, and a half-edge transport a tuple indexed by the
target's half-edges; each target's tuple of structures and each tuple in
it is the one ``shared`` copy of its value.  ``_degenerations`` inverts
the tables once per space and edge bound, a flat tuple per target, so a
product visits only the common degenerations of its factors.

A factor on the graph with no edges admits one generic structure: K_A
empty, so K_B = E(G) and G is the other factor's graph Gamma.  The product
is the pullback [Gamma, xi^* alpha * beta]: psi_i at the vertex of leg i,
kappa_a = sum over v of kappa_a(v).  That factor is invariant under
Aut(Gamma), so the other's orbit images give images of the same monomials,
and ``pullback`` takes its decoration alone, weighted by |Aut Gamma|.  No
degeneration is walked for such a factor.

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
per degeneration, and expansions are yielded lazily per row graph.  An
entry whose two factors' leg psi alone overfill a vertex of G is dropped
before its side groups meet.  Every entry with a factor on the graph with
no edges, as row or as column, comes from one walker, ``pulled``, the only
caller of ``pullback``.  ``multiply`` consumes the walk over the terms of
two classes (``multiply_strata`` is one entry) in integers, the pairings of
``integrate`` integrate its monomials in place; no product is memoised.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

from .graphs import (
    DomainError,
    StableGraph,
    canonical,
    contract,
    enumerate_stable_graphs,
    shared,
)
from .strata import DecoratedStratum, MixedClass, TautClass, _intern, single

# A contraction structure of G onto a target graph GA:
#   (kept edges K as a bitmask over E(G), half-edge transport as a tuple
#    indexed by GA-he with G-he entries, per-GA-vertex tuple of preimage
#    vertices of G)
Structure = tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of an edge bitmask, as edge indices in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.cache
def _contractions(G: StableGraph) -> dict[StableGraph, tuple[Structure, ...]]:
    """One contraction structure of the canonical graph G per kept-edge
    subset K, filed under its canonical target.  The full mask
    (1 << |E|) - 1 is the identity, onto G itself.  Any other K has a least
    edge e outside it, and G/(E - K) is (G/e)/(E' - K'): its structure is
    the one of the canonical G/e for the image K' of K, composed with the
    relabeling of that one contraction.  The target's automorphisms enter
    through the factor's ``orbit``."""
    E = G.num_edges
    out: dict[StableGraph, list[Structure]] = {G: [shared((
        (1 << E) - 1, tuple(range(2 * E)),
        tuple([(v,) for v in range(G.num_vertices)])))]}
    for e in range(E):
        H, vmap, hemap_c = contract(G, frozenset((e,)))
        T, vcan, hcan = canonical(H)
        back = [0] * (2 * E - 2)  # T-he -> G-he
        for h, w in hemap_c.items():
            back[hcan[w]] = h
        below = sum(1 << (hcan[hemap_c[2 * f]] // 2) for f in range(e))
        pre = [tuple(w for w, v in enumerate(vmap) if vcan[v] == u)
               for u in range(T.num_vertices)]  # T-vertex -> G-vertices
        for target, structs in _contractions(T).items():
            for kept, he, vpre in structs:
                if below & kept == below:
                    out.setdefault(target, []).append(shared((
                        sum(1 << (back[2 * k] // 2) for k in _bits(kept)),
                        tuple(map(back.__getitem__, he)),
                        tuple([tuple(sorted([w for u in vs for w in pre[u]]))
                               for vs in vpre]))))
    return {T: shared(tuple(structs)) for T, structs in out.items()}


def contraction_structures(G: StableGraph, target: StableGraph) -> tuple[Structure, ...]:
    """How G contracts onto the canonical graph ``target``: one structure per
    choice of kept edges K with G/(E-K) isomorphic to target, K as a bitmask
    over E(G) and the transport as a tuple indexed by target's half-edges."""
    return _contractions(G).get(target, ())


@functools.cache
def _degenerations(g: int, n: int, max_edges: int) -> dict[StableGraph, tuple]:
    """Every target graph of Mbar_{g,n} with edges, mapped to one flat
    tuple (G, structures, G', structures', ...) of the graphs with at most
    max_edges edges that contract onto it, in enumeration order:
    ``_contractions`` inverted once per space.  The graph with no edges is
    left out: its factors are pulled back, not walked."""
    index: dict[StableGraph, list] = {}
    for G in enumerate_stable_graphs(g, n, max_edges):
        for target, structs in _contractions(G).items():
            if target.num_edges:
                index.setdefault(target, []).extend((G, structs))
    for target, flat in index.items():
        index[target] = tuple(flat)
    return index


# Compatible kept-edge bitmasks on a common degeneration G:
#   (K_A, K_B, K_A & K_B) with K_A | K_B the full mask of E(G)
Triple = tuple[int, int, int]


def side_groups(st: DecoratedStratum, G: StableGraph
                ) -> dict[int, dict[tuple, int]]:
    """One factor's share of a product on its degeneration G, per kept-edge
    bitmask: its structure composed with each orbit image, counted with the
    image's multiplicity by (transported (half-edge, exponent) pairs,
    (kappa part, preimage vertices) pairs)."""
    groups: dict[int, dict[tuple, int]] = {}
    for kept, he, vpre in _contractions(G)[st.graph]:
        counts = groups[kept] = {}
        for (psi_he, kappa), mult in st.orbit:
            key = (tuple(sorted([(he[h], e) for h, e in psi_he])) if psi_he
                   else (),
                   tuple(sorted([(a, vpre[v]) for v, parts in kappa
                                 for a in parts])) if kappa else ())
            counts[key] = counts.get(key, 0) + mult
    return groups


def _legs_at(st: DecoratedStratum, G: StableGraph) -> list[tuple[int, int]]:
    """(vertex of G, exponent) of each leg psi of a factor."""
    return [(G.leg_vertex[m], e) for m, e in st.psi_leg]


def _less(room: list[int], legs: list[tuple[int, int]]) -> list[int] | None:
    """The room per vertex left after the leg psi ``legs``, or None when
    they overfill a vertex."""
    if not legs:
        return room
    room = list(room)
    for v, e in legs:
        room[v] -= e
        if room[v] < 0:
            return None
    return room


def _merged(a: tuple, b: tuple) -> tuple:
    """The sorted union of two sorted tuples."""
    return tuple(sorted(a + b)) if a and b else a or b


def _placements(factors: list, room: list[int]) -> list[tuple]:
    """Each choice of one target per factor (degree, ((vertex charged,
    target), ...)) that keeps every vertex within its room: the branches
    on a vertex already full are cut as they arise."""
    level = [((), room)]
    for a, options in factors:
        level = [(c + (t,), d[:v] + [d[v] - a] + d[v + 1:])
                 for c, d in level for v, t in options if d[v] >= a]
    return [c for c, _ in level]


def expand(G: StableGraph, triples: list[Triple], groups_a: dict,
           groups_b: dict, room: list[int]
           ) -> Iterator[tuple[dict, dict, int]]:
    """Monomials (psi_he, kappa, sign) of a product on G, from the two
    factors' ``side_groups`` and the room per vertex left by their leg psi,
    with sign an int: structure pairs are counted by (merged psi_he, merged
    kappa parts, shared edges) and each count is expanded once, none above
    a vertex dimension.  In complementary degree each vertex is met
    exactly."""
    counts: dict[tuple, int] = {}
    for ka, kb, shared in triples:
        for (psi_a, kappa_a), count_a in groups_a[ka].items():
            for (psi_b, kappa_b), count_b in groups_b[kb].items():
                key = (_merged(psi_a, psi_b), _merged(kappa_a, kappa_b), shared)
                counts[key] = counts.get(key, 0) + count_a * count_b
    he_vertex = G.half_edge_vertex
    for (psi, kappa, shared), count in counts.items():
        deficit = list(room)
        ph0: dict[int, int] = {}
        for h, e in psi:
            ph0[h] = ph0.get(h, 0) + e
            deficit[he_vertex[h]] -= e
        if min(deficit) < 0:
            continue
        if not kappa and not shared:
            yield ph0, {}, count
            continue
        # a kappa part targets a vertex, an excess psi a half-edge
        factors = [(a, tuple(zip(vs, vs))) for a, vs in kappa]
        nk = len(factors)
        factors += [(1, ((he_vertex[2 * e], 2 * e),
                         (he_vertex[2 * e + 1], 2 * e + 1)))
                    for e in _bits(shared)]
        for choice in _placements(factors, deficit):
            ph = dict(ph0)
            for h in choice[nk:]:
                ph[h] = ph.get(h, 0) + 1
            kp: dict[int, list[int]] = {}
            for (a, _), w in zip(factors, choice[:nk]):
                kp.setdefault(w, []).append(a)
            yield ph, kp, -count if shared.bit_count() % 2 else count


def pullback(smooth: DecoratedStratum, st: DecoratedStratum,
             room: list[int]) -> list[tuple[dict, dict, int]]:
    """Monomials (psi_he, kappa, sign) of smooth * st on st's own graph G,
    for smooth on the graph with no edges: st's decoration, smooth's leg
    psi at the vertices of its legs, and each of smooth's kappa parts on
    one vertex, none above the ``room`` left by both factors' decorations
    but smooth's kappa.  Each sign is |Aut G|, the orbit multiplicities of
    st summed: smooth's share is Aut-invariant, so every orbit image of st
    gives an image of the same monomials."""
    G = st.graph
    ph, kappa = dict(st.psi_he), dict(st.kappa)
    weight = G.inverse_aut.denominator
    if not smooth.kappa:
        return [(ph, kappa, weight)]
    everywhere = tuple(zip(range(G.num_vertices), range(G.num_vertices)))
    parts = [a for _, ps in smooth.kappa for a in ps]
    out = []
    for choice in _placements([(a, everywhere) for a in parts], room):
        kp = dict(kappa)
        for a, v in zip(parts, choice):
            kp[v] = kp.get(v, ()) + (a,)
        out.append((ph, kp, weight))
    return out


def _by_graph(strata: Sequence[DecoratedStratum]) -> dict[StableGraph, list[int]]:
    """The positions of the strata, grouped by graph in first-seen order."""
    out: dict[StableGraph, list[int]] = {}
    for i, s in enumerate(strata):
        out.setdefault(s.graph, []).append(i)
    return out


def product_walk(rows: Sequence[DecoratedStratum], cols: Sequence[DecoratedStratum],
                 upper: bool = False) -> Iterator[tuple[StableGraph, Iterator]]:
    """The walk of the module docstring over the products rows[i] * cols[j]:
    per row graph GA, (GA, its entries (i, j, G, monomials)), monomials
    (psi_he, kappa, sign) on the common degeneration G, signs summing to
    |Aut A| |Aut B| times the product there.  An entry with a factor on the
    graph with no edges is its ``pullback`` onto the other factor's graph.
    An entry whose leg psi overfill a vertex of G is not yielded.  Consume
    one row graph's entries before the next.  With upper (for rows ==
    cols), only the column graphs from GA on, and j >= i on GA itself.
    Refuses strata not all on one (g, n)."""
    row_graphs, col_graphs = _by_graph(rows), _by_graph(cols)
    if len({(G.genus(), G.num_legs) for G in (*row_graphs, *col_graphs)}) > 1:
        raise DomainError("cannot combine strata on different moduli spaces")
    if not col_graphs:
        return
    order = {GB: b for b, GB in enumerate(col_graphs)}
    max_b = max(GB.num_edges for GB in col_graphs)
    flat = next((GB for GB in col_graphs if not GB.num_edges), None)

    def pulled(smooth, s_ids, other, o_ids, G):
        """(s, o, G, monomials): the ``pullback`` of each smooth[s] on the
        graph with no edges onto other[o] on G whose leg psi fit; with
        upper and G also edgeless (the same strata), only o >= s."""
        diagonal = upper and not G.num_edges
        rooms = [other[o].room() for o in o_ids]
        for s in s_ids:
            legs = _legs_at(smooth[s], G)
            for o, room_o in zip(o_ids, rooms):
                room = _less(room_o, legs)
                if room is not None and not (diagonal and o < s):
                    yield s, o, G, pullback(smooth[s], other[o], room)

    def entries(a, GA, row_ids):
        if not GA.num_edges:
            for b, (GB, col_ids) in enumerate(col_graphs.items()):
                if not (upper and b < a):
                    yield from pulled(rows, row_ids, cols, col_ids, GB)
            return
        if flat is not None and not (upper and order[flat] < a):
            for j, i, G, monomials in pulled(cols, col_graphs[flat], rows,
                                             row_ids, GA):
                yield i, j, G, monomials
        if not max_b:
            return
        g, n, ea = GA.genus(), GA.num_legs, GA.num_edges
        flat_a = iter(_degenerations(g, n, min(ea + max_b, 3 * g - 3 + n))[GA])
        for G, structs_a in zip(flat_a, flat_a):
            E = G.num_edges
            full = (1 << E) - 1
            dims = [vd[3] for vd in G.vertex_data]
            row_shares = {}
            for GB, structs_b in _contractions(G).items():
                b = order.get(GB)
                if b is None or upper and b < a or E > ea + GB.num_edges \
                        or not GB.num_edges:
                    continue
                triples = [(ka, kb, ka & kb) for ka, _, _ in structs_a
                           for kb, _, _ in structs_b if ka | kb == full]
                if not triples:
                    continue
                col_shares = []  # of the columns whose leg psi fit on G
                for j in col_graphs[GB]:
                    legs_t = _legs_at(cols[j], G)
                    if _less(dims, legs_t) is not None:
                        col_shares.append((j, side_groups(cols[j], G), legs_t))
                for i in row_ids:
                    share = row_shares.get(i)
                    if share is None:
                        room_s = _less(dims, _legs_at(rows[i], G))
                        share = row_shares[i] = (room_s, None if room_s is None
                                                 else side_groups(rows[i], G))
                    room_s, groups_s = share
                    if room_s is None:
                        continue
                    for j, groups_t, legs_t in col_shares:
                        room = _less(room_s, legs_t)
                        if room is not None and not (upper and b == a
                                                     and j < i):
                            yield i, j, G, expand(G, triples, groups_s,
                                                  groups_t, room)

    for GA, row_ids in row_graphs.items():
        yield GA, entries(order.get(GA), GA, row_ids)


def leg_psi(sa: DecoratedStratum, sb: DecoratedStratum) -> dict[int, int]:
    """The leg psi exponents of a product: the two factors' added."""
    pl = dict(sa.psi_leg)
    for m, e in sb.psi_leg:
        pl[m] = pl.get(m, 0) + e
    return pl


def _common(pairs: Iterable[tuple[Fraction, int]]) -> tuple[list[int], int]:
    """Integers n_i and one denominator D with n_i / D = c_i / d_i for the
    pairs (c_i, d_i), D the lcm of the d_i times c_i's denominator."""
    pairs = list(pairs)
    den = lcm(*[c.denominator * d for c, d in pairs])
    return [c.numerator * (den // (c.denominator * d)) for c, d in pairs], den


def multiply(x: TautClass, y: TautClass) -> TautClass:
    """Product of two classes, from one ``product_walk`` over their terms:
    a_s b_t sign is added per (interned) stratum in integers, a_s / D_x =
    c_s / |Aut A| and b_t / D_y = c_t / |Aut B|, then divided by D_x D_y."""
    if (x.g, x.n) != (y.g, y.n):
        raise DomainError("cannot multiply classes on different moduli spaces")
    out = TautClass(x.g, x.n, x.degree + y.degree)
    if out.degree > 3 * x.g - 3 + x.n:
        return out
    rows, cols = tuple(x.terms), tuple(y.terms)
    (a, den_a), (b, den_b) = [
        _common((c, s.graph.inverse_aut.denominator)
                for s, c in z.terms.items()) for z in (x, y)]
    sums: dict[DecoratedStratum, int] = {}
    for _, entries in product_walk(rows, cols):
        for i, j, G, monomials in entries:
            pl = tuple(sorted(leg_psi(rows[i], cols[j]).items()))
            w = a[i] * b[j]
            for ph, kp, sign in monomials:
                st = _intern((G, pl, tuple(sorted(ph.items())), tuple(sorted(
                    [(v, tuple(sorted(p))) for v, p in kp.items()]))))
                sums[st] = sums.get(st, 0) + w * sign
    for st, total in sums.items():
        out.iadd_term(st, Fraction(total, den_a * den_b))
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
