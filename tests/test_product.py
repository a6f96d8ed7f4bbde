import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from tautring.graphs import (
    DomainError,
    automorphism_count,
    canonical,
    contract,
    enumerate_stable_graphs,
    isomorphisms,
    make_graph,
)
from tautring.integrate import (
    class_pairing_vector,
    evaluate,
    pair_classes,
    pair_strata,
    pairing_matrix,
)
from tautring.product import (
    _contractions,
    contraction_structures,
    leg_psi,
    multiply,
    multiply_mixed,
    multiply_strata,
    product_walk,
)
from tautring.strata import (
    MixedClass,
    TautClass,
    fundamental_stratum,
    generators,
    make_stratum,
    single,
    unit,
)

from oracles import (
    kappa1_times,
    psi_times,
    ungrouped_monomials,
    ungrouped_product,
)


def smooth_psi(g, n, i):
    sm = make_graph([g], [tuple(range(1, n + 1))], [])
    return single(g, n, make_stratum(sm, {i: 1}, {}, {}))


def smooth_kappa1(g, n):
    sm = make_graph([g], [tuple(range(1, n + 1))], [])
    return single(g, n, make_stratum(sm, {}, {}, {0: (1,)}))


def random_class(rng, g, n, d, density=0.6):
    x = TautClass(g, n, d)
    for s in generators(g, n, d):
        if rng.random() < density:
            x.iadd_term(s, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return x


def test_unit_is_neutral():
    for g, n in [(1, 2), (0, 4), (2, 1)]:
        one = single(g, n, fundamental_stratum(g, n))
        for s in generators(g, n, 1):
            x = single(g, n, s)
            assert multiply(one, x) == x
            assert multiply(x, one) == x


def test_type_mismatch_rejected():
    x = single(1, 1, fundamental_stratum(1, 1))
    y = single(1, 2, fundamental_stratum(1, 2))
    with pytest.raises(DomainError):
        multiply(x, y)
    with pytest.raises(DomainError, match="different moduli spaces"):
        multiply_mixed(MixedClass(1, 1, {0: x}), MixedClass(1, 2, {0: y}))


def test_commutativity_random():
    rng = random.Random(4242)
    for g, n in [(1, 2), (0, 5), (1, 3)]:
        for _ in range(4):
            x = random_class(rng, g, n, 1)
            y = random_class(rng, g, n, 1)
            assert multiply(x, y) == multiply(y, x)


def test_associativity_random():
    rng = random.Random(515)
    for g, n in [(1, 2), (0, 5)]:
        for _ in range(3):
            x = random_class(rng, g, n, 1)
            y = random_class(rng, g, n, 1)
            z = random_class(rng, g, n, 1)
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))


def test_fast_paths_match_general_product():
    rng = random.Random(88)
    for g, n in [(1, 2), (0, 4)]:
        for s in generators(g, n, 1):
            x = single(g, n, s)
            for i in range(1, n + 1):
                assert psi_times(i, x) == multiply(smooth_psi(g, n, i), x)
            assert kappa1_times(x) == multiply(smooth_kappa1(g, n), x)
        x = random_class(rng, g, n, 1)
        assert psi_times(1, x) == multiply(smooth_psi(g, n, 1), x)
        assert kappa1_times(x) == multiply(smooth_kappa1(g, n), x)


def test_smooth_factors_match_fast_paths_on_loop_graphs():
    # a factor on the graph with no edges is pulled back onto the other
    # factor's graph: psi_i lands at the vertex of leg i, kappa_1 on each
    # vertex in turn, on either side of the product
    rng = random.Random(1818)
    loops = 0
    for g, n in [(1, 3), (2, 1)]:
        for d in range(3 * g - 3 + n):
            for _ in range(2):
                x = random_class(rng, g, n, d)
                loops += any(a == b for s in x.terms for a, b in s.graph.edges)
                for i in range(1, n + 1):
                    expected = psi_times(i, x)
                    assert multiply(smooth_psi(g, n, i), x) == expected
                    assert multiply(x, smooth_psi(g, n, i)) == expected
                expected = kappa1_times(x)
                assert multiply(smooth_kappa1(g, n), x) == expected
                assert multiply(x, smooth_kappa1(g, n)) == expected
    assert loops >= 8


def test_leg_overfilled_entries_are_skipped():
    # where the two factors' leg psi alone overfill a vertex of a common
    # degeneration G, the walk yields no entry on G; the oracle's
    # monomials there lie above a vertex dimension, so products and
    # pairings still equal the oracle's
    overfilled = paired = 0
    for g, n in [(0, 5), (1, 3)]:
        dim = 3 * g - 3 + n
        gens = [s for d in range(1, dim) for s in generators(g, n, d)]
        for s, t in itertools.product(gens, repeat=2):
            if not (s.graph.num_edges and t.graph.num_edges) \
                    or s.degree + t.degree > dim:
                continue
            pl = leg_psi(s, t)
            walked = {G for _, entries in product_walk((s,), (t,))
                      for _, _, G, _ in entries}
            over = {canonical(G)[0]
                    for G, _, _, _, _ in ungrouped_monomials(s, t)
                    if any(sum(pl.get(m, 0) for m in legs) > vdim
                           for _, legs, _, vdim in G.vertex_data)}
            if over:
                assert not over & walked, (s, t)
                product, value = ungrouped_product(s, t)
                assert multiply_strata(s, t) == product, (s, t)
                if s.degree + t.degree == dim:
                    assert pair_strata(s, t) == value, (s, t)
                    paired += 1
                overfilled += 1
    assert (overfilled, paired) == (42, 42)


def test_excess_intersection_loop_square():
    # self-intersection of the nonseparating boundary on (1,2)
    loop = make_stratum(make_graph([0], [(1, 2)], [(0, 0)]), {}, {}, {})
    irr = single(1, 2, loop)
    sq = multiply(irr, irr)
    terms = {s.label(): c for s, c in sq.terms.items()}
    assert terms == {
        "[(0|1,2)#((0,0),(0,1)) | psi(h0)]": Fraction(-2),
        "[(0|1);(0|2)#((0,0),(1,0));((0,1),(1,1)) | 1]": Fraction(2),
    }


def test_excess_intersection_separating_square():
    d12 = make_stratum(make_graph([0, 0], [(1, 2), (3, 4, 5)], [(0, 1)]),
                       {}, {}, {})
    x = single(0, 5, d12)
    assert evaluate(multiply(x, x)) == -1


def test_kappa_square_against_direct_integral():
    # evaluate(kappa_1^2) on (0,5) via the product route vs the pushforward
    # recursion route
    x = smooth_kappa1(0, 5)
    assert evaluate(multiply(x, x)) == 5
    assert pair_classes(x, x) == 5


def test_dimension_overflow_is_zero():
    x = smooth_psi(1, 1, 1)
    assert multiply(x, x).is_zero()
    assert multiply(multiply(x, x), x).is_zero()


def test_multiply_strata_matches_multiply():
    gens = generators(1, 2, 1)
    for s in gens:
        for t in gens:
            assert multiply_strata(s, t) == multiply(single(1, 2, s),
                                                     single(1, 2, t))


def test_multiply_mixed_grading():
    rng = random.Random(660)
    g, n = 1, 2
    a = MixedClass(g, n)
    a.set_part(single(g, n, fundamental_stratum(g, n)).scale(Fraction(3)))
    a.set_part(random_class(rng, g, n, 1))
    b = MixedClass(g, n)
    b.set_part(random_class(rng, g, n, 1))
    ab = multiply_mixed(a, b)
    assert ab.part(1) == b.part(1).scale(Fraction(3))
    expect2 = multiply(a.part(1), b.part(1)).add(b.part(2).scale(Fraction(3)))
    assert ab.part(2) == expect2
    one = unit(g, n)
    assert multiply_mixed(one, a) == a


def _structures_by_target(G, target):
    """The per-target search the contraction index replaced: contract each
    choice of |E(target)| kept edges of G, then list the isomorphisms from
    target onto the result, as {kept edges: [(transport, preimages), ...]}
    with the maps made hashable for comparison."""
    out = {}
    E, eT = G.num_edges, target.num_edges
    for kept in itertools.combinations(range(E), eT):
        H, vmap, hemap_c = contract(G, frozenset(range(E)) - frozenset(kept))
        inv_c = {w: h for h, w in hemap_c.items()}
        for vperm, hemap_phi in isomorphisms(target, H):
            transport = tuple((h, inv_c[hemap_phi[h]]) for h in range(2 * eT))
            vpre = tuple(tuple(w for w in range(G.num_vertices)
                               if vmap[w] == vperm[v])
                         for v in range(target.num_vertices))
            out.setdefault(frozenset(kept), []).append((transport, vpre))
    return out


def test_contraction_index_matches_per_target_search():
    # one structure per kept-edge subset, whose maps are one of the |Aut T|
    # isomorphisms the search lists for that subset; the decoration's orbit
    # under Aut T supplies the others.  The index stores K as a bitmask and
    # the transport as a tuple by T-half-edge; both are read back here as
    # the oracle's edge set and (h, he[h]) pairs.  Onto G itself, the
    # structure is the full mask and the identity
    pairs = 0
    for g, n, e in [(0, 5, 2), (1, 3, 3), (2, 1, 3)]:
        graphs = enumerate_stable_graphs(g, n, e)
        for G in graphs:
            E = G.num_edges
            table = _contractions(G)
            assert table[G][0] == ((1 << E) - 1, tuple(range(2 * E)),
                                   tuple((v,) for v in range(G.num_vertices)))
            for T, structs in table.items():
                for kept, he, _ in structs:
                    assert type(kept) is int and 0 <= kept <= (1 << E) - 1
                    assert kept.bit_count() == T.num_edges
                    assert type(he) is tuple
                    assert len(he) == 2 * T.num_edges, (G, T)
            for T in graphs:
                oracle = _structures_by_target(G, T)
                structs = [(frozenset(k for k in range(G.num_edges)
                                      if mask >> k & 1),
                            dict(enumerate(he)), vpre)
                           for mask, he, vpre in contraction_structures(G, T)]
                kepts = [kept for kept, _, _ in structs]
                assert len(set(kepts)) == len(kepts), (G, T)
                assert set(kepts) == oracle.keys(), (G, T)
                for kept, he, vpre in structs:
                    assert (tuple(sorted(he.items())), vpre) in oracle[kept]
                for maps in oracle.values():
                    assert len(set(maps)) == len(maps) == \
                        automorphism_count(T), (G, T)
                pairs += 1
    assert pairs == 1374


def _vertex_degrees(G, pl, ph, kp):
    """(degree, dimension) per vertex of a monomial, read off the fields of
    G alone."""
    out = []
    for v in range(G.num_vertices):
        ends = [2 * i + side for i, edge in enumerate(G.edges)
                for side in (0, 1) if edge[side] == v]
        deg = (sum(pl.get(m, 0) for m in G.legs[v])
               + sum(ph.get(h, 0) for h in ends) + sum(kp.get(v, ())))
        out.append((deg, 3 * G.genera[v] - 3 + len(G.legs[v]) + len(ends)))
    return out


def test_product_monomials_stay_within_vertex_dimensions():
    # pruning happens as monomials are generated: none is above a vertex
    # dimension, and in complementary degree every vertex is met exactly
    monomials = 0
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        gens = [s for d in range(dim + 1) for s in generators(g, n, d)]
        for i, s in enumerate(gens):
            for t in gens[i:]:
                pl = leg_psi(s, t)
                for _, entries in product_walk((s,), (t,)):
                    for _, _, G, expansion in entries:
                        for ph, kp, _ in expansion:
                            for deg, vdim in _vertex_degrees(G, pl, ph, kp):
                                assert deg <= vdim, (s, t)
                                if s.degree + t.degree == dim:
                                    assert deg == vdim, (s, t)
                            monomials += 1
    assert monomials > 0


def test_grouped_products_match_ungrouped_oracle():
    # the product walk expands each group of structure pairs once, with a
    # signed multiplicity; the oracle expands every structure pair.  Both
    # sides are symmetric, so degrees d <= dim - d cover every pair.  The
    # pairing matrices and class pairing vectors, which integrate blocks of
    # pairs at once, are held to the same oracle values, and so are the
    # products of random classes in every degree pair that fits, x * x
    # included, which walk many terms per graph at once.
    rng = random.Random(1414)
    pairs = nonzero = 0
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        oracle = {}
        for d in range(dim // 2 + 1):
            pm, pmt = pairing_matrix(g, n, d), pairing_matrix(g, n, dim - d)
            for i, s in enumerate(generators(g, n, d)):
                for j, t in enumerate(generators(g, n, dim - d)):
                    product, value = ungrouped_product(s, t)
                    assert pair_strata(s, t) == value, (s, t)
                    assert multiply_strata(s, t) == product, (s, t)
                    assert pm.entries[i][j] == pmt.entries[j][i] == value
                    oracle[s, t] = oracle[t, s] = value
                    pairs += 1
                    nonzero += value != 0
        xs = []
        for d in range(dim + 1):
            x = random_class(rng, g, n, d)
            xs.append(x)
            cogens = generators(g, n, dim - d)
            assert class_pairing_vector(x, cogens) == tuple(
                sum((c * oracle[s, t] for s, c in x.terms.items()),
                    Fraction(0)) for t in cogens), (g, n, d)
        products = {}
        for x, y in itertools.product(xs, repeat=2):
            if x.degree + y.degree > dim:
                continue
            expected = TautClass(g, n, x.degree + y.degree)
            for s, cs in x.terms.items():
                for t, ct in y.terms.items():
                    if (s, t) not in products:
                        products[s, t] = products[t, s] = \
                            ungrouped_product(s, t)[0]
                    for u, cu in products[s, t].terms.items():
                        expected.iadd_term(u, cs * ct * cu)
            assert multiply(x, y) == expected, (g, n, x.degree, y.degree)
    assert (pairs, nonzero) == (1413, 1046)


def test_products_pinned():
    # to_json of every product of two generators whose degrees fit, pinned
    # before products pruned monomials as they were generated
    digest = hashlib.sha256()
    count = 0
    for g, n in [(0, 5), (1, 2), (1, 3), (2, 1)]:
        dim = 3 * g - 3 + n
        gens = [s for d in range(dim + 1) for s in generators(g, n, d)]
        for i, s in enumerate(gens):
            for t in gens[i:]:
                if s.degree + t.degree <= dim:
                    digest.update(multiply_strata(s, t).to_json().encode())
                    count += 1
    assert count == 1456
    assert digest.hexdigest() == ("50c043bfbad6cf192f6ce726db7f8609"
                                  "a73439a5b47d5d9e231e57cd02532e3a")


def test_frobenius_identity_on_generator_triples():
    # <x.y, z> = <y.z, x>: the two sides multiply different graph pairs, so
    # a transport or excess-factor error breaks one side alone
    triples = nonzero = 0
    for g, n, degrees in [(1, 3, (1, 1, 1)), (2, 1, (1, 1, 2))]:
        for x, y, z in itertools.product(*(generators(g, n, d)
                                            for d in degrees)):
            [left] = class_pairing_vector(multiply_strata(x, y), (z,))
            [right] = class_pairing_vector(multiply_strata(y, z), (x,))
            assert left == right, (x, y, z)
            triples += 1
            nonzero += left != 0
    assert (triples, nonzero) == (1001, 548)


def test_product_walks_degenerations_only_up_to_the_edge_bound(monkeypatch):
    # a product of two boundary divisors of Mbar_{0,8} meets on graphs with
    # at most 2 edges.  An index of every degeneration of the space (5
    # edges) made this product take about 40 s instead of 0.3 s
    from tautring import product

    bounds = []
    original = product._degenerations

    def recording(g, n, max_edges):
        bounds.append(max_edges)
        return original(g, n, max_edges)

    monkeypatch.setattr(product, "_degenerations", recording)
    two = make_graph([0, 0], [(1, 2), (3, 4, 5, 6, 7, 8)], [(0, 1)])
    three = make_graph([0, 0], [(1, 2, 3), (4, 5, 6, 7, 8)], [(0, 1)])
    a, b = make_stratum(two), make_stratum(three)
    x = multiply(single(0, 8, a), single(0, 8, b))
    assert bounds == [2] and not x.is_zero()
    assert multiply(single(0, 8, b), single(0, 8, a)) == x
    assert bounds == [2, 2]
