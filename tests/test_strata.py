import random
from collections import Counter
from fractions import Fraction

import pytest

from tautring.graphs import (
    DomainError,
    StableGraph,
    automorphism_count,
    automorphisms,
    canonical,
    enumerate_stable_graphs,
    isomorphisms,
    make_graph,
)
from tautring.product import _contractions
from tautring.strata import (
    DecoratedStratum,
    MixedClass,
    TautClass,
    fundamental_stratum,
    generators,
    make_stratum,
    off_locus_strata,
    restrict,
    single,
    unit,
)

from oracles import make_stratum_generators


def smooth(g, n):
    return make_graph([g], [tuple(range(1, n + 1))], [])


def test_generator_counts():
    assert len(generators(0, 4, 0)) == 1
    assert len(generators(0, 4, 1)) == 8
    assert len(generators(1, 1, 1)) == 3
    assert len(generators(1, 2, 1)) == 5
    assert len(generators(1, 2, 2)) == 15
    # every degree, as counted before the enumerators were rewritten
    for (g, n), counts in {(0, 5): [1, 16, 87],
                           (0, 6): [1, 32, 324, 1302],
                           (1, 3): [1, 9, 42, 115],
                           (1, 4): [1, 17, 129, 551, 1324],
                           (2, 1): [1, 4, 17, 49, 92],
                           (2, 2): [1, 7, 38, 161, 463, 796],
                           (3, 1): [1, 5, 27, 119, 430]}.items():
        assert [len(generators(g, n, d)) for d in range(len(counts))] == \
            counts, (g, n)


def test_generators_match_make_stratum_construction():
    # generators keeps each decoration that is its own orbit minimum; the
    # oracle makes a stratum of every decoration and deduplicates.  Same
    # strata, same order, and each is the object make_stratum interns
    spaces = [(g, n) for g in range(3) for n in range(8)
              if 2 * g - 2 + n > 0 and 3 * g - 3 + n <= 4]
    assert (0, 7) in spaces and (2, 1) in spaces
    for g, n in spaces:
        for d in range(3 * g - 3 + n + 1):
            gens = generators(g, n, d)
            assert gens == make_stratum_generators(g, n, d), (g, n, d)
            for s in gens:
                assert make_stratum(s.graph, s.psi_leg, s.psi_he, s.kappa) is s


def test_generator_degrees_and_uniqueness():
    for g, n, d in [(0, 5, 1), (1, 2, 2), (1, 3, 1), (2, 1, 2)]:
        gens = generators(g, n, d)
        assert len(set(gens)) == len(gens)
        for s in gens:
            assert s.degree == d
            assert s.is_valid()


def test_stratum_interning_and_aut_normalization():
    # psi on either half of a loop lands on the same canonical stratum
    loop = make_graph([0], [(1,)], [(0, 0)])
    s1 = make_stratum(loop, {}, {0: 1}, {})
    s2 = make_stratum(loop, {}, {1: 1}, {})
    assert s1 is s2
    # kappa partitions are multisets
    sm = smooth(1, 1)
    k1 = make_stratum(sm, {}, {}, {0: (2, 1)})
    k2 = make_stratum(sm, {}, {}, {0: (1, 2)})
    assert k1 is k2


def test_stratum_hash_and_equality_match_a_fresh_copy():
    for s in generators(1, 3, 2):
        G = s.graph
        copy = DecoratedStratum(StableGraph(G.genera, G.legs, G.edges),
                                s.psi_leg, s.psi_he, s.kappa, s.orbit)
        assert copy is not s and copy == s
        assert {s: 1}[copy] == 1 and hash(copy) == hash(s)


def test_orbit_is_the_image_multiset_under_automorphisms():
    # the orbit lists each image of (psi_he, kappa) under Aut G once, with
    # its stabilizer order; the stored decoration is the least image.  A
    # rigid graph's orbit is built without images, so both kinds of graph
    # are covered, and so are strata from make_stratum on a decoration
    # that is not the least image
    strata = rigid = 0
    for g, n in [(0, 5), (1, 3), (2, 1)]:
        for d in range(3 * g - 3 + n + 1):
            for s in generators(g, n, d):
                images = Counter(
                    (tuple(sorted((hemap[h], e) for h, e in s.psi_he)),
                     tuple(sorted((vmap[v], p) for v, p in s.kappa)))
                    for vmap, hemap in isomorphisms(s.graph, s.graph))
                assert dict(s.orbit) == images and len(s.orbit) == len(images)
                assert sum(m for _, m in s.orbit) == \
                    automorphism_count(s.graph), s
                assert min(images) == (s.psi_he, s.kappa)
                strata += 1
                rigid += automorphism_count(s.graph) == 1
    assert strata == 104 + 167 + 163
    assert 0 < rigid < strata
    loop = make_graph([0, 0], [(1,), (2,)], [(0, 0), (0, 1), (1, 1)])
    s = make_stratum(loop, {}, {1: 1, 5: 1}, {0: (1,)})
    assert (s.psi_he, s.kappa) == (((0, 1), (4, 1)), ((0, (1,)),))
    assert sorted(s.orbit) == [((((h, 1), (k, 1)), ((0, (1,)),)), 1)
                               for h in (0, 1) for k in (4, 5)]


def test_small_tuples_are_shared():
    # the tables that live for the process hold one object per value of
    # their small tuples: the contraction structures, each target's tuple
    # of them and their transports and vertex preimages; the encodings,
    # per-vertex records, half-edge and leg vertices, automorphisms and
    # filed identity maps of the graphs; and the (point, exponent) pairs
    # and decoration tuples of the strata
    first = {}

    def one_object(*tuples):
        return all(first.setdefault(t, t) is t for t in tuples)

    for g, n in [(0, 6), (1, 4)]:
        for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            for structs in _contractions(G).values():
                assert one_object(structs, *structs)
                for _, he, vpre in structs:
                    assert one_object(he, vpre, *vpre)
            auts = automorphisms(G)
            assert one_object(G.genera, G.legs, *G.legs, G.edges, *G.edges,
                              *canonical(G)[1:], G.vertex_data, *G.vertex_data,
                              *(hes for _, _, hes, _ in G.vertex_data),
                              G.half_edge_vertex, G.leg_vertex, auts, *auts,
                              *(m for aut in auts for m in aut))
            assert type(G.leg_vertex) is tuple
            for m in range(1, n + 1):
                assert m in G.legs[G.leg_vertex[m]]
    strata = [s for d in range(5) for s in generators(1, 4, d)]
    for s in strata:
        assert one_object(s.psi_leg, s.psi_he, s.kappa, *s.psi_leg, *s.psi_he)
    # a stratum on a rigid graph stores no images, yet reads its orbit
    rigid = [automorphism_count(s.graph) == 1 for s in strata]
    assert 0 < sum(rigid) < len(strata)
    for s, is_rigid in zip(strata, rigid):
        assert (s.images is None) == is_rigid
        if is_rigid:
            assert s.orbit == (((s.psi_he, s.kappa), 1),)


def test_make_stratum_rejects_bad_decorations():
    sm = smooth(1, 1)
    with pytest.raises(DomainError):
        make_stratum(sm, {2: 1}, {}, {})  # no marking 2
    with pytest.raises(DomainError):
        make_stratum(sm, {}, {0: 1}, {})  # no half-edges on a smooth graph
    with pytest.raises(DomainError):
        make_stratum(sm, {1: -1}, {}, {})
    loop = make_graph([0], [(1,)], [(0, 0)])
    with pytest.raises(DomainError, match="negative psi exponent on half-edge 0"):
        make_stratum(loop, {}, {0: -1}, {})


def test_overweight_terms_are_pruned():
    # a genus-0 vertex of valence 3 has dimension 0: any psi there dies
    tri = make_graph([0, 1], [(1, 2), ()], [(0, 1)])
    x = TautClass(1, 2, 2)
    s = make_stratum(tri, {1: 1}, {}, {})
    x.iadd_term(s, Fraction(1))
    assert x.is_zero()
    # the same through a half-edge psi or a kappa on that vertex; the genus-1
    # vertex (dimension 1) takes either
    for ph, kp in [({0: 1}, {}), ({}, {0: (1,)})]:
        x.iadd_term(make_stratum(tri, {}, ph, kp), Fraction(1))
        assert x.is_zero()
    for ph, kp in [({1: 1}, {}), ({}, {1: (1,)})]:
        assert make_stratum(tri, {}, ph, kp).is_valid()


def test_class_arithmetic_and_json_round_trip():
    rng = random.Random(96)
    for g, n, d in [(1, 1, 1), (1, 2, 2), (0, 5, 1)]:
        gens = generators(g, n, d)
        x = TautClass(g, n, d)
        for s in gens:
            if rng.random() < 0.7:
                x.iadd_term(s, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        y = TautClass.from_json(x.to_json())
        assert y == x
        z = x.add(x).scale(Fraction(1, 2))
        assert z == x
        assert x.sub(x).is_zero()


def test_from_payload_rejects_garbage():
    with pytest.raises(DomainError):
        TautClass.from_payload({"g": 1})
    with pytest.raises(DomainError):
        TautClass.from_payload({"g": 1, "n": 1, "degree": 0, "terms": [
            {"graph": "(0|1,2,3)#", "psi": {}, "kappa": {}, "coeff": "1"},
        ]})
    # only the keys to_payload writes: "m01" was read as "m1" and the later
    # of the two exponents overwrote the earlier one.  The first six
    # payloads are valid classes once the odd key is read as the index it
    # spells; the last two put a key in the wrong field
    smooth_11, loop_11 = "(1|1)#", "(0|1)#((0,0),(0,1))"
    for graph, field, entries in [
            (smooth_11, "psi", {"m1": 1, "m01": 1}),
            (smooth_11, "psi", {"m01": 1}),
            (smooth_11, "psi", {"m1\n": 1}),
            (smooth_11, "psi", {"m\u0661": 1}),
            (loop_11, "psi", {"h00": 0}),
            (smooth_11, "kappa", {"v00": [1]}),
            (smooth_11, "kappa", {"m1": [1]}),
            (smooth_11, "psi", {"v0": 1})]:
        with pytest.raises(DomainError):
            TautClass.from_payload({"g": 1, "n": 1, "degree": 1, "terms": [
                {"graph": graph, field: entries, "coeff": "1"}]})
    for graph, psi, kappa in [(smooth_11, {"m1": 1}, {}),
                              (smooth_11, {}, {"v0": [1]}),
                              (loop_11, {"m1": 0, "h0": 0, "h1": 0}, {})]:
        x = TautClass.from_payload({"g": 1, "n": 1, "degree": 1, "terms": [
            {"graph": graph, "psi": psi, "kappa": kappa, "coeff": "1"}]})
        assert len(x.terms) == 1


def test_from_json_refuses_repeated_keys():
    # json.loads keeps the last of two equal keys: {"m1":0,"m1":1} read as
    # psi_1 and integrated to 1/24.  A repeated key anywhere is refused
    term = '{"graph":"(1|1)#","psi":{"m1":1},"coeff":"1"}'
    assert len(TautClass.from_json(
        '{"g":1,"n":1,"degree":1,"terms":[%s]}' % term).terms) == 1
    for text in [
            '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#",'
            '"psi":{"m1":0,"m1":1},"coeff":"1"}]}',
            '{"g":1,"n":1,"degree":1,"degree":1,"terms":[%s]}' % term,
            '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#",'
            '"psi":{"m1":1},"coeff":"1","coeff":"2"}]}',
            '{"g":1,"n":1,"degree":1,"terms":[{"graph":"(1|1)#",'
            '"kappa":{"v0":[1],"v0":[1]},"coeff":"1"}]}']:
        with pytest.raises(DomainError):
            TautClass.from_json(text)


def test_mixed_class_round_trip_and_parts():
    m = MixedClass(1, 2)
    m.set_part(single(1, 2, fundamental_stratum(1, 2)))
    one = unit(1, 2)
    assert m == one
    assert m.part(1).is_zero()
    m2 = MixedClass.from_payload(m.to_payload())
    assert m2 == m
    assert m.dim == 2
    doubled = m.add(m)
    assert doubled.part(0) == m.part(0).scale(Fraction(2))


def test_restrict_and_off_locus():
    g, n = 1, 2
    loop = make_graph([0], [(1, 2)], [(0, 0)])
    irr = single(g, n, make_stratum(loop, {}, {}, {}))
    assert restrict(irr, "ct").is_zero()
    assert not restrict(irr, "tl").is_zero()
    assert restrict(irr, "sm").is_zero()
    psi = single(g, n, make_stratum(smooth(g, n), {1: 1}, {}, {}))
    assert restrict(psi, "sm") == psi
    with pytest.raises(DomainError):
        restrict(psi, "noplace")
    # off the treelike locus in degree 2 on (1,2): the banana alone
    off_tl = off_locus_strata(g, n, 2, "tl")
    assert len(off_tl) == 1
    assert off_tl[0].graph.num_edges == 2
    assert not off_tl[0].graph.is_treelike()
    # off compact type = anything with h1 > 0
    off_ct = off_locus_strata(g, n, 1, "ct")
    assert [s.graph.h1 for s in off_ct] == [1]


def test_unit_and_single_validate_type():
    with pytest.raises(DomainError):
        single(1, 1, fundamental_stratum(1, 2))
    with pytest.raises(DomainError, match="negative codimension"):
        generators(1, 1, -1)
    # sums and terms of another space, type or degree are refused
    x = TautClass(1, 2, 1)
    for other in (TautClass(1, 1, 1), TautClass(2, 2, 1), TautClass(1, 2, 2)):
        with pytest.raises(DomainError, match="different type/degree"):
            x.add(other)
    with pytest.raises(DomainError, match="stratum degree 0"):
        x.iadd_term(fundamental_stratum(1, 2), Fraction(1))
    with pytest.raises(DomainError, match="type mismatch"):
        x.iadd_term(generators(1, 1, 1)[0], Fraction(1))
