import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from tautring.graphs import (
    _CANON_CACHE,
    DomainError,
    StableGraph,
    automorphism_count,
    automorphisms,
    canonical,
    contract,
    decode_graph,
    enumerate_stable_graphs,
    isomorphisms,
    make_graph,
)


def loop_graph(n=1):
    return make_graph([0], [tuple(range(1, n + 1))], [(0, 0)])


def banana(legs_u, legs_v, edges=2, gu=0, gv=0):
    return make_graph([gu, gv], [legs_u, legs_v], [(0, 1)] * edges)


def test_validation_rejects_unstable():
    with pytest.raises(DomainError):
        make_graph([0], [(1, 2)], [])  # genus 0, valence 2
    with pytest.raises(DomainError):
        make_graph([0, 1], [(1,), ()], [])  # disconnected
    with pytest.raises(DomainError):
        make_graph([0], [(1, 3)], [])  # markings must be 1..n


def test_basic_invariants():
    G = loop_graph()
    assert G.genus() == 1
    assert G.h1 == 1
    assert G.num_edges == 1
    T = banana((1,), (2,))
    assert T.genus() == 1
    assert T.h1 == 1
    smooth = make_graph([2], [(1,)], [])
    assert smooth.genus() == 2
    assert smooth.is_smooth()


def test_hash_and_equality_match_a_fresh_copy():
    # the hash is cached on the instance; a copy built from the same fields
    # hashes and compares equal, before and after either hash is taken
    for G in enumerate_stable_graphs(1, 3, 3):
        copy = StableGraph(G.genera, G.legs, G.edges)
        assert copy is not G and copy == G
        assert {G: 1}[copy] == 1 and hash(copy) == hash(G)
        assert hash(StableGraph(G.genera, G.legs, G.edges)) == hash(G)


def test_automorphism_counts():
    assert automorphism_count(loop_graph()) == 2
    assert automorphism_count(make_graph([1], [(1,)], [])) == 1
    assert automorphism_count(banana((1,), (2,))) == 2
    # theta: two vertices joined by three parallel edges, no legs
    theta = make_graph([0, 0], [(), ()], [(0, 1)] * 3)
    assert automorphism_count(theta) == 12
    # two loops on one vertex
    two_loops = make_graph([0], [(1,)], [(0, 0), (0, 0)])
    assert automorphism_count(two_loops) == 8


def closed_form_automorphism_count(G):
    """|Aut G| as the number of vertex permutations preserving genera, legs
    and the edge multiset, times m! 2^m per bundle of m loops at a vertex and
    m! per bundle of m parallel edges."""
    V = G.num_vertices
    edges = sorted(G.edges)
    count = sum(
        1 for p in itertools.permutations(range(V))
        if all(G.genera[p[v]] == G.genera[v] and G.legs[p[v]] == G.legs[v]
               for v in range(V))
        and sorted((min(p[a], p[b]), max(p[a], p[b]))
                   for a, b in G.edges) == edges)
    for (a, b), m in Counter(G.edges).items():
        count *= math.factorial(m) * (2 ** m if a == b else 1)
    return count


def test_automorphism_count_matches_closed_form():
    checked = 0
    for g, n in [(0, 5), (0, 6), (1, 3), (1, 4), (2, 1), (2, 2), (3, 0)]:
        for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            assert automorphism_count(G) == \
                closed_form_automorphism_count(G), G.encode()
            # each (perm, hemap) is a distinct symmetry of the incidence
            auts = automorphisms(G)
            assert len(set(auts)) == len(auts), G.encode()
            for perm, hemap in auts:
                assert all(G.legs[perm[v]] == G.legs[v]
                           and G.genera[perm[v]] == G.genera[v]
                           for v in range(G.num_vertices)), G.encode()
                assert sorted(hemap) == list(range(2 * G.num_edges))
                for h in range(2 * G.num_edges):
                    assert (G.half_edge_vertex[hemap[h]]
                            == perm[G.half_edge_vertex[h]])
                    assert hemap[h ^ 1] == hemap[h] ^ 1
            checked += 1
    assert checked == 581


def test_canonical_is_idempotent_and_label_invariant():
    rng = random.Random(20260816)
    pool = []
    for g, n, c in [(0, 4, 2), (1, 2, 2), (1, 3, 2), (2, 1, 3)]:
        pool.extend(enumerate_stable_graphs(g, n, c))
    for G in pool:
        C, _, _ = canonical(G)
        C2, _, _ = canonical(C)
        assert C == C2
        # rebuild under a random vertex permutation and edge flips
        nv = G.num_vertices
        perm = list(range(nv))
        rng.shuffle(perm)
        inv = [perm.index(v) for v in range(nv)]
        genera = [G.genera[inv[v]] for v in range(nv)]
        legs = [G.legs[inv[v]] for v in range(nv)]
        edges = []
        for u, v in G.edges:
            e = (perm[u], perm[v])
            if rng.random() < 0.5:
                e = (e[1], e[0])
            edges.append(e)
        rng.shuffle(edges)
        H = make_graph(genera, legs, edges)
        assert H == C


def one_edge_oracle(g, n):
    """Independent count of one-edge stable graphs of type (g, n)."""
    count = 1 if g >= 1 else 0  # nonseparating self-loop
    seen = set()
    markings = tuple(range(1, n + 1))
    for g1 in range(g + 1):
        for bits in range(1 << n):
            part = tuple(m for i, m in enumerate(markings) if bits >> i & 1)
            rest = tuple(m for m in markings if m not in part)
            g2 = g - g1
            if 2 * g1 - 2 + len(part) + 1 <= 0:
                continue
            if 2 * g2 - 2 + len(rest) + 1 <= 0:
                continue
            key = frozenset([(g1, part), (g2, rest)])
            seen.add(key)
    return count + len(seen)


@pytest.mark.parametrize("g,n", [(0, 4), (0, 5), (1, 1), (1, 2), (1, 3),
                                 (2, 1), (2, 2)])
def test_enumeration_codim_one_matches_oracle(g, n):
    graphs = enumerate_stable_graphs(g, n, 1)
    one_edge = [G for G in graphs if G.num_edges == 1]
    assert len(one_edge) == one_edge_oracle(g, n)
    smooth = [G for G in graphs if G.num_edges == 0]
    assert len(smooth) == 1


def test_enumeration_small_counts():
    assert len(enumerate_stable_graphs(1, 1, 1)) == 2
    assert len(enumerate_stable_graphs(0, 4, 1)) == 4
    # codim bound caps at the dimension
    assert enumerate_stable_graphs(1, 1, 5) == enumerate_stable_graphs(1, 1, 1)


@pytest.mark.parametrize("g,n,c", [(0, 5, 2), (1, 2, 3), (1, 3, 2), (2, 1, 3)])
def test_enumeration_closed_under_contraction(g, n, c):
    graphs = enumerate_stable_graphs(g, n, c)
    assert len(set(graphs)) == len(graphs)
    index = set(graphs)
    for G in graphs:
        assert G.genus() == g and G.num_legs == n
        assert G.num_edges <= min(c, 3 * g - 3 + n)
        for e in range(G.num_edges):
            H, _, _ = contract(G, frozenset({e}))
            C, _, _ = canonical(H)
            assert C in index


def test_contract_loop_and_separating_edge():
    G = loop_graph()
    H, vmap, hemap = contract(G, frozenset({0}))
    assert H.num_vertices == 1 and H.genera == (1,) and H.num_edges == 0
    assert vmap == (0,) and hemap == {}
    B = banana((1,), (2, 3), edges=1, gu=1, gv=0)
    with pytest.raises(DomainError):
        contract(B, frozenset({5}))


@pytest.mark.parametrize("text, message", [
    ("(1|1)", "missing '#'"),
    ("(1;1)#", "bad vertex"),
    ("(0|1)#((0,0))", "bad edge"),
    ("(0|1)#((0,1),(0,0))", "non-canonical slot"),
    ("(0|2,1,3)#", "sorted"),
    ("(0|1,1,2)#", "repeated marking"),
    ("(0|1)#((0,0),(1,0))", "out of range"),
    # every vertex stable, so only the component count refuses it
    ("(0|1,2,3);(1|4)#", "not connected"),
])
def test_decode_refusals(text, message):
    with pytest.raises(DomainError, match=message):
        decode_graph(text)


def test_encode_decode_round_trip():
    for g, n, c in [(0, 4, 1), (1, 2, 2), (2, 1, 3)]:
        for G in enumerate_stable_graphs(g, n, c):
            assert decode_graph(G.encode()) == G


def test_isomorphisms_respect_legs():
    A = banana((1,), (2,))
    B = banana((2,), (1,))
    maps = isomorphisms(A, B)
    assert maps
    C = banana((1, 2), (3,), gu=0, gv=1, edges=1)
    assert not isomorphisms(A, C)


def test_treelike_flags():
    assert loop_graph().is_treelike()
    assert not loop_graph().is_tree()
    assert banana((1,), (2,)).h1 == 1
    assert not banana((1,), (2,)).is_treelike()
    tree = banana((1, 2), (3,), edges=1, gu=0, gv=1)
    assert tree.is_tree() and tree.is_treelike()


def test_enumeration_pinned():
    # every bound of the ten spaces with g <= 2, n <= 6 and dim <= 4; the
    # digest was taken from an enumeration that split each vertex in both
    # orientations and derived every bound from the smooth graph up
    digest = hashlib.sha256()
    for g in range(3):
        for n in range(7):
            dim = 3 * g - 3 + n
            if 2 * g - 2 + n <= 0 or dim > 4:
                continue
            for e in range(dim + 1):
                digest.update(("%d,%d,%d:" % (g, n, e) + ";".join(
                    G.encode() for G in enumerate_stable_graphs(g, n, e))
                    + "\n").encode())
    assert digest.hexdigest() == ("78e1a3a0857f627901b6ad0c022c11e4"
                                  "4b8a21568d834273fa177635595a47ca")


def test_canonical_files_only_the_canonical_graph():
    # a raw graph is relabeled again on every call, to the same maps, and
    # the only key it may add is its canonical graph's, with identity maps
    raws = 0
    for G in enumerate_stable_graphs(1, 4, 3):
        nv = G.num_vertices
        raw = StableGraph(G.genera[::-1], G.legs[::-1], tuple(
            (nv - 1 - b, nv - 1 - a) for a, b in reversed(G.edges)))
        key = (raw.genera, raw.legs, raw.edges)
        ckey = (G.genera, G.legs, G.edges)
        if key == ckey:
            continue
        before = set(_CANON_CACHE)
        first = canonical(raw)
        assert canonical(raw) == first
        assert first[0] == G
        assert set(_CANON_CACHE) - before <= {ckey}
        assert key not in _CANON_CACHE
        assert _CANON_CACHE[ckey] == (G, tuple(range(nv)),
                                      tuple(range(2 * G.num_edges)))
        assert canonical(G) == _CANON_CACHE[ckey]
        raws += 1
    assert raws > 50


def test_canonical_maps_transport_raw_graphs_pinned():
    # strata, contractions and products carry their decorations along the
    # (vmap, hemap) that canonical returns for a raw graph
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    counts = []
    for g, n in [(0, 6), (1, 4), (2, 2), (3, 1)]:
        graphs = enumerate_stable_graphs(g, n, 3 * g - 3 + n)
        counts.append(len(graphs))
        for G, _ in itertools.product(graphs, range(3)):
            nv = G.num_vertices
            perm = list(range(nv))
            rng.shuffle(perm)
            genera, legs = [0] * nv, [()] * nv
            for v in range(nv):
                genera[perm[v]], legs[perm[v]] = G.genera[v], G.legs[v]
            edges = [(perm[u], perm[v]) if rng.random() < 0.5
                     else (perm[v], perm[u]) for u, v in G.edges]
            rng.shuffle(edges)
            raw = StableGraph(tuple(genera), tuple(legs), tuple(edges))
            C, vmap, hemap = canonical(raw)
            assert C == G
            for v in range(nv):
                assert C.genera[vmap[v]] == raw.genera[v]
                assert C.legs[vmap[v]] == raw.legs[v]
            assert sorted(hemap) == list(range(2 * raw.num_edges))
            for h in range(2 * raw.num_edges):
                assert hemap[h ^ 1] == hemap[h] ^ 1
                assert (C.half_edge_vertex[hemap[h]]
                        == vmap[raw.half_edge_vertex[h]])
            slots: dict = {}
            for i, (a, b) in enumerate(edges):
                pair = frozenset((vmap[a], vmap[b]))
                assert slots.get(pair, -1) < hemap[2 * i] // 2
                slots[pair] = hemap[2 * i] // 2
            digest.update(repr((C.encode(), vmap, hemap)).encode())
    assert counts == [236, 163, 75, 181]
    assert digest.hexdigest() == ("45001a56717ebd3e770b0b9a4f2f86af"
                                  "ebd2f3a46babf2c4f306172aba42be26")
