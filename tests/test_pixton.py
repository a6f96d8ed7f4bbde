import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from tautring.graphs import DomainError, enumerate_stable_graphs, make_graph
from tautring.integrate import class_pairing_vector, evaluate
from tautring import pixton
from tautring.pixton import (
    RamificationData,
    _edge_forms,
    _weighting_ct,
    closed_weighting_value,
    delta_factor,
    exp_class,
    hain_divisor,
    interpolate_constant_term,
    pixton_class,
    pixton_mixed,
    q_form,
)
from tautring.strata import MixedClass, generators, make_stratum, restrict, \
    single, unit

from oracles import brute_force_weighting_value, bssz_psi_integral, \
    hain_divisor_by_subsets, loop_constant_term, max_cut_target, \
    residue_bound, tree_constant_term, weighting_targets


def test_ramification_data_validation():
    with pytest.raises(DomainError):
        RamificationData(1, 2, 0, (1, 0))  # sum != 0
    with pytest.raises(DomainError):
        RamificationData(1, 1, 0, (0, 0))  # wrong length
    with pytest.raises(DomainError):
        RamificationData(0, 2, 0, (0, 0))  # unstable type
    # floats and booleans are refused, not truncated to integers
    for bad in [(1, 2, 0, (1.9, -1.9)), (1.0, 2, 0, (1, -1)),
                (1, 2.0, 0, (1, -1)), (1, 2, 0.0, (1, -1)),
                (1, 2, 0, (True, -1))]:
        with pytest.raises(DomainError):
            RamificationData(*bad)
    d = RamificationData.from_a(2, 1, 1, (2,))
    assert d.A == (3,) and d.a == (2,)


def test_weighting_sum_loop_frozen():
    loop = make_graph([0], [(1,)], [(0, 0)])
    data = RamificationData(1, 1, 0, (0,))
    # sum of w(r-w) over residues w, divided by r
    expected = {5: 4, 7: 8, 11: 20}
    for r, val in expected.items():
        assert closed_weighting_value(loop, data, (0,), r) == Fraction(val)


def test_closed_matches_direct_weighting():
    rng = random.Random(5150)
    pool = []
    for g, n, c in [(1, 1, 1), (1, 2, 2), (2, 1, 2)]:
        pool.extend(G for G in enumerate_stable_graphs(g, n, c)
                    if G.num_edges > 0)
    cases = []
    for _ in range(10):
        G = rng.choice(pool)
        g, n = G.genus(), G.num_legs
        k = rng.randint(0, 1)
        total = k * (2 * g - 2 + n)
        A = [rng.randint(-2, 2) for _ in range(n - 1)]
        A.append(total - sum(A))
        data = RamificationData(g, n, k, tuple(A))
        mvec = tuple(rng.randint(0, 2) for _ in range(G.num_edges))
        cases.append((G, data, mvec, residue_bound(data) + rng.randint(1, 4)))
    # genus 3, first Betti number 3: the h1 >= 3 graphs of P_3^{d,k}(A)
    three = [G for G in enumerate_stable_graphs(3, 1, 4) if G.h1 == 3]
    assert any(G.num_vertices > 1 for G in three)
    for G in three:
        for data in (RamificationData(3, 1, 0, (0,)),
                     RamificationData(3, 1, 1, (5,))):
            mvec = tuple(rng.randint(0, 1) for _ in range(G.num_edges))
            r = residue_bound(data) + rng.randint(4, 7)
            cases.append((G, data, mvec, r))
    for G, data, mvec, r in cases:
        assert closed_weighting_value(G, data, mvec, r) == \
            brute_force_weighting_value(G, data, mvec, r), (G, data, mvec, r)


def test_interpolation_recovers_constant_term():
    # f(r) = 3r^2 - 5r + 7/2 sampled beyond the bound
    f = lambda r: Fraction(3) * r * r - 5 * r + Fraction(7, 2)
    samples = [(r, f(r)) for r in range(10, 17)]
    assert interpolate_constant_term(samples, 2) == Fraction(7, 2)


def test_interpolation_rejects_non_polynomial_surplus():
    f = lambda r: Fraction(r * r)
    samples = [(r, f(r)) for r in range(5, 10)]
    samples.append((10, Fraction(1)))  # corrupted surplus point
    # a defect, not bad input: the CLI must not report it as exit 2
    with pytest.raises(ArithmeticError) as info:
        interpolate_constant_term(samples, 2)
    assert not isinstance(info.value, DomainError)


def test_degree_zero_is_fundamental():
    for data in [RamificationData(1, 2, 0, (1, -1)),
                 RamificationData(2, 1, 1, (3,)),
                 RamificationData(1, 3, 0, (2, 4, -6))]:
        cls = pixton_class(data, 0)
        assert cls == single(data.g, data.n,
                             unit(data.g, data.n).part(0).sorted_terms()[0][0])


def test_degree_one_small_type_frozen():
    loop_label = "[(0|1,2)#((0,0),(0,1)) | 1]"
    for a in (1, 2, 3):
        cls = pixton_class(RamificationData(1, 2, 0, (a, -a)), 1)
        terms = {s.label(): c for s, c in cls.terms.items()}
        assert terms == {
            "[(1|1,2)# | psi(m1)]": Fraction(a * a),
            "[(1|1,2)# | psi(m2)]": Fraction(a * a),
            loop_label: Fraction(-1, 6),
        }
    one_pt = pixton_class(RamificationData(1, 1, 0, (0,)), 1)
    terms = {s.label(): c for s, c in one_pt.terms.items()}
    assert terms == {"[(0|1)#((0,0),(0,1)) | 1]": Fraction(-1, 6)}
    assert evaluate(one_pt) == Fraction(-1, 12)


def test_degree_beyond_dimension_is_zero():
    data = RamificationData(1, 1, 0, (0,))
    assert pixton_class(data, 2).is_zero()


def test_hain_divisor_frozen_examples():
    h = hain_divisor(RamificationData(1, 2, 0, (1, -1)))
    terms = {s.label(): c for s, c in h.terms.items()}
    assert terms == {
        "[(1|1,2)# | psi(m1)]": Fraction(1, 2),
        "[(1|1,2)# | psi(m2)]": Fraction(1, 2),
    }
    h = hain_divisor(RamificationData.from_a(2, 1, 1, (2,)))
    terms = {s.label(): c for s, c in h.terms.items()}
    assert terms == {
        "[(2|1)# | kappa_1(v0)]": Fraction(-1, 2),
        "[(2|1)# | psi(m1)]": Fraction(9, 2),
        "[(1|);(1|1)#((0,0),(1,0)) | 1]": Fraction(-1, 2),
    }
    assert q_form(RamificationData(1, 2, 0, (1, -1))) == \
        hain_divisor(RamificationData(1, 2, 0, (1, -1))).scale(Fraction(2))


def test_compact_type_pin_small():
    for data in [RamificationData(1, 2, 0, (2, -2)),
                 RamificationData.from_a(2, 1, 1, (2,)),
                 RamificationData(1, 3, 1, (1, 1, 1))]:
        p1 = pixton_class(data, 1)
        assert restrict(p1, "ct").sorted_terms() == \
            q_form(data).sorted_terms()


def test_delta_factor_frozen():
    df = delta_factor(1, 2)
    assert df.degrees() == [0, 1, 2]
    t0 = {s.label(): c for s, c in df.part(0).terms.items()}
    t1 = {s.label(): c for s, c in df.part(1).terms.items()}
    t2 = {s.label(): c for s, c in df.part(2).terms.items()}
    assert t0 == {"[(1|1,2)# | 1]": Fraction(1)}
    assert t1 == {"[(0|1,2)#((0,0),(0,1)) | 1]": Fraction(-1, 6)}
    assert t2 == {"[(0|1,2)#((0,0),(0,1)) | psi(h0)]": Fraction(1, 30)}


def test_weighting_constant_terms_match_closed_forms():
    # one-vertex graphs with A = 0, k = 0: a Bernoulli number per loop;
    # trees: (-s_e^2)^{m_e+1} per edge, s_e the target sum on one side
    loops = 0
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        data = RamificationData(g, n, 0, (0,) * n)
        for G in enumerate_stable_graphs(g, n, 3):
            if G.num_vertices == 1 and G.num_edges:
                for mvec in itertools.product(range(3), repeat=G.num_edges):
                    loops += 1
                    assert _weighting_ct(G, data, mvec) == \
                        loop_constant_term(mvec), (G.encode(), mvec)
    rng = random.Random(2121)
    trees = 0
    for g, n in [(0, 4), (0, 5), (1, 3), (1, 4), (2, 2)]:
        for G in enumerate_stable_graphs(g, n, 3):
            if G.h1 or not G.num_edges:
                continue
            for _ in range(3):
                k = rng.randint(-1, 2)
                A = [rng.randint(-3, 3) for _ in range(n - 1)]
                A.append(k * (2 * g - 2 + n) - sum(A))
                data = RamificationData(g, n, k, tuple(A))
                mvec = tuple(rng.randint(0, 1) for _ in range(G.num_edges))
                trees += 1
                assert _weighting_ct(G, data, mvec) == \
                    tree_constant_term(G, data, mvec), (G.encode(), data, mvec)
    assert (loops, trees) == (69, 285)


def test_delta_factor_is_the_one_vertex_part_of_the_cycle():
    # the reference filters the full A = 0, k = 0 cycle, as delta_factor
    # did before it built only the one-vertex graphs' terms
    for g, n in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]:
        full = pixton_mixed(RamificationData(g, n, 0, (0,) * n))
        df = delta_factor(g, n)
        for d in range(3 * g - 2 + n):
            ref = {s: c for s, c in full.part(d).terms.items()
                   if s.graph.num_vertices == 1 and not s.kappa
                   and not s.psi_leg}
            assert df.part(d).terms == ref, (g, n, d)


def test_hain_divisor_matches_sum_over_subsets():
    rng = random.Random(4242)
    for _ in range(24):
        g = rng.randint(0, 3)
        n = rng.randint(3 if g == 0 else 1, 5 if g < 3 else 3)
        k = rng.randint(-2, 2)
        A = [rng.randint(-4, 4) for _ in range(n - 1)]
        A.append(k * (2 * g - 2 + n) - sum(A))
        data = RamificationData(g, n, k, tuple(A))
        assert hain_divisor(data) == hain_divisor_by_subsets(data), data
    # a vector off k(2g-2+n) makes the two sides of a divisor disagree
    data = RamificationData(1, 2, 0, (1, -1))
    object.__setattr__(data, "A", (1, 0))
    with pytest.raises(ArithmeticError):
        hain_divisor(data)


def test_weighting_sums_polynomial_above_threshold():
    # _weighting_ct fits degree 2 sum(m_e+1) from the threshold C + 1; a
    # disjoint window far above it, fitted with one spare degree, must give
    # the same constant term, and at C + 1 itself the sum must match the
    # per-edge brute force
    rng = random.Random(8080)
    cases = []
    for g, n in [(2, 1), (2, 2), (1, 3)]:
        for G in enumerate_stable_graphs(g, n, 3):
            for k in (0, 1, 2):
                if G.num_edges:
                    cases.append((G, k, tuple(rng.randint(0, 1)
                                              for _ in range(G.num_edges))))
    three = [G for G in enumerate_stable_graphs(3, 1, 4) if G.h1 == 3]
    for i, G in enumerate(three):
        # one twist and at most one raised edge power each keep r^3 cheap
        mvec = [0] * G.num_edges
        mvec[i % G.num_edges] = i % 2
        cases.append((G, i % 3, tuple(mvec)))
    assert {G.h1 for G, _, _ in cases} == {0, 1, 2, 3}
    assert any(any(mvec) for G, _, mvec in cases if G.h1 == 3)
    for G, k, mvec in cases:
        g, n = G.genus(), G.num_legs
        A = [rng.randint(-3, 3) for _ in range(n - 1)]
        A.append(k * (2 * g - 2 + n) - sum(A))
        data = RamificationData(g, n, k, tuple(A))
        C = _edge_forms(G, data)[0]
        assert C == max_cut_target(G, data) <= residue_bound(data)
        degree = 2 * sum(m + 1 for m in mvec)
        far = residue_bound(data) + degree + 3
        samples = [(r, closed_weighting_value(G, data, mvec, r))
                   for r in range(far, far + degree + 3)]
        assert _weighting_ct(G, data, mvec) == \
            interpolate_constant_term(samples, degree + 1), (G, data, mvec)
        if G.h1 <= 2:
            assert closed_weighting_value(G, data, mvec, C + 1) == \
                brute_force_weighting_value(G, data, mvec, C + 1)
    # the threshold itself is refused
    with pytest.raises(DomainError):
        closed_weighting_value(G, data, mvec, C)


def _bridges(G):
    """The edges whose removal disconnects G, by a walk without each."""
    out = []
    for e in range(G.num_edges):
        seen, todo = {0}, [0]
        while todo:
            u = todo.pop()
            for f, (a, b) in enumerate(G.edges):
                w = b if u == a else a
                if f != e and u in (a, b) and w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) < G.num_vertices:
            out.append(e)
    return out


def test_bridge_factors_match_full_window_fit(monkeypatch):
    # on every graph with a bridge, the constant term from the exact bridge
    # values and the interpolated cycle part must equal the plain fit of
    # the full sums over r = C+1..C+D+2, D = 2 sum_e (m_e+1) over all edges;
    # a tree takes no sample
    rng = random.Random(2929)
    sampled = []
    exact = pixton._value_table

    def spy(G, data, r):
        sampled.append(G)
        return exact(G, data, r)

    monkeypatch.setattr(pixton, "_value_table", spy)
    kinds = set()
    for g, n in [(2, 1), (2, 2), (1, 3), (0, 5)]:
        for G in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            bridges = _bridges(G)
            if not bridges:
                continue
            k = rng.randint(0, 2)
            A = [rng.randint(-3, 3) for _ in range(n - 1)]
            A.append(k * (2 * g - 2 + n) - sum(A))
            data = RamificationData(g, n, k, tuple(A))
            mvec = tuple(rng.randint(0, 1) for _ in range(G.num_edges))
            C, _, forms = _edge_forms(G, data)
            assert bridges == [e for e, (_, eps) in enumerate(forms) if not eps]
            sampled.clear()
            got = _weighting_ct(G, data, mvec)
            assert not (G.h1 == 0 and sampled), G
            D = 2 * sum(m + 1 for m in mvec)
            fit = interpolate_constant_term(
                [(r, closed_weighting_value(G, data, mvec, r))
                 for r in range(C + 1, C + D + 3)], D)
            assert got == fit, (G, data, mvec)
            zero = any(forms[e][0] == 0 for e in bridges)
            kinds.add((G.h1 > 0, zero))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_edge_forms_biject_onto_weightings():
    # the r^{h1} free-weight vectors must give distinct weightings, each
    # meeting the vertex congruences: sums alone cannot catch a form with
    # the wrong overall sign, as y(r-y) is symmetric
    rng = random.Random(2718)
    cases = 0
    for g, n in [(2, 1), (1, 3)]:
        for G in enumerate_stable_graphs(g, n, 3):
            if G.h1 > 2:
                continue
            for k in (0, 1):
                A = [rng.randint(-3, 3) for _ in range(n - 1)]
                A.append(k * (2 * g - 2 + n) - sum(A))
                data = RamificationData(g, n, k, tuple(A))
                C, h1, forms = _edge_forms(G, data)
                assert h1 == G.h1 and len(forms) == G.num_edges
                assert all(s in (1, -1) for _, eps in forms for _, s in eps)
                r = C + 1
                targets = weighting_targets(G, data)
                seen = set()
                for xs in itertools.product(range(r), repeat=h1):
                    w = tuple((c + sum(s * xs[j] for j, s in eps)) % r
                              for c, eps in forms)
                    sums = [0] * G.num_vertices
                    for (u, v), y in zip(G.edges, w):
                        sums[u] += y
                        sums[v] -= y
                    assert all((x - t) % r == 0
                               for x, t in zip(sums, targets)), (G, data, w)
                    seen.add(w)
                assert len(seen) == r ** h1, (G, data)
                cases += 1
    assert cases == 72


def test_edge_forms_built_once_per_pair(monkeypatch):
    # every modulus and edge-power vector of one (graph, data) pair reads the
    # same table: one build per pair.  The cycle in all degrees enumerates
    # one value table per (graph, data, r), and none on a tree
    pixton_class.cache_clear()
    _edge_forms.cache_clear()
    tables = []
    sample = pixton._value_table

    def spy(G, data, r):
        tables.append((G, data, r))
        return sample(G, data, r)

    monkeypatch.setattr(pixton, "_value_table", spy)
    pixton_mixed(RamificationData(2, 1, 1, (3,)))
    graphs = enumerate_stable_graphs(2, 1, 4)
    info = _edge_forms.cache_info()
    assert info.misses == info.currsize == len(graphs)
    assert info.hits == len(tables) == len(set(tables))
    assert {G for G, _, _ in tables} == {G for G in graphs if G.h1}


def test_pixton_mixed_payloads_pinned():
    # SHA-256 of the concatenated payloads through degree 4 on fifteen data
    # sets: no change to the weighting-sum sampling may move a coefficient
    pinned = [(1, 2, 0, (1, -1)), (1, 3, 0, (2, 4, -6)), (2, 1, 1, (3,)),
              (2, 2, 0, (2, -2)), (2, 2, 1, (3, 1)), (1, 3, 1, (1, 1, 1)),
              (2, 1, 0, (0,)), (3, 1, 0, (0,)), (1, 2, 1, (1, 1)),
              (0, 5, 1, (1, 1, 1, 0, 0)), (0, 5, 0, (1, -1, 2, -2, 0)),
              (1, 4, 0, (1, -1, 2, -2)), (2, 1, 2, (6,)), (1, 2, 2, (5, -1)),
              (3, 1, 1, (5,))]
    digest = hashlib.sha256()
    for d in pinned:
        data = RamificationData(*d)
        payload = MixedClass(data.g, data.n, {
            deg: pixton_class(data, deg)
            for deg in range(min(4, data.dim) + 1)}).to_payload()
        digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == \
        "15892f14bf5c20f6ba8a8b217cb1b1e611725ecdb230fff173828d2f4683e24e"


@pytest.mark.parametrize("g, a, s", [
    (1, (2, -2), 1), (1, (3, -3), 2), (1, (2, 1, -3), 1), (1, (2, 1, -3), 2),
    (1, (1, 2, -4, 1), 2), (2, (0,), 1), (2, (2, -2), 1), (2, (4, -4), 2),
    (2, (1, 1, -2), 1), (2, (3, -1, -2), 2), (2, (2, -1, 1, -2), 1),
    (3, (0,), 1), (3, (2, -2), 1), (3, (3, -3), 2)])
def test_dr_psi_integrals_match_bssz(g, a, s):
    # DR_g(a) = 2^-g P_g^g(a) (JPPZ) paired with psi_s^{2g-3+n} against the
    # closed formula of Buryak-Shadrin-Spitz-Zvonkine: pixton weightings,
    # product and integrals end to end against an independent series
    n = len(a)
    psi = make_stratum(make_graph([g], [tuple(range(1, n + 1))], []),
                       {s: 2 * g - 3 + n})
    dr = pixton_class(RamificationData(g, n, 0, a), g).scale(Fraction(1, 2 ** g))
    [value] = class_pairing_vector(dr, (psi,))
    assert value == bssz_psi_integral(g, a, s) != 0


def test_pixton_class_is_polynomial_and_even_in_A():
    # P_g^{d,k}(A) is a polynomial of degree <= 2d in A (JPPZ): along a line
    # a -> A(a), each stratum coefficient has vanishing differences of order
    # 2d + 1, over 2d + 4 consecutive a through 0, and some coefficient has
    # degree exactly 2d.  For k = 0 it is even: P(-A) = P(A)
    def differences(values, order):
        for _ in range(order):
            values = [y - x for x, y in zip(values, values[1:])]
        return values

    for (g, n, k), line, d in [((1, 2, 0), lambda a: (a, -a), 1),
                               ((2, 2, 0), lambda a: (a, -a), 1),
                               ((2, 2, 0), lambda a: (a, -a), 2),
                               ((1, 3, 0), lambda a: (a, 1, -a - 1), 2),
                               ((2, 2, 1), lambda a: (a, 4 - a), 2)]:
        classes = [pixton_class(RamificationData(g, n, k, line(a)), d)
                   for a in range(-2, 2 * d + 2)]
        top = False
        for s in {s for x in classes for s in x.terms}:
            values = [x.terms.get(s, Fraction(0)) for x in classes]
            assert not any(differences(values, 2 * d + 1)), (g, n, k, d, s)
            top = top or any(differences(values, 2 * d))
        assert top, (g, n, k, d)
    for g, A in [(2, (3, -3)), (1, (2, 4, -6))]:
        P = pixton_class(RamificationData(g, len(A), 0, A), 2)
        assert not P.is_zero()
        assert pixton_class(RamificationData(
            g, len(A), 0, tuple(-x for x in A)), 2) == P


def test_pixton_mixed_collects_all_degrees():
    data = RamificationData(1, 2, 0, (1, -1))
    mix = pixton_mixed(data)
    for d in range(0, data.dim + 1):
        assert mix.part(d) == pixton_class(data, d)


def test_exp_class_rejects_nonunit_degree_zero():
    g, n = 1, 2
    bad = unit(g, n).scale(Fraction(2))
    with pytest.raises(DomainError):
        exp_class(bad)


def test_exp_class_matches_series_by_hand():
    g, n = 1, 2
    x = pixton_class(RamificationData(1, 2, 0, (1, -1)), 1)
    m = MixedClass(g, n, {1: x})
    e = exp_class(m)
    assert e.part(0) == unit(g, n).part(0)
    assert e.part(1) == x
    from tautring.product import multiply
    assert e.part(2) == multiply(x, x).scale(Fraction(1, 2))


def test_gplus1_canary_pairs_to_zero():
    cls = pixton_class(RamificationData(1, 2, 0, (2, -2)), 2)
    cogens = generators(1, 2, 0)
    assert class_pairing_vector(cls, cogens) == (Fraction(0),)
