"""Stable dual graphs: canonical forms, automorphisms, contraction, enumeration.

A stable graph of type (g, n) is the combinatorial shadow of a nodal curve:
vertices carry geometric genera g_v >= 0, markings 1..n sit on vertices as
legs, and each node of the curve becomes an edge.  We store

  genera : tuple of ints, one per vertex 0..V-1
  legs   : tuple of sorted tuples of markings, one per vertex
  edges  : tuple of pairs (u, v) with u <= v; loops have u == v

Edge i owns the two half-edges 2i (at u) and 2i+1 (at v).  Half-edge ids are
therefore graph-scoped small integers; the partner of h is h ^ 1.

Constraints enforced throughout:
  * genus condition   sum(g_v) + E - V + 1 = g
  * connectedness
  * stability         2 g_v - 2 + n_v > 0 at every vertex, where n_v counts
                      legs and half-edges at v.

Canonical form: vertex colors (genus, legs, valence data) are refined by
neighbor multisets until stable; the color classes fill consecutive blocks
of positions in color order, and the lexicographically minimal relabeling
over the arrangements within the blocks is taken.
Automorphisms act on vertices AND half-edges: swapping the two half-edges of
a loop, or interchanging parallel edges, are nontrivial automorphisms.
Canonical graphs, their records, automorphisms and identity maps live for
the whole process; each small tuple they repeat is filed once, in ``shared``.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence


class DomainError(ValueError):
    """Raised for inputs outside the supported domain (unstable, malformed)."""


def check_stable_type(g: int, n: int) -> None:
    """Refuse (g, n) unless g, n >= 0 and 2g - 2 + n > 0."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise DomainError("unstable type (g, n) = (%d, %d)" % (g, n))


_SHARED: dict[tuple, tuple] = {}


def shared(t: tuple) -> tuple:
    """The one stored copy of t, filed on first sight, each inner tuple too."""
    hit = _SHARED.get(t)
    if hit is None:
        hit = tuple([shared(x) if type(x) is tuple else x for x in t])
        _SHARED[hit] = hit
    return hit


# ---------------------------------------------------------------------------
# the graph record


@dataclass(frozen=True, order=True)
class StableGraph:
    """A stable graph in canonical or raw labeling.

    Instances are immutable and hashable; use ``canonical()`` to obtain the
    canonical representative (plus relabeling maps).  Public computations
    expect canonical instances; raw ones appear only as intermediate data.
    """

    genera: tuple[int, ...]
    legs: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    # -- basic invariants ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_legs(self) -> int:
        return sum(len(l) for l in self.legs)

    @property
    def h1(self) -> int:
        """First Betti number of the graph."""
        return self.num_edges - self.num_vertices + 1

    def genus(self) -> int:
        return sum(self.genera) + self.h1

    def markings(self) -> tuple[int, ...]:
        return tuple(sorted(m for l in self.legs for m in l))

    def half_edges_at(self, v: int) -> tuple[int, ...]:
        """Half-edge ids incident to v, loops contributing both halves."""
        return self.vertex_data[v][2]

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.genera, self.legs, self.edges))

    @functools.cached_property
    def half_edge_vertex(self) -> tuple[int, ...]:
        """The vertex of each half-edge id."""
        return shared(tuple([v for edge in self.edges for v in edge]))

    @functools.cached_property
    def leg_vertex(self) -> tuple[int, ...]:
        """The vertex of each marking, indexed by marking (slot 0 unused)."""
        return shared((0, *[v for _, v in sorted(
            (m, v) for v, legs in enumerate(self.legs) for m in legs)]))

    @functools.cached_property
    def vertex_data(self) -> tuple[tuple[int, tuple[int, ...], tuple[int, ...], int], ...]:
        """Per vertex: (genus, legs, half-edges, dimension)."""
        hes: list[list[int]] = [[] for _ in self.genera]
        for h, v in enumerate(self.half_edge_vertex):
            hes[v].append(h)
        return shared(tuple([(g, l, tuple(x), 3 * g - 3 + len(l) + len(x))
                             for g, l, x in zip(self.genera, self.legs, hes)]))

    @functools.cached_property
    def inverse_aut(self) -> Fraction:
        """1 / |Aut G|."""
        return Fraction(1, automorphism_count(self))

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        V = self.num_vertices
        if V == 0:
            raise DomainError("graph needs at least one vertex")
        if any(g < 0 for g in self.genera):
            raise DomainError("negative genus")
        seen: set[int] = set()
        for l in self.legs:
            if tuple(sorted(l)) != tuple(l):
                raise DomainError("legs must be sorted per vertex")
            for m in l:
                if m in seen:
                    raise DomainError("repeated marking %d" % m)
                seen.add(m)
        marks = self.markings()
        if marks != tuple(range(1, len(marks) + 1)):
            raise DomainError("markings must be 1..n")
        for (a, b) in self.edges:
            if not (0 <= a <= b < V):
                raise DomainError("edge endpoints out of range or unsorted")
        if not self.is_connected():
            raise DomainError("graph not connected")
        for v, (gv, legs, hes, _) in enumerate(self.vertex_data):
            if 2 * gv - 2 + len(legs) + len(hes) <= 0:
                raise DomainError("unstable vertex %d" % v)

    def is_connected(self) -> bool:
        V = self.num_vertices
        if V == 1:
            return True
        adj: list[set[int]] = [set() for _ in range(V)]
        for (a, b) in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == V

    # -- classification -----------------------------------------------------

    def is_smooth(self) -> bool:
        """No edges: the open stratum."""
        return self.num_edges == 0

    def is_tree(self) -> bool:
        """Compact-type graphs: h1 = 0 (hence in particular no loops)."""
        return self.h1 == 0

    def is_treelike(self) -> bool:
        """Treelike graphs: removing all loops leaves a tree."""
        loops = sum(1 for (a, b) in self.edges if a == b)
        return self.num_edges - loops - self.num_vertices + 1 == 0

    # -- text encoding -------------------------------------------------------

    def encode(self) -> str:
        """Deterministic text form: vertices ``(g|legs)`` then edges as
        sorted pairs of (vertex, slot), slots counting edge ends per vertex
        in edge order."""
        vparts = []
        for g, l in zip(self.genera, self.legs):
            vparts.append("(%d|%s)" % (g, ",".join(str(m) for m in l)))
        slot = [0] * self.num_vertices
        eparts = []
        for (a, b) in self.edges:
            sa = slot[a]
            slot[a] += 1
            sb = slot[b]
            slot[b] += 1
            eparts.append("((%d,%d),(%d,%d))" % (a, sa, b, sb))
        return ";".join(vparts) + "#" + ";".join(eparts)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.encode()


def read_int(x) -> int:
    """An integer field of a graph encoding or payload.  Floats, booleans and
    digit runs past int()'s length limit are a DomainError."""
    if isinstance(x, (bool, float)):
        raise DomainError("expected an integer, got %r" % (x,))
    try:
        return int(x)
    except (TypeError, ValueError):
        raise DomainError("expected an integer, got %r" % (x,)) from None


_VERTEX_RE = re.compile(r"^\((\d+)\|([\d,]*)\)$")
_EDGE_RE = re.compile(r"^\(\((\d+),(\d+)\),\((\d+),(\d+)\)\)$")


def decode_graph(text: str) -> StableGraph:
    """Inverse of :meth:`StableGraph.encode` (slots are validated)."""
    if not isinstance(text, str):
        raise DomainError("graph encoding must be a string")
    if "#" not in text:
        raise DomainError("missing '#' separator in graph encoding")
    vtext, etext = text.split("#", 1)
    genera = []
    legs = []
    for part in vtext.split(";"):
        m = _VERTEX_RE.match(part)
        if not m:
            raise DomainError("bad vertex %r" % part)
        genera.append(read_int(m.group(1)))
        legs.append(tuple(read_int(x) for x in m.group(2).split(",") if x))
    edges = []
    for part in etext.split(";") if etext else []:
        m = _EDGE_RE.match(part)
        if not m:
            raise DomainError("bad edge %r" % part)
        edges.append((read_int(m.group(1)), read_int(m.group(3))))
    graph = StableGraph(tuple(genera), tuple(legs), tuple(edges))
    graph.validate()
    if graph.encode() != text:
        raise DomainError("non-canonical slot data in graph encoding")
    return graph


# ---------------------------------------------------------------------------
# canonical form


def _refined_colors(graph: StableGraph) -> list:
    """Iterated color refinement; returns one comparable color per vertex:
    the initial tuples if the first round splits nothing, else dense ints."""
    loops = [0] * graph.num_vertices
    neighbours: list[list[int]] = [[] for _ in graph.genera]
    for (a, b) in graph.edges:
        if a == b:
            loops[a] += 1
        else:
            neighbours[a].append(b)
            neighbours[b].append(a)
    colors: list = [(g, l, 2 * k + len(nb), k) for g, l, k, nb
                    in zip(graph.genera, graph.legs, loops, neighbours)]
    while True:
        new = [(c, tuple(sorted(colors[w] for w in nb)))
               for c, nb in zip(colors, neighbours)]
        palette = {c: i for i, c in enumerate(sorted(set(new)))}
        # refinement only splits classes, so an unchanged count is stable
        if len(palette) == len(set(colors)):
            return colors
        colors = [palette[c] for c in new]


def _relabel(graph: StableGraph, perm: Sequence[int]) -> tuple:
    """Encoding tuple of the graph with vertex v renamed perm[v]."""
    V = graph.num_vertices
    genera = [0] * V
    legs: list[tuple[int, ...]] = [()] * V
    for v in range(V):
        genera[perm[v]] = graph.genera[v]
        legs[perm[v]] = graph.legs[v]
    edges = sorted(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for (a, b) in graph.edges
    )
    return (tuple(genera), tuple(legs), tuple(edges))


def _candidate_perms(graph: StableGraph) -> Iterator[list[int]]:
    """All vertex permutations compatible with the refined coloring: the
    color classes, in color order, fill consecutive blocks of positions."""
    classes: dict = {}
    for v, c in enumerate(_refined_colors(graph)):
        classes.setdefault(c, []).append(v)
    blocks = [itertools.permutations(classes[c]) for c in sorted(classes)]
    for arrangement in itertools.product(*blocks):
        perm = [0] * graph.num_vertices
        for pos, v in enumerate(itertools.chain.from_iterable(arrangement)):
            perm[v] = pos
        yield perm


def _half_edge_map(graph: StableGraph, perm: Sequence[int]) -> list[int]:
    """Half-edge map induced by a vertex relabeling: hemap[h] is the image
    half-edge id.  The edges, stably sorted by image pair, take the new slots
    in order; any other matching of parallel edges differs by an automorphism
    of the target."""
    images = [(min(perm[a], perm[b]), max(perm[a], perm[b]))
              for (a, b) in graph.edges]
    hemap = [0] * (2 * graph.num_edges)
    for j, i in enumerate(sorted(range(graph.num_edges),
                                 key=images.__getitem__)):
        a, b = graph.edges[i]
        flip = perm[a] > perm[b]
        hemap[2 * i] = 2 * j + flip
        hemap[2 * i + 1] = 2 * j + 1 - flip
    return hemap


# A dict, not functools.cache: it holds only canonical graphs, each with its
# identity maps; a raw graph's key is not filed, as it is seldom met again.
_CANON_CACHE: dict[tuple, tuple[StableGraph, tuple[int, ...], tuple[int, ...]]] = {}


def canonical(graph: StableGraph) -> tuple[StableGraph, tuple[int, ...], tuple[int, ...]]:
    """Canonical representative plus the relabeling that achieves it.

    Returns (canonical_graph, vertex_map, half_edge_map) where
    vertex_map[v] and half_edge_map[h] are images in the canonical graph.
    A canonical input is looked up; a raw one is relabeled on every call.
    """
    key = (graph.genera, graph.legs, graph.edges)
    hit = _CANON_CACHE.get(key)
    if hit is not None:
        return hit
    best = None
    best_perm = None
    for perm in _candidate_perms(graph):
        enc = _relabel(graph, perm)
        if best is None or enc < best:
            best = enc
            best_perm = perm
    assert best is not None and best_perm is not None
    # one instance per canonical graph, so its cached data is computed once
    hit = _CANON_CACHE.get(best) or _CANON_CACHE.setdefault(shared(best), (
        StableGraph(*shared(best)), shared(tuple(range(graph.num_vertices))),
        shared(tuple(range(2 * graph.num_edges)))))
    return hit[0], tuple(best_perm), tuple(_half_edge_map(graph, best_perm))


def make_graph(genera: Sequence[int], legs: Sequence[Sequence[int]],
               edges: Sequence[tuple[int, int]]) -> StableGraph:
    """Validated canonical graph from raw data (edge pairs in any order)."""
    raw = StableGraph(
        tuple(genera),
        tuple(tuple(sorted(l)) for l in legs),
        tuple((min(a, b), max(a, b)) for (a, b) in edges),
    )
    raw.validate()
    return canonical(raw)[0]


# ---------------------------------------------------------------------------
# automorphisms and isomorphisms


def _edge_symmetries(graph: StableGraph) -> list[tuple[int, ...]]:
    """Half-edge maps that fix every vertex: permutations of parallel
    edges, and flips of loops."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for j, pair in enumerate(graph.edges):
        buckets.setdefault(pair, []).append(j)
    choices = []
    for (a, b), js in buckets.items():
        flips = [fl for fl in itertools.product((0, 1), repeat=len(js))
                 if a == b or not any(fl)]
        choices.append([(js, tgt, fl) for tgt in itertools.permutations(js)
                        for fl in flips])
    out = []
    for combo in itertools.product(*choices):
        sym = list(range(2 * graph.num_edges))
        for js, tgt, fl in combo:
            for i, j, f in zip(js, tgt, fl):
                sym[2 * i] = 2 * j + f
                sym[2 * i + 1] = 2 * j + 1 - f
        out.append(tuple(sym))
    return out


@functools.cache
def automorphisms(graph: StableGraph) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All automorphisms of a canonical graph as (vertex_perm, half_edge_map):
    each vertex permutation that fixes the graph, composed with every edge
    symmetry."""
    base = _relabel(graph, list(range(graph.num_vertices)))
    syms = _edge_symmetries(graph)
    out = []
    for perm in _candidate_perms(graph):
        if _relabel(graph, perm) == base:
            hemap = _half_edge_map(graph, perm)
            out.extend((tuple(perm), tuple(sym[h] for h in hemap))
                       for sym in syms)
    return shared(tuple(out))


def automorphism_count(graph: StableGraph) -> int:
    """Order of the automorphism group (vertices and half-edges)."""
    return len(automorphisms(canonical(graph)[0]))


def isomorphisms(src: StableGraph, dst: StableGraph
                 ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All isomorphisms src -> dst as (vertex_map, half_edge_map).

    Empty when the graphs are not isomorphic.  Both arguments may be raw.
    """
    csrc, vs, hs = canonical(src)
    cdst, vd, hd = canonical(dst)
    if (csrc.genera, csrc.legs, csrc.edges) != (cdst.genera, cdst.legs, cdst.edges):
        return []
    inv_vd = [0] * dst.num_vertices
    for v, img in enumerate(vd):
        inv_vd[img] = v
    inv_hd = [0] * (2 * dst.num_edges)
    for h, img in enumerate(hd):
        inv_hd[img] = h
    out = []
    for aperm, ahe in automorphisms(csrc):
        vmap = tuple(inv_vd[aperm[vs[v]]] for v in range(src.num_vertices))
        hemap = tuple(inv_hd[ahe[hs[h]]] for h in range(2 * src.num_edges))
        out.append((vmap, hemap))
    return out


# ---------------------------------------------------------------------------
# contraction


def contract(graph: StableGraph, contracted: frozenset[int]
             ) -> tuple[StableGraph, tuple[int, ...], dict[int, int]]:
    """Contract a set of edges (by index).  Loops bump the genus.

    Returns (raw_graph, vertex_map, half_edge_map) where half_edge_map sends
    surviving old half-edge ids to new ids.  The result is raw, not
    canonical.
    """
    V = graph.num_vertices
    parent = list(range(V))
    for i in contracted:
        if not 0 <= i < graph.num_edges:
            raise DomainError("edge index %d out of range" % i)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in contracted:
        a, b = graph.edges[i]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    classes: dict[int, int] = {}
    vmap = [0] * V
    for v in range(V):
        r = find(v)
        if r not in classes:
            classes[r] = len(classes)
        vmap[v] = classes[r]
    W = len(classes)
    genera = [0] * W
    legs: list[list[int]] = [[] for _ in range(W)]
    sizes = [0] * W
    for v in range(V):
        genera[vmap[v]] += graph.genera[v]
        legs[vmap[v]].extend(graph.legs[v])
        sizes[vmap[v]] += 1
    internal = [0] * W
    for i in contracted:
        a, _ = graph.edges[i]
        internal[vmap[a]] += 1
    for w in range(W):
        genera[w] += internal[w] - (sizes[w] - 1)
    new_edges: list[tuple[int, int]] = []
    hemap: dict[int, int] = {}
    for i, (a, b) in enumerate(graph.edges):
        if i in contracted:
            continue
        j = len(new_edges)
        na, nb = vmap[a], vmap[b]
        if na <= nb:
            new_edges.append((na, nb))
            hemap[2 * i] = 2 * j
            hemap[2 * i + 1] = 2 * j + 1
        else:
            new_edges.append((nb, na))
            hemap[2 * i] = 2 * j + 1
            hemap[2 * i + 1] = 2 * j
    raw = StableGraph(
        tuple(genera),
        tuple(tuple(sorted(l)) for l in legs),
        tuple(new_edges),
    )
    return raw, tuple(vmap), hemap


# ---------------------------------------------------------------------------
# enumeration


def _splits(graph: StableGraph, v: int) -> Iterator[StableGraph]:
    """The one-edge degenerations obtained by splitting vertex v, with each
    split made in one orientation only.  Swapping the two halves of a split
    gives an isomorphic graph, so v keeps its first leg; with no legs, its
    first half-edge; with neither, the larger genus."""
    gv = graph.genera[v]
    lv = graph.legs[v]
    hv = graph.half_edges_at(v)
    V = graph.num_vertices
    for g1 in range(gv + 1) if lv or hv else range((gv + 1) // 2, gv + 1):
        g2 = gv - g1
        for nl in range(len(lv) + 1):
            for keep_legs in itertools.combinations(lv, nl):
                if lv and lv[0] not in keep_legs:
                    continue
                move_legs = tuple(m for m in lv if m not in keep_legs)
                for nh in range(len(hv) + 1):
                    for keep_he in itertools.combinations(hv, nh):
                        if not lv and hv and hv[0] not in keep_he:
                            continue
                        keep_set = set(keep_he)
                        # stability of both halves (+1 for the new edge end)
                        if 2 * g1 - 2 + len(keep_legs) + nh + 1 <= 0:
                            continue
                        if 2 * g2 - 2 + len(move_legs) + (len(hv) - nh) + 1 <= 0:
                            continue
                        ends = []
                        for i, (a, b) in enumerate(graph.edges):
                            na = a if a != v else (v if 2 * i in keep_set else V)
                            nb = b if b != v else (v if 2 * i + 1 in keep_set else V)
                            ends.append((na, nb))
                        ends.append((v, V))
                        genera = list(graph.genera)
                        genera[v] = g1
                        genera.append(g2)
                        legs = list(graph.legs)
                        legs[v] = tuple(sorted(keep_legs))
                        legs.append(tuple(sorted(move_legs)))
                        edges = tuple((min(a, b), max(a, b)) for (a, b) in ends)
                        yield StableGraph(tuple(genera), tuple(legs), edges)


@functools.cache
def enumerate_stable_graphs(g: int, n: int, max_edges: int) -> tuple[StableGraph, ...]:
    """All canonical stable graphs of type (g, n) with at most max_edges
    edges, sorted by (edge count, encoding).

    Generated by inverting edge contraction level by level: every graph with
    e+1 edges contracts (any one edge) to a graph with e edges, so splitting
    a vertex or dropping a loop from the level-e list reaches all of level
    e+1.  Each bound extends the tuple of the bound below it by one level;
    no graph has more than 3g - 3 + n edges, so a larger bound is that one.
    """
    check_stable_type(g, n)
    if max_edges < 0:
        raise DomainError("negative parameter")
    if max_edges > 3 * g - 3 + n:
        return enumerate_stable_graphs(g, n, 3 * g - 3 + n)
    if max_edges == 0:
        return (make_graph([g], [tuple(range(1, n + 1))], []),)
    below = enumerate_stable_graphs(g, n, max_edges - 1)
    level: dict[str, StableGraph] = {}
    for graph in below:
        if graph.num_edges < max_edges - 1:
            continue
        for v in range(graph.num_vertices):
            if graph.genera[v] >= 1:
                genera = list(graph.genera)
                genera[v] -= 1
                loop = StableGraph(
                    tuple(genera), graph.legs,
                    graph.edges + ((v, v),))
                cloop = canonical(loop)[0]
                level.setdefault(cloop.encode(), cloop)
            for split in _splits(graph, v):
                csplit = canonical(split)[0]
                level.setdefault(csplit.encode(), csplit)
    return below + tuple(level[k] for k in sorted(level))
