"""Decorated strata classes and formal tautological classes.

A decorated stratum is a canonical stable graph together with
  * psi exponents on legs (by marking) and on half-edges (by half-edge id),
  * a multiset of kappa indices on each vertex (kappa_a has degree a).

The class attached to a decorated stratum S with graph G is

    class(S) = (1 / |Aut G|) * (gluing pushforward of the decoration monomial)

i.e. the reduced-normalization stratum class: an undecorated one-edge
separating stratum is the usual boundary divisor class, and the
irreducible-boundary stratum on Mbar_{1,1} integrates to 1/2.  All other
|Aut| bookkeeping lives in explicit rational coefficients of TautClass.

A TautClass is a finite Fraction-linear combination of decorated strata of a
fixed codimension on a fixed Mbar_{g,n}; a MixedClass collects one TautClass
per codimension.  Decoration monomials whose local degree at some vertex
exceeds the vertex moduli dimension are identically zero and are pruned on
insertion.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .graphs import (
    DomainError,
    StableGraph,
    automorphisms,
    canonical,
    check_stable_type,
    decode_graph,
    enumerate_stable_graphs,
)

PsiLeg = tuple[tuple[int, int], ...]
PsiHE = tuple[tuple[int, int], ...]
Kappa = tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class DecoratedStratum:
    """Canonical decorated stratum.  Construct via :func:`make_stratum`."""

    graph: StableGraph
    psi_leg: PsiLeg
    psi_he: PsiHE
    kappa: Kappa

    @property
    def degree(self) -> int:
        return (self.graph.num_edges
                + sum(e for (_, e) in self.psi_leg)
                + sum(e for (_, e) in self.psi_he)
                + sum(sum(p) for (_, p) in self.kappa))

    def local_degree(self, v: int) -> int:
        d = 0
        marks = set(self.graph.legs[v])
        hes = set(self.graph.half_edges_at(v))
        for m, e in self.psi_leg:
            if m in marks:
                d += e
        for h, e in self.psi_he:
            if h in hes:
                d += e
        for w, parts in self.kappa:
            if w == v:
                d += sum(parts)
        return d

    def is_valid(self) -> bool:
        """False when some vertex is decorated beyond its moduli dimension."""
        return all(self.local_degree(v) <= self.graph.vertex_dim(v)
                   for v in range(self.graph.num_vertices))

    def sort_key(self) -> tuple:
        return (self.graph.num_edges, self.graph.encode(),
                self.psi_leg, self.psi_he, self.kappa)

    def label(self) -> str:
        """Compact human-readable form."""
        bits = []
        for m, e in self.psi_leg:
            bits.append("psi(m%d)%s" % (m, "" if e == 1 else "^%d" % e))
        for h, e in self.psi_he:
            bits.append("psi(h%d)%s" % (h, "" if e == 1 else "^%d" % e))
        for v, parts in self.kappa:
            for a in parts:
                bits.append("kappa_%d(v%d)" % (a, v))
        deco = "*".join(bits) if bits else "1"
        return "[%s | %s]" % (self.graph.encode(), deco)


# A dict, not functools.cache: it interns strata under raw and minimized keys.
_STRATUM_CACHE: dict[tuple, DecoratedStratum] = {}


def make_stratum(graph: StableGraph,
                 psi_leg: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                 psi_he: Mapping[int, int] | Iterable[tuple[int, int]] = (),
                 kappa: Mapping[int, Iterable[int]] | Iterable[tuple[int, Iterable[int]]] = (),
                 ) -> DecoratedStratum:
    """Canonical decorated stratum from raw decoration data.

    ``graph`` may be raw; decorations are transported along the
    canonicalization and then minimized over the automorphism group, so two
    Aut-equivalent decorations yield the identical object.
    """
    pl = dict(psi_leg.items() if isinstance(psi_leg, Mapping) else psi_leg)
    ph = dict(psi_he.items() if isinstance(psi_he, Mapping) else psi_he)
    kp = dict(kappa.items() if isinstance(kappa, Mapping) else kappa)
    markings = set(graph.markings())
    for m, e in pl.items():
        if m not in markings:
            raise DomainError("psi on unknown marking %d" % m)
        if e < 0:
            raise DomainError("negative psi exponent on marking %d" % m)
    for h, e in ph.items():
        if not 0 <= h < 2 * graph.num_edges:
            raise DomainError("psi on unknown half-edge %d" % h)
        if e < 0:
            raise DomainError("negative psi exponent on half-edge %d" % h)
    for v, parts in kp.items():
        if not 0 <= v < graph.num_vertices:
            raise DomainError("kappa on unknown vertex %d" % v)
        if any(p <= 0 for p in parts):
            raise DomainError("kappa indices must be positive")
    cg, vmap, hemap = canonical(graph)
    pl = {m: e for m, e in pl.items() if e}
    ph = {hemap[h]: e for h, e in ph.items() if e}
    kp = {vmap[v]: tuple(sorted(parts)) for v, parts in kp.items() if tuple(parts)}
    key = (cg.genera, cg.legs, cg.edges,
           tuple(sorted(pl.items())), tuple(sorted(ph.items())),
           tuple(sorted(kp.items())))
    hit = _STRATUM_CACHE.get(key)
    if hit is not None:
        return hit
    leg_part: PsiLeg = tuple(sorted(pl.items()))
    best: tuple[PsiHE, Kappa] | None = None
    for vperm, ahe in automorphisms(cg):
        cand_he: PsiHE = tuple(sorted((ahe[h], e) for h, e in ph.items()))
        cand_kp: Kappa = tuple(sorted((vperm[v], parts) for v, parts in kp.items()))
        cand = (cand_he, cand_kp)
        if best is None or cand < best:
            best = cand
    assert best is not None
    # intern on the minimized decoration so Aut-equivalent inputs share one object
    final = (cg.genera, cg.legs, cg.edges, leg_part, best[0], best[1])
    stratum = _STRATUM_CACHE.get(final)
    if stratum is None:
        stratum = DecoratedStratum(cg, leg_part, best[0], best[1])
        _STRATUM_CACHE[final] = stratum
    _STRATUM_CACHE[key] = stratum
    return stratum


def fundamental_stratum(g: int, n: int) -> DecoratedStratum:
    from .graphs import make_graph
    return make_stratum(make_graph([g], [tuple(range(1, n + 1))], []))


# ---------------------------------------------------------------------------
# TautClass


class TautClass:
    """Fraction-linear combination of decorated strata of one codimension.

    Returned classes may be shared (cached products, cycles, mixed parts):
    never mutate them.  ``iadd_term`` is only for classes the caller built.
    """

    __slots__ = ("g", "n", "degree", "terms")

    def __init__(self, g: int, n: int, degree: int,
                 terms: Mapping[DecoratedStratum, Fraction] | None = None):
        self.g = g
        self.n = n
        self.degree = degree
        self.terms: dict[DecoratedStratum, Fraction] = {}
        if terms:
            for s, c in terms.items():
                self.iadd_term(s, c)

    def iadd_term(self, stratum: DecoratedStratum, coeff: Fraction) -> None:
        coeff = Fraction(coeff)
        if not coeff:
            return
        if stratum.degree != self.degree:
            raise DomainError("stratum degree %d != class degree %d"
                              % (stratum.degree, self.degree))
        if stratum.graph.genus() != self.g or stratum.graph.num_legs != self.n:
            raise DomainError("stratum type mismatch")
        if self.degree > 3 * self.g - 3 + self.n or not stratum.is_valid():
            return
        new = self.terms.get(stratum, Fraction(0)) + coeff
        if new:
            self.terms[stratum] = new
        else:
            self.terms.pop(stratum, None)

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c: Fraction) -> "TautClass":
        c = Fraction(c)
        out = TautClass(self.g, self.n, self.degree)
        if c:
            out.terms = {s: v * c for s, v in self.terms.items()}
        return out

    def add(self, other: "TautClass") -> "TautClass":
        if (self.g, self.n, self.degree) != (other.g, other.n, other.degree):
            raise DomainError("cannot add classes of different type/degree")
        out = TautClass(self.g, self.n, self.degree)
        out.terms = dict(self.terms)
        for s, c in other.terms.items():
            out.iadd_term(s, c)
        return out

    def sub(self, other: "TautClass") -> "TautClass":
        return self.add(other.scale(Fraction(-1)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TautClass)
                and (self.g, self.n, self.degree) == (other.g, other.n, other.degree)
                and self.terms == other.terms)

    def sorted_terms(self) -> list[tuple[DecoratedStratum, Fraction]]:
        return sorted(self.terms.items(), key=lambda sc: sc[0].sort_key())

    def __repr__(self) -> str:  # pragma: no cover - convenience
        if self.is_zero():
            return "<TautClass 0 (g=%d,n=%d,deg=%d)>" % (self.g, self.n, self.degree)
        bits = ["%s*%s" % (c, s.label()) for s, c in self.sorted_terms()]
        return "<TautClass %s>" % " + ".join(bits)

    # -- JSON ---------------------------------------------------------------

    def to_payload(self) -> dict:
        terms = []
        for s, c in self.sorted_terms():
            psi = {"m%d" % m: e for m, e in s.psi_leg}
            psi.update({"h%d" % h: e for h, e in s.psi_he})
            kappa = {"v%d" % v: list(parts) for v, parts in s.kappa}
            terms.append({
                "graph": s.graph.encode(),
                "psi": psi,
                "kappa": kappa,
                "coeff": str(c),
            })
        return {"g": self.g, "n": self.n, "degree": self.degree, "terms": terms}

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @staticmethod
    def from_payload(payload: Mapping) -> "TautClass":
        try:
            g = _payload_int(payload["g"])
            n = _payload_int(payload["n"])
            degree = _payload_int(payload["degree"])
            raw_terms = payload["terms"]
        except (KeyError, TypeError) as exc:
            raise DomainError("malformed class payload: %s" % exc) from None
        if not isinstance(raw_terms, list):
            raise DomainError("payload terms must be a list")
        check_stable_type(g, n)
        out = TautClass(g, n, degree)
        for t in raw_terms:
            if not isinstance(t, Mapping) or "graph" not in t or "coeff" not in t:
                raise DomainError("malformed term in class payload")
            graph = decode_graph(t["graph"])
            if graph.genus() != g or graph.num_legs != n:
                raise DomainError("term graph has wrong type")
            pl: dict[int, int] = {}
            ph: dict[int, int] = {}
            psi = t.get("psi", {})
            kappa = t.get("kappa", {})
            if not isinstance(psi, Mapping) or not isinstance(kappa, Mapping):
                raise DomainError("term psi and kappa must be JSON objects")
            for k, e in psi.items():
                m = re.match(r"^m(\d+)$", k)
                h = re.match(r"^h(\d+)$", k)
                e = _payload_int(e)
                if e < 0:
                    raise DomainError("negative psi exponent")
                if m:
                    mk = int(m.group(1))
                    if mk not in graph.markings():
                        raise DomainError("psi on unknown marking %d" % mk)
                    pl[mk] = e
                elif h:
                    hid = int(h.group(1))
                    if hid >= 2 * graph.num_edges:
                        raise DomainError("psi on unknown half-edge %d" % hid)
                    ph[hid] = e
                else:
                    raise DomainError("bad psi key %r" % k)
            kp: dict[int, tuple[int, ...]] = {}
            for k, parts in kappa.items():
                v = re.match(r"^v(\d+)$", k)
                if not v:
                    raise DomainError("bad kappa key %r" % k)
                vid = int(v.group(1))
                if vid >= graph.num_vertices:
                    raise DomainError("kappa on unknown vertex %d" % vid)
                if not isinstance(parts, list):
                    raise DomainError("kappa parts must be a list")
                parts = tuple(_payload_int(a) for a in parts)
                if any(a < 1 for a in parts):
                    raise DomainError("kappa indices must be positive")
                kp[vid] = parts
            stratum = make_stratum(graph, pl, ph, kp)
            coeff = t["coeff"]
            if isinstance(coeff, (bool, float)):
                # a JSON float is a binary approximation, not the exact value
                raise DomainError("coefficient must be a string or an "
                                  "integer, got %r" % (coeff,))
            try:
                coeff = Fraction(coeff)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise DomainError("bad coefficient: %s" % exc) from None
            out.iadd_term(stratum, coeff)
        return out

    @staticmethod
    def from_json(text: str) -> "TautClass":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError("bad JSON: %s" % exc) from None
        return TautClass.from_payload(payload)


def _payload_int(x) -> int:
    """An integer field of a payload; JSON floats and booleans are refused
    rather than truncated or read as 0/1."""
    if isinstance(x, (bool, float)):
        raise DomainError("expected an integer, got %r" % (x,))
    try:
        return int(x)
    except (TypeError, ValueError):
        raise DomainError("expected an integer, got %r" % (x,)) from None


def single(g: int, n: int, stratum: DecoratedStratum,
           coeff: Fraction = Fraction(1)) -> TautClass:
    out = TautClass(g, n, stratum.degree)
    out.iadd_term(stratum, coeff)
    return out


# ---------------------------------------------------------------------------
# MixedClass


class MixedClass:
    """Classes of several codimensions on one Mbar_{g,n}, degree-indexed."""

    __slots__ = ("g", "n", "parts")

    def __init__(self, g: int, n: int,
                 parts: Mapping[int, TautClass] | None = None):
        self.g = g
        self.n = n
        self.parts: dict[int, TautClass] = {}
        if parts:
            for d, x in parts.items():
                self.set_part(x)

    @property
    def dim(self) -> int:
        return 3 * self.g - 3 + self.n

    def set_part(self, x: TautClass) -> None:
        if (x.g, x.n) != (self.g, self.n):
            raise DomainError("mixed-class type mismatch")
        if x.degree > self.dim:
            return
        self.parts[x.degree] = x

    def part(self, degree: int) -> TautClass:
        hit = self.parts.get(degree)
        return hit if hit is not None else TautClass(self.g, self.n, degree)

    def degrees(self) -> list[int]:
        return sorted(d for d, x in self.parts.items() if not x.is_zero())

    def add(self, other: "MixedClass") -> "MixedClass":
        out = MixedClass(self.g, self.n)
        for d in set(self.parts) | set(other.parts):
            out.set_part(self.part(d).add(other.part(d)))
        return out

    def scale(self, c: Fraction) -> "MixedClass":
        out = MixedClass(self.g, self.n)
        for d in self.parts:
            out.set_part(self.part(d).scale(c))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MixedClass) or (self.g, self.n) != (other.g, other.n):
            return False
        for d in set(self.parts) | set(other.parts):
            if self.part(d) != other.part(d):
                return False
        return True

    def to_payload(self) -> dict:
        return {"g": self.g, "n": self.n,
                "parts": [self.parts[d].to_payload() for d in sorted(self.parts)]}

    @staticmethod
    def from_payload(payload: Mapping) -> "MixedClass":
        try:
            g = _payload_int(payload["g"])
            n = _payload_int(payload["n"])
            raw = payload["parts"]
        except (KeyError, TypeError) as exc:
            raise DomainError("malformed mixed-class payload: %s" % exc) from None
        if not isinstance(raw, list):
            raise DomainError("payload parts must be a list")
        check_stable_type(g, n)
        out = MixedClass(g, n)
        for p in raw:
            out.set_part(TautClass.from_payload(p))
        return out


def unit(g: int, n: int) -> MixedClass:
    """The multiplicative unit: the fundamental class in degree 0."""
    out = MixedClass(g, n)
    out.set_part(single(g, n, fundamental_stratum(g, n)))
    return out


# ---------------------------------------------------------------------------
# generators and restriction


def _partitions(k: int) -> list[tuple[int, ...]]:
    """Integer partitions of k as sorted tuples (kappa multisets)."""
    if k == 0:
        return [()]
    out = []

    def rec(rest: int, maxpart: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(tuple(sorted(acc)))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(k, k, [])
    return out


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order (stars and bars: choose the parts - 1 bars)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


def _decorations(graph: StableGraph, budget: int) -> Iterator[
        tuple[dict[int, int], dict[int, int], dict[int, tuple[int, ...]]]]:
    """All decorations of total degree ``budget`` on a canonical graph.  The
    budget is split over vertices, each share at most the vertex dimension;
    a share is spread over its vertex's leg psi, half-edge psi and kappa
    weight, and each kappa weight is then split into partitions."""
    V = graph.num_vertices
    legs = graph.legs
    hes = [graph.half_edges_at(v) for v in range(V)]
    dims = [graph.vertex_dim(v) for v in range(V)]
    for shares in compositions(budget, V):
        if any(x > dim for x, dim in zip(shares, dims)):
            continue
        for comps in itertools.product(*(
                compositions(x, len(legs[v]) + len(hes[v]) + 1)
                for v, x in enumerate(shares))):
            pl = {m: e for v, c in enumerate(comps)
                  for m, e in zip(legs[v], c) if e}
            ph = {h: e for v, c in enumerate(comps)
                  for h, e in zip(hes[v], c[len(legs[v]):]) if e}
            for parts in itertools.product(*(_partitions(c[-1])
                                             for c in comps)):
                yield pl, ph, {v: p for v, p in enumerate(parts) if p}


@functools.cache
def generators(g: int, n: int, d: int) -> tuple[DecoratedStratum, ...]:
    """All canonical decorated strata of codimension d on Mbar_{g,n},
    deduplicated across Aut-equivalent decorations, sorted."""
    check_stable_type(g, n)
    if d < 0:
        raise DomainError("negative codimension")
    if d > 3 * g - 3 + n:
        return ()
    seen: dict[DecoratedStratum, None] = {}
    for graph in enumerate_stable_graphs(g, n, d):
        rem = d - graph.num_edges
        if rem < 0:
            continue
        for pl, ph, kp in _decorations(graph, rem):
            s = make_stratum(graph, pl, ph, kp)
            seen.setdefault(s)
    return tuple(sorted(seen, key=lambda s: s.sort_key()))


_LOCI: dict[str, Callable[[StableGraph], bool]] = {
    "all": lambda G: True,
    "tl": StableGraph.is_treelike,
    "ct": StableGraph.is_tree,
    "sm": StableGraph.is_smooth,
}

_LOCUS_ALIASES = {
    "all": "all", "full": "all",
    "tl": "tl", "treelike": "tl",
    "ct": "ct", "compact-type": "ct", "compact_type": "ct", "tree": "ct",
    "sm": "sm", "smooth": "sm",
}


def locus_name(locus: str) -> str:
    """The canonical name ("all", "tl", "ct" or "sm") of a locus given by
    any alias, in any letter case."""
    key = _LOCUS_ALIASES.get(locus.lower())
    if key is None:
        raise DomainError("unknown locus %r" % locus)
    return key


def locus_predicate(locus: str) -> Callable[[StableGraph], bool]:
    return _LOCI[locus_name(locus)]


def restrict(x: TautClass, locus: str) -> TautClass:
    """Drop terms supported outside the open locus (their graphs fail the
    locus predicate); the result represents the restriction of x."""
    pred = locus_predicate(locus)
    out = TautClass(x.g, x.n, x.degree)
    for s, c in x.terms.items():
        if pred(s.graph):
            out.iadd_term(s, c)
    return out


def off_locus_strata(g: int, n: int, d: int, locus: str) -> tuple[DecoratedStratum, ...]:
    """Generators of codimension d supported off the locus."""
    pred = locus_predicate(locus)
    return tuple(s for s in generators(g, n, d) if not pred(s.graph))
