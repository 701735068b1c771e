"""Coxeter graphs: parsing, classification, and diagram automorphisms.

Vertex numbering conventions (fixed, because the recursion's per-vertex
terms and the diagram automorphism depend on them):

* A_n, B_n: path 1..n; for B_n the label-4 edge is (1, 2).
* D_n: path 1..n-2, fork vertices n-1 and n both attached to n-2.
* E_n: Bourbaki numbering (chain 1-3-4-...-n, vertex 2 attached to 4).
* F4: path 1-2-3-4 with labels (3, 4, 3).
* H3, H4: path with the label-5 edge at (1, 2).
* I2(m): vertices 1, 2 with edge label m.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import attrgetter


class GroupSpecError(ValueError):
    """Bad group specification string or non-finite type."""


class ClassificationError(ValueError):
    """Connected graph is not of finite type."""


@dataclass(frozen=True)
class CoxeterGraph:
    vertices: tuple
    edges: frozenset  # of (v, w, m) with v < w, m >= 3

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        pairs = set()
        for v, w, m in self.edges:
            if v == w:
                raise ValueError("self-loop in Coxeter graph")
            if v not in seen or w not in seen:
                raise ValueError("edge endpoint not a vertex")
            if not v < w:
                raise ValueError("edges must be stored with v < w")
            if m < 3:
                raise ValueError("edge label must be >= 3")
            if (v, w) in pairs:
                raise ValueError("duplicate edge")
            pairs.add((v, w))

    @property
    def rank(self) -> int:
        return len(self.vertices)

    @cached_property
    def _adjacency(self) -> dict:
        """{v: {w: label}} over the edges, built once per graph."""
        adj = {v: {} for v in self.vertices}
        for v, w, m in self.edges:
            adj[v][w] = adj[w][v] = m
        return adj

    def label(self, v, w) -> int:
        return self._adjacency.get(v, {}).get(w, 2)


def make_graph(vertices, edges) -> CoxeterGraph:
    norm = frozenset(
        (v, w, m) if v < w else (w, v, m) for v, w, m in edges
    )
    return CoxeterGraph(tuple(vertices), norm)


def _is_finite(fam: str, n: int) -> bool:
    """Whether family and rank name a finite type; I2's rank is its label."""
    return (
        (fam == "A" and n >= 1)
        or (fam == "B" and n >= 2)
        or (fam == "D" and n >= 2)
        or (fam == "E" and n in (6, 7, 8))
        or (fam == "F" and n == 4)
        or (fam == "H" and n in (3, 4))
        or (fam == "I2" and n >= 3)
    )


@dataclass(frozen=True)
class TypeLabel:
    family: str  # one of A, B, D, E, F, H, I2
    rank: int    # for I2 this is the edge label m

    def __post_init__(self):
        if not _is_finite(self.family, self.rank):
            raise GroupSpecError(f"not a finite type: {self.family}{self.rank}")

    @property
    def coxeter_rank(self) -> int:
        return 2 if self.family == "I2" else self.rank

    @cached_property
    def name(self) -> str:
        """The label as a spec writes it, such as D5 or I2(7); formatted once."""
        return f"I2({self.rank})" if self.family == "I2" else f"{self.family}{self.rank}"

    def __str__(self):
        return self.name


_TERM_RE = re.compile(r"^([A-Za-z]+)(\d+)?(?:\((\d+)\))?$")


def _standard_edges(family: str, n: int):
    if family == "A":
        return [(i, i + 1, 3) for i in range(1, n)]
    if family == "B":
        return [(1, 2, 4)] + [(i, i + 1, 3) for i in range(2, n)]
    if family == "D":
        if n == 2:
            return []
        if n == 3:
            return [(1, 2, 3), (1, 3, 3)]
        return (
            [(i, i + 1, 3) for i in range(1, n - 2)]
            + [(n - 2, n - 1, 3), (n - 2, n, 3)]
        )
    if family == "E":
        chain = [1, 3, 4] + list(range(5, n + 1))
        return [(a, b, 3) for a, b in zip(chain, chain[1:])] + [(2, 4, 3)]
    if family == "F":
        return [(1, 2, 3), (2, 3, 4), (3, 4, 3)]
    if family == "H":
        return [(1, 2, 5)] + [(i, i + 1, 3) for i in range(2, n)]
    if family == "I2":
        return [(1, 2, n)]
    raise GroupSpecError(f"unknown family {family}")


def standard_graph(t: TypeLabel, offset: int = 0) -> CoxeterGraph:
    """Graph of a finite type in standard numbering, vertex ids shifted by offset."""
    n = t.coxeter_rank
    vertices = [offset + i for i in range(1, n + 1)]
    edges = [(offset + a, offset + b, m) for a, b, m in _standard_edges(t.family, t.rank)]
    return make_graph(vertices, edges)


def _parse_term(term: str) -> TypeLabel:
    m = _TERM_RE.match(term)
    if not m:
        raise GroupSpecError(f"syntax error in group term {term!r}")
    fam = m.group(1).upper()
    digits, paren = m.group(2), m.group(3)
    if fam == "I" and digits == "2" and paren is not None:
        order = int(paren)
        if order < 3:
            raise GroupSpecError(f"I2({order}) is not an irreducible finite type")
        return TypeLabel("I2", order)
    if paren is not None or digits is None:
        raise GroupSpecError(f"syntax error in group term {term!r}")
    n = int(digits)
    if fam == "G":
        if n != 2:
            raise GroupSpecError(f"not a finite type: G{n}")
        return TypeLabel("I2", 6)
    if fam == "C":
        fam = "B"  # B and C share the graph and the arrangement
    if fam not in ("A", "B", "D", "E", "F", "H"):
        raise GroupSpecError(f"unknown family in term {term!r}")
    try:
        return TypeLabel(fam, n)
    except GroupSpecError:
        raise GroupSpecError(f"rank out of range for finite type: {term}")


# Types whose standard graph classifies as another product (C and G2 are
# renamed as their term is parsed).
_ALIASES = {TypeLabel("D", 2): (TypeLabel("A", 1),) * 2, TypeLabel("D", 3): (TypeLabel("A", 3),),
            TypeLabel("I2", 3): (TypeLabel("A", 2),), TypeLabel("I2", 4): (TypeLabel("B", 2),)}


def parse_labels(text: str) -> list:
    """Parse a spec like "D5xA2" into its classified type labels, in the
    order written, without building a graph: aliases take their classified
    form (D2 is A1 x A1, D3 is A3, I2(3) is A2, I2(4) is B2, C_n is B_n and
    G2 is I2(6)), so this equals component_labels(parse_group_spec(text)).
    """
    text = text.strip()
    if text == "1":
        return []
    if not text:
        raise GroupSpecError("empty group specification")
    labels = []
    for term in text.split("x"):
        t = _parse_term(term.strip())
        labels.extend(_ALIASES.get(t, (t,)))
    return labels


def parse_group_spec(text: str) -> CoxeterGraph:
    """Parse a spec like "D5xA2" or "I2(7)xB3" into its Coxeter graph."""
    vertices = []
    edges = []
    offset = 0
    for label in parse_labels(text):
        g = standard_graph(label, offset=offset)
        vertices.extend(g.vertices)
        edges.extend(g.edges)
        offset += label.coxeter_rank
    return make_graph(vertices, edges)


def _reached(g: CoxeterGraph, start) -> set:
    """The vertices of start's component."""
    adj, seen, queue = g._adjacency, {start}, [start]
    while queue:
        for w in adj[queue.pop()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def connected_components(g: CoxeterGraph):
    """Component subgraphs, which keep the original vertex ids, ordered by
    smallest vertex id."""
    adj, seen, components = g._adjacency, set(), []
    for start in sorted(g.vertices):
        if start not in seen:
            part = _reached(g, start)
            seen |= part
            edges = frozenset((v, w, m) for v in part for w, m in adj[v].items() if v < w)
            components.append(CoxeterGraph(tuple(sorted(part)), edges))
    return components


@lru_cache(maxsize=64)
def _standard_walks(rank: int, m: int):
    """Per finite type of this rank that no alias names, I2(m) among them
    at rank 2: (label, its sorted edge labels and degrees, its standard
    edges, the breadth-first walk of its standard graph from vertex 1 as
    (vertex, parent, edge label, degree) steps). Vertex 1 is a leaf of
    every such graph, or its only vertex."""
    families = [(f, rank) for f in "ABDEFH"] + [("I2", m)] * (rank == 2)
    out = []
    for t in (TypeLabel(f, n) for f, n in families if _is_finite(f, n)):
        if t in _ALIASES:
            continue
        g = standard_graph(t)
        adj, walk, steps = g._adjacency, [(1, None)], []
        for v, up in walk:  # a tree: every neighbour but the parent is new
            for w in sorted(adj[v]):
                if w != up:
                    walk.append((w, v))
                    steps.append((w, v, adj[v][w], len(adj[w])))
        shape = sorted(k for *_, k in g.edges), sorted(map(len, adj.values()))
        out.append((t, shape, g.edges, steps))
    return out


def _walk(adj, steps, start):
    """{graph vertex: standard number} along the steps from start, which
    takes vertex 1: each step sends its vertex to an unmatched neighbour
    of its parent's image with the step's edge label and degree. None if
    some step finds no such neighbour."""
    iso, image = {start: 1}, {1: start}
    for v, parent, m, d in steps:
        w = next((w for w, k in adj[image[parent]].items()
                  if k == m and w not in iso and len(adj[w]) == d), None)
        if w is None:
            return None
        iso[w], image[v] = v, w
    return iso


def classify_irreducible(g: CoxeterGraph):
    """Classify a connected nonempty graph by matching it against the
    standard graphs of its rank that have its edge labels and degrees,
    each walked from every leaf of g in turn (`_walk`).

    Returns (TypeLabel, iso) where iso maps graph vertex ids to standard
    numbering 1..n. Raises ClassificationError for non-finite graphs.
    """
    if g.rank == 0:
        raise ValueError("classify_irreducible needs a nonempty graph")
    if len(_reached(g, g.vertices[0])) != g.rank:
        raise ValueError("classify_irreducible needs a connected graph")
    if len(g.edges) != g.rank - 1:
        raise ClassificationError("graph contains a cycle: not finite")
    adj = g._adjacency
    labels = sorted(m for *_, m in g.edges)
    shape = labels, sorted(map(len, adj.values()))
    leaves = [v for v in sorted(g.vertices) if len(adj[v]) <= 1]
    for label, signature, edges, steps in _standard_walks(g.rank, labels[0] if g.rank == 2 else 0):
        if signature != shape:
            continue
        for iso in filter(None, (_walk(adj, steps, v) for v in leaves)):
            if {(iso[v], iso[w], m) if iso[v] < iso[w] else (iso[w], iso[v], m)
                    for v, w, m in g.edges} == edges:
                return label, iso
    raise ClassificationError("graph does not match any finite type")


def longest_element_automorphism(t: TypeLabel) -> dict:
    """The diagram automorphism s -> w0 s w0 as a vertex dict, on standard
    numbering.

    Identity exactly for the types whose longest element is central:
    I2(m even), B_n, D_n (n even), H3, H4, E7, E8.
    """
    n = t.coxeter_rank
    perm = {i: i for i in range(1, n + 1)}
    if t.family == "A":
        perm = {i: n + 1 - i for i in range(1, n + 1)}
    elif t.family == "D" and t.rank % 2 == 1 and t.rank >= 4:
        perm[n - 1], perm[n] = n, n - 1
    elif t.family == "E" and t.rank == 6:
        perm = {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}
    elif t.family == "I2" and t.rank % 2 == 1:
        perm = {1: 2, 2: 1}
    return perm


def component_labels(g: CoxeterGraph):
    return [classify_irreducible(c)[0] for c in connected_components(g)]


def spec_of_labels(labels) -> str:
    """Canonical spec of a product of classified types: names sorted by
    family then rank, joined by x; "1" for the trivial group."""
    if len(labels) < 2:
        return str(labels[0]) if labels else "1"
    return "x".join(map(str, sorted(labels, key=attrgetter("family", "rank"))))


def canonical_spec(g: CoxeterGraph) -> str:
    """Canonical serialization of a graph: see spec_of_labels."""
    return spec_of_labels(component_labels(g))
