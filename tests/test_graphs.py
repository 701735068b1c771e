import itertools
import random

import pytest

from coxchains import graphs
from coxchains.graphs import (
    ClassificationError,
    GroupSpecError,
    TypeLabel,
    canonical_spec,
    classify_irreducible,
    component_labels,
    connected_components,
    longest_element_automorphism,
    make_graph,
    parse_group_spec,
    parse_labels,
    spec_of_labels,
    standard_graph,
)
from oracles import delete_vertex, graph_automorphism
from test_models import brute_entry


def all_finite_types(max_rank=9, max_m=12):
    out = [TypeLabel("A", n) for n in range(1, max_rank + 1)]
    out += [TypeLabel("B", n) for n in range(2, max_rank + 1)]
    out += [TypeLabel("D", n) for n in range(4, max_rank + 1)]
    out += [TypeLabel("E", n) for n in (6, 7, 8)]
    out += [TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]
    out += [TypeLabel("I2", m) for m in range(5, max_m + 1)]
    return out


def test_parse_a3_is_path():
    g = parse_group_spec("A3")
    assert g.vertices == (1, 2, 3)
    assert sorted(g.edges) == [(1, 2, 3), (2, 3, 3)]


def test_parse_b3_labels():
    g = parse_group_spec("B3")
    assert g.label(1, 2) == 4
    assert g.label(2, 3) == 3
    assert g.label(1, 3) == 2


def test_parse_product_disjoint_union():
    g = parse_group_spec("D5xA2")
    assert g.rank == 7
    comps = connected_components(g)
    assert [classify_irreducible(c)[0] for c in comps] == [
        TypeLabel("D", 5),
        TypeLabel("A", 2),
    ]


def test_parse_aliases():
    assert canonical_spec(parse_group_spec("C3")) == "B3"
    assert canonical_spec(parse_group_spec("G2")) == "I2(6)"
    assert canonical_spec(parse_group_spec("D3")) == "A3"
    assert canonical_spec(parse_group_spec("D2")) == "A1xA1"
    assert parse_group_spec("1").rank == 0


def test_parse_aliases_to_labels_without_a_graph():
    assert parse_labels("D2xD3xI2(3)xI2(4)xC3xG2") == [
        TypeLabel("A", 1), TypeLabel("A", 1), TypeLabel("A", 3), TypeLabel("A", 2),
        TypeLabel("B", 2), TypeLabel("B", 3), TypeLabel("I2", 6)]
    labels = [TypeLabel(f, n) for f, low in (("A", 1), ("B", 2), ("D", 2)) for n in range(low, 41)]
    labels += [TypeLabel(f, n) for f, n in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("H", 3),
                                            ("H", 4))]
    labels += [TypeLabel("I2", m) for m in range(3, 41)]
    for t in labels:
        assert parse_labels(str(t)) == component_labels(standard_graph(t)), t


@pytest.mark.parametrize("bad", ["I2(2)", "E9", "A0", "Q5", "", "A3x", "H5", "F3"])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_components_ordered_and_empty():
    assert connected_components(parse_group_spec("1")) == []
    g = parse_group_spec("A2")
    comps = connected_components(g)
    assert len(comps) == 1 and comps[0].vertices == g.vertices


def test_classify_round_trip_all_types():
    # the returned iso need not be the identity (diagram symmetries permit
    # several valid numberings); it must be a label-preserving bijection
    for t in all_finite_types():
        g = standard_graph(t)
        label, iso = classify_irreducible(g)
        assert label == t
        assert sorted(iso) == sorted(g.vertices)
        assert sorted(iso.values()) == list(range(1, t.coxeter_rank + 1))
        std = standard_graph(t)
        for v, w, m in g.edges:
            assert std.label(iso[v], iso[w]) == m
        assert len(g.edges) == len(std.edges)


def test_classify_two_vertex_label4_is_b2():
    g = make_graph((7, 9), [(7, 9, 4)])
    label, _ = classify_irreducible(g)
    assert label == TypeLabel("B", 2)


def test_classify_rejects_affine_triangle():
    g = make_graph((1, 2, 3), [(1, 2, 3), (2, 3, 3), (1, 3, 3)])
    with pytest.raises(ClassificationError):
        classify_irreducible(g)


def test_classify_needs_a_connected_nonempty_graph():
    # a triangle beside a lone vertex has rank - 1 edges, as a tree does
    for g in (make_graph((), []), make_graph((1, 2), []),
              make_graph((1, 2, 3, 4), [(1, 2, 3), (2, 3, 3), (1, 3, 3)])):
        with pytest.raises(ValueError, match="needs a (nonempty|connected) graph"):
            classify_irreducible(g)


def test_classify_rejects_big_label_on_rank3():
    g = make_graph((1, 2, 3), [(1, 2, 7), (2, 3, 3)])
    with pytest.raises(ClassificationError):
        classify_irreducible(g)


def standard_image(iso, g):
    """g's edges with each end renumbered by iso, lesser end first."""
    return {(*sorted((iso[v], iso[w])), m) for v, w, m in g.edges}


def test_classify_relabelled_finite_types():
    """Every finite type up to rank 12 and I2(5)-I2(19), its vertices
    renamed 30 times by random ids that are not contiguous and listed in
    random order, gets its label and an iso onto its standard edges."""
    rng = random.Random(39)
    for t in all_finite_types(max_rank=12, max_m=19):
        std = standard_graph(t)
        for _ in range(30):
            ids = dict(zip(std.vertices, rng.sample(range(10_000), t.coxeter_rank)))
            g = make_graph(rng.sample(sorted(ids.values()), t.coxeter_rank),
                           [(ids[v], ids[w], m) for v, w, m in std.edges])
            label, iso = classify_irreducible(g)
            assert label == t
            assert sorted(iso) == sorted(g.vertices)
            assert standard_image(iso, g) == set(std.edges), (t, ids)


def star(*arms):
    """Edges labelled 3 of a centre 0 with paths of the given lengths."""
    edges, top = [], 0
    for length in arms:
        chain = [0, *range(top + 1, top + length + 1)]
        edges += [(a, b, 3) for a, b in zip(chain, chain[1:])]
        top += length
    return edges


def affine_diagrams(max_rank=9):
    """{name: edges} of the affine diagrams on vertices 0..: A~n (cycles),
    B~n, C~n and D~n up to max_rank vertices, and E~6, E~7, E~8, F~4, G~2."""
    out = {"E~6": star(2, 2, 2), "E~7": star(1, 3, 3), "E~8": star(1, 2, 5),
           "F~4": [(0, 1, 3), (1, 2, 3), (2, 3, 4), (3, 4, 3)], "G~2": [(0, 1, 3), (1, 2, 6)]}
    for r in range(3, max_rank + 1):  # r vertices: the affine type of rank r - 1
        path = [(i, i + 1, 3) for i in range(r - 1)]
        out[f"A~{r - 1}"] = path + [(0, r - 1, 3)]
        out[f"C~{r - 1}"] = [(0, 1, 4)] + path[1:-1] + [(r - 2, r - 1, 4)]
        if r >= 4:
            out[f"B~{r - 1}"] = [(0, 2, 3), (1, 2, 3)] + path[2:-1] + [(r - 2, r - 1, 4)]
        if r >= 5:
            out[f"D~{r - 1}"] = ([(0, 2, 3), (1, 2, 3)] + path[2:-2]
                                 + [(r - 3, r - 2, 3), (r - 3, r - 1, 3)])
    return out


AFFINE = affine_diagrams()


@pytest.mark.parametrize("name", sorted(AFFINE))
def test_classify_rejects_affine_diagrams(name):
    edges = AFFINE[name]
    g = make_graph(sorted({x for v, w, _ in edges for x in (v, w)}), edges)
    assert len(connected_components(g)) == 1
    with pytest.raises(ClassificationError):
        classify_irreducible(g)


def labelled_trees(k):
    """The k^(k-2) trees on vertices 1..k, as edge lists, by Pruefer codes."""
    if k == 1:
        yield []
        return
    for code in itertools.product(range(1, k + 1), repeat=k - 2):
        degree = [1] * (k + 1)
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = next(u for u in range(1, k + 1) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(u for u in range(1, k + 1) if degree[u] == 1))
        yield edges


def test_classify_every_small_tree_against_permuted_standard_graphs():
    """Every tree on at most 5 vertices with edge labels in {3, 4, 5, 6}
    (33,077 graphs) is classified as finite exactly when some permutation
    of its vertices maps its edges onto a standard graph's, with that
    graph's label and an iso onto its edges."""
    oracle = {}  # edge set -> the label of the standard graph it permutes to
    for t in all_finite_types(max_rank=5, max_m=6):
        std = standard_graph(t)
        for perm in itertools.permutations(std.vertices):
            move = dict(zip(std.vertices, perm))
            oracle[frozenset(standard_image(move, std))] = t
    seen = 0
    for k in range(1, 6):
        for tree in labelled_trees(k):
            for ms in itertools.product((3, 4, 5, 6), repeat=k - 1):
                g = make_graph(range(1, k + 1), [(v, w, m) for (v, w), m in zip(tree, ms)])
                seen += 1
                t = oracle.get(g.edges)
                if t is None:
                    with pytest.raises(ClassificationError):
                        classify_irreducible(g)
                    continue
                label, iso = classify_irreducible(g)
                assert label == t
                assert standard_image(iso, g) == set(standard_graph(t).edges)
    assert seen == 33_077


def test_standard_walks_are_held_in_a_bounded_cache():
    """A session that classifies graphs of many ranks keeps a bounded number
    of standard walks."""
    for n in range(1, 200):
        classify_irreducible(standard_graph(TypeLabel("B", n + 1)))
    info = graphs._standard_walks.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize < 199


def test_longest_element_automorphism_cases():
    def is_identity(t):
        return all(v == w for v, w in longest_element_automorphism(t).items())

    assert is_identity(TypeLabel("B", 4))
    assert longest_element_automorphism(TypeLabel("A", 4)) == {
        1: 4, 2: 3, 3: 2, 4: 1,
    }
    d5 = longest_element_automorphism(TypeLabel("D", 5))
    assert d5 == {1: 1, 2: 2, 3: 3, 4: 5, 5: 4}
    assert is_identity(TypeLabel("D", 6))
    assert not is_identity(TypeLabel("E", 6))
    assert is_identity(TypeLabel("E", 7))
    assert longest_element_automorphism(TypeLabel("I2", 7)) == {1: 2, 2: 1}
    assert is_identity(TypeLabel("I2", 8))


def test_automorphism_is_involution():
    for t in all_finite_types():
        sigma = longest_element_automorphism(t)
        for v in range(1, t.coxeter_rank + 1):
            assert sigma[sigma[v]] == v


def test_automorphism_preserves_labels():
    for t in all_finite_types():
        g = standard_graph(t)
        sigma = longest_element_automorphism(t)
        for v, w, m in g.edges:
            assert g.label(sigma[v], sigma[w]) == m


def test_delete_vertex_examples():
    assert canonical_spec(delete_vertex(parse_group_spec("A3"), 2)) == "A1xA1"
    assert canonical_spec(delete_vertex(parse_group_spec("D4"), 4)) == "A3"
    assert canonical_spec(delete_vertex(parse_group_spec("E6"), 4)) == "A1xA2xA2"
    with pytest.raises(ValueError):
        delete_vertex(parse_group_spec("A2"), 99)


def test_delete_vertex_in_a_n_splits():
    for n in range(1, 10):
        g = parse_group_spec(f"A{n}")
        for i in range(1, n + 1):
            parts = [t for t in
                     (f"A{i - 1}" if i > 1 else None,
                      f"A{n - i}" if i < n else None) if t]
            expect = canonical_spec(parse_group_spec("x".join(parts))) if parts else "1"
            assert canonical_spec(delete_vertex(g, i)) == expect


def test_graph_automorphism_transport():
    g = parse_group_spec("A3xD5")
    d5 = connected_components(g)[1]
    perm = graph_automorphism(d5)
    # the two fork-end vertices (D5's 4 and 5, after A3's 3) are swapped, the
    # path is fixed
    assert [v for v in d5.vertices if perm[v] != v] == [7, 8]


def test_canonical_spec_sorted():
    assert canonical_spec(parse_group_spec("D5xA2xB3")) == "A2xB3xD5"
    assert canonical_spec(parse_group_spec("I2(7)xA1")) == "A1xI2(7)"


def test_spec_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    labels = st.one_of(
        st.builds(TypeLabel, st.just("A"), st.integers(1, 12)),
        st.builds(TypeLabel, st.just("B"), st.integers(2, 12)),
        st.builds(TypeLabel, st.just("D"), st.integers(4, 12)),
        st.sampled_from([TypeLabel("E", 6), TypeLabel("E", 7), TypeLabel("E", 8),
                         TypeLabel("F", 4), TypeLabel("H", 3), TypeLabel("H", 4)]),
        st.builds(TypeLabel, st.just("I2"), st.integers(5, 40)),
    )

    def spellings(t):
        names = {str(t)}
        if t.family == "B":
            names.add(f"C{t.rank}")
        if t == TypeLabel("I2", 6):
            names.add("G2")
        names.update({"A2": ["I2(3)"], "A3": ["D3"], "B2": ["I2(4)"]}.get(str(t), []))
        return st.sampled_from(sorted(names)).flatmap(
            lambda name: st.sampled_from([name, name.lower()]))

    @hypothesis.given(st.lists(labels, max_size=5).flatmap(
        lambda ts: st.tuples(st.just(ts), st.tuples(*map(spellings, ts)))))
    @hypothesis.settings(max_examples=200, deadline=None)
    def check(case):
        ts, names = case
        spec = "x".join(names) or "1"
        g = parse_group_spec(spec)
        assert parse_labels(spec) == component_labels(g) == ts
        canon = canonical_spec(g)
        assert canon == spec_of_labels(ts)
        assert canonical_spec(parse_group_spec(canon)) == canon
        assert sorted(parse_labels(canon), key=str) == sorted(ts, key=str)
        assert brute_entry(spec) == brute_entry(ts) == brute_entry(g)

    check()
