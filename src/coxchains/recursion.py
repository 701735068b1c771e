"""Chain-orbit counts K(W) by parabolic recursion.

For a reducible group, K factors through a multinomial shuffle. For an
irreducible group, K is a sum over orbits of coatom lines, one term per
orbit of the diagram involution s -> w0 s w0: each two-element orbit
contributes the plain parabolic count, and each fixed vertex contributes
a term resolved by a three-way case split (full count, halved count, or
the augmented D-type count "bar d" when the component's own longest
element cannot realize the induced graph swap).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod

from .graphs import (
    CoxeterGraph,
    TypeLabel,
    classify_irreducible,
    component_labels,
    connected_components,
    delete_vertex,
    longest_element_automorphism,
    parse_group_spec,
    spec_of_labels,
    standard_graph,
)

ENGINE_VERSION = 1


@dataclass
class KResult:
    value: int
    method: str  # product | summ1 | summ2 | base-case | bar-d-augmented
    terms: list  # (description, value) summands (summ*) or factors (product)

    def to_json_dict(self, group: str) -> dict:
        return {
            "group": group,
            "value": str(self.value),
            "method": self.method,
            "terms": [[d, str(v)] for d, v in self.terms],
        }


def multinomial(parts) -> int:
    total = sum(parts)
    out = factorial(total)
    for p in parts:
        out //= factorial(p)
    return out


class KCalculator:
    """Memoized K(W) computation; safe to reuse across many queries.

    The recursion runs on lists of classified type labels. Graph code runs
    only where a spec string or a user graph enters (k) and once per
    (type, vertex) on the type's standard graph, to read off the parabolic
    subgroup left by deleting the vertex.
    """

    def __init__(self):
        self.memo = {}
        self.bar_memo = {}

    def k(self, g) -> KResult:
        """K(W) for a spec string or a Coxeter graph with any vertex ids."""
        if isinstance(g, str):
            g = parse_group_spec(g)
        return self._k(component_labels(g))

    def k_value(self, g) -> int:
        return self.k(g).value

    def _k(self, labels) -> KResult:
        """K of the product of classified labels, given in component order."""
        key = spec_of_labels(labels)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if not labels:
            result = KResult(1, "base-case", [("trivial group", 1)])
        elif len(labels) > 1:
            result = self._k_product(labels)
        else:
            result = self._k_irreducible(labels[0])
        self.memo[key] = result
        return result

    def _k_product(self, labels) -> KResult:
        """Multinomial shuffle of the factors' counts."""
        ranks = [t.coxeter_rank for t in labels]
        coeff = multinomial(ranks)
        value = coeff
        terms = [(f"multinomial({sum(ranks)}; {','.join(map(str, ranks))})", coeff)]
        for t in labels:
            kt = self._k([t]).value
            value *= kt
            terms.append((f"K({t})", kt))
        return KResult(value, "product", terms)

    def _k_irreducible(self, t: TypeLabel) -> KResult:
        if t.coxeter_rank == 1:
            return KResult(1, "base-case", [(str(t), 1)])
        g = standard_graph(t)
        sigma = longest_element_automorphism(t)
        central = all(v == w for v, w in sigma.items())
        terms = []
        for v in g.vertices:
            w = sigma[v]
            if w < v:
                continue  # the orbit {w, v} was counted at w
            parts = _deleted_parts(g, v)
            if w == v and not central:
                value, desc = self._fixed_vertex_term(parts, sigma)
            else:
                labels = [label for label, _ in parts]
                value, desc = self._k(labels).value, f"K({spec_of_labels(labels)})"
            name = f"vertex {v}" if w == v else f"orbit {{{v},{w}}}"
            terms.append((f"{name}: {desc}", value))
        method = "summ1" if central else "summ2"
        return KResult(sum(value for _, value in terms), method, terms)

    def _fixed_vertex_term(self, parts, sigma):
        """Term of a fixed vertex from the (label, iso) components left by
        deleting it; sigma and every iso use the same vertex ids."""
        labels = [label for label, _ in parts]
        comp_of = {x: idx for idx, (_, iso) in enumerate(parts) for x in iso}
        if any(comp_of[sigma[x]] != idx for x, idx in comp_of.items()):
            # the involution shuffles whole components: halved count
            kh = self._k(labels).value
            if kh % 2 != 0:
                raise AssertionError(
                    f"component-swapping case met odd K({spec_of_labels(labels)})"
                )
            return kh // 2, f"1/2 K({spec_of_labels(labels)})"
        factors = []
        descs = []
        for label, iso in parts:
            gamma = {iso[x]: iso[sigma[x]] for x in iso}
            own = longest_element_automorphism(label)
            if gamma == own or all(x == y for x, y in gamma.items()):
                factors.append(self._k([label]).value)
                descs.append(f"K({label})")
            elif label.family == "D" and label.rank % 2 == 0:
                factors.append(self.k_bar(label.rank))
                descs.append(f"Kbar(D{label.rank})")
            else:
                raise AssertionError(
                    f"restricted automorphism on {label} is neither trivial "
                    f"nor the longest-element automorphism, and only D_even "
                    f"admits the augmented substitution"
                )
        coeff = multinomial([t.coxeter_rank for t in labels])
        value = coeff * prod(factors)
        if len(parts) > 1:
            return value, f"{coeff} * " + " * ".join(descs)
        return value, "".join(descs) or "K(1)"

    def k_bar(self, n: int) -> int:
        """Augmented count for D_n: chain orbits under the group extended by
        the fork-swap graph automorphism. Equals d_n for odd n."""
        if n < 2:
            raise ValueError("k_bar is defined for n >= 2")
        if n % 2 == 1:
            return self._k([TypeLabel("A", 3) if n == 3 else TypeLabel("D", n)]).value
        hit = self.bar_memo.get(n)
        if hit is not None:
            return hit.value
        a = lambda i: self._k([TypeLabel("A", i)]).value if i >= 1 else 1
        value = a(n - 1)
        terms = [(f"K(A{n - 1})", a(n - 1))]
        for i in range(2, n):
            t = comb(n - 1, i) * self.k_bar(i) * a(n - 1 - i)
            terms.append((f"C({n - 1},{i}) Kbar(D{i}) K(A{n - 1 - i})", t))
            value += t
        closed = 2 * a(n + 1) - (n + 1) * a(n)
        if value != closed:
            raise AssertionError(
                f"bar d_{n}: recursion gives {value}, closed form gives {closed}"
            )
        result = KResult(value, "bar-d-augmented", terms)
        self.bar_memo[n] = result
        return value


def _deleted_parts(g: CoxeterGraph, v):
    """(label, iso) per component of g minus v, ordered by smallest vertex id."""
    return [classify_irreducible(c) for c in connected_components(delete_vertex(g, v))]
