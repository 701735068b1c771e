"""Chain-orbit counts K(W) by parabolic recursion.

For a reducible group, K factors through a multinomial shuffle. For an
irreducible group, K is a sum over orbits of coatom lines, one term per
orbit of the diagram involution s -> w0 s w0: each two-element orbit
contributes the plain parabolic count, and each fixed vertex contributes
a term resolved by a three-way case split (full count, halved count, or
the augmented D-type count "bar d" when the component's own longest
element cannot realize the induced graph swap).

The A, B and D families fill int tables by rank, one Pascal-row entry per
term. Every term reads what deleting a vertex leaves off a per-family rule
on type labels, so a breakdown checks the table, and the exceptional and
dihedral types get their values from these terms. Graph code runs only
where a graph enters; a spec string is parsed straight to labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from operator import add, mul

from .graphs import (
    TypeLabel,
    component_labels,
    longest_element_automorphism,
    parse_group_spec,  # noqa: F401  (perfbench's tracer patches it here)
    parse_labels,
    spec_of_labels,
)

# The fold of a fixed vertex whose involution swaps whole components.
SWAP = "swap"


@dataclass
class KResult:
    """K(W) of a queried group and its breakdown, built for the query only:
    nothing in the memo holds one."""

    value: int
    method: str  # product | summ1 | summ2 | base-case
    terms: list  # (description, value) summands (summ*) or factors (product)

    def to_json_dict(self, group: str) -> dict:
        return {
            "group": group,
            "value": str(self.value),
            "method": self.method,
            "terms": [[d, str(v)] for d, v in self.terms],
        }


def multinomial(parts) -> int:
    out, total = 1, 0
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


class KCalculator:
    """Memoized K(W) computation; safe to reuse across many queries.

    The recursion runs on lists of classified type labels and deletes
    vertices by label rules. Graph code runs only where a user graph enters
    (k); a spec string is parsed straight to labels. `memo` maps an
    irreducible type's name to its int K, and `bar_memo` an even D rank to
    its Kbar; the A, B and D entries come from rank tables, the others from
    their terms. A product is one multinomial over memoized counts. The
    breakdown is built for the queried labels only, one level down from
    memo values, so it follows the caller's factor order and checks the
    stored value.
    """

    def __init__(self):
        self.memo = {}
        self.bar_memo = {}

    def k(self, g) -> KResult:
        """K(W) for a spec string or a Coxeter graph with any vertex ids."""
        return self.k_labels(parse_labels(g) if isinstance(g, str) else component_labels(g))

    def k_value(self, g) -> int:
        return self.k(g).value

    def k_labels(self, labels) -> KResult:
        """K of the product of classified labels, given in component order,
        with its breakdown, which a memo hit's stored value must match."""
        if len(labels) != 1:
            return self._k_product(labels)
        t = labels[0]
        self._fill(t)
        result = self._breakdown(t)
        if self.memo.setdefault(t.name, result.value) != result.value:
            raise AssertionError(f"stored K({t}) = {self.memo[t.name]} disagrees with its "
                                 f"terms from the entries below it, which give {result.value}")
        return result

    def _k_type(self, t: TypeLabel) -> int:
        """K of an irreducible type, memoized: from rank tables or its terms."""
        key = t.name
        if key not in self.memo:
            self._fill(t)
            if key not in self.memo:
                self.memo[key] = sum(term[-1] for term in self._terms(t))
        return self.memo[key]

    def _value(self, labels) -> int:
        """K of a product of labels: the multinomial times memoized values."""
        return multinomial([t.coxeter_rank for t in labels]) * prod(map(self._k_type, labels))

    def _fill(self, t: TypeLabel):
        """Write K of t, if an A, B or D type, and of each lower type its
        recursion reaches to the memo, lowest rank first on int tables
        indexed by rank (memo entries are read, not recomputed)."""
        n = t.rank
        if t.family == "A":
            self._a_table(n)
        elif t.family == "B":
            a, b, walk = self._a_table(n - 1), [1, 1], _Walk()  # B0 is nothing, B1 is A1
            for r in range(2, n + 1):
                b.append(walk.stored(self.memo, f"B{r}", _b_value, a, b, r))
        elif t.family == "D" and n % 2:
            self._bar_table(n)
        elif t.family == "D":
            # an even D reads bar d only through odd D parts, and D4's one is A3
            a, kb = self._bar_table(n - 1) if n > 4 else (self._a_table(3), None)
            d, walk = [0, 0, 2, a[3]], _Walk()
            for r in range(4, n + 1):
                d.append(kb[r] if r % 2 else walk.stored(self.memo, f"D{r}", _d_value, a, d, r))

    def _a_table(self, n: int) -> list:
        a, walk = [1], _Walk()
        for r in range(1, n + 1):
            a.append(walk.stored(self.memo, f"A{r}", _a_value, a, r))
        return a

    def _bar_table(self, n: int):
        """The A table and kb[r] = k_bar(r), 2 <= r <= n: what an odd D_n or
        bar d_n reads. kb holds bar d at even r, K(D_r) at odd r, A3 at 3."""
        a, kb, walk = self._a_table(n + 1 - n % 2), [0, 0], _Walk()  # bar d_r reads a[r + 1]
        for r in range(2, n + 1):
            kb.append(walk.stored(self.bar_memo, r, _bar_d_value, a, kb, r) if r % 2 == 0
                      else a[3] if r == 3 else walk.stored(self.memo, f"D{r}", _d_value, a, kb, r))
        return a, kb

    def _k_product(self, labels) -> KResult:
        """Multinomial shuffle of the factors' counts."""
        if not labels:
            return KResult(1, "base-case", [("trivial group", 1)])
        ranks = [t.coxeter_rank for t in labels]
        terms = [(f"multinomial({sum(ranks)}; {','.join(map(str, ranks))})",
                  multinomial(ranks))]
        terms += [(f"K({t})", self._k_type(t)) for t in labels]
        return KResult(self._value(labels), "product", terms)

    def _deleted(self, t: TypeLabel, v):
        """(labels, fold) of deleting vertex v of t: see _DELETION_RULES."""
        return _DELETION_RULES[t.family](t.rank, v)

    def _terms(self, t: TypeLabel):
        """(v, w, labels, fold, coeff, value) per orbit {v, w}, v <= w, of
        the involution: what deleting v leaves, the multinomial of its
        ranks, and that term of K(t)."""
        for v, w in sorted(longest_element_automorphism(t).items()):
            if v <= w:
                labels, fold = self._deleted(t, v)
                coeff = multinomial([label.coxeter_rank for label in labels])
                yield v, w, labels, fold, coeff, self._term_value(labels, fold, coeff)

    def _breakdown(self, t: TypeLabel) -> KResult:
        """K of an irreducible type with one term per orbit of coatom lines."""
        if t.coxeter_rank == 1:
            return KResult(1, "base-case", [(str(t), 1)])
        terms = list(self._terms(t))
        central = all(v == w for v, w, *_ in terms)
        return KResult(sum(term[-1] for term in terms), "summ1" if central else "summ2",
                       [((f"vertex {v}" if v == w else f"orbit {{{v},{w}}}")
                         + f": {_describe(labels, fold, coeff)}", value)
                        for v, w, labels, fold, coeff, value in terms])

    def _term_value(self, labels, fold, coeff) -> int:
        """The term of a deletion that leaves labels, whose ranks' multinomial
        is coeff, under the involution's fold on them (see _DELETION_RULES)."""
        if fold is None or fold == SWAP:
            value = coeff * prod(map(self._k_type, labels))
            # a fixed vertex whose involution shuffles whole components: halved
            return value if fold is None else _halved(value, labels)
        for label, twisted in zip(labels, fold):
            if twisted and (label.family != "D" or label.rank % 2):
                raise AssertionError(
                    f"restricted automorphism on {label} is neither trivial "
                    f"nor the longest-element automorphism, and only D_even "
                    f"admits the augmented substitution"
                )
        return coeff * prod(self.k_bar(t.rank) if twisted else self._k_type(t)
                            for t, twisted in zip(labels, fold))

    def k_bar(self, n: int) -> int:
        """Augmented count for D_n: chain orbits under the group extended by
        the fork-swap graph automorphism. Equals d_n for odd n."""
        if n < 2:
            raise ValueError("k_bar is defined for n >= 2")
        if n % 2 == 1:
            return self._value(_d_part(n))
        return self.bar_memo[n] if n in self.bar_memo else self._bar_table(n)[1][n]


class _Walk:
    """One walk up a rank table. A rank r the memo lacks gets its rank
    rule's value from the tables and the Pascal row C(r - 1, .), which is
    carried by additions from the rank computed before, or built by comb at
    a miss after a memo hit; a walk that misses no rank builds no row."""

    rank, row = 0, None

    def stored(self, memo: dict, key, rule, *tables) -> int:
        """memo[key], else rule(*tables[:-1], row, r) stored, for the rank r
        that ends tables."""
        if key in memo:
            self.row = None
            return memo[key]
        *tables, r = tables
        if self.row is None:
            self.row = [comb(r - 1, i) for i in range(r)]
        else:
            for _ in range(r - self.rank):
                self.row = [1, *map(add, self.row, self.row[1:]), 1]
        self.rank = r
        memo[key] = value = rule(*tables, self.row, r)
        return value


def _halved(kh: int, labels) -> int:
    """kh / 2 for components labels swapped in pairs; formats them only to fail."""
    if kh % 2 != 0:
        raise AssertionError(f"component-swapping case met odd K({spec_of_labels(labels)})")
    return kh // 2


def _describe(labels, fold, coeff: int) -> str:
    """How a coatom-orbit term is computed, as the breakdown prints it;
    coeff is the multinomial of the labels' ranks."""
    if fold is None or fold == SWAP:
        return ("1/2 " if fold else "") + f"K({spec_of_labels(labels)})"
    descs = " * ".join(f"Kbar(D{t.rank})" if twisted else f"K({t.name})"
                       for t, twisted in zip(labels, fold))
    return f"{coeff} * {descs}" if len(labels) > 1 else descs or "K(1)"


# The rules hand out one interned label per type, so a label's name is
# formatted once for every term that names the type.
_label = lru_cache(maxsize=None)(TypeLabel)


# Deletion rules, one per family: (labels, fold) of deleting vertex v of the
# rank-n type, in standard numbering. labels are the classified components
# left, ordered by smallest vertex id. fold is None for a plain K term: a
# vertex in a two-element orbit of the involution s -> w0 s w0, or any
# vertex when the involution is trivial. A vertex fixed by a non-trivial
# involution has fold SWAP when the involution swaps whole components, and
# otherwise one flag per component: whether the involution restricts to an
# automorphism that is neither trivial nor the component's own.


def _a_run(n: int) -> list:
    """The path A_n as a component list; empty for n = 0."""
    return [_label("A", n)] if n else []


def _d_part(n: int) -> list:
    """The classified components of the D_n diagram, n >= 2: D3 is A3 and
    D2 is A1 x A1."""
    if n >= 4:
        return [_label("D", n)]
    return [_label("A", 3)] if n == 3 else [_label("A", 1)] * 2


def _a_deleted(n: int, v: int):
    """A_n minus v is A_{v-1} x A_{n-v}. The involution reverses the path,
    so the middle vertex of an odd path, A1 aside, swaps the two halves."""
    return _a_run(v - 1) + _a_run(n - v), SWAP if 1 < n == 2 * v - 1 else None


# Rank rules: K at rank r from int tables of lower ranks, one summand per
# term of the family's deletion rule, vertex v = i + 1 weighed by c[i] =
# C(r-1, i) from the Pascal row c. Each sum over i is one C-level dot
# product of c, a table read upwards and a table read downwards from
# index r-1-i; the table being filled holds ranks below r only. The rank
# stays the last argument.
def _a_value(a: list, c: list, r: int) -> int:
    h = r // 2  # i < h: a[r-1] down to a[r-h], and r-1-h >= 0 keeps the stop
    value = sum(map(mul, map(mul, c[:h], a), a[r - 1:r - 1 - h:-1]))
    if r % 2:  # the middle vertex: A1 leaves nothing, a longer path two swapped halves
        value += 1 if r == 1 else _halved(c[h] * a[h] ** 2, [_label("A", h)] * 2)
    return value


def _b_deleted(n: int, v: int):
    """B_n minus 1 is A_{n-1}, minus 2 is A1 x A_{n-2}, and minus v >= 3 is
    B_{v-1} x A_{n-v}. The involution is trivial."""
    head = [] if v == 1 else _a_run(1) if v == 2 else [_label("B", v - 1)]
    return head + _a_run(n - v), None


def _b_value(a: list, b: list, c: list, r: int) -> int:
    return sum(map(mul, map(mul, c, b), a[r - 1::-1]))  # i < r: a[r-1] down to a[0]


def _d_deleted(n: int, v: int):
    """D_n minus a path vertex v <= n-2 is A_{v-1} x D_{n-v}, minus a fork
    vertex A_{n-1}. For odd n the involution swaps the forks and fixes the
    path: it swaps the two forks left as A1 x A1, acts on A3 and on an odd D
    as their own involution, and twists an even D."""
    if v >= n - 1:
        return _a_run(n - 1), None
    r = n - v
    labels = _a_run(v - 1) + _d_part(r)
    if n % 2 == 0:
        return labels, None
    if r == 2:
        return labels, SWAP
    return labels, (False,) * (v > 1) + (r % 2 == 0,)


def _d_value(a: list, parts: list, c: list, r: int) -> int:
    """parts[r - v] counts the D part left by path vertex v: K at even r,
    and at odd r k_bar, which at r - v = 2 is half of K(A1 x A1) = 2."""
    # i < r-2: parts[r-1] down to parts[2]
    return (2 - r % 2) * a[r - 1] + sum(map(mul, map(mul, c[:r - 2], a), parts[r - 1:1:-1]))


def _bar_d_value(a: list, kb: list, c: list, r: int) -> int:
    # 2 <= i < r: a[r-3] down to a[0]; at r = 2, c[2:] is empty and ends the sum
    value = a[r - 1] + sum(map(mul, map(mul, c[2:], kb[2:]), a[r - 3::-1]))
    closed = 2 * a[r + 1] - (r + 1) * a[r]
    if value != closed:
        raise AssertionError(f"bar d_{r}: recursion gives {value}, closed form gives {closed}")
    return value


def _e_deleted(n: int, v: int):
    """E_n minus 1 is D_{n-1}, minus 2 is A_{n-1}, minus 3 is A1 x A_{n-2},
    and minus v >= 4 is a head on 1..v-1 times A_{n-v}: A2 x A1, then A4,
    D5, E6 and E7. Only E6's involution is not trivial: it reverses the A5
    left by vertex 2, as A5's own, and swaps the A2s left by vertex 4."""
    fold = {2: (False,), 4: SWAP}.get(v) if n == 6 else None
    if v <= 3:
        return ([_label("D", n - 1)], _a_run(n - 1), _a_run(1) + _a_run(n - 2))[v - 1], fold
    head = _a_run(2) + _a_run(1) if v == 4 else [_label({5: "A", 6: "D"}.get(v, "E"), v - 1)]
    return head + _a_run(n - v), fold


def _f_deleted(n: int, v: int):
    """F4 minus an end vertex is B3, minus 2 is A1 x A2, minus 3 A2 x A1."""
    return [_label("B", 3)] if v in (1, 4) else _a_run(v - 1) + _a_run(4 - v), None


def _h_deleted(n: int, v: int):
    """H_n minus v is H_{v-1} x A_{n-v}, where H2 is I2(5) and H1 is A1."""
    head = [_label("H", v - 1)] if v > 3 else [_label("I2", 5)] if v == 3 else _a_run(v - 1)
    return head + _a_run(n - v), None


_DELETION_RULES = {"A": _a_deleted, "B": _b_deleted, "D": _d_deleted, "E": _e_deleted,
                   "F": _f_deleted, "H": _h_deleted,
                   "I2": lambda m, v: (_a_run(1), None)}  # I2(m) minus either vertex is A1
