"""Reference answers for checking coxchains, written without the package.

Nothing here imports coxchains: the values come from the Seidel triangle,
per-family formulas, the paper's exceptional values and the multinomial
rule for products, so a fault in any layer under test shows as a mismatch.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import factorial, prod

EXCEPTIONAL_K = {("E", 6): 82, ("E", 7): 768, ("E", 8): 4056,
                 ("F", 4): 16, ("H", 3): 4, ("H", 4): 12}
EXCEPTIONAL_ORDER = {("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
                     ("F", 4): 1152, ("H", 3): 120, ("H", 4): 14400}
# W-orbits of lines = orbits of the diagram involution induced by -w0
EXCEPTIONAL_LINE_ORBITS = {("E", 6): 4, ("E", 7): 7, ("E", 8): 8,
                           ("F", 4): 4, ("H", 3): 3, ("H", 4): 4}

_TERM = re.compile(r"^([A-Za-z])(\d+)(?:\((\d+)\))?$")


@lru_cache(maxsize=None)
def zigzag(n_max: int) -> tuple:
    """Euler zigzag numbers T_0..T_n_max by the Seidel triangle."""
    out, row = [1], [1]
    for _ in range(n_max):
        new = [0]
        for x in reversed(row):
            new.append(new[-1] + x)
        row = new
        out.append(row[-1])
    return tuple(out)


def factors(spec: str) -> list:
    """Irreducible factors of a spec as (family, n), aliases resolved."""
    out = []
    for term in spec.strip().split("x"):
        m = _TERM.match(term.strip())
        if not m:
            raise ValueError(f"reference cannot parse {term!r}")
        fam, n, paren = m.group(1).upper(), int(m.group(2)), m.group(3)
        if fam == "I" and n == 2 and paren:
            out.append(("I2", int(paren)))
        elif fam == "G" and n == 2:
            out.append(("I2", 6))
        elif fam == "D" and n == 2:
            out += [("A", 1), ("A", 1)]
        elif fam == "D" and n == 3:
            out.append(("A", 3))
        else:
            out.append(("B" if fam == "C" else fam, n))
    return out


def _rank(f) -> int:
    return 2 if f[0] == "I2" else f[1]


def k_irreducible(fam: str, n: int) -> int:
    t = zigzag(n + 1)
    if fam == "A":
        return t[n]
    if fam == "B":
        return t[n + 1]
    if fam == "D":
        return 2 * t[n + 1] - (n if n % 2 == 0 else n + 1) * t[n]
    if fam == "I2":
        return 1 if n % 2 else 2
    return EXCEPTIONAL_K[(fam, n)]


def bar_d(n: int) -> int:
    """Chain orbits of D_n under the group extended by the fork swap."""
    t = zigzag(n + 1)
    return 2 * t[n + 1] - (n + 1) * t[n]


def multinomial(parts) -> int:
    return factorial(sum(parts)) // prod(factorial(p) for p in parts)


def k_value(spec: str) -> int:
    fs = factors(spec)
    return multinomial([_rank(f) for f in fs]) * prod(k_irreducible(*f) for f in fs)


def group_order(spec: str) -> int:
    def order(fam, n):
        if fam == "A":
            return factorial(n + 1)
        if fam == "B":
            return 2 ** n * factorial(n)
        if fam == "D":
            return 2 ** (n - 1) * factorial(n)
        if fam == "I2":
            return 2 * n
        return EXCEPTIONAL_ORDER[(fam, n)]

    return prod(order(*f) for f in factors(spec))


def line_orbits(spec: str) -> int:
    """W-orbits of lines (coatoms): a product's lines are one factor's lines
    times the other factors' zero flats, so the counts add."""
    def lines(fam, n):
        if fam == "A":
            return (n + 1) // 2
        if fam == "D":
            return n if n % 2 == 0 else n - 1
        if fam == "I2":
            return 1 if n % 2 else 2
        if fam == "B":
            return n
        return EXCEPTIONAL_LINE_ORBITS[(fam, n)]

    return sum(lines(*f) for f in factors(spec))


def table_csv(max_rank: int) -> str:
    """The expected output of `coxchains table --format csv`."""
    t = zigzag(max_rank + 2)
    rows = [("A", n, t[n]) for n in range(max_rank + 1)]
    rows += [("B", n, t[n + 1]) for n in range(2, max_rank + 1)]
    rows += [("D", n, k_irreducible("D", n)) for n in range(2, max_rank + 1)]
    rows += [("barD", n, bar_d(n)) for n in range(2, max_rank + 1)]
    rows += [(fam, n, EXCEPTIONAL_K[(fam, n)]) for fam, n in EXCEPTIONAL_K]
    rows += [("I2", m, k_irreducible("I2", m)) for m in range(3, max_rank + 1)]
    lines = ["family,rank_or_m,method,value"]
    lines += [f"{fam},{n},closed,{v}" for fam, n, v in rows]
    return "\n".join(lines) + "\n"
