"""The four workloads: seeded requests, their expected answers and deadlines.

The seed decides how specs are spelled (C for B, G2 for I2(6), letter
case), the order of requests except in brute-products and, in cli-session,
which warm and closed-form specs are asked for. It changes little of how
much work a workload does, so runs with different seeds compare.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

from coxchains import cli, graphs, lattice, models, recursion, series

import reference as ref

# Required brute-force tier of `coxchains verify`.
BRUTE_IRREDUCIBLE = (["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3"]
                     + [f"I2({m})" for m in range(3, 13)])
# Products of rank <= 3 factors, |W| about 1,000-2,300 and 25k-200k maximal
# chains: factor lattices are cheap, the product action table and the
# chain-orbit scan are not.
BRUTE_PRODUCTS = ["A3xA3xA1", "B3xB3", "A2xA2xA2xA2", "I2(6)xI2(5)xA2xA1",
                  "B3xA2xA2", "A3xB2xA2", "I2(7)xA3xA1xA1"]
# A, B and D at ranks around 36 chosen so that each takes about the same
# time, which keeps the latency tail on one cluster of requests.
RECURSION_COLD = ["A42", "B31", "D35", "E6", "E7", "E8", "F4", "H3", "H4",
                  "D12xB9xA7"]
CLI_SMALL = ["A1", "A2", "A3", "B2", "B3", "H3", "I2(5)", "I2(6)", "A1xA1",
             "A2xA1", "B2xA1"]
CLI_EXCEPTIONAL = ["E6", "E7", "E8", "F4", "H3", "H4"]


@dataclass
class Request:
    kind: str                  # latency group, also the request's span name
    label: str
    call: Callable[[], object]
    expected: object


@dataclass
class Workload:
    name: str
    requests: list
    deadline_s: float          # per request; a miss counts as a failure
    min_passes: int
    reset: Callable[[], None] = lambda: None   # before every pass
    end_of_pass: Callable[[], dict] = dict     # counts taken after a pass
    sweep: Callable | None = None              # extra step of traced runs


def respell(spec: str, rng: random.Random) -> str:
    """Another spelling of the same group: C for B, G2 for I2(6), case."""
    terms = []
    for term in spec.split("x"):
        if term.startswith("B") and rng.random() < 0.5:
            term = "C" + term[1:]
        elif term == "I2(6)" and rng.random() < 0.5:
            term = "G2"
        if rng.random() < 0.25:
            term = term.lower()
        terms.append(term)
    return "x".join(terms)


def brute_call(spec: str):
    graph = graphs.parse_group_spec(spec)
    model = models.build_model(graph)
    lat, table = lattice.build_lattice_with_action(model)
    count = lattice.count_chain_orbits(lat, table)
    lines = lattice.orbit_count_of_lines(lat, table)
    return count.orbit_count, lines, table.group_order


def brute_request(spec: str) -> Request:
    expected = (ref.k_value(spec), ref.line_orbits(spec), ref.group_order(spec))
    return Request("brute", spec, lambda: brute_call(spec), expected)


def recursion_call(spec: str) -> int:
    return recursion.KCalculator().k(graphs.parse_group_spec(spec)).value


def identities_call(order: int) -> list:
    return [c.name for c in series.verify_identities(order) if not c.passed]


def cli_call(argv: list):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def cli_request(kind: str, argv: list, expected_out: str) -> Request:
    return Request(kind, " ".join(argv), lambda: cli_call(argv), (0, expected_out))


def compute_all_output(spec: str) -> str:
    k = ref.k_value(spec)
    return f"recursion: {k}\nbruteforce: {k}\nclosed: {k}\nagreement: ok\n"


def scan_w2_sweep(specs):
    """Traced runs of brute-products only: per spec, the tracemalloc peak of
    the lattice build and the time of a two-worker chain scan. Kept out of
    the timed passes because tracemalloc triples the build time."""
    def sweep():
        peak, w2 = 0, 0.0
        for spec in specs:
            model = models.build_model(graphs.parse_group_spec(spec))
            tracemalloc.start()
            try:
                lat, table = lattice.build_lattice_with_action(model)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            start = time.perf_counter()
            count = lattice.count_chain_orbits(lat, table, workers=2)
            w2 += time.perf_counter() - start
            if count.orbit_count != ref.k_value(spec):
                raise AssertionError(f"{spec}: two-worker scan gives "
                                     f"{count.orbit_count}")
        return {"lattice.peak_alloc_mib": peak / 2**20, "lattice.scan_w2_s": w2}
    return sweep


def _brute(name, specs, rng, min_passes, with_sweep, shuffle):
    specs = [respell(s, rng) for s in specs]
    if shuffle:
        rng.shuffle(specs)
    return Workload(name, [brute_request(s) for s in specs], deadline_s=60.0,
                    min_passes=min_passes,
                    sweep=scan_w2_sweep(specs) if with_sweep else None)


def brute_irreducible(seed, tiny=False, out_dir=None):
    specs = ["A1", "A2", "I2(5)"] if tiny else BRUTE_IRREDUCIBLE
    return _brute("brute-irreducible", specs, random.Random(seed),
                  1 if tiny else 3, with_sweep=False, shuffle=True)


def brute_products(seed, tiny=False, out_dir=None):
    specs = ["A1xA1", "A2xA1", "I2(5)xA1"] if tiny else BRUTE_PRODUCTS
    # fixed order: the order of these large tables moves peak RSS by a third
    return _brute("brute-products", specs, random.Random(seed),
                  1 if tiny else 4, with_sweep=True, shuffle=False)


def recursion_cold(seed, tiny=False, out_dir=None):
    rng = random.Random(seed)
    specs = ["A3", "E6", "A2xA1"] if tiny else list(RECURSION_COLD)
    # factor order of the product is free; canonical_spec sorts it away
    specs = ["x".join(rng.sample(s.split("x"), s.count("x") + 1)) for s in specs]
    requests = [Request("recursion", s, (lambda s=s: recursion_call(s)),
                        ref.k_value(s))
                for s in (respell(s, rng) for s in specs)]
    order = 6 if tiny else 20
    requests.append(Request("identities", f"verify_identities({order})",
                            lambda: identities_call(order), []))
    rng.shuffle(requests)
    return Workload("recursion-cold", requests, deadline_s=30.0,
                    min_passes=1 if tiny else 6)


def _random_abd(rng, max_rank):
    fam = rng.choice("ABD")
    low = {"A": 1, "B": 2, "D": 4}[fam]
    return f"{fam}{rng.randint(low, max_rank)}"


def cli_session(seed, tiny=False, out_dir="."):
    """A user's session: three cold recursions fill the cache, then warm
    recursion lookups mixed with full cross-checks of small groups,
    closed-form lookups, value tables and README's first example."""
    rng = random.Random(seed)
    cache = os.path.join(out_dir, f"cli-cache-{os.getpid()}.json")

    def recursion_req(spec):
        return cli_request("cli.compute_recursion_cached",
                           ["compute", spec, "--method", "recursion", "--cache", cache],
                           f"{ref.k_value(spec)}\n")

    def closed_req(spec):
        return cli_request("cli.compute_closed",
                           ["compute", spec, "--method", "closed"],
                           f"{ref.k_value(spec)}\n")

    def all_req(spec):
        return cli_request("cli.compute_all", ["compute", spec],
                           compute_all_output(spec))

    def table_req(max_rank):
        return cli_request("cli.table",
                           ["table", "--max-rank", str(max_rank), "--format", "csv"],
                           ref.table_csv(max_rank))

    if tiny:
        cold = [recursion_req("A3")]
        rest = [recursion_req("A2xA1"), all_req("A2"), closed_req("E8"),
                table_req(3)]
    else:
        # fixed order: each cold request reuses the memo entries of the ones
        # before it, so their order sets how the work splits between them
        cold = [recursion_req(respell(s, rng)) for s in ("A30", "B30", "D30")]
        warm = []
        for _ in range(84):
            if rng.random() < 0.6:
                warm.append(_random_abd(rng, 30))
            else:
                parts = [_random_abd(rng, 12) for _ in range(rng.randint(2, 3))]
                warm.append("x".join(parts))
        closed = [_random_abd(rng, 100) for _ in range(6)]
        closed += rng.sample(CLI_EXCEPTIONAL, 2)
        closed += [f"I2({rng.randint(3, 50)})", f"{_random_abd(rng, 40)}x{_random_abd(rng, 40)}"]
        rest = [recursion_req(respell(s, rng)) for s in warm]
        rest += [all_req(respell(s, rng)) for s in CLI_SMALL]
        rest += [closed_req(respell(s, rng)) for s in closed]
        rest += [table_req(100), table_req(100)]
        # README's first example, exactly as documented (default --method all)
        rest.append(all_req("E6"))
        rng.shuffle(rest)

    def reset():
        for path in (cache, cache + ".tmp"):
            if os.path.exists(path):
                os.remove(path)

    def end_of_pass():
        return {"cli.cache_bytes": os.path.getsize(cache) if os.path.exists(cache) else 0}

    return Workload("cli-session", cold + rest, deadline_s=3.0,
                    min_passes=1 if tiny else 3, reset=reset, end_of_pass=end_of_pass)


WORKLOADS = {
    "brute-irreducible": brute_irreducible,
    "brute-products": brute_products,
    "recursion-cold": recursion_cold,
    "cli-session": cli_session,
}


def make(name: str, seed: int, tiny: bool = False, out_dir: str = ".") -> Workload:
    return WORKLOADS[name](seed, tiny=tiny, out_dir=out_dir)
