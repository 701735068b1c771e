"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
while running; pytest shows captured output for failures either way).
"""

import math
import time

import pytest

from coxchains.graphs import parse_group_spec
from coxchains.lattice import build_lattice_with_action, count_chain_orbits
from coxchains.models import build_model
from coxchains.recursion import KCalculator
from coxchains.series import (
    bar_d_closed_form,
    d_closed_form,
    egf_cos,
    egf_sin,
    euler_numbers,
    euler_numbers_from_series,
    verify_identities,
    z,
    constant,
)
from oracles import count_maximal_chains, set_partitions

REQUIRED_TIER = (
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3"]
    + [f"I2({m})" for m in range(3, 13)]
    + ["A1xA1", "A2xA1", "B2xA1"]
)

D_LIST = [2, 2, 12, 26, 178, 594, 4792, 21682, 202374, 1160026, 12303332]
BAR_D_LIST = [1, 2, 7, 26, 117, 594, 3407, 21682, 151853, 1160026, 9600567]


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"{status}  criterion {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def required_tier_runs():
    """Lattice, action table and recursion value per required-tier spec,
    built once and shared between the oracle and determinism criteria."""
    calc = KCalculator()
    runs = {}
    start = time.perf_counter()
    for spec in REQUIRED_TIER:
        graph = parse_group_spec(spec)
        lattice, table = build_lattice_with_action(build_model(graph))
        brute = count_chain_orbits(lattice, table, workers=1)
        runs[spec] = (lattice, table, brute, calc.k_value(graph))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_exceptional_values():
    start = time.perf_counter()
    calc = KCalculator()  # cold cache
    expected = {"H3": 4, "H4": 12, "F4": 16, "E6": 82, "E7": 768, "E8": 4056}
    breakdowns = {
        "E6": [26, 25, 15, 16],
        "E7": [82, 156, 75, 120, 96, 178, 61],
        "E8": [768, 574, 546, 350, 525, 427, 594, 272],
    }
    problems = []
    for spec, value in expected.items():
        result = calc.k(spec)
        if result.value != value:
            problems.append(f"K({spec}) = {result.value}, want {value}")
        want_terms = breakdowns.get(spec)
        if want_terms is not None:
            got = sorted(v for _, v in result.terms)
            if got != sorted(want_terms):
                problems.append(f"{spec} terms {got}, want {sorted(want_terms)}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s, target < 1s")
    report(1, not problems, "; ".join(problems) or f"{elapsed:.2f}s cold")


def test_criterion_2_d_sequences_three_ways():
    start = time.perf_counter()
    calc = KCalculator()
    problems = []
    order = 13
    sin, cos = egf_sin(order), egf_cos(order)
    cos2 = cos * cos
    even_series = sin * (sin * 2 - z(order)) / cos2
    odd_series = (sin * (constant(2, order) - cos) - z(order)) / cos2
    bar_series = (constant(2, order) - cos - z(order) * sin) / (
        constant(1, order) - sin
    )
    for i, n in enumerate(range(2, 13)):
        rec_d = calc.k_value({2: "A1xA1", 3: "A3"}.get(n, f"D{n}"))
        closed_d = d_closed_form(n)
        series = even_series if n % 2 == 0 else odd_series
        egf_d = series.egf_coefficient(n)
        if not rec_d == closed_d == egf_d == D_LIST[i]:
            problems.append(
                f"d_{n}: recursion {rec_d}, closed {closed_d}, "
                f"egf {egf_d}, want {D_LIST[i]}"
            )
        rec_bar = calc.k_bar(n)
        closed_bar = bar_d_closed_form(n)
        egf_bar = bar_series.egf_coefficient(n)
        if not rec_bar == closed_bar == egf_bar == BAR_D_LIST[i]:
            problems.append(
                f"bar d_{n}: recursion {rec_bar}, closed {closed_bar}, "
                f"egf {egf_bar}, want {BAR_D_LIST[i]}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s, target < 1s")
    report(2, not problems, "; ".join(problems) or f"{elapsed:.2f}s")


def test_criterion_3_zigzag_identification():
    start = time.perf_counter()
    calc = KCalculator()
    problems = []
    t = euler_numbers(21)
    t_series = euler_numbers_from_series(21)
    if t != t_series:
        problems.append("Seidel triangle disagrees with series division")
    for n in range(1, 21):
        a_n = calc.k_value(f"A{n}")
        if a_n != t[n]:
            problems.append(f"a_{n} = {a_n}, want T_{n} = {t[n]}")
    for n in range(2, 21):
        b_n = calc.k_value(f"B{n}")
        if b_n != t[n + 1]:
            problems.append(f"b_{n} = {b_n}, want T_{n + 1} = {t[n + 1]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s, target < 1s")
    report(3, not problems, "; ".join(problems) or f"{elapsed:.2f}s")


def test_criterion_4_bruteforce_equals_recursion(required_tier_runs):
    runs, elapsed = required_tier_runs
    problems = []
    for spec, (_, _, brute, recursion_value) in runs.items():
        if brute.orbit_count != recursion_value:
            problems.append(
                f"{spec}: bruteforce {brute.orbit_count} != recursion "
                f"{recursion_value}"
            )
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s, target < 60s")
    report(4, not problems,
           "; ".join(problems) or f"{len(runs)} types in {elapsed:.1f}s")


def test_criterion_5_a3_lattice_structure(required_tier_runs):
    runs, _ = required_tier_runs
    problems = []
    lattice, table, brute, _ = runs["A3"]
    partitions = set_partitions(4)
    oracle_sizes = [
        sum(1 for p in partitions if len(p) == 4 - r) for r in range(4)
    ]
    if list(lattice.rank_sizes()) != oracle_sizes:
        problems.append(
            f"rank sizes {lattice.rank_sizes()} vs partition oracle {oracle_sizes}"
        )
    if tuple(oracle_sizes) != (1, 6, 7, 1):
        problems.append("partition oracle does not give (1,6,7,1)")
    chains = count_maximal_chains(lattice)
    formula = math.factorial(4) * math.factorial(3) // 2 ** 3
    if not chains == formula == 18:
        problems.append(f"chain count {chains}, formula {formula}, want 18")
    # gradedness and divisibility across the whole required tier
    for spec, (lat, tab, result, _) in runs.items():
        for i, ups in enumerate(lat.covers):
            for j in ups:
                if lat.rank[j] != lat.rank[i] + 1:
                    problems.append(f"{spec}: cover relation skips a rank")
        if sum(s * k for s, k in result.size_counts.items()) != result.total_chains:
            problems.append(f"{spec}: orbit sizes do not sum to the chain count")
        if sum(result.size_counts.values()) != result.orbit_count:
            problems.append(f"{spec}: orbit size counts do not sum to the orbit count")
        if any(tab.group_order % s for s in result.size_counts):
            problems.append(f"{spec}: an orbit size does not divide |W|")
    report(5, not problems, "; ".join(problems))


def test_criterion_6_generating_function_identities():
    problems = []
    for check in verify_identities(20):
        if not check.passed:
            problems.append(
                f"{check.name} first differs at index {check.first_mismatch}"
            )
    t = euler_numbers(12)
    for n in range(2, 13):
        diff = d_closed_form(n) - bar_d_closed_form(n)
        want = t[n] if n % 2 == 0 else 0
        if diff != want:
            problems.append(f"d_{n} - bar d_{n} = {diff}, want {want}")
    report(6, not problems, "; ".join(problems))


def test_criterion_7_worker_determinism(required_tier_runs):
    runs, _ = required_tier_runs
    problems = []
    for spec, (lattice, table, base, _) in runs.items():
        for workers in (2, 8):
            redo = count_chain_orbits(lattice, table, workers=workers)
            if redo != base:
                problems.append(f"{spec}: workers={workers} changed the result")
    report(7, not problems,
           "; ".join(problems) or f"{len(runs)} types x workers 1/2/8")
