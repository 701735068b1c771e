import argparse
import hashlib
import inspect
import itertools
import json
import os
import re
import stat
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from coxchains import cli, graphs, lattice, models, recursion
from coxchains.graphs import component_labels, parse_group_spec, parse_labels
from coxchains.lattice import build_lattice
from coxchains.models import DEFAULT_ELEMENT_CAP, build_model
from coxchains.series import euler_numbers
from test_models import add_a_line_to_type_a, scale_b2_short_root


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# `compute SPEC --format json` as printed by the recursion that summed each
# binomial convolution term by term, one list of lines per spec
COMPUTE_JSON_OUTPUTS = json.loads(
    (Path(__file__).parent / "compute_json_outputs.json").read_text())


@pytest.mark.parametrize("spec", COMPUTE_JSON_OUTPUTS)
def test_compute_json_prints_what_the_term_by_term_recursion_printed(capsys, spec):
    """Every value and every term of the breakdown, byte for byte."""
    code, out, err = run(capsys, "compute", spec, "--format", "json")
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == "\n".join(COMPUTE_JSON_OUTPUTS[spec]) + "\n"


def test_compute_recursion_plain_value(capsys):
    code, out, _ = run(capsys, "compute", "E6", "--method", "recursion")
    assert code == cli.EXIT_OK
    assert out.strip() == "82"


def test_compute_all_methods_agree(capsys):
    code, out, _ = run(capsys, "compute", "A3", "--method", "all")
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert "recursion: 2" in lines
    assert "bruteforce: 2" in lines
    assert "closed: 2" in lines
    assert lines[-1] == "agreement: ok"


def test_compute_json_detail(capsys):
    code, out, _ = run(capsys, "compute", "E6", "--method", "recursion",
                       "--format", "json")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["group"] == "E6"
    assert payload["results"]["recursion"] == "82"
    assert payload["agreement"] is True
    terms = payload["recursion_detail"]["terms"]
    assert sorted(int(v) for _, v in terms) == [15, 16, 25, 26]


def test_compute_e6_by_brute_force(capsys, monkeypatch):
    """compute counts E6's chain orbits on covers closed on demand: its
    583,200 maximal chains fall into 82 orbits whose sizes divide |W| =
    51,840, and the whole lattice is never built."""
    seen = {}
    real = cli.count_chain_orbits_lazily

    def spy(*args, **kwargs):
        seen["count"] = real(*args, **kwargs)
        return seen["count"]

    def whole_lattice(*args, **kwargs):
        raise AssertionError("compute built the whole lattice")

    monkeypatch.setattr(cli, "count_chain_orbits_lazily", spy)
    for name in ("build_lattice_with_action", "count_chain_orbits"):
        monkeypatch.setattr(cli, name, whole_lattice)
    code, out, _ = run(capsys, "compute", "E6", "--method", "bruteforce")
    assert (code, out) == (cli.EXIT_OK, "82\n")
    assert seen["count"].total_chains == 583_200
    assert all(51_840 % s == 0 for s in seen["count"].size_counts)


WHOLE_LATTICE_NAMES = ("build_lattice_with_action", "count_chain_orbits", "orbit_count_of_lines")


@pytest.mark.parametrize("argv", [
    ["verify", "--deep"], ["compute", "E6"], ["compute", "B2xA1", "--format", "json"],
    ["table", "--max-rank", "8"], ["export-lattice", "A3", "{tmp}/a3.json"]],
    ids=["verify-deep", "compute-E6", "compute-B2xA1-json", "table", "export-lattice"])
def test_no_command_reaches_the_whole_lattice_count(argv, capsys, monkeypatch, tmp_path):
    """The whole lattice's action, chain-orbit count and line-orbit count
    are the library's alone: every command runs with the three names set
    to raise, where they are defined and where `cli` imports them. verify's
    brute tiers count each tier type once through the lazy scan."""
    def whole_lattice(*args, **kwargs):
        raise AssertionError("a command reached the whole-lattice count")

    for name in WHOLE_LATTICE_NAMES:
        monkeypatch.setattr(cli, name, whole_lattice)
        monkeypatch.setattr(lattice, name, whole_lattice)
    calls = []
    real = cli.count_chain_and_line_orbits_lazily
    monkeypatch.setattr(cli, "count_chain_and_line_orbits_lazily",
                        lambda model: calls.append(model) or real(model))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, err) == (cli.EXIT_OK, ""), out
    assert "FAIL" not in out
    tiers = len(cli.REQUIRED_BRUTE_TIER) + len(cli.DEEP_BRUTE_TIER)
    assert len(calls) == (tiers if argv[0] == "verify" else 0)


def test_compute_e6_closes_at_most_50_flats(capsys, monkeypatch):
    """The chain scan reads the covers of 49 flats of E6's 4,598, the bottom
    among them, and compute closes no others."""
    closure = lattice._closure
    closed = []

    def counted(lines, base, mask, span):
        closed.append(mask)
        return closure(lines, base, mask, span)

    monkeypatch.setattr(lattice, "_closure", counted)
    code, out, _ = run(capsys, "compute", "E6", "--method", "bruteforce")
    assert (code, out) == (cli.EXIT_OK, "82\n")
    assert 0 in closed and len(set(closed)) == len(closed) <= 50


def test_cli_import_leaves_the_process_pool_unloaded():
    """Only the library's count over a built lattice with more than one
    worker imports concurrent.futures; no command runs one, so the command
    line does not pay for the import."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, coxchains.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('concurrent')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_compute_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "compute", "Z9")
    assert code == cli.EXIT_PARSE
    assert "error" in err


def test_compute_bruteforce_unsupported_exit_code(capsys):
    code, _, err = run(capsys, "compute", "E7", "--method", "bruteforce")
    assert code == cli.EXIT_UNSUPPORTED
    assert "recursion" in err


def test_compute_bruteforce_refuses_a_huge_rank_at_once(capsys):
    """D1000000 is refused from its rank in one error line, with no integer
    past the cap but the spec's own: |W(D1000000)| alone takes seconds to
    compute. The recursion refuses it too, so the line sends nobody there."""
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "D1000000", "--method", "bruteforce")
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (cli.EXIT_UNSUPPORTED, "",
                                "error: group order of D1000000 exceeds the element cap "
                                "100000\n")
    assert all(int(n) <= DEFAULT_ELEMENT_CAP
               for n in re.findall(r"\d+", err.replace("D1000000", "")))


@pytest.mark.parametrize("spec, value", [("H4", 12), ("D6", 178), ("A7", 272), ("B6", 272),
                                         ("D6xA1", 1246)])
def test_compute_counts_the_largest_types_under_the_cap(capsys, spec, value):
    code, out, err = run(capsys, "compute", spec)
    assert (code, out, err) == (cli.EXIT_OK, f"recursion: {value}\nbruteforce: {value}\n"
                                             f"closed: {value}\nagreement: ok\n", "")


def test_compute_all_skips_unsupported_bruteforce(capsys):
    code, out, _ = run(capsys, "compute", "E7", "--method", "all")
    assert code == cli.EXIT_OK
    assert "bruteforce" not in out
    assert "recursion: 768" in out


def test_bruteforce_counts_a1_power_12(capsys):
    """A1^12's 12! = 479,001,600 chain orbits, each of size 1, counted by
    brute force from about a thousand scan states, as the recursion and the
    closed form count them."""
    code, out, err = run(capsys, "compute", "x".join(["A1"] * 12))
    assert (code, out, err) == (cli.EXIT_OK, "recursion: 479001600\nbruteforce: 479001600\n"
                                             "closed: 479001600\nagreement: ok\n", "")


def test_bruteforce_counts_a1_power_9(capsys):
    """A1^9's 9! = 362,880 chain orbits, counted by brute force as the
    recursion counts them."""
    code, out, _ = run(capsys, "compute", "x".join(["A1"] * 9), "--method", "all")
    assert (code, out) == (cli.EXIT_OK, "recursion: 362880\nbruteforce: 362880\n"
                                        "closed: 362880\nagreement: ok\n")


def test_compute_disagreement_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form_value", lambda spec: 999)
    code, out, _ = run(capsys, "compute", "A3", "--method", "all")
    assert code == cli.EXIT_DISAGREE
    assert "MISMATCH" in out


def test_disputed_value_is_not_cached(capsys, monkeypatch, tmp_path):
    """A recursion value that --method all reports as MISMATCH is not
    written: a new cache file is not created, an old one keeps its bytes."""
    kept = tmp_path / "kept.json"
    assert run(capsys, "compute", "A2", "--cache", str(kept))[0] == cli.EXIT_OK
    before = kept.read_bytes()
    monkeypatch.setattr(cli, "closed_form_value", lambda spec: 999)
    fresh = tmp_path / "fresh.json"
    for path in (fresh, kept):
        code, out, _ = run(capsys, "compute", "A3", "--cache", str(path))
        assert code == cli.EXIT_DISAGREE and "MISMATCH" in out
    assert not fresh.exists()
    assert kept.read_bytes() == before


def _classifications(fn, *args):
    """fn(*args) and its calls of graphs.component_labels, under any name a
    module imported it by, and the graphs it classified: calls of
    graphs._classify, which classify_irreducible and component_labels both
    run once per graph or component."""
    names = {graphs.component_labels.__code__: "component_labels",
             graphs._classify.__code__: "classify"}
    calls, outer = Counter(), sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(outer)


def test_compute_classifies_the_spec_once(capsys):
    # the spec is read once, to labels, which every method takes as they
    # are: nothing classifies a graph
    (code, out, _), calls = _classifications(run, capsys, "compute", "A3")
    assert (code, out) == (cli.EXIT_OK,
                           "recursion: 2\nbruteforce: 2\nclosed: 2\nagreement: ok\n")
    assert calls == Counter()
    for method in ("bruteforce", "recursion", "closed"):
        (code, out, _), calls = _classifications(run, capsys, "compute", "D3xA1",
                                                 "--method", method)
        assert (code, out, calls) == (cli.EXIT_OK, "8\n", Counter()), method
    # a graph given to the library is classified once per component
    model, calls = _classifications(build_model, parse_group_spec("D3xA1"))
    assert len(model.factors) == 2
    assert calls == Counter(component_labels=1, classify=2)


def test_verify_required_brute_tier_classifies_nothing():
    args = cli.build_parser().parse_args(["verify"])
    check = dict(cli._verify_checks(args))["bruteforce-required-tier"]
    assert _classifications(check) == ((True, ""), Counter())


@pytest.mark.parametrize("method", ["bruteforce", "all"])
def test_closure_outside_the_root_lattice_ends_in_one_error_line(capsys, monkeypatch,
                                                                 method):
    scale_b2_short_root(monkeypatch)
    code, out, err = run(capsys, "compute", "B2", "--method", method)
    assert code == cli.EXIT_FAIL and out == ""
    assert err.startswith("error: B2: 2<v,a>/<a,a> for v = root ")
    assert err.endswith("left the root lattice\n") and err.count("\n") == 1


def test_root_count_certificate_ends_in_one_error_line(capsys, monkeypatch):
    add_a_line_to_type_a(monkeypatch)
    assert run(capsys, "compute", "A3", "--method", "bruteforce") == (
        cli.EXIT_FAIL, "", "error: A3: root closure found 6 lines, expected 7\n")
    assert run(capsys, "compute", "A3", "--method", "recursion") == (cli.EXIT_OK, "2\n", "")


def test_table_csv_contract_and_determinism(capsys):
    code, first, _ = run(capsys, "table", "--format", "csv", "--max-rank", "8")
    assert code == cli.EXIT_OK
    code, second, _ = run(capsys, "table", "--format", "csv", "--max-rank", "8")
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "family,rank_or_m,method,value"
    rows = {tuple(l.split(",")[:2]): l.split(",")[3] for l in lines[1:]}
    assert rows[("A", "6")] == "61"
    assert rows[("B", "5")] == "61"
    assert rows[("D", "8")] == "4792"
    assert rows[("barD", "8")] == "3407"
    assert rows[("E", "8")] == "4056"
    assert rows[("I2", "7")] == "1"


def test_closed_form_value_handles_products():
    assert cli.closed_form_value("B2xA1") == 6
    assert cli.closed_form_value("1") == 1


def test_closed_forms_run_no_code_of_the_recursion(capsys, monkeypatch):
    """`compute --method closed` shares no code with the recursion, so a
    fault there cannot make `--method all` agree wrongly: every function
    that `coxchains.recursion` defines raises, in that module and wherever
    cli binds it, and D12xB9xA7 still prints the recursion's value. cli
    glued the factors with the recursion's `multinomial`."""
    value = run(capsys, "compute", "D12xB9xA7", "--method", "recursion")[1]

    def broken(*args, **kwargs):
        raise RuntimeError("the recursion's code ran")

    for name, f in vars(recursion).copy().items():
        if inspect.isfunction(f) and f.__module__ == recursion.__name__:
            monkeypatch.setattr(recursion, name, broken)
            for bound, g in vars(cli).copy().items():
                if g is f:
                    monkeypatch.setattr(cli, bound, broken)
    assert run(capsys, "compute", "D12xB9xA7", "--method", "closed") == (cli.EXIT_OK, value, "")


def test_parity_check_reads_the_recursion(capsys, monkeypatch):
    """verify's parity check compares the recursion's K(D_n) - Kbar(D_n)
    with T_n, n <= 12: a recursion K(D6) off by one fails it, and `verify`
    exits 1. It compared two closed forms over the same zigzag numbers, so
    it passed."""
    k_value = recursion.KCalculator.k_value
    monkeypatch.setattr(recursion.KCalculator, "k_value",
                        lambda self, g: k_value(self, g) + (g == "D6"))
    check = dict(cli._verify_checks(cli.build_parser().parse_args(["verify"])))["parity"]
    assert check() == (False, "d_6 - bar d_6 = 62, expected 61")
    code, out, _ = run(capsys, "verify")
    assert code == cli.EXIT_FAIL
    assert re.search(r"^FAIL  parity +\d+\.\d\ds  d_6 - bar d_6 = 62, expected 61$", out, re.M)


def test_cache_cold_then_warm_identical(capsys, tmp_path):
    cache = str(tmp_path / "k.json")
    code, cold, _ = run(capsys, "compute", "E8", "--method", "recursion",
                        "--cache", cache)
    assert code == cli.EXIT_OK
    with open(cache, "rb") as fh:
        written = fh.read()
    data = json.loads(written)
    assert data.keys() == {"engine_version", "results"}
    assert data["engine_version"] == cli.ENGINE_VERSION == 3
    assert data["results"]["E8"] == {"value": "4056"}
    assert all(entry.keys() == {"value"} for entry in data["results"].values())
    code, warm, _ = run(capsys, "compute", "E8", "--method", "recursion",
                        "--cache", cache)
    assert cold == warm
    with open(cache, "rb") as fh:
        assert fh.read() == written


def test_cache_env_variable(capsys, tmp_path, monkeypatch):
    """COXETER_CACHE is not read: the cache file is the one --cache names,
    so with the variable set compute writes no file and prints what it
    prints without it."""
    cache = tmp_path / "env.json"
    plain = run(capsys, "compute", "E6", "--method", "recursion")
    monkeypatch.setenv("COXETER_CACHE", str(cache))
    assert run(capsys, "compute", "E6", "--method", "recursion") == plain
    assert plain == (cli.EXIT_OK, "82\n", "")
    assert not cache.exists()


def test_stale_engine_version_ignored(capsys, tmp_path):
    """A file of another engine version is ignored without a warning and
    rewritten as values: version 2's breakdown entries were trusted when
    they agreed with their own terms, and are not read now."""
    cache = tmp_path / "stale.json"
    for version, e6 in ((-1, {"value": "7777", "method": "summ2", "terms": []}),
                        (2, {"value": "7", "method": "summ2", "terms": [["a", "7"]]})):
        write_cache(cache, {"E6": e6}, version=version)
        code, out, err = run(capsys, "compute", "E6", "--method", "recursion",
                             "--cache", str(cache))
        assert (code, out, err) == (cli.EXIT_OK, "82\n", ""), version
        data = json.loads(cache.read_text())
        assert data["engine_version"] == 3 and data["results"]["E6"] == {"value": "82"}


def test_export_lattice(capsys, tmp_path):
    out_path = tmp_path / "a3.json"
    code = cli.main(["export-lattice", "A3", str(out_path), "--include-model"])
    assert code == cli.EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["group"] == "A3"
    assert payload["lattice"]["rank_sizes"] == [1, 6, 7, 1]
    assert payload["model"]["kind"] == "matrix"
    assert len(payload["model"]["roots"]) == 6


def test_export_lattice_unsupported(capsys, tmp_path):
    """Brute force's refusal in one line, with no hint: the recursion
    exports no lattice."""
    code, out, err = run(capsys, "export-lattice", "E8", str(tmp_path / "x.json"))
    assert (code, out, err) == (cli.EXIT_UNSUPPORTED, "",
                                "error: group order of E8 exceeds the element cap 100000\n")
    assert not (tmp_path / "x.json").exists()


def test_export_lattice_unwritable_path(capsys, tmp_path):
    code = cli.main(["export-lattice", "A2", str(tmp_path / "missing" / "x.json")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


def test_export_lattice_product_keys(capsys, tmp_path):
    out_path = tmp_path / "b2a1.json"
    assert cli.main(["export-lattice", "B2xA1", str(out_path)]) == cli.EXIT_OK
    elements = json.loads(out_path.read_text())["lattice"]["elements"]
    b2 = build_lattice(build_model("B2"))
    a1 = build_lattice(build_model("A1"))
    keys = [tuple(e["key"]) for e in elements]
    assert all(len(k) == 2 and all(type(i) is int for i in k) for k in keys)
    assert len(set(keys)) == len(keys) == len(b2.elements) * len(a1.elements)
    for e in elements:
        i, j = e["key"]
        assert e["codim"] == b2.rank[i] + a1.rank[j]


@pytest.mark.parametrize("spec, digest", [
    ("A3", "aefee1a558fa56d3b11259c26880e73e4dfdf2f13ac6e0eeb44c2fa8efc170d4"),
    ("H3", "a72820cbc225a91065f52eaad6e2b4a2e8776a8885f1c9de257c1ce450f020f5"),
    ("I2(5)", "179cdad4712350406012049ff53dc3c940ad18debd9d339a8dd207a8f697e7f2"),
    ("B2xA1", "34f54efdeae59f99903b9c3c0321ac08345ec1b010adbbdccf3042ca4d0ab82f"),
    ("A2xA1xA1", "817742193d7a1bfed980a8d1911452111c7b77186a5e15e0c6cf17b9f8d56bbc"),
    ("I2(5)xA2xA1", "649951ed59e0db78c2b729f39d6cdef51724f32bead636d969c113408a7575a2"),
    ("A2xA2xA2xA2", "560caf61f51ab91f6c6f610ac92a222503570abd0ebb59ace2c73d91912d86f9"),
])
def test_export_lattice_builds_no_action_table(spec, digest, capsys, tmp_path,
                                               monkeypatch):
    def no_stabiliser(*args):
        raise AssertionError("export-lattice closed a stabiliser")

    monkeypatch.setattr(lattice, "_stabiliser", no_stabiliser)
    out_path = tmp_path / "out.json"
    assert cli.main(["export-lattice", spec, str(out_path),
                     "--include-model"]) == cli.EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_failed_certificate_ends_in_one_error_line(capsys, monkeypatch):
    """A lattice certificate that fails ends in one error line and exit 1,
    not a traceback: here a closure that finds no covers."""
    monkeypatch.setattr(lattice, "_closure", lambda lines, base, mask, span: [])
    code, out, err = run(capsys, "compute", "A3", "--method", "bruteforce")
    assert code == cli.EXIT_FAIL and out == ""
    assert err == "error: a root off a flat lies in none of its covers\n"


def write_cache(path, results, version=None):
    data = {"engine_version": cli.ENGINE_VERSION if version is None else version,
            "results": results}
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("content, reason", [
    (f'{{"engine_version": {cli.ENGINE_VERSION}, "results": {{"A3": {{"val',
     "unreadable"),
    (f'{{"engine_version": {cli.ENGINE_VERSION}, "results": []}}',
     '"results" is not an object'),
    ("[1, 2]", "the top level is not an object"),
], ids=["truncated", "results-list", "top-level-array"])
def test_unreadable_cache_file_is_ignored_with_warning(capsys, tmp_path, content, reason):
    cache = tmp_path / "c.json"
    cache.write_text(content)
    code, out, err = run(capsys, "compute", "A3", "--method", "recursion",
                         "--cache", str(cache))
    assert code == cli.EXIT_OK
    assert out.strip() == "2"
    assert len(err.splitlines()) == 1
    assert err.startswith("warning: ignoring cache file") and reason in err


@pytest.mark.parametrize("depth", [990, 100_000])
def test_nested_cache_file_is_ignored_with_one_warning(capsys, tmp_path, depth):
    """A file of nested lists deeper than the JSON decoder recurses (990, 2 KB,
    is past it as a command on Python 3.11) is not a cache: one warning line,
    not a traceback, and the value is computed."""
    cache = tmp_path / "c.json"
    cache.write_text("[" * depth + "]" * depth)
    code, out, err = run(capsys, "compute", "A3", "--method", "recursion",
                         "--cache", str(cache))
    assert (code, out) == (cli.EXIT_OK, "2\n")
    assert err.startswith(f"warning: ignoring cache file {cache}: ") and err.count("\n") == 1
    if depth > 10_000:  # past every Python's decoder
        assert f"{cache}: unreadable (" in err


def test_ill_typed_cache_entry_is_dropped(capsys, tmp_path):
    cache = tmp_path / "c.json"
    write_cache(cache, {"A3": {"value": "x"}, "A1": {"value": "1"}})
    code, out, err = run(capsys, "compute", "A3", "--method", "recursion",
                         "--cache", str(cache))
    assert code == cli.EXIT_OK
    assert out.strip() == "2"
    assert len(err.splitlines()) == 1 and "A3" in err and "A1" not in err
    # the rewrite replaces the dropped entry with the recursion's value
    assert json.loads(cache.read_text())["results"] == {
        "A1": {"value": "1"}, "A2": {"value": "1"}, "A3": {"value": "2"}}


@pytest.mark.parametrize("value", [82.7, True, "1_0", 82, " 82", "+82", "\u0668\u0662", None])
def test_cache_value_that_is_no_decimal_string_is_dropped(value, capsys, tmp_path):
    """A value is read only from a string of ASCII digits. Anything else,
    where `int` read 82.7 as 82, true as 1 and "1_0" as 10, is dropped with
    one warning line naming its entry."""
    cache = tmp_path / "c.json"
    write_cache(cache, {"E6": {"value": value}})
    code, out, err = run(capsys, "compute", "E6", "--method", "recursion", "--cache", str(cache))
    assert (code, out) == (cli.EXIT_OK, "82\n")
    assert err.startswith(f"warning: dropped bad entries from cache file {cache}: E6 (")
    assert err.count("\n") == 1


def test_poisoned_cache_entry_is_not_printed(capsys, tmp_path):
    """A wrong value of the queried type is neither printed nor trusted: the
    request ends in one error line naming it, and the file keeps its bytes."""
    cache = tmp_path / "c.json"
    write_cache(cache, {"A3": {"value": "7"}})
    before = cache.read_bytes()
    code, out, err = run(capsys, "compute", "A3", "--method", "recursion",
                         "--cache", str(cache))
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err == "error: cached K(A3) = 7 disagrees with the recursion, which gives 2\n"
    assert cache.read_bytes() == before


def e6_set_to_7(capsys, path) -> dict:
    """A cache file written by `compute E7`, with E6's value set to 7."""
    run(capsys, "compute", "E7", "--method", "recursion", "--cache", str(path))
    data = json.loads(path.read_text())
    data["results"]["E6"] = {"value": "7"}
    path.write_text(json.dumps(data))
    return data


@pytest.mark.parametrize("spec, value, rebuilt", [("E6", 7, 82), ("E7", 768, 693)])
def test_cache_entry_contradicting_the_entries_below_ends_in_one_error(
        capsys, tmp_path, spec, value, rebuilt):
    """E6 set to 7 in a file written by `compute E7`: the file's K(spec) is
    value, and spec's terms over the file's entries below it give rebuilt
    (82 from E6's right terms, 693 from E6 = 7). The file is not read into
    the recursion: a query of E6 or E7 runs cold and ends in one error line
    naming E6, with exit 1."""
    cache = tmp_path / "c.json"
    assert e6_set_to_7(capsys, cache)["results"][spec] == {"value": str(value)}
    before = cache.read_bytes()
    code, out, err = run(capsys, "compute", spec, "--cache", str(cache))
    assert code == cli.EXIT_FAIL
    assert out == ""
    assert err == "error: cached K(E6) = 7 disagrees with the recursion, which gives 82\n"
    assert cache.read_bytes() == before


@pytest.mark.parametrize("query, results, wrong", [
    ("A3", {"A3": {"value": "7"}}, ("A3", 7, 2)),
    ("A3xA1", {"A3": {"value": "7"}}, ("A3", 7, 2)),
    ("A3", {"A1": {"value": "7"}}, ("A1", 7, 1)),
    # a file with the breakdown fields of engine version 2: they are not read
    ("A3", {"A3": {"value": "2", "method": "guess", "terms": [["a", "7"]]},
            "A2": {"value": "7", "method": "summ2", "terms": [["a", "7"]]}}, ("A2", 7, 1)),
], ids=["summ", "product", "base-case", "unknown-method"])
def test_cache_entry_contradicting_its_terms_is_dropped(capsys, tmp_path, query,
                                                        results, wrong):
    """A well-typed wrong value, of a sum of terms, a product's factor, a
    base case or beside fields of any kind, is caught by the cold recursion:
    the request ends in one error line and leaves the file alone."""
    cache = tmp_path / "c.json"
    write_cache(cache, results)
    before = cache.read_bytes()
    code, out, err = run(capsys, "compute", query, "--method", "recursion",
                         "--cache", str(cache))
    assert (code, out) == (cli.EXIT_FAIL, "")
    spec, cached, fresh = wrong
    assert err == (f"error: cached K({spec}) = {cached} disagrees with the recursion, "
                   f"which gives {fresh}\n")
    assert cache.read_bytes() == before


def test_cache_write_uses_private_temp_file(capsys, tmp_path):
    cache = tmp_path / "c.json"
    # a leftover at the old shared temp name must not stop the write
    (tmp_path / "c.json.tmp").mkdir()
    umask = os.umask(0o022)
    try:
        code, out, err = run(capsys, "compute", "A3", "--method", "recursion",
                             "--cache", str(cache))
    finally:
        os.umask(umask)
    assert code == cli.EXIT_OK and err == ""
    assert stat.S_IMODE(cache.stat().st_mode) == 0o644
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "c.json.tmp"]


def test_unwritable_cache_path_warns(capsys, tmp_path):
    cache = tmp_path / "missing-dir" / "c.json"
    code, out, err = run(capsys, "compute", "A3", "--method", "recursion",
                         "--cache", str(cache))
    assert code == cli.EXIT_OK
    assert out.strip() == "2"
    assert err.startswith("warning: could not write cache file")


@pytest.mark.parametrize("argv", [
    ["table", "--max-rank", "-1"],
    ["table", "--max-rank", "-5", "--format", "csv"],
    ["table", "--max-rank", "-5"],
])
def test_out_of_range_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_PARSE
    assert "must be >=" in err and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_past_the_closed_forms_bound_is_a_usage_error(capsys, fmt):
    bound = cli.RANK_BOUNDS["closed"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--max-rank", str(bound + 1), "--format", fmt])
    assert exc.value.code == cli.EXIT_PARSE
    assert f"must be <= {bound}, got {bound + 1}" in capsys.readouterr().err


@pytest.mark.parametrize("method, line", [
    ("recursion", "past the recursion method's bound of 800"),
    ("closed", "past the closed method's bound of 2000"),
])
def test_compute_past_the_rank_bounds_is_refused_at_once(capsys, method, line):
    """A rank sum past a method's bound is refused from the labels in one
    error line, with exit 3."""
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "D1000000", "--method", method)
    assert time.perf_counter() - start < 0.5
    assert (code, out, err) == (cli.EXIT_UNSUPPORTED, "",
                                f"error: D1000000 has rank sum 1000000, {line}\n")


def test_compute_all_skips_the_methods_past_their_bounds(capsys, tmp_path):
    """D800xA1 is past the recursion's bound only, and far past brute
    force's cap: --method all prints the closed form alone, says that no
    second method checked it (json leaves `agreement` out) and opens no
    cache file. A rank sum at the bound runs the recursion."""
    cache = tmp_path / "k.json"
    value = cli.closed_form_value("D800xA1")
    code, out, err = run(capsys, "compute", "D800xA1", "--cache", str(cache))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == f"closed: {value}\nagreement: one method\n"
    assert not cache.exists()
    code, out, err = run(capsys, "compute", "D800xA1", "--format", "json")
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out) == {"group": "A1xD800", "results": {"closed": str(value)}}
    code, out, _ = run(capsys, "compute", "A400xB400", "--method", "recursion")
    assert (code, out) == (cli.EXIT_OK, f"{cli.closed_form_value('A400xB400')}\n")


A1_17 = "x".join(["A1"] * 17)
HINT = "; use the recursion method instead"
BRUTE_CAP = "error: group order of {} exceeds the element cap 100000"
PAST = "error: {} has rank sum {}, past the {} method's bound of {}"
# (spec, method) -> stderr of a refusal; every other pair runs with no stderr
REFUSAL_LINES = {
    ("E7", "bruteforce"): BRUTE_CAP.format("E7") + HINT,
    ("I2(31)", "bruteforce"): "error: I2(31) exceeds the supported dihedral range (m <= 30)"
                              + HINT,
    ("D801", "recursion"): PAST.format("D801", 801, "recursion", 800),
    ("D801", "bruteforce"): BRUTE_CAP.format("D801"),
    ("D1000000", "recursion"): PAST.format("D1000000", 1000000, "recursion", 800),
    ("D1000000", "bruteforce"): BRUTE_CAP.format("D1000000"),
    ("D1000000", "closed"): PAST.format("D1000000", 1000000, "closed", 2000),
    ("D1000000", "all"): "error: D1000000 has rank sum 1000000, past the recursion method's "
                         "bound of 800; group order of D1000000 exceeds the element cap "
                         "100000; D1000000 has rank sum 1000000, past the closed method's "
                         "bound of 2000",
    (A1_17, "bruteforce"): BRUTE_CAP.format(A1_17) + HINT,
}


@pytest.mark.parametrize("spec, method", [
    pytest.param(spec, method, id=f"{'A1^17' if spec == A1_17 else spec}-{method}")
    for spec in ("E7", "I2(31)", "D801", "D1000000", A1_17)
    for method in ("recursion", "bruteforce", "closed", "all")])
def test_compute_refusal_lines(capsys, spec, method):
    """Every requested method refusing ends in one line, exit 3: the reasons
    in the order --method all prints the methods, joined by "; ", and a hint
    to the recursion only where the recursion admits the spec. Where a
    requested method admits the spec, it runs and stderr stays empty."""
    code, _, err = run(capsys, "compute", spec, "--method", method)
    line = REFUSAL_LINES.get((spec, method))
    assert (code, err) == ((cli.EXIT_UNSUPPORTED, line + "\n") if line else (cli.EXIT_OK, ""))


class ReachedBuildModel(Exception):
    pass


def test_bruteforce_refuses_exactly_what_models_refuses(capsys, monkeypatch):
    """Over every product of up to three labels from a set on both sides of
    brute force's rule, compute --method bruteforce exits 3 exactly when
    `models.bruteforce_refusal` refuses, and reaches `build_model` only when
    it does not."""
    def build_model(labels):
        raise ReachedBuildModel

    monkeypatch.setattr(cli, "build_model", build_model)
    names = ["A1", "A3", "B5", "B3", "E7", "E8", "I2(31)", "D801"]
    refused = 0
    for k in (1, 2, 3):
        for spec in map("x".join, itertools.product(names, repeat=k)):
            reason = models.bruteforce_refusal(parse_labels(spec))
            if reason is None:
                with pytest.raises(ReachedBuildModel):
                    cli.main(["compute", spec, "--method", "bruteforce"])
                continue
            code, out, err = run(capsys, "compute", spec, "--method", "bruteforce")
            assert (code, out) == (cli.EXIT_UNSUPPORTED, ""), spec
            assert err.startswith(f"error: {reason}") and err.count("\n") == 1, spec
            refused += 1
    assert 0 < refused < 8 + 8 ** 2 + 8 ** 3


@pytest.mark.parametrize("command", [["compute", "A3"], ["verify"]])
def test_workers_flag_is_a_usage_error(capsys, command):
    """Brute force runs in one process, so compute and verify take no
    --workers: asking for workers is a usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--workers", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments: --workers 2" in err and "Traceback" not in err


def test_verify_cache_flag_is_a_usage_error(capsys, tmp_path):
    """Only compute reads a cache file: verify takes no --cache."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--cache", str(tmp_path / "k.json")])
    err = capsys.readouterr().err
    assert exc.value.code == cli.EXIT_PARSE
    assert "unrecognized arguments: --cache" in err and "Traceback" not in err
    assert not (tmp_path / "k.json").exists()


def test_no_command_starts_a_worker_pool(capsys, monkeypatch):
    """compute on a product of many atom orbits and verify's whole-lattice
    tiers scan in one process: the worker pool is never reached."""
    def pool(*args):
        raise AssertionError("a command started a worker pool")

    monkeypatch.setattr(lattice, "_in_workers", pool)
    for argv in (["compute", "D4xD4"], ["compute", "x".join(["A1"] * 12)],
                 ["verify", "--deep"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (cli.EXIT_OK, ""), argv
        assert "FAIL" not in out and "MISMATCH" not in out, argv


def test_warm_request_leaves_cache_file_untouched(capsys, tmp_path):
    cache = tmp_path / "c.json"
    run(capsys, "compute", "E6", "--method", "recursion", "--cache", str(cache))
    before = cache.stat().st_ino  # a rewrite replaces the file
    # D5 is a parabolic subgroup of E6, so its value is already cached
    code, out, _ = run(capsys, "compute", "D5", "--method", "recursion",
                       "--cache", str(cache))
    assert code == cli.EXIT_OK and out.strip() == "26"
    assert cache.stat().st_ino == before
    run(capsys, "compute", "E7", "--method", "recursion", "--cache", str(cache))
    assert "E7" in json.loads(cache.read_text())["results"]


@pytest.mark.parametrize("spec", ["E8", "E6xA1"])
def test_wrong_entry_below_a_cold_type_ends_in_one_error(capsys, tmp_path, spec):
    """E8 and E6xA1 are computed on top of E6; its wrong cached value is
    caught by the recursion, not trusted into a wrong answer with exit 0."""
    cache = tmp_path / "c.json"
    e6_set_to_7(capsys, cache)
    before = cache.read_bytes()
    code, out, err = run(capsys, "compute", spec, "--method", "recursion",
                         "--cache", str(cache))
    assert (code, out) == (cli.EXIT_FAIL, "")
    assert err == "error: cached K(E6) = 7 disagrees with the recursion, which gives 82\n"
    assert cache.read_bytes() == before


def test_entry_a_request_does_not_compute_is_not_compared(capsys, tmp_path):
    cache = tmp_path / "c.json"
    e6_set_to_7(capsys, cache)
    before = cache.read_bytes()
    code, out, err = run(capsys, "compute", "D5", "--cache", str(cache))
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == "recursion: 26\nbruteforce: 26\nclosed: 26\nagreement: ok\n"
    assert cache.read_bytes() == before


@pytest.mark.parametrize("method", ["closed", "bruteforce"])
def test_request_without_recursion_touches_no_cache_file(capsys, tmp_path, method):
    """Only a request that runs the recursion reads or writes --cache: with
    closed forms or brute force, a new file is not created, an unwritable
    path and an unreadable file give no warning."""
    plain = run(capsys, "compute", "B2", "--method", method)
    assert plain == (cli.EXIT_OK, "2\n", "")
    unreadable = tmp_path / "bad.json"
    unreadable.write_text("[1, 2]")
    for path in (tmp_path / "new.json", tmp_path / "missing-dir" / "c.json", unreadable):
        assert run(capsys, "compute", "B2", "--method", method,
                   "--cache", str(path)) == plain, path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]
    assert unreadable.read_text() == "[1, 2]"


@pytest.mark.parametrize("spec", ["A3xA6", "A6xA3"])
def test_product_breakdown_does_not_depend_on_cache_history(capsys, tmp_path, spec):
    argv = ["compute", spec, "--method", "recursion", "--format", "json"]
    _, want, _ = run(capsys, *argv)
    for earlier in (None, "D10", "A10"):
        cache = str(tmp_path / f"after-{earlier}.json")
        if earlier:
            run(capsys, "compute", earlier, "--method", "recursion",
                "--cache", cache)
        code, out, err = run(capsys, *argv, "--cache", cache)
        assert code == cli.EXIT_OK and err == ""
        assert out == want, earlier


def test_cache_holds_irreducible_types_only(capsys, tmp_path):
    cache = tmp_path / "c.json"
    for spec in ("A30", "B30", "D30"):
        run(capsys, "compute", spec, "--method", "recursion", "--cache", str(cache))
    keys = json.loads(cache.read_text())["results"]
    # A1-A30, B2-B30 and D4-D30
    assert len(keys) == 86
    assert all(len(component_labels(parse_group_spec(k))) == 1 for k in keys)
    before = cache.read_bytes()
    code, out, _ = run(capsys, "compute", "A5xB7xD6", "--method", "recursion",
                       "--cache", str(cache))
    assert code == cli.EXIT_OK
    assert out.strip() == str(cli.closed_form_value("A5xB7xD6"))
    assert cache.read_bytes() == before


def test_cache_entries_are_fresh_breakdowns(capsys, tmp_path):
    """The file holds values only, and each entry equals a fresh
    calculator's value of its type."""
    cache = tmp_path / "c.json"
    for spec in ("A30", "B30", "D30", "E6", "H4"):
        run(capsys, "compute", spec, "--method", "recursion", "--cache", str(cache))
    results = json.loads(cache.read_text())["results"]
    assert {"A30", "B30", "D30", "E6", "D5", "H4", "H3"} <= results.keys()
    for key, entry in results.items():
        assert entry == {"value": str(cli.KCalculator().k_value(key))}, key


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer string-conversion limit")
def test_values_past_the_int_string_digit_limit(capsys, tmp_path):
    want = str(euler_numbers(400)[400])  # 791 digits
    cache = str(tmp_path / "c.json")
    limit = sys.get_int_max_str_digits()
    try:
        for argv in (["compute", "A400", "--method", "closed"],
                     ["compute", "A400", "--method", "recursion", "--cache", cache],
                     ["compute", "A400", "--method", "recursion", "--cache", cache],
                     ["table", "--max-rank", "400", "--format", "csv"]):
            sys.set_int_max_str_digits(640)
            code, out, err = run(capsys, *argv)
            assert code == cli.EXIT_OK and err == "", argv
            lines = out.splitlines()
            assert want in lines or f"A,400,closed,{want}" in lines, argv
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer string-conversion limit")
def test_main_restores_the_callers_digit_limit(capsys):
    """main lifts the limit for its own call only: after a success, a usage
    error and --version the caller's limit is back in place."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert run(capsys, "compute", "A3", "--method", "closed")[:2] == (0, "2\n")
        assert sys.get_int_max_str_digits() == 640
        for argv, code in ((["table", "--max-rank", "-5"], cli.EXIT_PARSE),
                           (["--version"], cli.EXIT_OK)):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == code, argv
            assert sys.get_int_max_str_digits() == 640, argv
    finally:
        sys.set_int_max_str_digits(limit)


def test_one_parser_per_process(capsys, monkeypatch):
    """main builds its parser, the top level and four subcommands, on its
    first call and reuses it on every later one."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["compute", "A3", "--method", "closed"], ["table", "--max-rank", "2"],
                 ["compute", "E6", "--method", "recursion"]):
        assert run(capsys, *argv)[0] == cli.EXIT_OK
    assert len(built) == 5


def test_shared_parser_carries_nothing_between_calls(capsys, tmp_path, monkeypatch):
    """A sequence of main calls in one process prints, byte for byte, what
    each call prints in a fresh process, and the calls without --cache leave
    the cache file alone."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    sequence = [["compute", "A3", "--format", "json", "--method", "recursion",
                 "--cache", "c.json"],
                ["compute", "A3"],
                ["table", "--max-rank", "-5"],
                ["--version"],
                ["table", "--max-rank", "3", "--format", "csv"],
                ["compute", "A3"]]
    monkeypatch.chdir(here)
    cache = here / "c.json"
    codes, stamp = [], None
    for argv in sequence:
        try:
            got = run(capsys, *argv)
        except SystemExit as exc:
            out = capsys.readouterr()
            got = (exc.code, out.out, out.err)
        proc = subprocess.run([sys.executable, "-m", "coxchains.cli", *argv], cwd=fresh,
                              capture_output=True, text=True, env=env, timeout=60)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(got[0])
        if stamp is not None:
            assert (cache.read_bytes(), cache.stat().st_mtime_ns) == stamp, argv
        stamp = (cache.read_bytes(), cache.stat().st_mtime_ns)
    assert codes == [0, 0, cli.EXIT_PARSE, 0, 0, 0]
    assert cache.read_bytes() == (fresh / "c.json").read_bytes()


def test_closed_pipe_ends_quietly_with_exit_141():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "coxchains.cli", "table", "--max-rank", "400",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"family,rank_or_m,method,value\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
