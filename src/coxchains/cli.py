"""Command-line front end.

Commands: compute, table, verify, export-lattice. Exit codes are part of
the contract: 0 success, 2 parse or usage error (an invalid flag, an
unwritable export path), 3 brute force unsupported for the requested type,
4 method disagreement, 1 verification failure or a failed certificate or
cached value (one error line), 141 (128 + SIGPIPE, what a shell reports
for a filter) when the reader of standard output closed it early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time

from . import __version__
from .graphs import (
    GroupSpecError,
    TypeLabel,
    parse_group_spec,  # noqa: F401  (perfbench's tracer patches it here)
    parse_labels,
    spec_of_labels,
)
from .lattice import (
    build_lattice,
    build_lattice_with_action,  # noqa: F401  (perfbench's tracer patches it here)
    count_chain_and_line_orbits_lazily,
    count_chain_orbits,  # noqa: F401  (perfbench's tracer patches it here)
    count_chain_orbits_lazily,
    lattice_to_json,
    orbit_count_of_lines,  # noqa: F401  (perfbench's tracer patches it here)
)
from .models import UnsupportedModelError, build_model, model_to_json
from .recursion import KCalculator
from .series import (
    _d_closed_forms,
    bar_d_closed_form,
    euler_numbers,
    euler_numbers_from_series,
    k_closed_form,
    verify_identities,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_DISAGREE = 4
EXIT_BROKEN_PIPE = 141

REQUIRED_BRUTE_TIER = (
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "H3"]
    + [f"I2({m})" for m in range(3, 13)]
    + ["A1xA1", "A2xA1", "B2xA1"]
)
DEEP_BRUTE_TIER = ["A5", "B5", "D5", "F4", "E6", "H4"]


def closed_form_value(spec) -> int:
    """Closed-form K of a spec string or of its component labels: the
    components' closed forms times the shuffles of their ranks r_i,
    (r_1 + ... + r_k)! / (r_1! ... r_k!), with no code of the recursion."""
    labels = parse_labels(spec) if isinstance(spec, str) else spec
    ranks = [t.coxeter_rank for t in labels]
    shuffles = math.factorial(sum(ranks)) // math.prod(map(math.factorial, ranks))
    return shuffles * math.prod(map(k_closed_form, labels))


ENGINE_VERSION = 3


class DiskCache:
    """JSON record of recursion values, one `{"value": "<decimal>"}` entry
    per irreducible type, stamped with the engine version so that stale
    files are ignored. The values are checked, never trusted: `check`
    compares them with a cold recursion's memo. A file that cannot be read
    as a cache is ignored, and an entry whose value is not a string of ASCII
    digits dropped, each with a one-line warning on stderr; `rejected`
    keeps what was ignored.
    """

    def __init__(self, path: str):
        self.path = path
        self.rejected = []
        self.values = self._load()  # type name -> int, as read

    def _load(self) -> dict:
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            return self._ignore_file(f"unreadable ({exc})")
        if not isinstance(data, dict):
            return self._ignore_file("the top level is not an object")
        if data.get("engine_version") != ENGINE_VERSION:
            return {}
        results = data.get("results", {})
        if not isinstance(results, dict):
            return self._ignore_file('"results" is not an object')
        values = {}
        for spec, entry in results.items():
            try:
                value = entry["value"]
                if not (isinstance(value, str) and value.isascii() and value.isdigit()):
                    raise ValueError(f"{value!r} is not a decimal string")
                values[spec] = int(value)
            except (KeyError, TypeError, ValueError) as exc:
                self.rejected.append(f"{spec} ({type(exc).__name__}: {exc})")
        if self.rejected:
            _warn(f"dropped bad entries from cache file {self.path}: "
                  + "; ".join(self.rejected))
        return values

    def _ignore_file(self, why: str) -> dict:
        self.rejected.append(f"the whole file ({why})")
        _warn(f"ignoring cache file {self.path}: {why}")
        return {}

    def check(self, memo: dict):
        """Raise if a memo entry that the file holds disagrees with it."""
        for spec, value in memo.items():
            if self.values.get(spec, value) != value:
                raise AssertionError(f"cached K({spec}) = {self.values[spec]} "
                                     f"disagrees with the recursion, which gives {value}")

    def save_from(self, memo: dict):
        """Rewrite the file if the memo holds a type that it lacks."""
        if memo.keys() <= self.values.keys():
            return
        results = {spec: {"value": str(v)} for spec, v in {**self.values, **memo}.items()}
        data = {"engine_version": ENGINE_VERSION, "results": results}
        umask = os.umask(0)
        os.umask(umask)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(self.path)),
                prefix=os.path.basename(self.path) + ".", suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(data, fh, indent=1, sort_keys=True)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, self.path)
        except OSError as exc:
            _warn(f"could not write cache file {self.path}: {exc}")
        finally:
            if tmp is not None and os.path.exists(tmp):
                os.unlink(tmp)


def _warn(message: str):
    print(f"warning: {message}", file=sys.stderr)


def cmd_compute(args) -> int:
    try:
        labels = parse_labels(args.spec)
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    spec = spec_of_labels(labels)
    results = {}
    detail = cache = None
    if args.method in ("recursion", "all"):
        calc = KCalculator()
        detail = calc.k_labels(labels)
        results["recursion"] = detail.value
        if args.cache:  # only a request that runs the recursion reads the file
            cache = DiskCache(args.cache)
            cache.check(calc.memo)
    if args.method in ("closed", "all"):
        results["closed"] = closed_form_value(labels)
    if args.method in ("bruteforce", "all"):
        try:
            results["bruteforce"] = count_chain_orbits_lazily(build_model(labels)).orbit_count
        except UnsupportedModelError as exc:
            if args.method == "bruteforce":
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_UNSUPPORTED
    agree = len(set(results.values())) <= 1
    if cache and agree:  # a value the methods dispute is not stored
        cache.save_from(calc.memo)
    if args.format == "json":
        payload = {
            "group": spec,
            "results": {m: str(v) for m, v in sorted(results.items())},
            "agreement": agree,
        }
        if detail is not None:
            payload["recursion_detail"] = detail.to_json_dict(spec)
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif args.method == "all":
        for m in ("recursion", "bruteforce", "closed"):
            if m in results:
                print(f"{m}: {results[m]}")
        print("agreement: " + ("ok" if agree else "MISMATCH"))
    else:
        print(next(iter(results.values())))
    if not agree:
        return EXIT_DISAGREE
    return EXIT_OK


def _table_rows(max_rank: int):
    t = euler_numbers(max_rank + 2)
    rows = []
    for n in range(0, max_rank + 1):
        rows.append(("A", n, t[n]))
    for n in range(2, max_rank + 1):
        rows.append(("B", n, t[n + 1]))
    ds = [_d_closed_forms(t, n) for n in range(2, max_rank + 1)]
    rows += [("D", n, d) for n, (d, _) in enumerate(ds, 2)]
    rows += [("barD", n, bar) for n, (_, bar) in enumerate(ds, 2)]
    for name in ("E6", "E7", "E8", "F4", "H3", "H4"):
        rows.append((name[0], int(name[1]), k_closed_form(TypeLabel(name[0], int(name[1])))))
    for m in range(3, max_rank + 1):
        rows.append(("I2", m, k_closed_form(TypeLabel("I2", m))))
    return rows


def cmd_table(args) -> int:
    rows = _table_rows(args.max_rank)
    if args.format == "csv":
        print("family,rank_or_m,method,value")
        for fam, n, v in rows:
            print(f"{fam},{n},closed,{v}")
    elif args.format == "json":
        print(json.dumps(
            [{"family": fam, "rank_or_m": n, "method": "closed", "value": str(v)}
             for fam, n, v in rows],
            indent=1,
        ))
    else:
        width = max(len(str(v)) for _, _, v in rows)
        for fam, n, v in rows:
            print(f"{fam:>4} {n:>3}  {v:>{width}}")
    return EXIT_OK


def _verify_checks(args):
    cache = DiskCache(args.cache) if args.cache else None
    fresh = KCalculator()

    def egf_identities():
        bad = [c for c in verify_identities(20) if not c.passed]
        return not bad, "; ".join(
            f"{c.name} differs first at index {c.first_mismatch}" for c in bad
        )

    def seidel_vs_series():
        t = euler_numbers(40)
        s = euler_numbers_from_series(40)
        return t == s, f"seidel {t[:8]}... vs series {s[:8]}..."

    def closed_vs_recursion():
        labels = [TypeLabel("A", n) for n in range(1, 41)]
        labels += [TypeLabel("B", n) for n in range(2, 41)]
        labels += [TypeLabel("D", n) for n in range(4, 41)]
        labels += [TypeLabel("I2", m) for m in range(3, 31)]
        labels += [TypeLabel(f[0], int(f[1])) for f in ("E6", "E7", "E8", "F4", "H3", "H4")]
        for t in labels:
            rec = fresh.k_labels([t]).value
            clo = k_closed_form(t)
            if rec != clo:
                return False, f"{t}: recursion {rec} != closed {clo}"
        return True, ""

    def bar_d_check():
        for n in range(2, 41):
            rec = fresh.k_bar(n)  # cross-checks the closed form internally
            if rec != bar_d_closed_form(n):
                return False, f"bar d_{n} mismatch"
        return True, ""

    def parity_check():
        t = euler_numbers(12)
        for n in range(2, 13):
            d = fresh.k_value(f"D{n}")
            bar = fresh.k_bar(n)
            want = t[n] if n % 2 == 0 else 0
            if d - bar != want:
                return False, f"d_{n} - bar d_{n} = {d - bar}, expected {want}"
        return True, ""

    def brute_tier(specs):
        for spec in specs:
            labels = parse_labels(spec)
            brute, lines = count_chain_and_line_orbits_lazily(build_model(labels))
            rec = fresh.k_labels(labels)
            if brute.orbit_count != rec.value:
                return False, (f"{spec}: bruteforce {brute.orbit_count} != recursion "
                               f"{rec.value}; terms {rec.terms}")
            if len(labels) == 1 and labels[0].coxeter_rank >= 2 and lines != len(rec.terms):
                return False, f"{spec}: {lines} line orbits vs {len(rec.terms)} recursion terms"
        return True, ""

    def cache_consistency():
        if not cache or not os.path.exists(cache.path):
            return True, "no cache file"
        bad = [f"ignored {r}" for r in cache.rejected]
        for spec, value in cache.values.items():
            try:
                if fresh.k_value(spec) != value:
                    bad.append(f"cached K({spec}) = {value} disagrees with recomputation")
            except GroupSpecError as exc:
                bad.append(f"cached key {spec!r} is not a group spec ({exc})")
        return not bad, "; ".join(bad)

    checks = [
        ("egf-identities", egf_identities),
        ("seidel-vs-series", seidel_vs_series),
        ("closed-vs-recursion", closed_vs_recursion),
        ("bar-d", bar_d_check),
        ("parity", parity_check),
        ("bruteforce-required-tier", functools.partial(brute_tier, REQUIRED_BRUTE_TIER)),
        ("cache-consistency", cache_consistency),
    ]
    if args.deep:
        checks.insert(6, ("bruteforce-deep-tier", functools.partial(brute_tier, DEEP_BRUTE_TIER)))
    return checks


def cmd_verify(args) -> int:
    failures = 0
    for name, fn in _verify_checks(args):
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except AssertionError as exc:
            ok, detail = False, str(exc)
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name:<28} {elapsed:8.2f}s"
        if detail and not ok:
            line += f"  {detail}"
        print(line)
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_export_lattice(args) -> int:
    try:
        labels = parse_labels(args.spec)
    except GroupSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        model = build_model(labels)
        lattice = build_lattice(model)
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    payload = {"group": spec_of_labels(labels), "lattice": lattice_to_json(lattice)}
    if args.include_model:
        payload["model"] = model_to_json(model)
    try:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {args.output}")
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in the process, built on the first:
    `parse_args` returns a fresh namespace and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="coxchains",
        description="Chain-orbit counts K(W) for finite Coxeter groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute K(W) for a group spec")
    p.add_argument("spec")
    p.add_argument("--method", choices=["recursion", "bruteforce", "closed", "all"],
                   default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--cache", help="path to the recursion value cache")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("table", help="closed-form value table")
    p.add_argument("--max-rank", type=_int_at_least(0), default=12)
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run the cross-validation suite")
    p.add_argument("--deep", action="store_true",
                   help="include the rank-5, F4 and E6 brute-force tier")
    p.add_argument("--cache")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export-lattice", help="dump an intersection lattice as JSON")
    p.add_argument("spec")
    p.add_argument("output")
    p.add_argument("--include-model", action="store_true")
    p.set_defaults(fn=cmd_export_lattice)
    return parser


def main(argv=None) -> int:
    # K(A_n) passes 4,300 digits, Python's default limit for converting an
    # int to or from a string, near n = 1,660. The limit is lifted for this
    # call only, so an in-process caller keeps its own.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.fn(args)
        except BrokenPipeError:
            # the reader left, as `head` does: send what is still buffered to
            # devnull so the flush at exit cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        except AssertionError as exc:  # a certificate or a cached value failed
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
