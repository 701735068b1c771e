"""Benchmark of the coxchains library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the package is imported from its
`src/` directory. A run repeats passes over the workload's requests, one
request at a time in one thread, until S seconds have passed and at least
the workload's minimum number of passes is done. Every answer is checked
against perfbench/reference.py. The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones
from a run whose first half is untraced and second half traced. A copy of
the result, with the seed, commit, Python version and CPU count, and in
traced runs every span, is written to perfbench/out/.

Times are reported in reference seconds. On a shared machine the CPU's
speed can drift by a third within a minute, so a calibration kernel (exact
fractions and dict lookups, like the code under test) is timed three times
before the first request of a pass and after every request, and each
request's measured time is multiplied by CAL_REF_S over the median of the
six kernel timings around it. A request that misses its deadline keeps the
deadline as its time. Measured seconds are kept in the result file beside
the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 7
CAL_REF_S = 0.0015   # the calibration kernel's time on the reference machine
# counts that must repeat exactly between traced passes
REPEATED_COUNTS = ["field.rref_calls", "field.null_space_calls", "lattice.elements",
                   "lattice.chains", "lattice.orbits", "recursion.memo_entries",
                   "cli.cache_bytes"]


class DeadlineMiss(BaseException):
    """Raised by the timer signal; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineMiss()


def _kernel():
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(1, 5)
        key = (i % 37, i % 11, str(i % 5))
        seen[key] = seen.get(key, 0) + len(key)
    return acc, seen


def kernel_times() -> list:
    """Three timings of the calibration kernel, with the collector off so
    that the program's heap does not weigh on them."""
    times = []
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def reference_scale(times) -> float:
    """Reference seconds per measured second, from kernel timings."""
    return CAL_REF_S / statistics.median(times)


def import_program():
    """Import coxchains from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import coxchains
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import coxchains from {src}: {exc}")
    if Path(coxchains.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: coxchains was imported from {coxchains.__file__}, "
                 f"not from {src}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def percentile(sorted_values, p):
    """Nearest-rank percentile: the value with ceil(p% of N) values at or below."""
    idx = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[idx]


def tail_percentile(workload) -> int:
    """Highest whole percentile with at least ten requests beyond it in the
    smallest pool a run can have. Fixed per workload, so runs compare."""
    n = len(workload.requests) * workload.min_passes
    return max(50, (100 * (n - 10)) // n)


def run_request(req, deadline_s, tracer):
    span = tracer.begin_request(req.kind) if tracer else None
    status = "ok"
    streams = sys.stdout, sys.stderr
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            answer = req.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # a miss inside a redirect's exit could leave our output captured
            sys.stdout, sys.stderr = streams
    except DeadlineMiss:
        status = f"missed the {deadline_s:g} s deadline"
    except Exception as exc:  # the program raised: a failed request
        status = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_request(span, missed=status.startswith("missed"))
    if status == "ok" and answer != req.expected:
        status = f"wrong answer {str(answer)[:200]!r}, expected {str(req.expected)[:200]!r}"
    return status, elapsed


class Passes:
    """Request latencies and failures of one phase of a run. A pass's wall
    is the sum of its request latencies."""

    def __init__(self):
        self.passes = []          # per pass: [(kind, label, measured s, scale)]
        self.request_scale = {}   # tracer's request number -> scale
        self.failures = []        # (label, reason)

    def run(self, workload, seconds, min_passes, tracer=None):
        start = time.perf_counter()
        while len(self.passes) < min_passes or time.perf_counter() - start < seconds:
            workload.reset()
            if tracer:
                tracer.pass_no += 1
            misses, latencies = 0, []
            kernel = kernel_times()
            for req in workload.requests:
                status, elapsed = run_request(req, workload.deadline_s, tracer)
                after = kernel_times()
                # a miss lasts as long as the timer, whatever the CPU's speed
                missed = status.startswith("missed")
                scale = 1.0 if missed else reference_scale(kernel + after)
                kernel = after
                latencies.append((req.kind, req.label, elapsed, scale))
                if tracer:
                    self.request_scale[tracer.request_no] = scale
                if status != "ok":
                    self.failures.append((req.label, status))
                    misses += missed
            self.passes.append(latencies)
            if tracer:
                counts = tracer.counts.setdefault(tracer.pass_no, Counter())
                counts["cli.deadline_misses"] = misses
                counts.update(workload.end_of_pass())
        workload.reset()
        return self

    def walls(self) -> list:
        return [sum(t * s for *_, t, s in p) for p in self.passes]

    def times(self, kind=None) -> list:
        return sorted(t * s for p in self.passes for k, _, t, s in p
                      if kind in (None, k))

    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)


def setup_seconds(workload_name, seed) -> float:
    """Median time of fresh interpreters that import coxchains and build
    the workload's inputs, then exit."""
    times, kernel = [], kernel_times()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        after = kernel_times()
        times.append(elapsed * reference_scale(kernel + after))
        kernel = after
    return statistics.median(times)


def measure_untraced(workload, seed, seconds, probe_setup=True):
    passes = Passes().run(workload, seconds, workload.min_passes)
    lat = passes.times()
    p_tail = tail_percentile(workload)
    values = {
        "wall_s": statistics.median(passes.walls()),
        "req_p50_ms": percentile(lat, 50) * 1000,
        "req_tail_ms": percentile(lat, p_tail) * 1000,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_seconds(workload.name, seed) if probe_setup else 0.0,
    }
    info = {"tail_percentile": p_tail, "samples": len(lat),
            "beyond_tail": len(lat) - math.ceil(p_tail / 100 * len(lat)),
            "pass_walls_s": passes.walls(),
            "requests_measured_s": passes.passes}
    return values, passes.attempted(), passes.failures, info


def measure_traced(workload, seconds):
    from tracing import SPANNED, Tracer

    plain = Passes().run(workload, seconds / 2, 1)
    tracer = Tracer()
    with tracer.installed():
        traced = Passes().run(workload, seconds / 2, 2, tracer)
    values = {}
    failures = plain.failures + traced.failures
    attempted = plain.attempted() + traced.attempted()
    if workload.sweep:
        attempted += 1
        kernel = kernel_times()
        try:
            values.update(workload.sweep())
        except Exception as exc:  # a wrong or crashing sweep is a failed request
            failures.append(("lattice sweep", f"{type(exc).__name__}: {exc}"))
        values["lattice.scan_w2_s"] *= reference_scale(kernel + kernel_times())

    passes = sorted(tracer.counts)
    self_times = [tracer.self_times(p, traced.request_scale) for p in passes]
    wall = statistics.median(traced.walls())
    for name in [name for name, *_ in SPANNED] + ["recursion.k"]:
        values[f"{name}_s"] = statistics.median(st.get(name, 0.0) for st in self_times)
    for name in REPEATED_COUNTS:
        seen = {tracer.counts[p][name] for p in passes}
        if len(seen) > 1:
            failures.append((name, f"differs between traced passes: {sorted(seen)}"))
    for kind in {k for p in traced.passes for k, *_ in p if k.startswith("cli.")}:
        values[f"{kind}_ms"] = statistics.median(traced.times(kind)) * 1000
    values["lattice.build_share"] = values["lattice.build_s"] / wall
    values["lattice.scan_share"] = values["lattice.scan_s"] / wall
    untraced_wall = statistics.median(plain.walls())
    values["trace.overhead_s"] = wall - untraced_wall
    values["trace.overhead_share"] = (wall - untraced_wall) / untraced_wall
    values["fail_ratio"] = len(failures) / attempted
    # every other per-layer metric is a count of the first traced pass, and
    # a layer the workload never reaches reads zero
    counts = tracer.counts[passes[0]]
    for m in load_spec()["per_layer"]:
        values.setdefault(m["name"], counts[m["name"]])

    names = sorted({s[2] for s in tracer.spans})
    info = {"untraced_walls_s": plain.walls(), "traced_walls_s": traced.walls(),
            "self_share_of_wall": {
                n: statistics.median(st.get(n, 0.0) for st in self_times) / wall
                for n in names},
            "counts_per_pass": {p: dict(tracer.counts[p]) for p in passes},
            "spans": tracer.spans}
    return values, attempted, failures, info


def measure(workload, seed, seconds, trace, probe_setup=True):
    """Run one measurement; return the result object and the details."""
    if trace:
        values, attempted, failures, info = measure_traced(workload, seconds)
        kinds = "per_layer"
    else:
        values, attempted, failures, info = measure_untraced(
            workload, seed, seconds, probe_setup)
        kinds = "end_to_end"
    metrics = {}
    for m in load_spec()[kinds]:
        metrics[m["name"]] = {"value": values.pop(m["name"]), "unit": m["unit"]}
    if values:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    wrong = [f for f in failures if not f[1].startswith("missed")]
    result = {"correct": not wrong, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    info["failures"] = failures
    return result, info


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def report(workload, seed, trace, result, info):
    env = {"workload": workload.name, "seed": seed, "trace": trace,
           "commit": git_commit(), "python": platform.python_version(),
           "nproc": os.cpu_count()}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6f} {m['unit']}")
    print(f"  failed {result['failed']} of {result['attempted']} requests, "
          f"fail_ratio {result['failed'] / result['attempted']:.6f}")
    if "tail_percentile" in info:
        print(f"  req_tail_ms is p{info['tail_percentile']} of {info['samples']} "
              f"requests ({info['beyond_tail']} beyond it)")
    for key in ("pass_walls_s", "untraced_walls_s", "traced_walls_s"):
        if key in info:
            print(f"  {key}: " + " ".join(f"{w:.3f}" for w in info[key]))
    for name, share in sorted(info.get("self_share_of_wall", {}).items(),
                              key=lambda kv: -kv[1]):
        print(f"  self time {name:<32} {share:8.2%} of traced wall_s")
    for label, reason in info["failures"][:10]:
        print(f"  FAILED {label}: {reason}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}.json"
    with open(out, "w") as fh:
        json.dump({"environment": env, "result": result, "details": info}, fh)
    print(json.dumps(result))


def check(ok, what):
    if not ok:
        raise AssertionError(what)


def self_check() -> int:
    """Tiny inputs only. Asserts that every BENCHMARK.json metric is printed
    with its unit, that a wrong reference value raises fail_ratio and that
    a deadline miss is counted."""
    import workloads

    spec = load_spec()
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names other workloads")
    for name in workloads.WORKLOADS:
        for trace, kinds in ((0, "end_to_end"), (1, "per_layer")):
            wl = workloads.make(name, 7, tiny=True, out_dir=str(OUT_DIR))
            result, _ = measure(wl, 7, 0, trace, probe_setup=(name == "cli-session"))
            want = {m["name"]: m["unit"] for m in spec[kinds]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == want, f"{name} trace={trace}: printed {got}, want {want}")
            check(result["correct"] and result["failed"] == 0, f"{name}: {result}")

    wl = workloads.make("brute-irreducible", 7, tiny=True)
    wl.requests[0].expected = (-1,) + wl.requests[0].expected[1:]
    result, _ = measure(wl, 7, 0, 1)
    check(not result["correct"] and result["metrics"]["fail_ratio"]["value"] > 0,
          f"a wrong reference value went unnoticed: {result}")

    wl = workloads.make("cli-session", 7, tiny=True, out_dir=str(OUT_DIR))
    wl.deadline_s = 1e-4
    result, _ = measure(wl, 7, 0, 1)
    check(result["metrics"]["cli.deadline_misses"]["value"] > 0 and result["failed"] > 0,
          f"a deadline miss went uncounted: {result}")
    print("self-check ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["brute-irreducible", "brute-products",
                                               "recursion-cold", "cli-session"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.self_check):
        parser.error("--workload is required")

    import_program()
    os.environ.pop("COXETER_CACHE", None)  # the program gets only our argv
    signal.signal(signal.SIGALRM, _on_alarm)
    OUT_DIR.mkdir(exist_ok=True)
    if args.self_check:
        return self_check()

    import workloads

    workload = workloads.make(args.workload, args.seed, out_dir=str(OUT_DIR))
    if args.setup_probe:
        return 0
    result, info = measure(workload, args.seed, args.seconds, args.trace)
    report(workload, args.seed, args.trace, result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
