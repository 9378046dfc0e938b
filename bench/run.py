"""The homtwist benchmark: one workload, one seed, one JSON line of metrics.

Run from the repository root:

    python3 bench/run.py --workload paper --seed 1 --seconds 60 --trace 0

Workloads (see ``metrics.WORKLOAD_WHY``): ``paper`` runs ``homtwist paper``;
``dense-check`` and ``sparse-twisted`` run ``homtwist check`` on a manifest
generated from the seed.  The program is taken from ``src/`` of the current
directory and every timed run is a fresh interpreter, as for a CLI user, so
the ``lru_cache``s in ``uqsl2`` start cold each time.  Children run one at a
time, runs and set-ups interleaved, so host drift hits both alike.

``--trace 0`` reports the end-to-end metrics (medians over the runs that fit
in ``--seconds``).  ``--trace 1`` makes one run under ``tracer.py`` and fills
the rest of the time with untraced runs; it reports the per-layer metrics,
and checks that the traced run printed exactly what the untraced runs printed.

Every run's output is checked: task verdicts against theory, witnesses of
expected-fail tasks against ``oracle``, criterion lines against the exit code.
The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 3
MIN_SETUPS = 15
SETUPS_PER_RUN = 3
CHILD_TIMEOUT_S = 150
CRITERIA = 10

CLI = "import sys; from homtwist.cli import main; sys.exit(main())"
SETUP = (
    "import sys; import homtwist.cli; from homtwist.manifest import parse_manifest\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh: parse_manifest(fh.read())"
)
PROBE = "import homtwist, homtwist.cli; print(homtwist.BACKEND)"

_CRITERION = re.compile(r"^(PASS|FAIL)  (\d+)-\S+ +\( *[0-9.]+s\)")
_TIMINGS = re.compile(r"\( *[0-9.]+s\)|\(total [0-9.]+s\)")
_TASK = re.compile(r"^task (\d+): (\w+)\(.*\) -> (pass|fail) \(expected \w+\) ")
_WITNESS = "    witness: "


class Child:
    """One finished child process: times and usage from os.wait4, and its output."""

    def __init__(self, wall, cpu, rss_mb, code, stdout, stderr):
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.code, self.stdout, self.stderr = code, stdout, stderr


def run_child(argv, root, env, work):
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        stdout,
        stderr,
    )


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_paper(child):
    """Criteria attempted, criteria failed, and whether the output is consistent.

    A FAIL line, or a criterion with no line, is a failed operation.  The
    output is inconsistent when the exit code disagrees with the lines.
    """
    seen = {}
    for line in child.stdout.splitlines():
        m = _CRITERION.match(line)
        if m:
            seen[int(m.group(2))] = m.group(1)
    failed = sum(1 for i in range(1, CRITERIA + 1) if seen.get(i) != "PASS")
    consistent = len(seen) == CRITERIA and child.code == (1 if failed else 0)
    notes = [f"criterion {i} {seen.get(i, 'missing')}" for i in range(1, CRITERIA + 1)
             if seen.get(i) != "PASS"]
    return CRITERIA, failed, consistent, notes


def check_tasks(child, expected):
    """Tasks attempted, tasks failed, and whether every verdict and witness is right."""
    outcomes = {}
    current = None
    for line in child.stdout.splitlines():
        m = _TASK.match(line)
        if m:
            current = int(m.group(1))
            outcomes[current] = (m.group(2), m.group(3), [])
        elif line.startswith(_WITNESS) and current is not None:
            outcomes[current][2].append(line[len(_WITNESS):])
    failed, right, notes = 0, True, []
    for i, (op, verdict, witnesses) in enumerate(expected, start=1):
        got = outcomes.get(i)
        if got is None:
            failed += 1
            notes.append(f"task {i} {op}: no output (exit {child.code})")
        elif got[0] != op or got[1] != verdict or tuple(got[2]) != witnesses:
            failed += 1
            right = False
            notes.append(f"task {i} {op}: got {got[1]}, expected {verdict}, or witnesses differ")
    if child.code != 0 and not notes:
        failed = len(expected)
        notes.append(f"exit code {child.code}, expected 0")
    return len(expected), failed, right, notes


def comparable(stdout):
    """Output with the wall-clock figures removed, for traced/untraced comparison."""
    return _TIMINGS.sub("(t)", stdout)


# ---------------------------------------------------------------------------
# per-layer metrics from a trace
# ---------------------------------------------------------------------------


def layer_metrics(trace, overhead_s):
    totals = {}
    for edge in trace["edges"]:
        agg = totals.setdefault(edge["name"], [0, 0.0, 0.0])
        agg[0] += edge["calls"]
        agg[1] += edge["total_s"]
        agg[2] += edge["self_s"]
    cache = trace["lru_caches"].get("monomial_mul", {"hits": 0, "misses": 0})
    lookups = cache["hits"] + cache["misses"]
    special = {
        "exact.Scan.eq.failed": trace["scan_failed"],
        "uqsl2.monomial_mul.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, unit, *_ in metrics.PER_LAYER:
        if name in special:
            value = special[name]
        else:
            base, field = name.rsplit(".", 1)
            calls, total, self_s = totals.get(base, (0, 0.0, 0.0))
            value = {"calls": calls, "s": total, "self_s": self_s}[field]
        out[name] = {"value": value, "unit": unit}
    return out


def _traced_function(name):
    """The wrapped function a per-layer metric reads, e.g. 'exact.Scan.eq'."""
    if name == "uqsl2.monomial_mul.hit_ratio":
        return "uqsl2.uq_mul"
    return name.rsplit(".", 1)[0]


def prediction_misses(workload, values, wrapped):
    """Predictions that fail, skipping functions the program no longer has."""
    misses = []
    for name, _unit, _better, _moves, nonzero, zero in metrics.PER_LAYER:
        if workload in nonzero and _traced_function(name) not in wrapped:
            continue
        value = values[name]["value"]
        if workload in nonzero and not value:
            misses.append(f"{name} is 0, predicted non-zero")
        if workload in zero and value:
            misses.append(f"{name} is {value}, predicted 0")
    return misses


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def calibration_s():
    """A fixed pure-Python Fraction loop: host speed, printed as context only."""
    best = []
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 20000):
            acc += Fraction(i % 97, i % 89 + 1)
        best.append(time.perf_counter() - start)
    return statistics.median(best)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homtwist", "__init__.py")):
        print(f"no homtwist sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, src, work):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    py = sys.executable

    if args.workload == metrics.PAPER:
        expected = None
        inputs = []
        cli_args = ["paper"]
    else:
        generated = workloads.CHECK_WORKLOADS[args.workload](args.seed)
        expected = generated.expected
        manifest = os.path.join(work, "manifest.json")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write(generated.manifest_text())
        inputs = [manifest]
        cli_args = ["check", manifest]

    probe = run_child([py, "-c", PROBE], root, env, work)  # also compiles bytecode, untimed
    backend = probe.stdout.strip() or f"unavailable (exit {probe.code})"
    calib = calibration_s()

    attempted = failed = 0
    right = True
    notes = []

    def check(child):
        nonlocal attempted, failed, right
        if expected is None:
            a, f, ok, n = check_paper(child)
        else:
            a, f, ok, n = check_tasks(child, expected)
        attempted += a
        failed += f
        right = right and ok
        notes.extend(n)

    start = time.perf_counter()
    deadline = start + args.seconds
    runs, setups = [], []
    traced = trace = None
    if args.trace:
        trace_path = os.path.join(work, "trace.json")
        tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
        traced = run_child([py, tracer, trace_path] + cli_args, root, env, work)
        check(traced)
        try:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
        except (OSError, ValueError) as exc:
            right = False
            notes.append(f"no trace from the traced run ({exc}): {traced.stderr.strip()[-200:]}")
            trace = {"edges": [], "spans": [], "scan_failed": 0, "lru_caches": {}, "wrapped": []}
    while True:
        if not args.trace:
            for _ in range(SETUPS_PER_RUN):
                setups.append(run_child([py, "-c", SETUP] + inputs, root, env, work))
        runs.append(run_child([py, "-c", CLI] + cli_args, root, env, work))
        check(runs[-1])
        estimate = statistics.median(r.wall for r in runs)
        if setups:
            estimate += SETUPS_PER_RUN * statistics.median(s.wall for s in setups)
        enough = len(runs) >= (1 if args.trace else MIN_RUNS)
        if enough and time.perf_counter() + estimate > deadline:
            break
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_child([py, "-c", SETUP] + inputs, root, env, work))
    for s in setups:
        if s.code != 0:
            right = False
            notes.append(f"set-up child exited {s.code}: {s.stderr.strip()[-200:]}")

    walls = [r.wall for r in runs]
    if args.trace:
        overhead = traced.wall - statistics.median(walls)
        values = layer_metrics(trace, overhead)
        if comparable(traced.stdout) != comparable(runs[0].stdout) or traced.code != runs[0].code:
            right = False
            notes.append("traced output differs from untraced output")
        misses = prediction_misses(args.workload, values, set(trace["wrapped"]))
        if misses:
            right = False
            notes.extend(misses)
        os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
        keep = os.path.join(root, ".bench_work", f"trace-{args.workload}.json")
        with open(keep, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    else:
        samples = {
            "run_s": walls,
            "cpu_s": [r.cpu for r in runs],
            "setup_s": [s.wall for s in setups],
            "peak_rss_mb": [r.rss_mb for r in runs],
        }
        values = {
            name: {"value": statistics.median(samples[name]), "unit": spec[0]}
            for name, spec in metrics.END_TO_END.items()
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"context: backend {backend}, python {sys.version.split()[0]}, "
        f"cores {os.cpu_count()}, calibration loop {calib:.4f} s"
    )
    if args.trace:
        print(f"traced run {traced.wall:.3f} s, untraced median {statistics.median(walls):.3f} s "
              f"(n={len(walls)}); trace kept in .bench_work/")
        for name, v in values.items():
            print(f"  {name:<48} {v['value']:>14.6g} {v['unit']}")
    else:
        for name, v in values.items():
            lo, hi = quartiles(samples[name])
            print(f"  {name:<12} median {v['value']:10.4f} {v['unit']:<3} "
                  f"quartiles {lo:.4f}..{hi:.4f}  n={len(samples[name])}")
    # failed_share is printed, not put in the JSON line: it reads 0 on a clean run.
    print(f"  failed_share {failed / attempted:.4f} ratio ({failed} of {attempted} operations)")
    for note in dict.fromkeys(notes):
        print(f"  note: {note}")
    print(json.dumps({
        "correct": right,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
