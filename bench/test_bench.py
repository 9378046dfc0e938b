"""Self-tests of the benchmark: generators, oracle, output checks, tracer, BENCHMARK.json.

Small sizes only, and no timing is asserted.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import metrics
import oracle
import run
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _small(name, seed):
    if name == metrics.DENSE:
        return workloads.dense_check(seed, sizes=(2,))
    w = workloads.sparse_twisted(seed, big=2)
    # Drop the dim-64 iterated product: it dominates the smoke's time.
    keep = [i for i, t in enumerate(w.tasks) if t["op"] != "iterated_ttp"]
    w.tasks = [w.tasks[i] for i in keep]
    w.expected = [w.expected[i] for i in keep]
    return w


def _homtwist(args, workdir):
    return subprocess.run(
        [sys.executable] + args, cwd=workdir, env=_env(), capture_output=True, text=True, timeout=300
    )


def _workdir(name):
    path = os.path.join(ROOT, ".bench_work", f"selftest-{name}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# generators and oracle
# ---------------------------------------------------------------------------


def test_generators_are_deterministic_in_the_seed():
    for gen in workloads.CHECK_WORKLOADS.values():
        assert gen(5).manifest_text() == gen(5).manifest_text()
        assert gen(5).manifest_text() != gen(6).manifest_text()


def test_oracle_matrix_units_are_associative_in_any_basis():
    mul = oracle.matrix_units(2)
    assert oracle.associativity_failures(mul, 3) == []
    basis, _ = workloads._rand_basis(random.Random(1), 4)
    assert oracle.associativity_failures(oracle.change_basis(mul, basis), 3) == []


def test_oracle_yau_twist_by_a_conjugation_is_not_associative():
    g = [[oracle.ONE, oracle.ONE], [oracle.ZERO, oracle.ONE]]
    twisted = oracle.yau_twist(oracle.matrix_units(2), oracle.conjugation(g))
    failures = oracle.associativity_failures(twisted, 3)
    assert len(failures) == 3
    assert failures[0].startswith("associativity at (0, 0, ")


def test_oracle_tensor_and_flip_follow_the_flattening_convention():
    k = [[[oracle.ONE, oracle.ZERO], [oracle.ZERO, oracle.ZERO]],
         [[oracle.ZERO, oracle.ZERO], [oracle.ZERO, oracle.ONE]]]
    t = oracle.tensor(k, k)
    assert t[1][1] == [0, 1, 0, 0]  # (e0 (x) e1)^2 = e0 (x) e1
    assert t[1][2] == [0, 0, 0, 0]
    f = oracle.flip(2, 3)
    assert f[1 * 3 + 2][2 * 2 + 1] == 1  # R(e_b2 (x) e_a1) = e_a1 (x) e_b2


def test_dense_constants_are_mostly_proper_fractions():
    w = workloads.dense_check(7, sizes=(2,))
    flat = [x for plane in w.objects["A2"]["mul"] for row in plane for x in row]
    assert sum(1 for x in flat if isinstance(x, str) and "/" in x) > len(flat) // 2


# ---------------------------------------------------------------------------
# output checks, against homtwist at small size
# ---------------------------------------------------------------------------


def test_small_check_workloads_pass_the_oracle():
    work = _workdir("check")
    try:
        for name in metrics.CHECKS:
            w = _small(name, 3)
            path = os.path.join(work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(w.manifest_text())
            proc = _homtwist(["-c", run.CLI, "check", path], work)
            child = run.Child(0.0, 0.0, 0.0, proc.returncode, proc.stdout, proc.stderr)
            attempted, failed, right, notes = run.check_tasks(child, w.expected)
            assert (attempted, failed, right) == (len(w.expected), 0, True), notes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_a_wrong_witness_or_verdict_is_caught():
    expected = [("check_associative", "fail", ("associativity at (0, 0, 0): lhs=[1] rhs=[0]",))]
    good = "task 1: check_associative(Y) -> fail (expected fail) OK\n" \
           "    witness: associativity at (0, 0, 0): lhs=[1] rhs=[0]\nall expectations met\n"
    child = run.Child(0.0, 0.0, 0.0, 0, good, "")
    assert run.check_tasks(child, expected)[1:3] == (0, True)
    bad_witness = good.replace("rhs=[0]", "rhs=[2]")
    assert run.check_tasks(run.Child(0, 0, 0, 0, bad_witness, ""), expected)[1:3] == (1, False)
    bad_verdict = "task 1: check_associative(Y) -> pass (expected fail) EXPECTATION FAILED\n"
    assert run.check_tasks(run.Child(0, 0, 0, 1, bad_verdict, ""), expected)[1:3] == (1, False)
    crashed = run.Child(0, 0, 0, 1, "", "Traceback ...")
    assert run.check_tasks(crashed, expected)[1:3] == (1, True)


def test_paper_lines_are_counted_per_criterion():
    lines = [f"PASS  {i}-x                 (  0.01s)  ok" for i in range(1, 11)]
    lines[8] = "FAIL  9-oracle-closure           (  0.21s)  NameError: boom"
    child = run.Child(0, 0, 0, 1, "\n".join(lines + ["SOME CRITERIA FAILED  (total 1.00s)"]), "")
    assert run.check_paper(child)[:3] == (10, 1, True)
    child.code = 0
    assert run.check_paper(child)[2] is False


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_leaves_no_alias_unwrapped():
    probe = (
        "import inspect, sys, tracer\n"
        "names = tracer.install(tracer.Tracer())\n"
        "left = []\n"
        "for modname, mod in list(sys.modules.items()):\n"
        "    if modname.split('.')[0] != 'homtwist':\n"
        "        continue\n"
        "    for attr, value in vars(mod).items():\n"
        "        if inspect.isfunction(value) and not hasattr(value, '__wrapped__'):\n"
        "            home = value.__module__.split('.')[-1]\n"
        "            if home in tracer.LAYERS and not value.__name__.startswith(('_', '<')):\n"
        "                left.append(f'{modname}.{attr}')\n"
        "print(len(names), left)\n"
    )
    env = _env()
    env["PYTHONPATH"] = BENCH + os.pathsep + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, left = proc.stdout.split(" ", 1)
    assert int(count) > 100
    assert left.strip() == "[]"


def test_traced_run_prints_what_the_untraced_run_prints():
    work = _workdir("trace")
    try:
        w = _small(metrics.SPARSE, 4)
        path = os.path.join(work, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(w.manifest_text())
        plain = _homtwist(["-c", run.CLI, "check", path], work)
        out = os.path.join(work, "trace.json")
        traced = _homtwist([os.path.join(BENCH, "tracer.py"), out, "check", path], work)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
        with open(out, encoding="utf-8") as fh:
            trace = json.load(fh)
        values = run.layer_metrics(trace, 0.0)
        assert values["exact.Scan.eq.calls"]["value"] > 0
        assert values["exact.Scan.eq.failed"]["value"] > 0
        assert values["manifest.task.check_braid.s"]["value"] > 0
        assert values["uqsl2.pbw_normalize.calls"]["value"] == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the command contract
# ---------------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_benchmark_metrics():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.LISTED)
    for w in spec["workloads"]:
        assert w["why"] == metrics.WORKLOAD_WHY[w["name"]] and len(w["why"]) <= 200
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, (u, b, bound, _) in metrics.END_TO_END.items()
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m


def test_every_layer_metric_names_what_it_should_move():
    for name, _unit, _better, moves, nonzero, zero in metrics.PER_LAYER:
        assert moves, name
        assert not set(nonzero) & set(zero), name
        assert set(nonzero) | set(zero) <= set(metrics.WORKLOADS), name


def test_without_the_program_the_benchmark_fails_and_prints_no_result():
    bare = _workdir("bare")
    try:
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
