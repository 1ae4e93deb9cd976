"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py

The smoke runs take seconds; test_traced_sweep_m10_records_identical runs
two full m=10 sweeps (about a minute).
"""

import hashlib
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    lines = bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", trace, "--smoke")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert f"# {m['name']} = " in "\n".join(lines)
    assert any(line.startswith("# env ") and "ORBIT_THREADS=" in line for line in lines)


def test_same_seed_same_inputs_other_seed_other_inputs():
    api = run.Api()
    for cls in (run.ClassifyMixed, run.Geometry):
        wl = cls(True)
        a = wl.inputs(api, run.random.Random(5))
        assert a == wl.inputs(api, run.random.Random(5))
        assert a != wl.inputs(api, run.random.Random(6))


def test_traced_sweep_m10_records_identical():
    api = run.Api()
    plain = api.sweep_records(api.sweep(10))
    with Tracer() as tracer:
        traced_api = run.Api(tracer)
        traced = traced_api.sweep_records(traced_api.sweep(10))
    assert traced == plain
    digest = hashlib.sha256(("\n".join(plain) + "\n").encode()).hexdigest()
    assert digest == run.GOLDEN_SWEEP[10]
    assert tracer.summary()["layer_calls"]["patterns"] == 2 * len(plain)


def test_tracer_survives_missing_layers_and_functions():
    pkg = "vanished_pkg"
    perms = types.ModuleType(f"{pkg}.perms")
    exec("def identity(m):\n    return tuple(range(1, m + 1))\n", perms.__dict__)
    sys.modules[pkg] = types.ModuleType(pkg)
    sys.modules[f"{pkg}.perms"] = perms
    try:
        with Tracer(pkg) as tracer:
            pass
        metrics = run.layer_metrics(tracer.summary(), 0, 1.0)
    finally:
        del sys.modules[pkg], sys.modules[f"{pkg}.perms"]
    assert metrics["bruhat.calls"] == (0, "count")
    assert metrics["perms.parse_perm.calls"] == (0, "count")
    assert metrics["bruhat.leq_hit_ratio"] == (0.0, "ratio")


def test_tracer_restores_namespaces():
    import flagorbits.orbit_graph as og
    import flagorbits.patterns as pat

    before = (og.bruhat_leq, og.neighbors, pat.parse_perm)
    with Tracer():
        assert (og.bruhat_leq, og.neighbors, pat.parse_perm) != before
    assert (og.bruhat_leq, og.neighbors, pat.parse_perm) == before


def test_oracles_agree_with_program():
    from flagorbits import enumerate_involutions, rank, w0_class, w0_degree
    from flagorbits.geometry import orbit_of_flag, specialize_basis
    from flagorbits.orbit_graph import neighbors
    from flagorbits.perms import w0

    for m in range(1, 8):
        invs = enumerate_involutions(m)
        assert sorted(oracles.matchings(m)) == sorted(w0_class(m))
        assert oracles.bottom_neighbors(m) == sorted(neighbors(w0(m)).neighbors)
        for pi in invs:
            assert oracles.rank(pi) == rank(pi)
            assert oracles.w0_degree(pi) == w0_degree(pi)
    rng = run.random.Random(7)
    for n in (2, 3, 4):
        for _ in range(5):
            chosen = rng.sample(run.Geometry.slice_vars(n), n)
            flag = specialize_basis(n, {v: Fraction(rng.randint(1, 9)) for v in chosen})
            assert oracles.flag_orbit(flag) == orbit_of_flag(flag)


def test_slice_cost_keys_follow_their_definition():
    def first_failure(u, v):
        for i in range(1, len(u) + 1):
            for j, (a, b) in enumerate(zip(sorted(u[:i]), sorted(v[:i])), start=1):
                if a > b:
                    return i, j
        return None

    for m in (4, 6, 8):
        pool, targets = run.Api().enumerate_involutions(m), oracles.bottom_neighbors(m)
        want = [sum(3 ** h[0] + 3 ** h[1] for h in map(lambda v: first_failure(pi, v), targets) if h)
                for pi in pool]
        assert oracles.slice_cost_keys(pool, targets) == want


def test_stratified_spreads_over_quantiles():
    pool = list(range(100))
    assert oracles.stratified(pool, pool, 4) == [12, 37, 62, 87]


def test_refuses_to_run_without_sources():
    # BENCHMARK.json and bench/ alone must exit non-zero and print no result.
    alone = HERE.parent / ".bench_build" / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    shutil.copytree(HERE, alone / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", alone)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-m10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=alone,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
