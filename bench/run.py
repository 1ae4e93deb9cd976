"""The flagorbits benchmark: one command, one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each workload is a closed loop with one client: the next call starts when
the previous one has returned, as for the single user of the workbench.  The
inputs come from --seed alone; the program receives only those inputs,
through its public entry points.  A run makes whole passes over its inputs,
at least one and more while the next is expected to end within S seconds,
checks every output, and prints each metric by name with its unit on `#`
lines, then one JSON result as the last line.  --trace 0 reports the
end-to-end metrics over all calls of the run; --trace 1 makes one pass
untraced and then the same pass traced, and reports the per-layer metrics.
--smoke shrinks every workload to tiny sizes for the benchmark's own tests.

See bench/README.md for why each workload exists and which layers it loads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy

import oracles
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
TAIL_PERCENTILE = 90

# sha256 of the records file `flagorbits sweep --m M --out FILE` writes.
GOLDEN_SWEEP = {
    6: "acf9adcb1ef346b2061d12a28d9d98d5c10ed2b9713f7657cd634f66c9b75688",
    10: "dfa93a33e0274e760d49f6c1f232eebbdb9ea97517f81632ed627eb6a5de454d",
}


def load_program():
    """Import flagorbits from this checkout's src/, and only from there."""
    init = SRC / "flagorbits" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no flagorbits sources at {init.parent}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import flagorbits

    if Path(flagorbits.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported flagorbits from {flagorbits.__file__}, not {init}")


def startup_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the program."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, flagorbits.smoothness, flagorbits.geometry"],
                   env=env, check=True)
    return time.perf_counter() - t0


class Api:
    """The entry points the benchmark may call, traced when a tracer is given."""

    ENTRY_POINTS = {
        "smoothness": ("sweep", "sweep_records", "classify", "report_record"),
        "geometry": ("slice_ideal", "monomial_claim", "orbit_of_flag", "specialize_basis"),
        "perms": ("enumerate_involutions",),
    }

    def __init__(self, tracer=None):
        for layer, names in self.ENTRY_POINTS.items():
            mod = importlib.import_module(f"flagorbits.{layer}")
            for name in names:
                fn = getattr(mod, name)
                setattr(self, name, tracer.entry(fn) if tracer else fn)


def fmt(p) -> str:
    return "".join(map(str, p)) if len(p) <= 9 else ",".join(map(str, p))


class Workload:
    """inputs(api, rng) makes one pass of inputs; warmup(api) runs a tiny
    call untimed; op(api, x) is the timed call; check(x, out) says whether
    its output is right; involutions(out) counts the involutions returned."""

    def involutions(self, out):
        return 1


class SweepM10(Workload):
    """One full sweep plus its records per operation."""

    def __init__(self, smoke: bool):
        self.m = 6 if smoke else 10

    def inputs(self, api, rng):
        return [self.m]

    def warmup(self, api):
        api.sweep_records(api.sweep(4))

    def op(self, api, m):
        report = api.sweep(m)
        return report.pattern_singular_degree_smooth, api.sweep_records(report)

    def involutions(self, out):
        return len(out[1])

    def check(self, m, out):
        incoherent, records = out
        digest = hashlib.sha256(("\n".join(records) + "\n").encode()).hexdigest()
        return digest == GOLDEN_SWEEP[m] and incoherent == []


class ClassifyMixed(Workload):
    """classify + report_record on cost-spread samples of S_10, S_11, S_12.

    Per pass: 192 calls at m=10 and 2 each at m=11 and m=12.  A pass takes
    30 to 40 s on a 2-vCPU box, which averages over more host speed drift, and
    its 196 calls put 19 beyond the p90.
    Each size's picks sit at evenly spaced quantiles of the number of
    w0-class members above the involution, which sets the cost of the degree
    checks, so every seed draws the same cost profile from different
    involutions.
    """

    POOL = 300  # random candidates per size when the size is too large to list

    def __init__(self, smoke: bool):
        self.sizes = {6: 8, 7: 2, 8: 2} if smoke else {10: 192, 11: 2, 12: 2}
        self.reference = None
        self._oracle: dict = {}

    def inputs(self, api, rng):
        picks = []
        for m, count in self.sizes.items():
            if m <= 10:
                pool = api.enumerate_involutions(m)
                rng.shuffle(pool)
            else:
                pool = [oracles.random_involution(m, rng) for _ in range(self.POOL)]
            keys = oracles.count_above(pool, oracles.matchings(m))
            picks += oracles.stratified(pool, keys, count)
        rng.shuffle(picks)
        return picks

    def warmup(self, api):
        api.report_record(api.classify((2, 1, 4, 3, 5)))

    def op(self, api, pi):
        return api.report_record(api.classify(pi))

    def check(self, pi, record):
        if pi not in self._oracle:
            self._oracle[pi] = (oracles.rank(pi), oracles.w0_degree(pi))
        r, deg = self._oracle[pi]
        m = len(pi)
        fields = dict(f.split("=", 1) for f in record.split(" "))
        ok = (
            fields["perm"] == fmt(pi)
            and fields["m"] == str(m)
            and fields["r"] == str(r)
            and fields["codim"] == str(m * m // 4 - r)
            and fields["deg_w0"] == str(deg)
        )
        if self.reference is not None:
            ok = ok and self.reference.get(fields["perm"]) == record
        return ok


class Geometry(Workload):
    """Slices and flags in one seeded order.  A slice is slice_ideal plus
    monomial_claim on every minor, as `flagorbits slice`; a flag is
    orbit_of_flag.

    Per pass: 382 involutions of S_8 (n=4) and 250 of S_10 (n=5), and 4 flags
    at each of m = 8, 12 and 16.  A slice's cost varies more than tenfold with
    the sizes of its minors, so each size's picks sit at evenly spaced
    quantiles of oracles.slice_cost_keys, and every seed draws nearly the same
    total cost.  Half the flags of each size are specialize_basis flags with a
    quarter of the slice parameters set, so that orbits other than the open
    one occur; the other half are dense random rationals.  Flags are 2% of
    the calls, so the p50 and p90 fall among the slices, and flags show in
    involutions_per_s.  A pass takes about 5 s, so a run makes several.
    """

    def __init__(self, smoke: bool):
        self.slices = {2: 6} if smoke else {4: 382, 5: 250}
        self.flags = {4: 4} if smoke else {8: 4, 12: 4, 16: 4}
        self._oracle: dict = {}

    @staticmethod
    def slice_vars(n):
        m = 2 * n
        out = {(i, j) if i <= m + 1 - j else (m + 1 - j, m + 1 - i)
               for i in range(1, n + 1) for j in range(n + 1, m + 1)}
        out |= {(i, j) for i in range(n + 1, m + 1) for j in range(i + 1, m + 1)}
        return sorted(out)

    def inputs(self, api, rng):
        picks = []
        for n, count in self.slices.items():
            pool = api.enumerate_involutions(2 * n)
            rng.shuffle(pool)
            if count < len(pool):
                keys = oracles.slice_cost_keys(pool, oracles.bottom_neighbors(2 * n))
                pool = oracles.stratified(pool, keys, count)
            picks += [("slice", pi, n) for pi in pool]
        for m, count in self.flags.items():
            n = m // 2
            variables = self.slice_vars(n)
            for k in range(count):
                if k % 2 == 0:
                    chosen = rng.sample(variables, max(1, len(variables) // 4))
                    values = {v: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for v in chosen}
                    picks.append(("flag", api.specialize_basis(n, values)))
                    continue
                while True:
                    flag = tuple(
                        tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(m))
                        for _ in range(m)
                    )
                    orbit = oracles.flag_orbit(flag)
                    if orbit is not None:  # rows independent
                        self._oracle[("flag", flag)] = orbit
                        break
                picks.append(("flag", flag))
        rng.shuffle(picks)
        return picks

    def warmup(self, api):
        pi = (3, 4, 1, 2)
        for v, _poly in api.slice_ideal(pi, 2):
            api.monomial_claim(pi, v, 2)
        api.orbit_of_flag(api.specialize_basis(2, {(3, 4): Fraction(1)}))

    def op(self, api, x):
        if x[0] == "flag":
            return api.orbit_of_flag(x[1])
        _, pi, n = x
        ideal = api.slice_ideal(pi, n)
        return [v for v, _poly in ideal], [api.monomial_claim(pi, v, n) for v, _poly in ideal]

    def check(self, x, out):
        if x[0] == "flag":
            if x not in self._oracle:
                self._oracle[x] = oracles.flag_orbit(x[1])
            return out == self._oracle[x]
        _, pi, n = x
        if x not in self._oracle:
            self._oracle[x] = [u for u in oracles.bottom_neighbors(2 * n) if not oracles.leq(pi, u)]
        excluded, claims = out
        # the minors are indexed by the excluded neighbours: n^2 - deg_w0 of them
        return excluded == self._oracle[x] and all(claims)


WORKLOADS = {
    "sweep-m10": SweepM10,
    "classify-mixed": ClassifyMixed,
    "geometry": Geometry,
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.involutions = 0
        self.failed = 0
        self.passes = 0
        self.outputs: list = []


def run_pass(wl, api, inputs, tally, expected=None):
    """One pass over the inputs.  A call that raises, or whose output fails
    its check (or, when expected is given, differs from it), counts as
    failed; the run goes on."""
    for i, x in enumerate(inputs):
        t0 = time.perf_counter()
        try:
            out = wl.op(api, x)
        except Exception as exc:  # every failure is counted, none aborts the run
            out, problem = None, f"{type(exc).__name__}: {exc}"
        else:
            problem = None
        tally.latencies.append(time.perf_counter() - t0)
        if problem is None:
            try:
                if not wl.check(x, out) or (expected is not None and out != expected[i]):
                    problem = "wrong output"
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None:
            tally.involutions += wl.involutions(out)
        else:
            tally.failed += 1
            print(f"# failed on {x!r}: {problem}", file=sys.stderr)
        if tally.passes == 0:
            tally.outputs.append(out)
    tally.passes += 1


def measure(wl, api, inputs, seconds, passes=None, expected=None):
    """Whole passes: the given number, or else at least one and then more
    while the next is expected to end within `seconds`."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_pass(wl, api, inputs, tally, expected)
        elapsed = time.perf_counter() - start
        if passes is not None:
            if tally.passes >= passes:
                break
        elif elapsed * (tally.passes + 1) / tally.passes > seconds:
            break
    return tally


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def layer_metrics(summary, involutions, overhead):
    calls, true = summary["calls"], summary["true"]
    leq_calls = calls["bruhat.bruhat_leq"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (summary["layer_calls"][layer], "count")
        out[f"{layer}.self_s"] = (summary["layer_self_s"][layer], "s")
    out["patterns.calls_per_involution"] = (
        summary["layer_calls"]["patterns"] / involutions if involutions else 0.0, "calls/inv")
    out["perms.parse_perm.calls"] = (calls["perms.parse_perm"], "count")
    out["bruhat.leq_hit_ratio"] = (
        true["bruhat.bruhat_leq"] / leq_calls if leq_calls else 0.0, "ratio")
    out["orbit_graph.neighbors.calls"] = (calls["orbit_graph.neighbors"], "count")
    out["poly.determinant.calls"] = (calls["poly.determinant"], "count")
    out["poly.exact_rank.calls"] = (calls["poly.exact_rank"], "count")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="flagorbits benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    load_program()
    wl = WORKLOADS[args.workload](args.smoke)
    if isinstance(wl, ClassifyMixed) and args.seed == DEFAULT_SEED:
        ref = HERE / "reference" / "classify_seed1.txt"
        lines = ref.read_text(encoding="utf-8").splitlines()
        wl.reference = {line.split(" ", 1)[0][len("perm="):]: line for line in lines}
    api = Api()
    # Set-up is start-up and import, then input generation and warm-up; each
    # part is repeated and its median taken.
    starts, preps = [], []
    for _ in range(SETUP_REPEATS):
        starts.append(startup_seconds())
        t0 = time.perf_counter()
        inputs = wl.inputs(api, random.Random(args.seed))
        try:
            wl.warmup(api)
        except Exception as exc:  # the measured calls will count the failure
            print(f"# warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        preps.append(time.perf_counter() - t0)
    setup_s = statistics.median(starts) + statistics.median(preps)

    print(
        f"# env workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={int(args.smoke)} cpu_count={os.cpu_count()} "
        f"ORBIT_THREADS={os.environ.get('ORBIT_THREADS', 'unset')} "
        f"python={platform.python_version()} numpy={numpy.__version__} inputs={len(inputs)}"
    )
    # A traced run makes one untraced and one traced pass, so that its counts
    # do not depend on how many passes the host's speed allows.
    plain = measure(wl, api, inputs, args.seconds, passes=1 if args.trace else None)
    attempted, failed = len(plain.latencies), plain.failed
    if args.trace:
        with Tracer() as tracer:
            traced = measure(wl, Api(tracer), inputs, 0, passes=1, expected=plain.outputs)
        attempted += len(traced.latencies)
        failed += traced.failed
        metrics = layer_metrics(tracer.summary(), traced.involutions,
                                sum(traced.latencies) / sum(plain.latencies))
    else:
        lat_ms = [x * 1000 for x in plain.latencies]
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "latency_p50_ms": (statistics.median(lat_ms), "ms"),
            f"latency_p{TAIL_PERCENTILE}_ms": (percentile(lat_ms, TAIL_PERCENTILE), "ms"),
            "involutions_per_s": (plain.involutions / sum(plain.latencies), "1/s"),
        }
    print(f"# passes={plain.passes} attempted={attempted} failed={failed} "
          f"failed_ratio={failed / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
