"""pstrata benchmark: end-to-end timings per workload, per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep-remark27 --seed 0 --seconds 20 --trace 0

It imports pstrata from ``src/`` of the checkout (nothing is installed),
builds the workload's instances from the seed, runs one untimed warm-up
pass, then repeats timed passes for ``--seconds`` seconds and checks
every output against ``reference.json`` (or, for seeds without a
reference, against the independent checks of the criterion-7 battery).
A timing metric is the median over passes of the seconds its operations
took in that pass, each scaled to the reference machine speed by the
yardstick timed around it (yardstick.py).  Set-up time is the median
over fresh processes started between the passes, unscaled.

With ``--trace 1`` untraced and traced passes alternate (calls into each
layer's public functions wrapped from outside, see layers.py); the
difference between the two is reported as the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_FIRST = 3  # then one more after each timed pass
IMPORT_RUNS = 7

# in the result line with --trace 0: defined and nonzero on every workload
END_TO_END = {"setup_s": "s", "total_s": "s", "series_s": "s", "stratify_s": "s",
              "peak_rss_mb": "MB"}
# printed where the workload has them, but absent from some workloads
PRINTED_ONLY = {"hdim_s": "s", "spectrum_s": "s"}
# in the result line with --trace 1.  The other layer metrics are printed
# only: the hausdorff times read 0 on workloads that never call the layer,
# and the spectrum size is no cost.
PER_LAYER = (
    "padic.hermite_rows.calls", "padic.hermite_rows.cells", "padic.hermite_rows.s",
    "padic.smith_rows.calls", "padic.smith_rows.cells", "padic.smith_rows.s",
    "lattice.from_rows.calls", "lattice.from_rows.self_s", "lattice.lower_level.calls",
    "lattice.solve.calls",
    "gmodule.lower_p_series.s", "gmodule.step_s", "gmodule.check_invariance.calls",
    "gmodule.check_invariance.s",
    "strata.detect_cycle.s", "strata.fit_rational.calls", "strata.fit_rational.s",
    "strata.run_stratification.self_s", "strata.extract_frame.calls",
    "strata.extract_frame.rejected", "strata.extract_frame.s", "strata.certify_equivalence.s",
    "hausdorff.hdim_numeric.calls",
    "catalog.build_s", "cli.import_s", "trace.overhead_s",
)


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def use_source_tree():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "pstrata", "__init__.py")):
        fail(f"no pstrata source tree under {SRC}")
    sys.path.insert(0, SRC)


def check_imported_from_source_tree():
    import pstrata

    if not os.path.abspath(pstrata.__file__).startswith(SRC + os.sep):
        fail(f"pstrata was imported from {pstrata.__file__}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


# -- child processes -----------------------------------------------------


def setup_child(workload: str, seed: int):
    """Fresh process: time import pstrata plus building the instances."""
    t0 = time.perf_counter()
    import pstrata  # noqa: F401  (the import is what is timed)
    import workloads

    workloads.WORKLOADS[workload].build(seed)
    dt = time.perf_counter() - t0
    check_imported_from_source_tree()
    print(json.dumps({"setup_s": dt}))


class Runner:
    """Starts child processes, one at a time."""

    def __init__(self):
        self.env = child_env()

    def run(self, cmd):
        """Run cmd to its end: (exit code, stdout bytes, wall seconds)."""
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=self.env, cwd=ROOT)
        return proc.returncode, proc.stdout, time.perf_counter() - t0

    def cli(self, argv):
        return self.run([sys.executable, "-m", "pstrata", *argv])

    def setup_seconds(self, workload: str, seed: int) -> float:
        """Set-up time measured inside one fresh process."""
        code, text, _ = self.run([sys.executable, os.path.join(HERE, "run.py"),
                                  "--setup-child", "--workload", workload,
                                  "--seed", str(seed)])
        if code != 0:
            fail(f"set-up of {workload} exited with {code}")
        return json.loads(text)["setup_s"]

    def import_seconds(self) -> float:
        """Cold import pstrata minus a bare interpreter, fastest of alternating runs."""
        bare, full = [], []
        for _ in range(IMPORT_RUNS):
            bare.append(self.run([sys.executable, "-c", "pass"])[2])
            full.append(self.run([sys.executable, "-c", "import pstrata"])[2])
        return min(full) - min(bare)


# -- checking outputs ----------------------------------------------------


class Checker:
    """Counts operations and failures; an output must match its reference."""

    def __init__(self, wl, inst, seed: int):
        with open(REFERENCE) as fh:
            ref = json.load(fh)[wl.name]
        self.expected = dict(ref["any_seed"])
        self.expected.update(ref["seed"].get(str(seed), {}))
        self.wl, self.inst = wl, inst
        self.first = {}  # digests of checked outputs without a reference
        self.attempted = self.failed = 0
        self.failures = []

    def check_pass(self, pas):
        import workloads

        for op, (kind, value) in sorted(pas.ops.items()):
            self.attempted += 1
            ok = self._ok(workloads, op, kind, value, pas.ops)
            if not ok:
                self.failed += 1
                if len(self.failures) < 5:
                    why = type(value).__name__ if isinstance(value, Exception) else "mismatch"
                    self.failures.append(f"{op}: {why}")

    def _ok(self, workloads, op, kind, value, ops) -> bool:
        if isinstance(value, Exception):
            return False
        got = workloads.digest(kind, value)
        if op in self.expected:
            return got == self.expected[op]
        if kind not in self.wl.seeded_kinds:
            return False  # every seed-independent output has a reference
        if op not in self.first:
            self.first[op] = got if self.wl.check(self.inst, op, value, ops) else None
        return got == self.first[op]


# -- measuring -----------------------------------------------------------


def timed_pass(wl, inst, checker, stick=None):
    if stick is not None:
        stick.start_pass()
    t0 = time.perf_counter()
    pas = wl.run_pass(inst, stick)
    pas.wall = time.perf_counter() - t0
    if stick is not None:
        stick.sample()  # the sampling after the last operation
        pas.yardstick_s = stick.mean()
        pas.scale = {op: stick.scale_after(k) for op, k in pas.sampling.items()}
    checker.check_pass(pas)
    pas.ops = None  # keep the times only, so memory does not grow with passes
    return pas


def measure(wl, inst, checker, seconds: float, stick, after_pass) -> list:
    """Timed passes until `seconds` have elapsed (at least one).

    The yardstick samples between the operations.  after_pass(pass) runs
    between passes, outside their timing.
    """
    wl.run_pass(inst, stick)  # warm-up: the first pass in a process runs slow
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(timed_pass(wl, inst, checker, stick))
        after_pass(passes[-1])
    return passes


def per_op(passes, estimate) -> dict:
    """op id -> (metric it counts toward, estimate of its seconds over the passes)."""
    samples = {}
    for pas in passes:
        for op, (metric, dt) in pas.seconds.items():
            samples.setdefault(op, (metric, []))[1].append(dt)
    return {op: (metric, estimate(v)) for op, (metric, v) in samples.items()}


def by_metric(ops: dict, metrics) -> dict:
    """Sum op id -> (metric, seconds) per metric; total_s sums every operation."""
    out = {"total_s": sum(t for _, t in ops.values())}
    for metric in metrics:
        out[metric] = sum(t for m, t in ops.values() if m == metric)
    return out


def per_metric(passes, estimate, metrics) -> dict:
    """Each metric is the sum of its operations' estimates over the passes."""
    return by_metric(per_op(passes, estimate), metrics)


def end_to_end(wl, passes, setup) -> dict:
    # The host's speed drifts for minutes at a time, slowing everything that
    # runs; each operation is scaled by the yardstick timed around it.
    out = {"setup_s": statistics.median(setup)}
    scaled = []
    for pas in passes:
        ops = {op: (metric, dt * pas.scale[op]) for op, (metric, dt) in pas.seconds.items()}
        scaled.append(by_metric(ops, wl.metrics))
    for metric in scaled[0]:
        out[metric] = statistics.median(m[metric] for m in scaled)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def traced_layers(wl, inst, checker, seconds, build_snap, layers):
    """Untraced and traced passes, alternating so both meet the same machine.

    Returns both lists of passes, the per-layer metrics (fastest times,
    counts of one traced pass) and whether the counts repeated.
    """
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(timed_pass(wl, inst, checker))
        rec = layers.Recorder().install()
        try:
            traced.append(timed_pass(wl, inst, checker))
        finally:
            rec.uninstall()
        per_pass.append(layers.layer_metrics(layers.merge([build_snap, rec.snapshot()])))
    metrics = {}
    repeat = True
    for name, (unit, _, _) in layers.LAYER_METRICS.items():
        vals = [m[name] for m in per_pass]
        if vals[0] == "missing":
            metrics[name] = ("missing", unit)
        elif unit == "count":
            repeat = repeat and all(v == vals[0] for v in vals)
            metrics[name] = (vals[0], unit)
        else:
            metrics[name] = (min(vals), unit)
    return plain, traced, metrics, repeat


def run(args):
    use_source_tree()
    import layers
    import workloads
    import yardstick

    check_imported_from_source_tree()
    wl = workloads.WORKLOADS[args.workload]
    runner = Runner()
    setup = []

    def setup_sample(_pas=None):
        setup.append(runner.setup_seconds(wl.name, args.seed))

    build_rec = layers.Recorder()
    if args.trace:
        build_rec.install()
    else:
        for _ in range(SETUP_FIRST):
            setup_sample()
    try:
        inst = wl.build(args.seed)
    finally:
        build_rec.uninstall()
    checker = Checker(wl, inst, args.seed)
    if args.trace:
        wl.run_pass(inst)  # warm-up: the first pass in a process runs slow
        passes, traced, layer, repeat = traced_layers(wl, inst, checker, args.seconds,
                                                      build_rec.snapshot(), layers)
        overhead = (per_metric(traced, min, ())["total_s"]
                    - per_metric(passes, min, ())["total_s"])
        layer["cli.import_s"] = (runner.import_seconds(), "s")
        layer["trace.overhead_s"] = (overhead, "s")
        known = workloads.known_failures(runner)
    else:
        # set-up samples are spread between the passes, as the pass times are
        passes = measure(wl, inst, checker, args.seconds, yardstick.Yardstick(), setup_sample)
        e2e = end_to_end(wl, passes, setup)
        known = []

    print(f"perfbench {wl.name} seed {args.seed}: {len(passes)} untraced passes"
          + (f", {len(traced)} traced" if args.trace else ""))
    print("  wall seconds of each pass: " + " ".join(f"{p.wall:.4f}" for p in passes))
    ratio = checker.failed / checker.attempted
    print(f"  {'fail_ratio':<14} {ratio:.6f} ratio ({checker.failed} of "
          f"{checker.attempted} operations failed)")
    for line in checker.failures:
        print(f"    failed {line}")
    for name, expected, observed in known:
        state = "still failing" if observed == expected else "CHANGED"
        print(f"  known failure {name}: expected {expected}, observed {observed} ({state})")
    if args.trace:
        print(f"  layer counts repeat across traced passes: {repeat}")
        print("  traced wall seconds of each pass: "
              + " ".join(f"{p.wall:.4f}" for p in traced))
        for name, (value, unit) in layer.items():
            shown = value if isinstance(value, (str, int)) else f"{value:.6f}"
            print(f"  {name:<34} {shown} {unit}")
        # a missing metric is left out, so the gap shows
        result = {k: {"value": layer[k][0], "unit": layer[k][1]} for k in PER_LAYER
                  if layer[k][0] != "missing"}
    else:
        print("  yardstick mean of each pass: "
              + " ".join(f"{p.yardstick_s * 1e3:.3f}" for p in passes)
              + f" ms (reference {yardstick.REFERENCE_S * 1e3:.3f} ms)")
        print("  setup_s of each process: " + " ".join(f"{s:.4f}" for s in setup))
        units = dict(END_TO_END, **PRINTED_ONLY)
        fastest = per_metric(passes, min, wl.metrics)
        medians = per_metric(passes, statistics.median, wl.metrics)
        print("  times of passes scaled to the reference speed; unscaled: fastest pass "
              "per operation, median pass per operation")
        for name, value in e2e.items():
            also = f"  ({fastest[name]:.6f}, {medians[name]:.6f})" if name in medians else ""
            print(f"  {name:<14} {value:.6f} {units[name]}{also}")
        result = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result}))


def main():
    ap = argparse.ArgumentParser(description="pstrata benchmark")
    ap.add_argument("--workload", choices=("deep-remark27", "battery", "wide-gm"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_child:
        use_source_tree()
        setup_child(args.workload, args.seed)
        return
    run(args)


if __name__ == "__main__":
    main()
