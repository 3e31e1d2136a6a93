"""Checks of the benchmark's layer counters.

    python3 -m pytest perfbench
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.use_source_tree()

import layers  # noqa: E402
import workloads  # noqa: E402
from pstrata import lattice, padic  # noqa: E402

COUNTS = [n for n, (unit, _, _) in layers.LAYER_METRICS.items() if unit == "count"]


def _small_battery():
    wl = workloads.WORKLOADS["battery"]
    return wl, wl.build(0)[:4]


def test_counts_repeat_exactly_between_traced_passes():
    wl, inst = _small_battery()
    wl.run_pass(inst)  # warm-up fills the per-lattice caches, as in a run
    seen = []
    for _ in range(2):
        rec = layers.Recorder().install()
        try:
            wl.run_pass(inst)
        finally:
            rec.uninstall()
        seen.append(layers.layer_metrics(rec.snapshot()))
    first, second = ({n: m[n] for n in COUNTS} for m in seen)
    assert first == second
    assert first["lattice.from_rows.calls"] > 0
    assert first["hausdorff.hdim_numeric.calls"] == 4 * wl.SUBGROUPS


def test_every_binding_of_a_function_is_wrapped_and_restored():
    original = padic.hermite_rows
    rec = layers.Recorder().install()
    try:
        assert lattice.hermite_rows is padic.hermite_rows is not original
        assert rec.missing == []
    finally:
        rec.uninstall()
    assert lattice.hermite_rows is padic.hermite_rows is original


def test_a_moved_function_keeps_its_count():
    targets = {"padic.hermite_rows": ("pstrata.no_such_module", "hermite_rows")}
    rec = layers.Recorder(targets).install()
    try:
        padic.hermite_rows([[1, 0], [0, 1]], 2, 8)
    finally:
        rec.uninstall()
    assert rec.snapshot()["stats"]["padic.hermite_rows"]["calls"] == 1


def test_a_vanished_function_is_missing_not_zero():
    targets = dict(layers.TARGETS)
    targets["padic.hermite_rows"] = ("pstrata.padic", "hermite_rows_gone")
    rec = layers.Recorder(targets).install()
    rec.uninstall()
    metrics = layers.layer_metrics(rec.snapshot())
    assert metrics["padic.hermite_rows.calls"] == "missing"
    assert metrics["padic.smith_rows.calls"] == 0


def test_result_line_names_match_the_benchmark_definition():
    import json

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
