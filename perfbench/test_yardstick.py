"""Checks of the yardstick scaling.

    python3 -m pytest perfbench
"""

import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import yardstick  # noqa: E402


def test_yardstick_work_is_fixed_and_independent_of_the_library():
    assert yardstick.work() == yardstick.work()
    assert not any(name == "pstrata" or name.startswith("pstrata.")
                   for name in yardstick.__dict__)


def test_sampling_waits_for_the_interval():
    stick = yardstick.Yardstick()
    stick.start_pass()
    assert stick.between_ops() == 0
    assert stick.between_ops() == 0  # too soon: no new sampling
    stick.sample()
    assert len(stick.samplings) == 2
    mean = (stick.samplings[0] + stick.samplings[1]) / 2
    assert stick.scale_after(0) == yardstick.REFERENCE_S / mean


def _pass(series, stratify, scale_series, scale_stratify):
    return SimpleNamespace(seconds={"a/series": ("series_s", series),
                                    "a/stratify": ("stratify_s", stratify)},
                           scale={"a/series": scale_series, "a/stratify": scale_stratify})


def test_each_operation_is_scaled_by_the_yardstick_around_it():
    wl = SimpleNamespace(name="deep-remark27", metrics=("series_s", "stratify_s"))
    # the same work, measured at several speeds, each seen by the yardstick
    passes = [_pass(2.0, 6.0, 0.5, 0.5), _pass(1.0, 4.5, 1.0, 2 / 3),
              _pass(1.5, 3.0, 2 / 3, 1.0)]
    out = run.end_to_end(wl, passes, [0.1, 0.3, 0.2])
    assert abs(out["series_s"] - 1.0) < 1e-12
    assert abs(out["stratify_s"] - 3.0) < 1e-12
    assert abs(out["total_s"] - 4.0) < 1e-12
    assert out["setup_s"] == 0.2
