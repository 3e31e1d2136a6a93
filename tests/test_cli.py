"""End-to-end checks of the command line front end."""

import contextlib
import csv
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pstrata.catalog import get_bundle
from pstrata.cli import _instance_block, main
from pstrata.errors import (
    EnumerationTooLarge,
    FrameRejected,
    NoStableFit,
    NotABoundary,
    RateOutOfRange,
)
from pstrata.gmodule import lower_p_series
from pstrata.lattice import Lattice


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out)


def test_catalog_listing(capsys):
    payload = run_json(capsys, "catalog")
    names = [row["name"] for row in payload["catalog"]]
    assert "trivial" in names and "remark27" in names
    assert all(set(r) == {"name", "d", "description"} for r in payload["catalog"])


def test_catalog_export(capsys):
    payload = run_json(capsys, "catalog", "--catalog", "Gm2")
    assert set(payload) == {"name", "description", "p", "N", "generators", "lattice",
                            "extra_weights", "expected_rates"}
    assert payload["name"] == "Gm2"
    assert payload["extra_weights"] == ["1"]
    assert len(payload["generators"]) == 1
    assert len(payload["generators"][0]) == 5


def test_an_unknown_catalog_entry_is_named_without_quotes(capsys):
    # the message of the KeyError, not its repr
    assert main(["series", "--catalog", "nosuch", "--imax", "3"]) == 3
    assert capsys.readouterr().err.startswith(
        "pstrata: invalid input: unknown catalog entry 'nosuch'; available: ")


@pytest.mark.parametrize("verb,flag,field", [
    ("series", "--input", "generators"), ("hdim", "--subgroup", "rows"),
])
def test_a_missing_field_is_named(tmp_path, capsys, verb, flag, field):
    path = tmp_path / "file.json"
    path.write_text(json.dumps({"p": 2, "N": 8}))
    argv = [verb, flag, str(path), "--imax", "4"]
    if verb == "hdim":
        argv += ["--catalog", "eisenstein2", "--denom-bound", "4"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f'pstrata: invalid input: {path} has no "{field}" field\n'


def test_catalog_export_has_no_csv_form(capsys):
    # the flags clash, the input is not at fault: a usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--catalog", "Gm2", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "pstrata: error: a catalog export has no CSV form; drop --format csv")


def test_series_json(capsys):
    payload = run_json(capsys, "series", "--catalog", "eisenstein2", "--imax", "10")
    assert payload["provenance"]["source"] == "eisenstein2"
    assert payload["profiles"][0] == [0, 0]
    assert payload["profiles"][2] == [1, 1]
    assert payload["log_indices"][:3] == [0, 1, 2]
    inst = payload["instance"]
    assert inst["p"] == 2 and inst["N"] == 12
    assert len(inst["generators"]) == 1


def test_series_csv(capsys):
    code, out = run(capsys, "series", "--catalog", "trivial", "--imax", "6",
                    "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["i", "m_1", "m_2", "m_3", "log_index"]
    assert len(lines) == 8  # header + i = 0..6


def test_series_csv_rows(tmp_path, capsys):
    inst = tmp_path / "shear.json"
    inst.write_text(json.dumps({"p": 2, "N": 10, "generators": [[[1, 1], [0, 1]]]}))
    code, out = run(capsys, "series", "--input", str(inst), "--imax", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "m_1", "m_2", "log_index"]
    assert len(rows) == 10  # header + i = 0..8
    assert rows[3] == ["2", "1", "2", "3"]


def test_stratify_report(capsys):
    payload = run_json(capsys, "stratify", "--catalog", "Gm2", "--imax", "24",
                       "--denom-bound", "8")
    assert payload["status"] == "certified-window"
    assert payload["sigma"] == {"fraction": "2/1", "value": 2.0}
    assert [r["fraction"] for r in payload["rates"]] == ["1/3"] * 3 + ["1/2"] * 2
    assert payload["c"] == 1
    assert payload["cycle"] is None
    env = payload["envelope"]
    assert env["ok"] and env["max_deviation"] <= env["bound"]
    assert len(payload["frame"]) == 5


def test_stratify_cycle_status(capsys):
    payload = run_json(capsys, "stratify", "--catalog", "eisenstein2",
                       "--imax", "12", "--denom-bound", "4")
    assert payload["status"] == "exact-cycle"
    assert payload["cycle"] == {"j": 0, "m": 2, "n": 1}


def test_stratify_csv_has_predictions(capsys):
    code, out = run(capsys, "stratify", "--catalog", "eisenstein2", "--imax", "12",
                    "--denom-bound", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["i", "m_1", "m_2", "pred_1", "pred_2"]
    # i=4: profile (2,2), prediction floor(4/2) twice
    assert lines[4].split(",") == ["4", "2", "2", "2", "2"]


def test_series_report_reingests(tmp_path, capsys):
    # a series report and a catalog export are both read back by --input
    direct = tmp_path / "direct.json"
    assert main(["stratify", "--catalog", "eisenstein2", "--imax", "12",
                 "--denom-bound", "4", "--out", str(direct)]) == 0
    b = json.loads(direct.read_text())
    for verb in ("series", "catalog"):
        f1 = tmp_path / f"{verb}.json"
        f2 = tmp_path / f"via_{verb}.json"
        assert main([verb, "--catalog", "eisenstein2", "--imax", "12",
                     "--out", str(f1)]) == 0
        assert main(["stratify", "--input", str(f1), "--imax", "12",
                     "--denom-bound", "4", "--out", str(f2)]) == 0
        a = json.loads(f2.read_text())
        for key in ("rates", "frame", "c", "status", "cycle", "sigma"):
            assert a[key] == b[key], (verb, key)
    capsys.readouterr()


def test_hdim_full_and_trivial(tmp_path, capsys):
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"rows": [[1, 0], [0, 1]], "coordinates": "ambient"}))
    payload = run_json(capsys, "hdim", "--catalog", "eisenstein2", "--imax", "12",
                       "--denom-bound", "4", "--subgroup", str(full))
    assert payload["exact"] == {"fraction": "1/1", "value": 1.0}
    assert payload["strong"] is True
    triv = tmp_path / "triv.json"
    triv.write_text(json.dumps({"rows": [], "coordinates": "frame"}))
    payload = run_json(capsys, "hdim", "--catalog", "eisenstein2", "--imax", "12",
                       "--denom-bound", "4", "--subgroup", str(triv))
    assert payload["exact"] == {"fraction": "0/1", "value": 0.0}


def test_hdim_lattice_only_flag(tmp_path, capsys):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"rows": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                        [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                                        [0, 0, 0, 0, 1]],
                               "coordinates": "frame"}))
    args = ["hdim", "--catalog", "Gm2", "--imax", "24", "--denom-bound", "8",
            "--subgroup", str(sub)]
    weighted = run_json(capsys, *args)
    assert weighted["exact"]["fraction"] == "2/3"
    plain = run_json(capsys, *args, "--lattice-only")
    assert plain["exact"]["fraction"] == "1/1"


def test_spectrum_counts(capsys):
    payload = run_json(capsys, "spectrum", "--catalog", "trivial", "--imax", "10",
                       "--denom-bound", "4")
    assert payload["count"] == 4
    assert [v["fraction"] for v in payload["values"]] == ["0/1", "1/3", "2/3", "1/1"]
    weighted = run_json(capsys, "spectrum", "--catalog", "Gm2", "--imax", "24",
                        "--denom-bound", "8")
    assert weighted["count"] == 17
    plain = run_json(capsys, "spectrum", "--catalog", "Gm2", "--imax", "24",
                     "--denom-bound", "8", "--lattice-only")
    assert plain["count"] == 11


def test_exit_precision_exhausted(tmp_path, capsys):
    inst = tmp_path / "deep.json"
    inst.write_text(json.dumps({
        "p": 2, "N": 8,
        "generators": [[[1, 0], [0, 1]]],
        "lattice": [[128, 0], [0, 1]],
    }))
    code = main(["series", "--input", str(inst), "--imax", "6"])
    capsys.readouterr()
    assert code == 2


def test_exit_uncertified_subgroup_pivots(tmp_path, capsys):
    # imax 12 runs at N = 14; pivot exponents 7 + 7 reach it
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"rows": [[128, 0], [0, 128]], "coordinates": "frame"}))
    code = main(["hdim", "--catalog", "eisenstein2", "--imax", "12", "--denom-bound", "4",
                 "--subgroup", str(sub)])
    assert code == 2
    assert "not certified" in capsys.readouterr().err


def test_exit_invalid_input(tmp_path, capsys):
    assert main(["series", "--catalog", "nope", "--imax", "6"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["series", "--input", str(bad), "--imax", "6"]) == 3
    assert main(["series", "--catalog", "trivial", "--imax", "6",
                 "--precision", "4"]) == 3
    assert main(["stratify", "--catalog", "Gm2", "--imax", "24",
                 "--denom-bound", "0"]) == 3
    missing = tmp_path / "missing.json"
    assert main(["series", "--input", str(missing), "--imax", "6"]) == 3
    # p = 1 used to hang in the valuation loop, p = 0 to divide by zero
    assert main(["series", "--catalog", "trivial", "--imax", "6", "--p", "1"]) == 3
    assert main(["series", "--catalog", "trivial", "--imax", "6", "--p", "0"]) == 3
    # --p 0 with a file that names no p used to run silently at p = 2
    no_p = tmp_path / "no_p.json"
    no_p.write_text(json.dumps({"N": 10, "generators": [[[1, 2], [0, 1]]]}))
    assert main(["series", "--input", str(no_p), "--imax", "6", "--p", "0"]) == 3
    # a top-level array used to end in an AttributeError traceback, and a
    # float generator entry was truncated to an integer
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(["series", "--input", str(array), "--imax", "6"]) == 3
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"p": 2, "N": 10, "generators": [[[1, 1.5], [0, 1]]]}))
    assert main(["series", "--input", str(fractional), "--imax", "6"]) == 3
    # a float lattice entry, and generators or extra_weights that are not
    # lists, ended in TypeError tracebacks; a float p or N was truncated;
    # a weight 1/0 ended in a ZeroDivisionError traceback
    for bad_fields in ({"lattice": [[1.5, 0], [0, 1]]}, {"generators": 5}, {"generators": [5]},
                       {"p": 2.5}, {"N": 10.0}, {"extra_weights": 5}, {"extra_weights": ["1/0"]}):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(
            {"p": 2, "N": 10, "generators": [[[1, 2], [0, 1]]], **bad_fields}))
        assert main(["series", "--input", str(inst), "--imax", "6"]) == 3, bad_fields
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--imax", "-3"], ["--tolerance", "-1"],
                                   ["--tolerance", "nan"]])
def test_usage_errors(flags, capsys):
    # a negative --imax used to exit 3 with a lattice error, and a negative
    # --tolerance was accepted
    with pytest.raises(SystemExit) as exc:
        main(["hdim", "--catalog", "eisenstein2", "--subgroup", "sub.json", *flags])
    assert exc.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["series", "--catalog", "eisenstein2", "--imax", "24", "--tolerance", "5"],
    ["series", "--catalog", "eisenstein2", "--imax", "24", "--denom-bound", "4"],
    ["stratify", "--catalog", "eisenstein2", "--imax", "24", "--tolerance", "5"],
    ["spectrum", "--catalog", "Gm2", "--imax", "24", "--tolerance", "5"],
    ["catalog", "--catalog", "Gm2", "--denom-bound", "4"],
    ["catalog", "--tolerance", "5"],
])
def test_a_verb_refuses_a_flag_it_does_not_read(argv, capsys):
    # each of these flags used to be accepted and silently ignored
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_denom_bound_is_checked_before_the_series(monkeypatch, capsys):
    def no_series(*args):
        raise AssertionError("the series ran before the bound was checked")

    monkeypatch.setattr("pstrata.cli.lower_p_series", no_series)
    assert main(["stratify", "--catalog", "remark27", "--imax", "128",
                 "--denom-bound", "0"]) == 3
    capsys.readouterr()


def test_defaulted_denom_bound_blames_imax(capsys):
    # the default bound (imax - 2) // 2 is 0 below imax 4; the message used
    # to name --denom-bound, which was never set
    assert main(["stratify", "--catalog", "remark27", "--imax", "3"]) == 3
    err = capsys.readouterr().err
    assert "--imax must be at least 4" in err
    assert "denominator bound" not in err


def test_a_short_window_runs_at_the_default_bound_of_one(tmp_path, capsys):
    # below imax 4 the default bound runs as 1: eisenstein2's blocks repeat
    # by imax 2, so its rates are read off them and no bound is read
    payload = run_json(capsys, "stratify", "--catalog", "eisenstein2", "--imax", "2")
    assert (payload["c"], payload["status"], payload["cycle"]) == (
        1, "exact-cycle", {"j": 0, "m": 2, "n": 1})
    assert [r["fraction"] for r in payload["rates"]] == ["1/2", "1/2"]
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"rows": [[1, 0]], "coordinates": "frame"}))
    payload = run_json(capsys, "hdim", "--catalog", "eisenstein2", "--imax", "2",
                       "--subgroup", str(sub))
    assert payload["exact"] == payload["last_quotient"] == {"fraction": "1/2", "value": 0.5}
    assert payload["strong"] is True


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    return [line.split("#")[0].split()[1:]
            for line in README.read_text().splitlines() if line.startswith("pstrata ")]


def _readme_subgroup_file():
    block = README.read_text().split("Subgroup files for `hdim`:")[1].split("```json")[1]
    return block.split("```")[0]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub.json").write_text(_readme_subgroup_file())
    assert main(argv) == 0
    capsys.readouterr()


def test_readme_python_block(capsys):
    # every print in the quick start prints what its comment says
    block = README.read_text().split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md", "exec"), {})
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected


def test_exit_non_pro_p_action(tmp_path, capsys):
    # unipotent generators of SL_2(F_2): the series stalls at step 1
    inst = tmp_path / "sl2.json"
    inst.write_text(json.dumps({
        "p": 2, "N": 12,
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
    }))
    assert main(["series", "--input", str(inst), "--imax", "10"]) == 4
    assert "grew too slowly" in capsys.readouterr().err


def test_exit_domain_failure(tmp_path, capsys):
    inst = tmp_path / "wide.json"
    inst.write_text(json.dumps({
        "p": 2, "N": 12,
        "generators": [[[1, 0], [0, 1]]],
        "extra_weights": [f"1/{k}" for k in range(2, 43)],
    }))
    code = main(["spectrum", "--input", str(inst), "--imax", "10",
                 "--denom-bound", "4"])
    capsys.readouterr()
    assert code == 4


@pytest.mark.parametrize("error", [NoStableFit, FrameRejected, RateOutOfRange, NotABoundary,
                                   EnumerationTooLarge])
def test_domain_errors_exit_4_with_their_name(error, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error("no luck")

    monkeypatch.setattr("pstrata.cli.run_stratification", failing)
    assert main(["stratify", "--catalog", "trivial", "--imax", "6"]) == 4
    assert capsys.readouterr().err == f"pstrata: {error.__name__}: no luck\n"


# Gm2 at p 2 conjugated to U^-1 g U, U an integer matrix of determinant 1
GM2_CONJUGATED = {"p": 2, "generators": [[[1, -1, 0, 0, -1], [2, 1, 0, 2, 0], [0, 1, 1, 1, 1],
                                          [0, 2, 0, 1, 1], [-2, 0, 2, -4, 1]]]}


def test_no_period_within_the_bound_exits_4_naming_the_column(tmp_path, capsys):
    # conjugated Gm2 is one block whose terms have no period by imax 64, so
    # its rates are read off the profile periods; bound 1 reads none of them
    inst = tmp_path / "gm2-conj.json"
    inst.write_text(json.dumps(GM2_CONJUGATED))
    assert main(["stratify", "--input", str(inst), "--imax", "64", "--denom-bound", "1"]) == 4
    assert capsys.readouterr().err == (
        "pstrata: NoStableFit: coordinate 0: no period m <= 1 holds over the last 32 of 64 "
        "samples (best: m = 1 over 1)\n")


def test_a_block_that_never_hits_certifies_below_its_period(capsys):
    # random seed 8 at imax 24 is one block with no hit, whose stepped terms
    # have a period: the rates are its shifts over it, so bound 1 is not read
    assert main(["stratify", "--catalog", "random", "--seed", "8", "--imax", "24",
                 "--denom-bound", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["fraction"] for r in out["rates"]] == ["1/2", "1/2", "1/1"]
    assert (out["c"], out["status"], out["cycle"]) == (1, "certified-window", None)


def test_a_graded_period_certifies_below_its_period(capsys):
    # every coordinate block repeats by imax, so the bound is not read:
    # bound 1 still gives the blocks' rates, with periods up to 5; Gm3's
    # blocks all hit by imax 16, although the lcm of their periods is 30
    for name, imax, rates in [("Gm2", "64", ["1/3"] * 3 + ["1/2"] * 2),
                              ("Gm3", "16", ["1/5"] * 5 + ["1/3"] * 3 + ["1/2"] * 2)]:
        assert main(["stratify", "--catalog", name, "--imax", imax, "--denom-bound", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [r["fraction"] for r in out["rates"]] == rates
        assert (out["c"], out["status"], out["cycle"]) == (1, "certified-window", None)


def test_malformed_input_json_is_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads("{not json")
    assert main(["stratify", "--input", str(bad), "--imax", "6"]) == 3
    assert capsys.readouterr().err == f"pstrata: invalid input: {exc.value}\n"


def test_bad_subgroup_coordinates(tmp_path, capsys):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"rows": [[1, 0]], "coordinates": "polar"}))
    code = main(["hdim", "--catalog", "eisenstein2", "--imax", "12",
                 "--denom-bound", "4", "--subgroup", str(sub)])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("doc", [
    # a float entry was truncated to an integer with exit 0; rows that are
    # not a list and a top-level array ended in TypeError tracebacks
    {"rows": [[1.5, 0]], "coordinates": "frame"},
    {"rows": [[1.5, 0]]},
    {"rows": 5},
    [1],
])
def test_bad_subgroup_file(tmp_path, capsys, doc):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(doc))
    code = main(["hdim", "--catalog", "eisenstein2", "--imax", "12",
                 "--denom-bound", "4", "--subgroup", str(sub)])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize("rows", [[[1, 0, 0]], [[1]]])
def test_subgroup_rows_of_wrong_width(tmp_path, capsys, rows):
    # ambient rows wider than d were silently truncated, narrower ones
    # ended in an IndexError traceback
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"rows": rows}))
    code = main(["hdim", "--catalog", "eisenstein2", "--imax", "12",
                 "--denom-bound", "4", "--subgroup", str(sub)])
    capsys.readouterr()
    assert code == 3


def _restarted(tmp_path, name, start, N):
    """(instance file, L): the catalog entry at p = 2 whose lattice L is its term `start`."""
    b = get_bundle(name, p=2, N=N)
    L = lower_p_series(b.lattice, b.action, start).terms[start]
    path = tmp_path / f"{name}-{start}.json"
    path.write_text(json.dumps(_instance_block(L, b.action, ())))
    return path, L


@pytest.mark.parametrize("name,start,status", [
    ("eisenstein2", 2, "exact-cycle"),
    ("Gm2", 1, "certified-window"),
    ("remark27", 2, "certified-window"),
])
def test_stratify_a_restarted_series(tmp_path, capsys, name, start, status):
    # every start other than Z_p^d ended in FrameRejected: the frame was
    # mapped by L's basis before its window constant, out of Z_p^d
    imax = 24
    path, L = _restarted(tmp_path, name, start, imax + 2 + start)
    payload = run_json(capsys, "stratify", "--input", str(path), "--imax", str(imax),
                       "--denom-bound", "8")
    assert (payload["status"], payload["c"]) == (status, 1)
    # the frame is reported in the ambient, as F B: a basis of L
    assert Lattice.from_rows(2, L.N, L.d, payload["frame"]) == L


def test_a_restart_costs_its_lower_level_in_precision(tmp_path, monkeypatch, capsys):
    imax = 24
    path, L = _restarted(tmp_path, "Gm2", 1, imax + 2)
    assert L.lower_level == 1
    with monkeypatch.context() as m:
        m.setattr("pstrata.cli.lower_p_series", None)  # checked before any series work
        assert main(["series", "--input", str(path), "--imax", str(imax)]) == 2
    err = capsys.readouterr().err
    assert "lower level 1" in err and f"precision at least {imax + 3}" in err
    path, L = _restarted(tmp_path, "Gm2", 1, imax + 3)
    payload = run_json(capsys, "series", "--input", str(path), "--imax", str(imax))
    assert payload["provenance"]["N"] == imax + 3
    # the series of L is the tail of the series of Z_p^d, indexes counted from L
    b = get_bundle("Gm2", p=2, N=imax + 3)
    full = lower_p_series(b.lattice, b.action, imax + 1).log_indices
    assert payload["log_indices"] == [x - full[1] for x in full[1:]]


@pytest.mark.parametrize("rows,code,message", [
    ([[2, 0, 0, 0, 0], [0, 1, 0, 0, 0]], 0, ""),
    ([[1, 0, 0, 0, 0]], 3, "does not lie in the instance's lattice"),
    ([[2, 0, 0, 0, 0, 0]], 3, "must have length 5"),
    ([[2]], 3, "must have length 5"),
])
def test_hdim_of_a_restarted_series(tmp_path, capsys, rows, code, message):
    # ambient rows are solved in the lattice diag(2, 1, 2, 1, 1), width first
    imax = 24
    path, L = _restarted(tmp_path, "Gm2", 1, imax + 3)
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"rows": rows}))
    argv = ["--imax", str(imax), "--denom-bound", "8", "--subgroup", str(sub)]
    assert main(["hdim", "--input", str(path), *argv]) == code
    out, err = capsys.readouterr()
    assert message in err
    if code == 0:
        # a finite-index subgroup of the same rank as at the standard start
        sub.write_text(json.dumps({"rows": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]}))
        plain = run_json(capsys, "hdim", "--catalog", "Gm2", "--lattice-only", *argv)
        assert json.loads(out)["exact"] == plain["exact"]


def test_out_file_and_version(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["series", "--catalog", "trivial", "--imax", "6",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["provenance"]["tool"] == "pstrata"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pstrata ")


def test_random_catalog_instance(capsys):
    payload = run_json(capsys, "stratify", "--catalog", "random", "--seed", "5",
                       "--imax", "32")
    assert payload["status"] in ("exact-cycle", "certified-window")
    assert payload["envelope"]["ok"]


# -- fuzzing -----------------------------------------------------------

json_scalar = st.one_of(st.none(), st.booleans(), st.integers(-3, 20), st.floats(width=16),
                        st.text(max_size=3))
json_value = st.recursive(
    json_scalar,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=10,
)
entry = st.one_of(st.integers(-2, 9), json_scalar)
matrix = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))
instance = st.fixed_dictionaries(
    {"generators": st.one_of(st.lists(matrix, max_size=2), json_value)},
    optional={
        "p": st.one_of(st.integers(-1, 6), json_scalar),
        "N": st.one_of(st.integers(-1, 14), json_scalar),
        "lattice": st.one_of(matrix, json_value),
        "extra_weights": st.one_of(st.lists(st.one_of(st.integers(0, 3), st.sampled_from(
            ["1/2", "1e-3", "x", "inf"]), json_scalar), max_size=2), json_value),
    },
)


@st.composite
def near_valid_instance(draw):
    """Pro-2 generators (identity plus 2 times small entries) of one size."""
    d = draw(st.integers(1, 3))
    small = st.integers(-2, 2)

    def unipotent():
        return [[int(i == j) + 2 * draw(small) for j in range(d)] for i in range(d)]

    obj = {"generators": [unipotent() for _ in range(draw(st.integers(1, 2)))]}
    if draw(st.booleans()):
        obj["p"] = 2
    if draw(st.booleans()):
        obj["N"] = draw(st.integers(0, 14))
    if draw(st.booleans()):
        obj["lattice"] = draw(st.sampled_from([unipotent(), [[2 * int(i == j) for j in range(d)]
                                                           for i in range(d)]]))
    if draw(st.booleans()):
        obj["extra_weights"] = draw(st.lists(st.sampled_from([0, 1, "1/2", "1/0"]), max_size=2))
    return obj


subgroup = st.fixed_dictionaries(
    {"rows": st.one_of(st.integers(1, 3).flatmap(lambda d: st.lists(
        st.lists(st.integers(-3, 9), min_size=d, max_size=d), max_size=d + 1)),
        st.lists(st.lists(entry, max_size=3), max_size=3), json_value)},
    optional={"coordinates": st.sampled_from(["frame", "ambient", "x"])},
)
flag = st.one_of(st.none(), st.integers(-2, 12))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    verb=st.sampled_from(["series", "stratify", "hdim", "spectrum"]),
    inst=st.one_of(near_valid_instance(), near_valid_instance().map(lambda i: {"instance": i}),
                   instance, json_value),
    sub=st.one_of(subgroup, json_value),
    # the default --denom-bound refuses imax below 4
    p=flag, imax=st.one_of(st.integers(4, 8), st.integers(-2, 8)), precision=flag,
)
def test_fuzz_main_exit_codes(tmp_path_factory, verb, inst, sub, p, imax, precision):
    # whatever the files and flags hold, main() ends in a documented exit
    # code, never in a traceback
    root = tmp_path_factory.mktemp("fuzz")
    (root / "inst.json").write_text(json.dumps(inst))
    (root / "sub.json").write_text(json.dumps(sub))
    argv = [verb, "--input", str(root / "inst.json"), "--imax", str(imax)]
    if verb == "hdim":
        argv += ["--subgroup", str(root / "sub.json")]
    if p is not None:
        argv += ["--p", str(p)]
    if precision is not None:
        argv += ["--precision", str(precision)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
