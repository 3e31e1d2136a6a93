"""End-to-end checks of the command line front end."""

import json
from pathlib import Path

import pytest

from pstrata.cli import main


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
    assert payload["name"] == "Gm2"
    assert payload["extra_weights"] == ["1"]
    assert len(payload["generators"]) == 1
    assert len(payload["generators"][0]) == 5


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
    f1 = tmp_path / "series.json"
    f2 = tmp_path / "via_report.json"
    f3 = tmp_path / "direct.json"
    assert main(["series", "--catalog", "eisenstein2", "--imax", "12",
                 "--out", str(f1)]) == 0
    assert main(["stratify", "--input", str(f1), "--imax", "12",
                 "--denom-bound", "4", "--out", str(f2)]) == 0
    assert main(["stratify", "--catalog", "eisenstein2", "--imax", "12",
                 "--denom-bound", "4", "--out", str(f3)]) == 0
    capsys.readouterr()
    a = json.loads(f2.read_text())
    b = json.loads(f3.read_text())
    for key in ("rates", "frame", "c", "status", "cycle", "sigma"):
        assert a[key] == b[key]


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
    # a top-level array used to end in an AttributeError traceback, and a
    # float generator entry was truncated to an integer
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(["series", "--input", str(array), "--imax", "6"]) == 3
    fractional = tmp_path / "fractional.json"
    fractional.write_text(json.dumps({"p": 2, "N": 10, "generators": [[[1, 1.5], [0, 1]]]}))
    assert main(["series", "--input", str(fractional), "--imax", "6"]) == 3
    # a float lattice entry, and generators or extra_weights that are not
    # lists, ended in TypeError tracebacks; a float p or N was truncated
    for bad_fields in ({"lattice": [[1.5, 0], [0, 1]]}, {"generators": 5},
                       {"p": 2.5}, {"N": 10.0}, {"extra_weights": 5}):
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


def test_denom_bound_is_checked_before_the_series(monkeypatch, capsys):
    def no_series(*args):
        raise AssertionError("the series ran before the bound was checked")

    monkeypatch.setattr("pstrata.cli.lower_p_series", no_series)
    assert main(["stratify", "--catalog", "remark27", "--imax", "128",
                 "--denom-bound", "0"]) == 3
    capsys.readouterr()


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
