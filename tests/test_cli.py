"""Command-line interface: formats, regime labels, exit codes, determinism.

All invocations go through main(argv) in-process; stdout/stderr are
captured with capsys and files land in tmp_path.
"""

import json
import time
import math
import pathlib
import xml.etree.ElementTree as ET

import pytest

from bscbounds.cli import build_parser, main
from bscbounds import cli, verify
from bscbounds.verify import SUITE_NAMES

DATA = pathlib.Path(__file__).parent / "data"


def _parse_constants(text):
    out = {}
    for line in text.strip().splitlines():
        name, _, value = line.partition(" = ")
        out[name] = value
    return out


def test_constants_text(capsys):
    assert main(["constants", "--p", "0.1"]) == 0
    got = _parse_constants(capsys.readouterr().out)
    assert list(got) == ["tau0", "R0", "p1", "tau1", "R1", "omega1",
                         "tau_crit", "R_crit", "C", "omega_m",
                         "E_sp_zero", "E_zero"]
    # seven significant digits, exactly as %.7g renders them
    assert got["tau0"] == "0.05450696"
    assert got["R1"] == "0.1176189"
    assert got["omega1"] == "0.375"
    assert got["C"] == "0.5310044"
    assert float(got["E_sp_zero"]) == pytest.approx(
        2 * float(got["E_zero"]), rel=1e-6)


def test_constants_json(capsys):
    assert main(["constants", "--p", "0.1", "--format", "json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["operation"] == "constants"
    assert rec["inputs"] == {"p": 0.1}
    assert rec["value"]["R_crit"] == pytest.approx(0.1887218755, abs=1e-9)
    assert len(rec["value"]) == 12


def test_constants_out_file(tmp_path, capsys):
    target = tmp_path / "consts.txt"
    assert main(["constants", "--p", "0.1", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="ascii").startswith("tau0 = ")


def test_constants_bad_channel(capsys):
    assert main(["constants", "--p", "0.7"]) == 2
    assert capsys.readouterr().err.startswith("bscbounds: ")


@pytest.mark.parametrize("command", ["constants", "curve"])
def test_p_next_to_half_is_one_line(command, capsys):
    # 4pq rounds to 1, so log2(1/(4pq)) is 0: refused before dividing by it
    assert main([command, "--p", "0.499999999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "too close to 1/2" in err


def test_curve_csv_small_grid(capsys):
    rc = main(["curve", "--p", "0.1", "--rmin", "0.1", "--rmax", "0.2",
               "--step", "0.02"])
    assert rc == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert lines[0] == "R,p,E_sp,F,combined,regime"
    assert len(lines) == 7
    regimes = [ln.split(",")[5] for ln in lines[1:]]
    assert regimes == ["low_rate", "corollary1_segment", "corollary1_segment",
                      "corollary1_segment", "corollary1_segment",
                      "sphere_packing"]
    # segment row: combined column carries the closed segment value
    r14 = lines[3].split(",")
    assert float(r14[0]) == pytest.approx(0.14)
    assert float(r14[4]) == pytest.approx(0.1819280949, abs=1e-9)
    # above R_crit the F and combined columns may differ; E_sp == combined
    r20 = lines[6].split(",")
    assert float(r20[2]) == pytest.approx(float(r20[4]), abs=1e-12)


def test_curve_csv_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curve", "--p", "0.037", "--rmin", "0.05", "--rmax", "0.45",
            "--step", "0.08", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
    assert b"." in blob.split(b"\n")[1]    # dot decimals


def test_curve_default_grid(capsys):
    # defaults: 200 points from 0.01 to C - 0.001
    assert main(["curve", "--p", "0.1"]) == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert len(lines) == 201
    assert lines[1] == "0.01,0.1,0.560566432,0.3393587369,0.3393587369,low_rate"
    last_r = float(lines[-1].split(",")[0])
    assert last_r == pytest.approx(0.5310044064 - 0.001, abs=1e-9)


@pytest.mark.parametrize("p", ["0.1", "0.005"])
def test_curve_default_grid_matches_golden(p, capsys):
    # tests/data holds the default-grid CSVs as first recorded: every
    # printed number must stay within 1e-9 of them, every regime equal
    assert main(["curve", "--p", p]) == 0
    got = capsys.readouterr().out.rstrip("\n").split("\n")
    want = (DATA / f"curve_p{p}.csv").read_text(encoding="ascii").rstrip("\n").split("\n")
    assert got[0] == want[0]
    assert len(got) == len(want) == 201
    for g_line, w_line in zip(got[1:], want[1:]):
        g, w = g_line.split(","), w_line.split(",")
        assert g[5] == w[5]
        for g_field, w_field in zip(g[:5], w[:5]):
            assert abs(float(g_field) - float(w_field)) <= 1e-9, (g_line, w_line)


_ALL_KINDS = ("sphere_packing,F_bound,theorem1_min,corollary1,straight_line,"
              "combined")
_GRID = ["--rmin", "0.05", "--rmax", "0.5", "--step", "0.05"]


@pytest.mark.parametrize("golden, argv", [
    ("curve_p0.1_grid.json", ["--p", "0.1", "--format", "json"] + _GRID),
    ("curve_p0.1_segment_kinds.svg",
     ["--p", "0.1", "--format", "svg",
      "--bounds", "theorem1_min,combined,straight_line"] + _GRID),
    ("curve_p0.2_all_kinds.svg",      # every kind, on a grid in [R1, R_crit]
     ["--p", "0.2", "--format", "svg", "--bounds", _ALL_KINDS,
      "--rmin", "0.035", "--rmax", "0.08", "--step", "0.005"]),
], ids=["json", "svg-segment-kinds", "svg-all-kinds"])
def test_curve_output_matches_golden_bytes(golden, argv, capsys):
    # tests/data holds these outputs as first recorded, byte for byte
    assert main(["curve"] + argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="ascii")


def test_curve_json(capsys):
    rc = main(["curve", "--p", "0.1", "--rmin", "0.1", "--rmax", "0.2",
               "--step", "0.05", "--format", "json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["operation"] == "curve"
    assert rec["inputs"]["step"] == 0.05
    assert [row["R"] for row in rec["value"]] == pytest.approx([0.1, 0.15, 0.2])
    assert set(rec["value"][0]) == {"R", "p", "E_sp", "F", "combined", "regime"}


def test_curve_svg(tmp_path):
    target = tmp_path / "chart.svg"
    rc = main(["curve", "--p", "0.1", "--rmin", "0.05", "--rmax", "0.5",
               "--step", "0.05", "--format", "svg", "--out", str(target)])
    assert rc == 0
    root = ET.parse(str(target)).getroot()
    assert root.tag.endswith("svg")
    body = target.read_text(encoding="ascii")
    assert body.count("<polyline") == 3          # the three default bounds
    assert "R1" in body and "Rcrit" in body      # seam markers
    assert "p = 0.1" in body


def test_curve_svg_bounds_subset(tmp_path):
    target = tmp_path / "one.svg"
    rc = main(["curve", "--p", "0.1", "--rmin", "0.05", "--rmax", "0.5",
               "--step", "0.05", "--format", "svg",
               "--bounds", "sphere_packing", "--out", str(target)])
    assert rc == 0
    assert target.read_text(encoding="ascii").count("<polyline") == 1


def test_curve_svg_segment_kinds_need_segment_channel(capsys):
    rc = main(["curve", "--p", "0.005", "--rmin", "0.05", "--rmax", "0.1",
               "--step", "0.01", "--format", "svg", "--bounds", "corollary1"])
    assert rc == 2
    assert "segment channel" in capsys.readouterr().err


def test_curve_unknown_bound_kind(capsys):
    rc = main(["curve", "--p", "0.1", "--bounds", "no_such_bound"])
    assert rc == 2
    assert "unknown curve kind" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["curve", "--p", "0.1", "--format", "svg", "--bounds", ","],
    ["curve", "--p", "0.1", "--bounds", ""],
    ["verify", "--suite", "claims", "--p-grid", ","],
    ["verify", "--suite", "claims", "--p-grid", ""],
], ids=["bounds-comma", "bounds-empty", "p-grid-comma", "p-grid-empty"])
def test_list_flag_naming_nothing_is_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "at least one" in err


def test_curve_refuses_huge_grid(capsys):
    rc = main(["curve", "--p", "0.1", "--step", "1e-9"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and "points" in err


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_curve_refuses_non_finite_step(step, capsys):
    assert main(["curve", "--p", "0.1", "--step", step]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "step" in err and "finite" in err


def test_curve_unwritable_out(tmp_path, capsys):
    rc = main(["curve", "--p", "0.1", "--rmin", "0.1", "--rmax", "0.2",
               "--step", "0.05", "--out", str(tmp_path / "missing" / "x.csv")])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err


def test_verify_claims_bad_grid_is_one_line(capsys):
    rc = main(["verify", "--suite", "claims", "--p-grid", "abc"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("suite", ["prop1", "identity16", "hahn", "oracle"])
def test_verify_grid_for_other_suite_is_one_line(suite, capsys):
    assert main(["verify", "--suite", suite, "--p-grid", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "claims suite only" in err


def test_verify_all_runs_suite_table_with_grid(capsys):
    assert main(["verify", "--suite", "all", "--p-grid", "0.05,0.1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    names = [part["suite"] for part in rec["suites"]]
    assert names == [s for s in SUITE_NAMES if s != "all"]
    claims = rec["suites"][names.index("claims")]
    assert [st["p"] for st in claims["per_p"]] == [0.05, 0.1]
    assert rec["passed"] is True


def test_verify_looks_suites_up_when_run(monkeypatch, capsys):
    # a wrapper set on the module attribute (as a tracer sets one) is called
    stub = {"suite": "identity16", "passed": True, "checks": []}
    monkeypatch.setattr(verify, "suite_identity16", lambda: stub)
    assert main(["verify", "--suite", "identity16"]) == 0
    assert json.loads(capsys.readouterr().out) == stub


def test_verify_identity16(capsys):
    assert main(["verify", "--suite", "identity16"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["suite"] == "identity16"
    assert rec["passed"] is True


def test_verify_claims_custom_grid(tmp_path, capsys):
    target = tmp_path / "claims.json"
    rc = main(["verify", "--suite", "claims", "--p-grid", "0.05,0.1",
               "--out", str(target)])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert [st["p"] for st in rec["per_p"]] == [0.05, 0.1]
    assert json.loads(target.read_text(encoding="ascii")) == rec


def test_verify_claims_rejects_endpoint(capsys):
    assert main(["verify", "--suite", "claims", "--p-grid", "0.003"]) == 2
    assert "strictly inside" in capsys.readouterr().err


def test_oracle_repetition(capsys):
    assert main(["oracle", "--generator", "repetition", "--n", "3",
                 "--p", "0.1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["operation"] == "oracle"
    assert rec["inputs"]["n"] == 3 and rec["inputs"]["M"] == 2
    val = rec["value"]
    assert val["exact_pe_ml"] == pytest.approx(0.028, abs=1e-12)
    assert val["dominance_ok"] is True
    assert len(val["cover"]) == 4
    # odd pair distance: no output is equidistant from both words, so the
    # equidistance-based term is empty
    assert val["proposition3_best"] == {"t": None, "omega_dist": None,
                                        "value": 0.0}


def test_oracle_code_file(tmp_path, capsys):
    src = tmp_path / "code.txt"
    src.write_text("000\n111\n", encoding="ascii")
    assert main(["oracle", "--code-file", str(src), "--p", "0.2"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["inputs"]["code_file"] == str(src)
    assert rec["value"]["exact_pe_ml"] == pytest.approx(
        3 * 0.04 * 0.8 + 0.008, abs=1e-12)


def test_oracle_budget_exceeded(capsys):
    rc = main(["oracle", "--generator", "parity", "--n", "20", "--p", "0.1",
               "--budget", "10"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err


def test_oracle_generator_length_checked_before_building(capsys):
    # 70-bit words would overflow the generator's uint64 draws
    rc = main(["oracle", "--generator", "random", "--n", "70", "--m", "4",
               "--p", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "bscbounds: code length 70 exceeds the exhaustive budget 24\n"


def test_oracle_random_negative_length_is_one_line(capsys):
    rc = main(["oracle", "--generator", "random", "--n", "-3", "--m", "4",
               "--p", "0.1"])
    assert rc == 2
    assert capsys.readouterr().err == "bscbounds: random code needs n >= 1\n"


def test_oracle_random_length_over_census_cap_is_one_line(capsys):
    # a raised --budget lets n = 70 past the CLI; the generator refuses it
    # before drawing 70-bit words
    rc = main(["oracle", "--generator", "random", "--n", "70", "--m", "2",
               "--budget", "100", "--p", "0.1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "bscbounds: random code of length 70 exceeds the n <= 24 budget\n")


def test_oracle_random_negative_seed_is_one_line(capsys):
    rc = main(["oracle", "--generator", "random", "--n", "12", "--m", "4",
               "--seed", "-1", "--p", "0.1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "bscbounds: random code needs seed >= 0, got -1\n")


def test_oracle_code_file_not_ascii_is_one_line(tmp_path, capsys):
    src = tmp_path / "code.txt"
    src.write_bytes(b"000\n11\xe91\n")
    rc = main(["oracle", "--code-file", str(src), "--p", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "not ASCII" in err and "byte 6" in err


def test_oracle_census_over_budget_exits_at_once(capsys):
    # M = 2^15 words: M^2 2^n = 2^46 is refused before any pair or output
    # distance is formed
    start = time.monotonic()
    rc = main(["oracle", "--generator", "parity", "--n", "16", "--p", "0.1"])
    elapsed = time.monotonic() - start
    assert rc == 2
    err = capsys.readouterr().err
    assert "budget" in err
    assert err.startswith("bscbounds:") and err.count("\n") == 1
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [
    ["--generator", "parity", "--n", "24"],
    ["--generator", "random", "--n", "24", "--m", "4000000"],
])
def test_oracle_census_refused_before_building(argv, monkeypatch, capsys):
    # the code would take hundreds of MB before the census refused it
    def unreachable(*args):
        raise AssertionError("code constructor called")
    for name in ("parity_code", "random_code"):
        monkeypatch.setattr(cli, name, unreachable)
    assert main(["oracle", *argv, "--p", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: output census work M^2 2^n = ")
    assert err.endswith(" exceeds the 2^34 budget\n")


def test_oracle_random_needs_m(capsys):
    rc = main(["oracle", "--generator", "random", "--n", "8", "--p", "0.1"])
    assert rc == 2
    assert "needs --m" in capsys.readouterr().err


def test_oracle_johnson_rows(capsys):
    assert main(["oracle", "--generator", "hamming74", "--p", "0.05"]) == 0
    rec = json.loads(capsys.readouterr().out)
    rows = rec["value"]["johnson_min_distance"]
    assert [row["w"] for row in rows] == [1, 2, 3]
    for row in rows:
        assert row["bound"] is None or row["bound"] > 0.0


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["constants"])
    assert exc.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_defaults():
    ns = build_parser().parse_args(["curve", "--p", "0.1"])
    assert ns.rmin == 0.01
    assert ns.rmax is None
    assert ns.bounds == "sphere_packing,F_bound,combined"
