"""Command-line interface: formats, regime labels, exit codes, determinism.

All invocations go through main(argv) in-process; stdout/stderr are
captured with capsys and files land in tmp_path.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
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


@pytest.mark.parametrize("command", ["constants", "curve"])
@pytest.mark.parametrize("p, edge", [("1e-40", "0"), ("0.4999999999999997", "1/2")])
def test_r_crit_rounding_to_capacity_is_one_line(command, p, edge, capsys):
    # R_crit and C both round to 1 at p = 1e-40 (1e-36 still runs), and
    # R_crit rounds above C = 0 next to 1/2, where log2(1/(4pq)) is not 0
    assert main([command, "--p", p]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert f"probability {p} is too close to {edge}: R_crit rounds" in err


def test_curve_default_rmax_below_rmin_is_one_line(capsys):
    # C(0.4999) = 2.9e-8, so the default end C(p) - 0.001 is below --rmin
    assert main(["curve", "--p", "0.4999"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: ") and err.count("\n") == 1
    assert "C(p) - 0.001" in err and "--rmax" in err


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


_ALL_KINDS = ("sphere_packing,F_bound,theorem1_min,corollary1,straight_line,"
              "combined")
_GRID = ["--rmin", "0.05", "--rmax", "0.5", "--step", "0.05"]
# the argv behind every file in tests/data; tests/record_goldens.py
# re-records the files from this table
GOLDEN_ARGV = {
    "curve_p0.1.csv": ["curve", "--p", "0.1"],
    "curve_p0.005.csv": ["curve", "--p", "0.005"],
    "curve_p0.1_grid.json": ["curve", "--p", "0.1", "--format", "json"] + _GRID,
    "curve_p0.1_segment_kinds.svg":
        ["curve", "--p", "0.1", "--format", "svg",
         "--bounds", "theorem1_min,combined,straight_line"] + _GRID,
    "curve_p0.2_all_kinds.svg":     # every kind, on a grid in [R1, R_crit]
        ["curve", "--p", "0.2", "--format", "svg", "--bounds", _ALL_KINDS,
         "--rmin", "0.035", "--rmax", "0.08", "--step", "0.005"],
    "verify_all.json": ["verify", "--suite", "all"],
}
# F references: 30 rates per channel, from 1e-4 to within about 1e-4 of C,
# full-precision JSON; channels below p1, near p1 and up to p = 0.45
_F_REF_GRIDS = {    # p: (step, rmax), rmax half-way from the 30th rate to C
    "0.001": ("0.03408249", "0.98854223"), "0.005": ("0.03290983", "0.95453519"),
    "0.01": ("0.03168989", "0.91915684"), "0.03": ("0.02777269", "0.80555808"),
    "0.05": ("0.0246001", "0.71355297"), "0.1": ("0.0183036", "0.53095440"),
    "0.15": ("0.01344688", "0.39010961"), "0.2": ("0.00958178", "0.27802176"),
    "0.25": ("0.00650075", "0.18867181"), "0.3": ("0.00408652", "0.11865909"),
    "0.4": ("0.0009948", "0.02899930"), "0.45": ("0.00024226", "0.00717554"),
}
F_REFERENCES = [f"curve_f_p{p}.json" for p in _F_REF_GRIDS]
GOLDEN_ARGV.update(
    (f"curve_f_p{p}.json",
     ["curve", "--p", p, "--format", "json", "--rmin", "0.0001",
      "--rmax", rmax, "--step", step])
    for p, (step, rmax) in _F_REF_GRIDS.items())
# oracle JSON, byte for byte: the roster's Hamming, parity and repetition
# codes and the random shapes of the X_max routes, small-radius groups
# among them
ORACLE_GOLDENS = {
    "oracle_hamming74_p0.1.json": ["--generator", "hamming74", "--p", "0.1"],
    "oracle_hamming74_p0.05.json": ["--generator", "hamming74", "--p", "0.05"],
    "oracle_hamming74_p0.45.json": ["--generator", "hamming74", "--p", "0.45"],
    "oracle_random_n12_m128_s7_p0.1.json":
        ["--generator", "random", "--n", "12", "--m", "128", "--seed", "7", "--p", "0.1"],
    "oracle_random_n16_m32_s7_p0.1.json":
        ["--generator", "random", "--n", "16", "--m", "32", "--seed", "7", "--p", "0.1"],
    "oracle_random_n12_m512_s2_p0.45.json":
        ["--generator", "random", "--n", "12", "--m", "512", "--seed", "2", "--p", "0.45"],
    "oracle_parity_n8_p0.05.json": ["--generator", "parity", "--n", "8", "--p", "0.05"],
    "oracle_parity_n8_p0.1.json": ["--generator", "parity", "--n", "8", "--p", "0.1"],
    "oracle_parity_n8_p0.45.json": ["--generator", "parity", "--n", "8", "--p", "0.45"],
    "oracle_repetition_n7_p0.45.json":
        ["--generator", "repetition", "--n", "7", "--p", "0.45"],
    "oracle_repetition_n7_p0.05.json":
        ["--generator", "repetition", "--n", "7", "--p", "0.05"],
    "oracle_repetition_n7_p0.1.json":
        ["--generator", "repetition", "--n", "7", "--p", "0.1"],
    "oracle_random_n18_m64_s1_p0.05.json":
        ["--generator", "random", "--n", "18", "--m", "64", "--seed", "1", "--p", "0.05"],
    "oracle_random_n20_m32_s1_p0.1.json":
        ["--generator", "random", "--n", "20", "--m", "32", "--seed", "1", "--p", "0.1"],
    "oracle_random_n14_m256_s1_p0.1.json":
        ["--generator", "random", "--n", "14", "--m", "256", "--seed", "1", "--p", "0.1"],
    "oracle_random_n12_m512_s2_p0.1.json":
        ["--generator", "random", "--n", "12", "--m", "512", "--seed", "2", "--p", "0.1"],
}
GOLDEN_ARGV.update((name, ["oracle"] + argv) for name, argv in ORACLE_GOLDENS.items())
# the default-grid CSVs stay as first recorded, held within 1e-9 below; an
# exact copy of the current output sits beside each
FIRST_RECORDED = {"curve_p0.1.csv": "curve_p0.1_tip.csv",
                  "curve_p0.005.csv": "curve_p0.005_tip.csv"}
GOLDEN_ARGV.update((tip, GOLDEN_ARGV[first]) for first, tip in FIRST_RECORDED.items())
GOLDEN_ARGV.update(
    (f"constants_p{p}.{ext}", ["constants", "--p", p, "--format", fmt])
    for p in ("0.01", "0.1", "0.3") for ext, fmt in (("txt", "text"), ("json", "json")))


@pytest.mark.parametrize("p", ["0.1", "0.005"])
def test_curve_default_grid_matches_golden(p, capsys):
    # tests/data holds the default-grid CSVs as first recorded: every
    # printed number must stay within 1e-9 of them, every regime equal
    assert main(GOLDEN_ARGV[f"curve_p{p}.csv"]) == 0
    got = capsys.readouterr().out.rstrip("\n").split("\n")
    want = (DATA / f"curve_p{p}.csv").read_text(encoding="ascii").rstrip("\n").split("\n")
    assert got[0] == want[0]
    assert len(got) == len(want) == 201
    for g_line, w_line in zip(got[1:], want[1:]):
        g, w = g_line.split(","), w_line.split(",")
        assert g[5] == w[5]
        for g_field, w_field in zip(g[:5], w[:5]):
            assert abs(float(g_field) - float(w_field)) <= 1e-9, (g_line, w_line)


@pytest.mark.parametrize("golden", [
    "curve_p0.1_grid.json", "curve_p0.1_segment_kinds.svg",
    "curve_p0.2_all_kinds.svg",
], ids=["json", "svg-segment-kinds", "svg-all-kinds"])
def test_curve_output_matches_golden_bytes(golden, capsys):
    # tests/data holds these outputs as first recorded, byte for byte
    assert main(GOLDEN_ARGV[golden]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="ascii")


@pytest.mark.parametrize("golden", ORACLE_GOLDENS)
def test_oracle_output_matches_golden_bytes(golden, capsys):
    # tests/data holds the oracle reports byte for byte
    assert main(GOLDEN_ARGV[golden]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="ascii")


def test_every_golden_is_the_current_output(capsys):
    # every golden but the first-recorded CSVs, byte for byte
    import record_goldens
    assert record_goldens.run(["--check"]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("golden", F_REFERENCES)
def test_f_matches_reference(golden, capsys):
    # every F of the 30-rate references within 1e-14 of its record
    assert main(GOLDEN_ARGV[golden]) == 0
    got = json.loads(capsys.readouterr().out)["value"]
    want = json.loads((DATA / golden).read_text(encoding="ascii"))["value"]
    assert len(got) == len(want) == 30
    assert [g["R"] for g in got] == [w["R"] for w in want]
    for g, w in zip(got, want):
        assert abs(g["F"] - w["F"]) <= 1e-14, (g, w)


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


def test_verify_all_matches_golden_bytes(capsys):
    # tests/data holds the full report as first recorded, byte for byte
    assert main(GOLDEN_ARGV["verify_all.json"]) == 0
    assert capsys.readouterr().out == (DATA / "verify_all.json").read_text(encoding="ascii")


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
    # the size rule is fixed: parity n = 13 is past it, and no flag moves it
    rc = main(["oracle", "--generator", "parity", "--n", "13", "--p", "0.1"])
    assert rc == 2
    assert "budget" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--generator", "parity", "--n", "8", "--p", "0.1",
              "--budget", "10"])
    assert exc.value.code == 2


def test_oracle_generator_length_checked_before_building(capsys):
    # 70-bit words would overflow the generator's uint64 draws
    rc = main(["oracle", "--generator", "random", "--n", "70", "--m", "4",
               "--p", "0.1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "bscbounds: code length 70 exceeds the n <= 24 budget\n"


def test_oracle_random_negative_length_is_one_line(capsys):
    rc = main(["oracle", "--generator", "random", "--n", "-3", "--m", "4",
               "--p", "0.1"])
    assert rc == 2
    assert capsys.readouterr().err == "bscbounds: random code needs n >= 1\n"


def test_oracle_random_length_over_census_cap_is_one_line(capsys):
    # one past the length cap: the generator refuses before drawing a word
    rc = main(["oracle", "--generator", "random", "--n", "25", "--m", "2",
               "--p", "0.1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "bscbounds: code length 25 exceeds the n <= 24 budget\n")


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
def test_oracle_census_refused_before_building(argv, capsys):
    # the code would take hundreds of MB; the generator refuses it first
    tracemalloc.start()
    try:
        assert main(["oracle", *argv, "--p", "0.1"]) == 2
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("bscbounds: output census work M^2 2^n = ")
    assert err.endswith(" exceeds the 2^34 budget\n")


def test_oracle_random_needs_m(capsys):
    rc = main(["oracle", "--generator", "random", "--n", "8", "--p", "0.1"])
    assert rc == 2
    assert "needs --m" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, source", [
    (["--generator", "hamming74", "--n", "9", "--m", "3", "--seed", "5"], "n",
     "generator 'hamming74'"),
    (["--generator", "hamming74", "--seed", "0"], "seed", "generator 'hamming74'"),
    (["--generator", "repetition", "--n", "5", "--m", "3"], "m", "generator 'repetition'"),
    (["--generator", "parity", "--n", "6", "--seed", "1"], "seed", "generator 'parity'"),
    (["--code-file", "missing.txt", "--n", "3"], "n", "--code-file"),
    (["--code-file", "missing.txt", "--m", "3"], "m", "--code-file"),
    (["--code-file", "missing.txt", "--seed", "2"], "seed", "--code-file"),
], ids=["hamming-n", "hamming-seed", "repetition-m", "parity-seed", "file-n",
        "file-m", "file-seed"])
def test_oracle_refuses_options_its_source_ignores(argv, option, source, capsys):
    # --n is read by repetition, parity and random, --m and --seed by random
    # alone; a file is not opened once an option is refused
    assert main(["oracle", *argv, "--p", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bscbounds: --{option} does not apply to {source}\n"


def test_oracle_random_seed_defaults_to_zero(capsys):
    argv = ["oracle", "--generator", "random", "--n", "8", "--m", "6", "--p", "0.1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert json.loads(default)["inputs"]["seed"] == 0
    assert main(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == default


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


def _fresh_process(argv):
    """(status, stdout, stderr) of main(argv) in a new interpreter."""
    script = "import sys; from bscbounds.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(pathlib.Path(cli.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    # main parses every call with one parser; an argparse error exit leaves
    # it as a fresh process would find it, byte for byte
    built, fresh = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or fresh())
    cli._parser.cache_clear()
    bad = ["oracle", "--generator", "hamming74"]                # --p missing
    good = ["oracle", "--generator", "hamming74", "--p", "0.1"]
    try:
        runs = []
        for argv in (bad, good, bad):
            try:
                status = main(argv)
            except SystemExit as exc:
                status = exc.code
            runs.append((status, *capsys.readouterr()))
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert [status for status, _, _ in runs] == [2, 0, 2]
    assert runs == [_fresh_process(argv) for argv in (bad, good, bad)]
    # build_parser itself still returns a parser of its own on every call
    assert fresh() is not fresh()


def test_parser_defaults():
    ns = build_parser().parse_args(["curve", "--p", "0.1"])
    assert ns.rmin == 0.01
    assert ns.rmax is None
    assert ns.bounds == "sphere_packing,F_bound,combined"
