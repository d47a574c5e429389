"""End-to-end scenario runner and plot-data emitter checks."""

import cmath
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import qmg
from qmg import cli
from qmg.cli import main
from qmg.numerics import Grid
from qmg.strategy import hermite_function

A_STAR = 0.27602980479814


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_ok(tmp_path, doc, extra=()):
    out = tmp_path / "out"
    path = write_scenario(tmp_path, doc)
    code = main(["run", str(path), "--out", str(out), *extra])
    assert code == 0
    return out


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def check_manifest(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    on_disk = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == on_disk  # no orphans either way
    for key in ("qmg", "numpy", "python"):
        assert key in manifest["versions"]
    return manifest


def test_fixed_point_scenario(tmp_path):
    out = run_ok(
        tmp_path,
        {"kind": "fixed-point", "seed": 0, "parameters": {"sigmas": [0.5, 1.0, 2.0]}},
    )
    header, rows = read_rows(out / "cooling.csv")
    assert header == ["sigma", "fixed_point", "max_intensity"]
    table = {float(r[0]): float(r[1]) for r in rows}
    assert table[1.0] == pytest.approx(A_STAR, abs=1e-5)
    assert table[2.0] == pytest.approx(2 * table[1.0], abs=1e-8)
    manifest = check_manifest(out)
    assert manifest["kind"] == "fixed-point"
    assert manifest["outputs"] == ["cooling.csv"]


def test_curves_scenario(tmp_path):
    out = run_ok(
        tmp_path,
        {
            "kind": "curves",
            "seed": 0,
            "parameters": {"family": "strategy", "strategy": "gaussian(0.2, 1.0)"},
        },
    )
    dens_header, dens_rows = read_rows(out / "density.csv")
    assert dens_header == ["p", "q", "w"]
    assert len(dens_rows) > 1000
    curv_header, curv_rows = read_rows(out / "curves.csv")
    assert curv_header == ["lnc", "Fd", "Fs"]
    fd = [float(r[1]) for r in curv_rows]
    assert all(0.0 - 1e-9 <= v <= 1.0 + 1e-9 for v in fd)
    assert fd[0] < 0.01 and fd[-1] > 0.99  # demand curve rises left to right
    check_manifest(out)


def test_auction_delta_fixture_first_price(tmp_path, capsys):
    doc = {
        "kind": "auction",
        "seed": 5,
        "parameters": {
            "buyers": ["delta(0.1)", "delta(0.3)"],
            "seller": "delta(-0.5)",
            "pricing": "first",
            "samples": 2000,
        },
    }
    out = run_ok(tmp_path, doc)
    results = json.loads((out / "results.json").read_text())
    assert results["revenue_mean"] == math.exp(-0.1)
    assert results["revenue_se"] == 0.0
    assert results["winner_freq"] == [1.0, 0.0]
    assert results["p_no_trade"] == 0.0
    header, _ = read_rows(out / "price_histogram.csv")
    assert header == ["bin_lo", "bin_hi", "count"]
    check_manifest(out)
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "results.json") in printed
    assert str(out / "manifest.json") in printed


def test_auction_delta_fixture_second_price(tmp_path):
    doc = {
        "kind": "auction",
        "seed": 5,
        "parameters": {
            "buyers": ["delta(0.1)", "delta(0.3)"],
            "seller": "delta(-0.5)",
            "pricing": "second",
            "samples": 2000,
        },
    }
    out = run_ok(tmp_path, doc)
    results = json.loads((out / "results.json").read_text())
    assert results["revenue_mean"] == math.exp(-0.3)


def test_auction_honours_risk(tmp_path):
    params = {
        "buyers": ["hermite(1)", "hermite(2)"],
        "seller": "hermite(0)",
        "pricing": "first",
        "samples": 2000,
    }
    plain = run_ok(tmp_path, {"kind": "auction", "seed": 3, "parameters": params})
    risk = {"hbar_e": 4, "theta": 6.283185307179586}
    doc = {"kind": "auction", "seed": 3, "parameters": {**params, "risk": risk}}
    path = write_scenario(tmp_path, doc, name="risky.json")
    risky = tmp_path / "risky"
    assert main(["run", str(path), "--out", str(risky)]) == 0
    assert (plain / "results.json").read_bytes() != (risky / "results.json").read_bytes()


def test_auction_results_json_round_trip(tmp_path):
    params = {
        "buyers": ["delta(0.1)", "delta(0.3)"],
        "seller": "delta(-0.5)",
        "pricing": "first",
        "samples": 128,
        "seed": 4,
    }
    out = run_ok(tmp_path, {"kind": "auction", "parameters": params})
    results = json.loads((out / "results.json").read_text())
    assert sorted(results) == [
        "p_no_trade", "pricing", "revenue_mean", "revenue_se", "samples", "weight", "winner_freq",
    ]
    assert results["revenue_mean"] == math.exp(-0.1)
    assert results["samples"] == 128


AUCTION_PARAMETERS = {"buyers": ["gaussian(0, 1)", "delta(0)"], "seller": "delta(0)", "pricing": "first", "samples": 10}


@pytest.mark.parametrize(
    "change, field",
    [
        ({"buyers": []}, "buyers"),
        ({"buyers": ["gaussian(0, 1)", 3]}, "buyers[1]"),
        ({"buyers": "delta(0)"}, "buyers"),
        ({"seller": "gauss(0,1)"}, "seller"),
        ({"seller": None}, "seller"),
        ({"pricing": "dutch"}, "pricing"),
        ({"weight": 1.5}, "weight"),
        ({"weight": "half"}, "weight"),
        ({"samples": -3}, "samples"),
        ({"samples": 2.5}, "samples"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
    ],
    ids=[
        "buyers-empty", "buyers-not-literal", "buyers-not-list", "seller-bad-literal",
        "seller-missing", "pricing", "weight-range", "weight-type", "samples-negative",
        "samples-float", "seed-bool", "seed-negative", "seed-too-large",
    ],
)
def test_bad_auction_field_exits_3(tmp_path, capsys, change, field):
    # a field changed to None is left out of the document
    params = {k: v for k, v in {**AUCTION_PARAMETERS, **change}.items() if v is not None}
    path = write_scenario(tmp_path, {"kind": "auction", "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"invalid scenario at parameters.{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("pricing", ["first", "second"])
def test_a_weight_under_pure_pricing_exits_3(tmp_path, capsys, pricing):
    # a pure pricing has no first-price share: the weight would be ignored
    params = {**AUCTION_PARAMETERS, "pricing": pricing, "weight": 0.3}
    path = write_scenario(tmp_path, {"kind": "auction", "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "invalid scenario at parameters.weight:" in capsys.readouterr().err


@pytest.mark.parametrize("weight, written", [(None, 1.0), (0.3, 0.3)])
def test_mixed_pricing_writes_its_weight(tmp_path, weight, written):
    params = {**AUCTION_PARAMETERS, "pricing": "mixed"}
    if weight is not None:
        params["weight"] = weight
    out = run_ok(tmp_path, {"kind": "auction", "parameters": params})
    assert json.loads((out / "results.json").read_text())["weight"] == written


@pytest.mark.parametrize("kind, params", [
    ("auction", AUCTION_PARAMETERS),
    ("clearing", {"traders": ["gaussian(0, 1)", "gaussian(1, 1)"], "rounds": 1}),
    ("fixed-point", {"sigmas": [1.0]}),
])
def test_scenario_seed_beyond_64_bits_exits_3(tmp_path, capsys, kind, params):
    path = write_scenario(tmp_path, {"kind": kind, "seed": 2**64, "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "invalid scenario at scenario.seed:" in capsys.readouterr().err


def test_zeno_eigenstate_all_ones(tmp_path):
    out = run_ok(
        tmp_path,
        {
            "kind": "zeno",
            "seed": 0,
            "parameters": {
                "initial": "hermite(0)",
                "total_time": 0.5,
                "n_values": [1, 10, 100],
            },
        },
    )
    header, rows = read_rows(out / "zeno.csv")
    assert header == ["n", "survival"]
    assert [r[0] for r in rows] == ["1", "10", "100"]
    assert all(float(r[1]) == 1.0 for r in rows)
    check_manifest(out)


def test_zeno_superposition_values(tmp_path):
    out = run_ok(
        tmp_path,
        {
            "kind": "zeno",
            "seed": 0,
            "parameters": {
                "initial": ["hermite(0)", "hermite(1)"],
                "total_time": 0.5,
                "n_values": [1, 2],
            },
        },
    )
    _, rows = read_rows(out / "zeno.csv")
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[1][1]) == pytest.approx(0.25, abs=1e-12)


def test_thermal_scenario(tmp_path):
    out = run_ok(
        tmp_path,
        {"kind": "thermal", "seed": 0, "parameters": {"betas": [1.0, 2.0]}},
    )
    header, rows = read_rows(out / "thermal.csv")
    assert header == ["beta", "temperature", "energy", "series_max_abs_diff"]
    first = rows[0]
    assert float(first[1]) == 1.0
    assert float(first[2]) == pytest.approx(0.5 / math.tanh(0.5), abs=1e-12)
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_risk_spectrum_scenario(tmp_path):
    out = run_ok(
        tmp_path,
        {
            "kind": "risk-spectrum",
            "seed": 0,
            "parameters": {"risk": {"hbar_e": 1.0, "omega": 2.0}, "levels": 3},
        },
    )
    header, rows = read_rows(out / "spectrum.csv")
    assert header == ["level", "eigenvalue"]
    assert [float(r[1]) for r in rows] == [1.0, 3.0, 5.0]


def test_clearing_scenario(tmp_path):
    out = run_ok(
        tmp_path,
        {
            "kind": "clearing",
            "seed": 3,
            "parameters": {
                "traders": ["delta(-0.3)", {"strategy": "delta(0.5)", "rep": "supply"}],
                "rounds": 2,
            },
        },
    )
    header, rows = read_rows(out / "rounds.csv")
    assert header == ["round", "trader", "side", "logprice", "executed", "flow"]
    assert len(rows) == 4  # two traders, two rounds
    flows = [float(r[5]) for r in rows if r[5]]
    assert math.fsum(flows) == 0.0


def test_rerun_is_byte_identical(tmp_path):
    doc = {
        "kind": "auction",
        "seed": 11,
        "parameters": {
            "buyers": ["gaussian(0, 1)", "gaussian(0.2, 1)"],
            "seller": "gaussian(-0.4, 1)",
            "pricing": "first",
            "samples": 20000,
        },
    }
    a = run_ok(tmp_path, doc)
    path = write_scenario(tmp_path, doc, name="again.json")
    b = tmp_path / "out2"
    assert main(["run", str(path), "--out", str(b)]) == 0
    for name in ("price_histogram.csv", "results.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_override_rewrites_manifest(tmp_path):
    doc = {
        "kind": "auction",
        "seed": 11,
        "parameters": {
            "buyers": ["gaussian(0, 1)"],
            "seller": "gaussian(-0.4, 1)",
            "pricing": "first",
            "samples": 5000,
        },
    }
    a = run_ok(tmp_path, doc)
    path = write_scenario(tmp_path, doc, name="again.json")
    b = tmp_path / "out2"
    assert main(["run", str(path), "--out", str(b), "--seed", "77"]) == 0
    m_a = json.loads((a / "manifest.json").read_text())
    m_b = json.loads((b / "manifest.json").read_text())
    assert m_a["seed"] == 11
    assert m_b["seed"] == 77
    assert m_b["parameters"]["seed"] == 77
    r_a = json.loads((a / "results.json").read_text())
    r_b = json.loads((b / "results.json").read_text())
    assert r_a["revenue_mean"] != r_b["revenue_mean"]  # different draws


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "zeno",\n  "seed": }')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_non_json_constant_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fixed-point", "note": "NaN",\n  "parameters": {"sigmas": [NaN]}}')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 29" in err and "NaN" in err


def test_overlong_integer_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fixed-point", "seed": 3,\n  "parameters": {"sigmas": [' + "7" * 5000 + "]}}")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 29" in err and "5000 digits" in err and "Traceback" not in err


def test_overflowing_float_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "fixed-point", "seed": 3,\n  "parameters": {"sigmas": [0.5, 1e999]}}')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2, column 34" in err and "1e999" in err


@pytest.mark.parametrize(
    "kind, params",
    [
        ("fixed-point", {"sigmas": [0.5, 10**400]}),
        ("thermal", {"betas": [-(10**400)]}),
        ("auction", {**AUCTION_PARAMETERS, "weight": 2**1024}),
        ("curves", {"family": "coherent", "r": 0.5, "eta": 1.0, "p0": 10**400}),
        ("zeno", {"initial": "hermite(0)", "total_time": 0.5, "n_values": [1, 2**1024 - 1]}),
    ],
    ids=["sigmas", "betas", "weight", "p0", "n_values"],
)
def test_integer_past_the_doubles_exits_2(tmp_path, capsys, kind, params):
    # 2**1024 - 1 rounds up to 2**1024 as a double: it overflows too
    path = write_scenario(tmp_path, {"kind": kind, "parameters": params})
    big = max(re.findall(r"-?\d{300,}", path.read_text()), key=len)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"line 1, column {path.read_text().index(big) + 1}:" in err and "overflows a double" in err


def test_seeds_up_to_64_bits_run(tmp_path):
    params = {**AUCTION_PARAMETERS, "seed": 2**64 - 1}
    run_ok(tmp_path, {"kind": "auction", "seed": 2**64 - 1, "parameters": params})


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("by_flag", [False, True], ids=["output", "flag"])
def test_an_output_directory_that_cannot_be_made_exits_3(tmp_path, capsys, by_flag):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    doc = {"kind": "risk-spectrum", "parameters": {"levels": 3}}
    if not by_flag:
        doc["output"] = str(blocker / "x")
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), *(["--out", str(blocker / "y")] if by_flag else [])]) == 3
    err = capsys.readouterr().err
    assert f"invalid scenario at {'--out' if by_flag else 'scenario.output'}:" in err
    assert "Traceback" not in err


def test_unknown_kind_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, {"kind": "frobnicate", "parameters": {}})
    assert main(["run", str(path)]) == 3
    assert "scenario.kind" in capsys.readouterr().err


def test_missing_field_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, {"kind": "fixed-point", "parameters": {}})
    assert main(["run", str(path)]) == 3
    assert "parameters.sigmas" in capsys.readouterr().err


MINIMAL_PARAMETERS = {
    "curves": {"family": "excited", "n": 1},
    "fixed-point": {"sigmas": [1.0]},
    "auction": {"buyers": ["gaussian(0, 1)"], "seller": "gaussian(0, 1)", "pricing": "first", "samples": 10},
    "zeno": {"initial": "hermite(0)", "total_time": 0.5, "n_values": [1]},
    "thermal": {"betas": [1.0], "series_terms": 5},
    "risk-spectrum": {"levels": 3},
    "clearing": {"traders": ["gaussian(0, 1)", "gaussian(0, 1)"], "rounds": 1},
}


@pytest.mark.parametrize("kind", sorted(MINIMAL_PARAMETERS))
def test_unknown_fields_exit_3(tmp_path, capsys, kind):
    params = MINIMAL_PARAMETERS[kind]
    run_ok(tmp_path, {"kind": kind, "parameters": params})
    cases = [
        ({"kind": kind, "parameters": params, "sede": 1}, "scenario.sede"),
        ({"kind": kind, "parameters": {**params, "totl_time": 3}}, "parameters.totl_time"),
    ]
    risk = {"hbar_e": 1.0, "theta": 6.0, "thetanc": 0.1}
    # the fixed point does not involve the risk operator, so it takes no risk record
    field = "parameters.risk" if kind == "fixed-point" else "parameters.risk.thetanc"
    cases.append(({"kind": kind, "parameters": {**params, "risk": risk}}, field))
    for doc, field in cases:
        path = write_scenario(tmp_path, doc)
        assert main(["run", str(path), "--out", str(tmp_path / "refused")]) == 3
        assert f"invalid scenario at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, field",
    [
        ({"family": "excited", "n": 1, "beta": 2.0}, "parameters.beta"),
        ({"family": "coherent", "r": 0.5, "eta": 1.0, "strategy": "hermite(0)"}, "parameters.strategy"),
    ],
)
def test_curves_fields_of_another_family_exit_3(tmp_path, capsys, params, field):
    path = write_scenario(tmp_path, {"kind": "curves", "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"at {field}:" in capsys.readouterr().err


def test_unknown_trader_field_exits_3(tmp_path, capsys):
    traders = ["gaussian(0, 1)", {"strategy": "hermite(1)", "rep": "supply", "side": "ask"}]
    path = write_scenario(tmp_path, {"kind": "clearing", "parameters": {"traders": traders, "rounds": 1}})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "parameters.traders[1].side" in capsys.readouterr().err


def test_bad_literal_exits_3(tmp_path, capsys):
    doc = {
        "kind": "zeno",
        "parameters": {"initial": "gauss)(", "total_time": 0.5, "n_values": [1]},
    }
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path)]) == 3
    assert "parameters.initial" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, field",
    [
        ({"family": "excited", "n": 600}, "parameters.n"),
        ({"family": "strategy", "strategy": "delta(0)"}, "parameters.strategy"),
        ({"family": "strategy", "strategy": "discrete(0:1, 1:1)"}, "parameters.strategy"),
        ({"family": "thermal", "beta": 5e-324}, "parameters.beta"),
        ({"family": "thermal", "beta": 1e-320}, "parameters.beta"),
        # accepted by the thermal spread, but the risk Hamiltonian overflows at the grid corner
        ({"family": "thermal", "beta": 1e-307}, "parameters.beta"),
        ({"family": "thermal", "beta": 2e-308}, "parameters.beta"),
        # omega squared overflows, or hbar_e omega underflows to 0
        ({"family": "excited", "n": 1, "risk": {"hbar_e": 1, "theta": 1e-160}}, "parameters.risk"),
        ({"family": "excited", "n": 1, "risk": {"hbar_e": 1e-200, "theta": 1e200}}, "parameters.risk"),
        # the width squared underflows or overflows
        ({"family": "strategy", "strategy": "gaussian(0, 1e-300)"}, "parameters.strategy"),
        ({"family": "strategy", "strategy": "gaussian(0, 1e200)"}, "parameters.strategy"),
        # 4 width^2, the exponent's divisor, overflows while width^2 does not
        ({"family": "strategy", "strategy": "gaussian(0, 1e154)"}, "parameters.strategy"),
        # the default q grid collapses to a point
        ({"family": "strategy", "strategy": "gaussian(1e300, 1)"}, "parameters.strategy"),
    ],
)
def test_curves_out_of_range_exits_3(tmp_path, capsys, params, field):
    path = write_scenario(tmp_path, {"kind": "curves", "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "betas, field",
    [
        ([1.0, 5e-324], "parameters.betas[1]"),  # tanh underflows to 0
        ([1e-320], "parameters.betas[0]"),  # the thermal energy overflows
        ([2.0, 1e-308], "parameters.betas[1]"),  # the thermal grid overflows
    ],
)
def test_thermal_beta_too_small_exits_3(tmp_path, capsys, betas, field):
    doc = {"kind": "thermal", "parameters": {"betas": betas, "series_terms": 5}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"invalid scenario at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, field",
    [
        ("zeno", {"initial": "gaussian(0, 1e-300)", "total_time": 0.5, "n_values": [1]}, "parameters.initial"),
        ("zeno", {"initial": ["hermite(0)", "gaussian(0, 1e200)"], "total_time": 0.5, "n_values": [1]},
         "parameters.initial[1]"),
        # 5 sigma, the top of the fixed point's bracket, overflows
        ("fixed-point", {"sigmas": [1e308]}, "parameters.sigmas[0]"),
        ("fixed-point", {"sigmas": [1.0, 1e308]}, "parameters.sigmas[1]"),
        ("zeno", {"initial": "hermite(0)", "total_time": -1, "n_values": [1]}, "parameters.total_time"),
        ("zeno", {"initial": "delta(0)", "total_time": 0.5, "n_values": [1]}, "parameters.initial"),
        ("curves", {"family": "coherent", "r": 1, "eta": 1.0}, "parameters.r"),
        ("curves", {"family": "coherent", "r": -1.5, "eta": 1.0}, "parameters.r"),
        # the grids leave the doubles
        ("curves", {"family": "coherent", "r": 0, "eta": 1.0, "p0": 1e308}, "parameters.eta"),
        ("curves", {"family": "coherent", "r": 0, "eta": 1e-308}, "parameters.eta"),
        # the width squared falls just below the normal doubles
        ("curves", {"family": "strategy", "strategy": "gaussian(0, 1e-154)"}, "parameters.strategy"),
        # a slope the default grids cannot resolve: the p-grid around 1e300 collapses
        ("curves", {"family": "strategy", "strategy": "gaussian(0, 1, 1e300)"}, "parameters.strategy"),
        # a table whose Wigner chord step needs more psi points than the chirp-z's cap
        ("curves", {"family": "strategy", "strategy": "sampled(@wide.csv)"}, "parameters.strategy"),
        # omega, or the gap, overflows; the gap underflows to 0
        ("risk-spectrum", {"levels": 2, "risk": {"hbar_e": 1e308, "omega": 1e308}}, "parameters.risk"),
        ("risk-spectrum", {"levels": 2, "risk": {"hbar_e": 1, "theta": 1e-320}}, "parameters.risk"),
        ("risk-spectrum", {"levels": 2, "risk": {"hbar_e": 1e-200, "theta": 1e200}}, "parameters.risk"),
        # the winning price e^1000 overflows
        ("auction", {**AUCTION_PARAMETERS, "buyers": ["delta(-1000)"]}, "parameters.buyers"),
    ],
)
def test_values_at_the_ends_of_the_doubles_exit_3(tmp_path, capsys, kind, params, field):
    (tmp_path / "wide.csv").write_text(WIDE_TABLE)
    path = write_scenario(tmp_path, {"kind": kind, "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"invalid scenario at {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, field, compute",
    [
        ("auction", {**AUCTION_PARAMETERS, "samples": 10**12}, "samples", "run_auction"),
        ("risk-spectrum", {"levels": 10**9}, "levels", "spectrum"),
        ("thermal", {"betas": [1.0], "series_terms": 10**9}, "series_terms", "thermal_wigner"),
        ("clearing", {"traders": ["gaussian(0, 1)", "gaussian(1, 1)"], "rounds": 10**9}, "rounds", "clear_round"),
    ],
)
def test_counts_past_their_caps_are_refused_before_any_work(tmp_path, capsys, monkeypatch, kind, params, field, compute):
    monkeypatch.setattr(cli, compute, lambda *a, **k: pytest.fail(f"{compute} ran"))
    path = write_scenario(tmp_path, {"kind": kind, "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"invalid scenario at parameters.{field}:" in capsys.readouterr().err


def test_thermal_spread_refused_where_the_energy_is_finite(tmp_path, capsys):
    # beta * (hbar omega / 2) = 5e-311 keeps the energy finite, but the
    # spread's 0.5 * beta * hbar_e underflows to 0 before omega enters
    risk = {"hbar_e": 1e-30, "omega": 1e20}
    doc = {"kind": "thermal", "parameters": {"betas": [1e-300], "series_terms": 5, "risk": risk}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "invalid scenario at parameters.betas[0]:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        {"family": "thermal", "beta": 1e-158},
        {"family": "thermal", "beta": 1e-160},
        {"family": "coherent", "r": 0, "eta": 1e-200},
        {"family": "strategy", "strategy": "gaussian(0, 1e-150)"},
    ],
    ids=["thermal-1e-158", "thermal-1e-160", "coherent-1e-200", "gaussian-1e-150"],
)
def test_curves_at_the_ends_of_the_doubles_are_computed(tmp_path, params):
    # extreme grid widths: the slices' spline never divides by the grid spacing
    out = run_ok(tmp_path, {"kind": "curves", "parameters": params})
    check_manifest(out)
    _, rows = read_rows(out / "curves.csv")
    fd = np.array([float(r[1]) for r in rows])
    fs = np.array([float(r[2]) for r in rows])
    assert fd[0] == 0.0 and fd[-1] == 1.0
    assert fd[len(fd) // 2] == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.diff(fd) >= -1e-12) and np.all(np.diff(fs) <= 1e-12)
    assert np.all((fs >= 0.0) & (fs <= 1.0))


def test_thermal_curves_at_the_smallest_clean_beta_are_finite(tmp_path):
    out = run_ok(tmp_path, {"kind": "curves", "parameters": {"family": "thermal", "beta": 1e-155}})
    _, rows = read_rows(out / "curves.csv")
    assert len(rows) == 241
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_missing_sampled_file_exits_3(tmp_path, capsys):
    doc = {"kind": "zeno", "parameters": {"initial": "sampled(@absent.csv)", "total_time": 0.5, "n_values": [1]}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "invalid scenario at parameters.initial:" in capsys.readouterr().err


def _table(rows, header="x,re,im"):
    return "\n".join([header, *rows]) + "\n"


# amplitude files for sampled(@name.csv) literals: one valid, two with no norm, three malformed
SAMPLED_TABLES = {
    "valid.csv": _table(f"{x!r},{math.exp(-x * x / 4)!r},{0.5 * x * math.exp(-x * x / 4)!r}"
                        for x in (0.5 * k - 4.0 for k in range(17))),
    "zero.csv": _table(f"{0.1 * k!r},0,0" for k in range(16)),
    # each square, 1e-340, underflows to 0
    "underflow.csv": _table(f"{0.1 * k!r},1e-170,0" for k in range(16)),
    # each square, 1e320, overflows
    "overflow.csv": _table(f"{0.1 * k!r},1e160,0" for k in range(16)),
    "nan.csv": _table(f"{0.1 * k!r},{'nan' if k == 5 else 1},0" for k in range(16)),
    "ragged.csv": _table(f"{0.1 * k!r},1,0{',0' if k == 5 else ''}" for k in range(16)),
    "uneven.csv": _table(f"{0.1 * k + (0.05 if k == 5 else 0.0)!r},1,0" for k in range(16)),
}
# a literal's path for a table in each kind that reads a literal
TABLE_KINDS = [
    ("curves", lambda lit: {"family": "strategy", "strategy": lit}, "strategy"),
    ("zeno", lambda lit: {"initial": lit, "total_time": 0.5, "n_values": [1]}, "initial"),
    ("clearing", lambda lit: {"traders": [lit, "gaussian(0, 1)"], "rounds": 1}, "traders[0]"),
    ("auction", lambda lit: {**AUCTION_PARAMETERS, "buyers": [lit]}, "buyers[0]"),
]


def write_tables(directory):
    for name, text in SAMPLED_TABLES.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("table", ["zero.csv", "underflow.csv"])
@pytest.mark.parametrize("kind, params, field", TABLE_KINDS, ids=[k[0] for k in TABLE_KINDS])
def test_a_sampled_table_with_no_norm_exits_3_at_its_literal(tmp_path, capsys, table, kind, params, field):
    # refused where the table is built, not as a numerical failure on first use
    write_tables(tmp_path)
    path = write_scenario(tmp_path, {"kind": kind, "parameters": params(f"sampled(@{table})")})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"invalid scenario at parameters.{field}:" in err and "zero norm" in err


@pytest.mark.parametrize("kind, params, field", TABLE_KINDS, ids=[k[0] for k in TABLE_KINDS])
def test_a_sampled_table_whose_squares_overflow_exits_3_at_its_literal(tmp_path, capsys, kind, params, field):
    write_tables(tmp_path)
    path = write_scenario(tmp_path, {"kind": kind, "parameters": params("sampled(@overflow.csv)")})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"invalid scenario at parameters.{field}:" in err and "sum past the doubles" in err


def test_a_strategy_too_far_from_0_for_its_grid_exits_3(tmp_path, capsys):
    doc = {"kind": "curves", "parameters": {"family": "strategy", "strategy": "gaussian(1e12, 1)"}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "invalid scenario at parameters.strategy:" in err and "too far from 0" in err


@pytest.mark.parametrize("text, reason", [
    (_table((f"{0.1 * k!r},1,0" for k in range(16)), header="x,y,z"), "expected header"),
    (_table(f"{0.1 * k!r},1,0" for k in range(7)), "at least 8 sample rows"),
    (_table(f"{0.1 * k!r},{'one' if k == 3 else 1},0" for k in range(16)), "non-numeric cell"),
    (_table(f"{0.1 * k!r},1" for k in range(16)), "3 columns"),
    (_table(f"{-0.1 * k!r},1,0" for k in range(16)), "strictly ascending"),
    (SAMPLED_TABLES["uneven.csv"], "uniformly spaced"),
    (_table(f"{'nan' if k == 5 else repr(0.1 * k)},1,0" for k in range(16)), "x column must be finite"),
], ids=["header", "rows", "cell", "columns", "ascending", "uniform", "x-nan"])
def test_a_malformed_amplitude_file_exits_3(tmp_path, capsys, text, reason):
    (tmp_path / "amp.csv").write_text(text)
    doc = {"kind": "zeno", "parameters": {"initial": "sampled(@amp.csv)", "total_time": 0.5, "n_values": [1]}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "invalid scenario at parameters.initial:" in err and reason in err


def test_sampled_zeno_on_a_coarse_grid_is_not_truncated(tmp_path):
    # hermite(1) + 0.5i hermite(3) on 301 nodes: its unit norm on the
    # nodes and its projection's quadrature norm differ by about 1e-7
    grid = Grid(-7.0, 7.5, 301)
    amps = hermite_function(1, grid.points) + 0.5j * hermite_function(3, grid.points)
    lines = ["x,re,im"] + [f"{x!r},{a.real!r},{a.imag!r}" for x, a in zip(grid.points.tolist(), amps.tolist())]
    (tmp_path / "two_level.csv").write_text("\n".join(lines) + "\n")
    n_values = [1, 2, 3, 5, 10, 100]
    params = {"initial": "sampled(@two_level.csv)", "total_time": 0.37, "n_values": n_values}
    out = run_ok(tmp_path, {"kind": "zeno", "parameters": params})
    _, rows = read_rows(out / "zeno.csv")
    for n, (n_text, survival) in zip(n_values, rows):
        phase = 2.0 * math.pi * 0.37 / n
        amp = 0.8 * cmath.exp(-1.5j * phase) + 0.2 * cmath.exp(-3.5j * phase)
        assert int(n_text) == n
        assert float(survival) == pytest.approx(abs(amp) ** (2 * n), abs=1e-6)


def test_numerical_failure_exits_4(tmp_path, capsys):
    doc = {
        "kind": "zeno",
        "parameters": {
            "initial": "gaussian(0, 40)",
            "total_time": 0.5,
            "n_values": [1, 2],
        },
    }
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    assert "TruncationError" in capsys.readouterr().err


# a Gaussian of width 2.5e11 on 64 nodes over +-1e12; its dual is 2e-12 wide, so
# the default p grid takes its least span, 1e-6, and the chord step it allows
# (pi / 2e-6) asks for r = 10611 half-steps per q step over 241 q nodes
WIDE_TABLE = "x,re,im\n" + "".join(
    f"{x!r},{math.exp(-((x / 2.5e11) ** 2) / 4)!r},0\n" for x in np.linspace(-1e12, 1e12, 64).tolist()
)


def test_a_wide_gaussian_whose_dual_is_too_narrow_for_the_chord_cap_exits_3(tmp_path, capsys):
    # the table is a valid strategy, and so is its dual; the Wigner chord step
    # that resolves both would need more psi points than the chirp-z's cap.  A
    # tabulated strategy takes the chirp-z; gaussian(0, 1e30) is now in closed form
    (tmp_path / "wide.csv").write_text(WIDE_TABLE)
    doc = {"kind": "curves", "parameters": {"family": "strategy", "strategy": "sampled(@wide.csv)"}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "invalid scenario at parameters.strategy:" in err and "psi points" in err


@pytest.mark.parametrize("literal", ["gaussian(0.3, 1, 1e5)", "gaussian(0, 1e30)"])
def test_gaussians_past_the_chord_cap_run_in_closed_form(tmp_path, literal):
    # both exited 3 while every strategy took the chirp-z
    out = run_ok(tmp_path, {"kind": "curves", "parameters": {"family": "strategy", "strategy": literal}})
    w = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)[:, 2]
    assert w.shape == (241 * 241,) and np.all(np.isfinite(w)) and w.max() > 0


@pytest.mark.parametrize("initial, risk", [
    ("gaussian(0, 1e5)", {}),
    ("gaussian(1e6, 1)", {}),
    # a length scale of 1e-6
    ("gaussian(0, 1)", {"risk": {"hbar_e": 1e-12, "theta": 2 * math.pi}}),
])
def test_support_far_beyond_the_basis_exits_4(tmp_path, capsys, initial, risk):
    # the projection grid is clamped to the turning point, so it stays
    # small however far the support reaches in units of the length scale
    params = {"initial": initial, "total_time": 0.5, "n_values": [1, 2], **risk}
    path = write_scenario(tmp_path, {"kind": "zeno", "parameters": params})
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 4
    assert "TruncationError" in capsys.readouterr().err


def test_plotdata_zeno_log_hint(tmp_path, capsys):
    out = run_ok(
        tmp_path,
        {
            "kind": "zeno",
            "seed": 0,
            "parameters": {
                "initial": ["hermite(0)", "hermite(1)"],
                "total_time": 0.5,
                "n_values": [1, 10, 100, 1000],
            },
        },
    )
    csv_path = out / "zeno.csv"
    assert main(["plotdata", str(csv_path), "--x", "n", "--y", "survival"]) == 0
    plot_path = out / "zeno.csv.plot.json"
    assert str(plot_path) in capsys.readouterr().out
    payload = json.loads(plot_path.read_text())
    assert payload["log_x"] is True  # four decades of n
    assert payload["x"]["column"] == "n"
    assert payload["x"]["values"] == [1.0, 10.0, 100.0, 1000.0]
    (series,) = payload["series"]
    assert series["column"] == "survival"
    assert series["unit"] == "probability"
    assert len(series["values"]) == 4


def test_plotdata_two_series_no_log(tmp_path):
    out = run_ok(
        tmp_path,
        {"kind": "fixed-point", "seed": 0, "parameters": {"sigmas": [0.5, 1.0, 2.0]}},
    )
    target = tmp_path / "cooling.plot.json"
    code = main(
        [
            "plotdata",
            str(out / "cooling.csv"),
            "--x",
            "sigma",
            "--y",
            "fixed_point,max_intensity",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["log_x"] is False
    assert [s["column"] for s in payload["series"]] == ["fixed_point", "max_intensity"]


def test_plotdata_missing_column_exits_3(tmp_path, capsys):
    out = run_ok(
        tmp_path,
        {"kind": "fixed-point", "seed": 0, "parameters": {"sigmas": [1.0]}},
    )
    code = main(["plotdata", str(out / "cooling.csv"), "--x", "sigma", "--y", "nope"])
    assert code == 3
    assert "columns.nope" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "thermal", "parameters": {"betas": [1.0], "series_terms": 5}},
        {"kind": "curves", "parameters": {"family": "thermal", "beta": 1.0}},
    ],
    ids=["thermal", "curves"],
)
def test_thermal_hbar_omega_underflow_exits_3(tmp_path, capsys, doc):
    # the thermal kind used to blame beta, the thermal curves to divide by zero
    doc["parameters"]["risk"] = {"hbar_e": 1e-200, "theta": 1e200}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "invalid scenario at parameters.risk:" in capsys.readouterr().err


def test_readme_names_exactly_the_schema_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| ([^|]*) \| [^|]* \|$", readme, re.M))
    assert set(rows) == set(cli.KINDS)
    for kind, spec in cli._SCHEMA.items():
        tables = spec.values() if isinstance(spec, dict) else [spec]
        fields = {name: f for t in tables for name, f in t.fields.items() if name != "risk"}
        assert set(re.findall(r"`(\w+)`", rows[kind])) == set(fields), kind
        for name, field in fields.items():
            assert f"`{name}` ({field.phrase})" in rows[kind], (kind, name)
    risk = re.search(r"optional `risk` record:(.*?)Omitting", readme, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", risk)) == set(cli._RISK)


# ---------------------------------------------------------------------------
# a fuzzer that draws whole documents from the scenario schema

EDGE_REALS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, -1e-300, 1e-150,
    1e300, -1e300, 1.7e308, -1.7e308, 2.0**63, 10**400,
]
WRONG = st.sampled_from(["x", True, None, [], {}])


def _mostly(valid, edge, wrong=WRONG):
    """Sixteen draws in twenty valid, three at the edges, one of a wrong type."""
    return st.integers(0, 19).flatmap(lambda k: valid if k < 16 else edge if k < 19 else wrong)


# sampled literals: a missing file, or one of the tables each drawn document's directory holds
TABLE_LITERALS = st.sampled_from(["absent.csv", *SAMPLED_TABLES]).map("sampled(@{})".format)
# literal numbers: ordinary ones, and the ends of the doubles
TEXT = _mostly(
    st.sampled_from(["0", "0.3", "-2", "1", "2.5"]),
    st.sampled_from(["1e5", "5e-324", "1e-300", "1e-150", "1e300", "-1e300", "1.7e308"]),
    st.just("1e999"),
)
LITERALS = st.one_of(
    st.builds("gaussian({}, {}{})".format, TEXT, TEXT, st.sampled_from(["", ", 1", ", 1e4", ", 1e300"])),
    st.integers(0, 3).map("hermite({})".format),
    TEXT.map("delta({})".format),
    st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=3).map(
        lambda atoms: "discrete({})".format(", ".join(f"{a}: {w}" for a, w in atoms))
    ),
    st.sampled_from(["gauss)(", "", "hermite(-1)"]),
    TABLE_LITERALS,
)


def field_values(field):
    if isinstance(field, cli._Number) and field.count:
        # valid counts stay small; the edges pass every cap
        edges = [field.lo - 1, field.hi + 1, 2**63, 10**12, 10**400]
        return _mostly(st.integers(field.lo, min(field.hi, field.lo + 3)), st.sampled_from(edges))
    if isinstance(field, cli._Number):
        lo, hi = max(field.lo, -1e3), min(field.hi, 1e3)
        valid = st.floats(lo, hi, exclude_min=field.open_ends, exclude_max=field.open_ends)
        return _mostly(valid, st.sampled_from(EDGE_REALS))
    if isinstance(field, cli._Value) and field.options:
        return _mostly(st.sampled_from(field.options), st.just("bogus"))
    if isinstance(field, cli._List):
        item = field_values(field.item)
        valid = st.lists(item, min_size=field.least, max_size=field.least + 2)
        if field.ascending:
            valid = valid.map(lambda xs: sorted(set(xs)) if all(type(x) is int for x in xs) else xs)
        return _mostly(valid, st.lists(item, max_size=field.least - 1))
    if isinstance(field, cli._Literal):
        options = [LITERALS]
        if field.superpose:
            options.append(st.lists(LITERALS, max_size=3))
        if field.record:
            rep = st.sampled_from(["demand", "supply", "ask"])
            options.append(st.fixed_dictionaries({"strategy": LITERALS}, optional={"rep": rep}))
        return _mostly(st.one_of(*options), st.just("gauss)("))
    if isinstance(field, cli._Risk):
        values = {name: field_values(f) for name, f in cli._RISK.items()}
        values["thetanc"] = values["theta_nc"]
        names = st.tuples(
            st.sampled_from(["theta", "omega", "theta omega", ""]),
            st.sampled_from(["", "m", "theta_nc", "m theta_nc", "thetanc"]),
        )
        return names.flatmap(lambda t: st.fixed_dictionaries(
            {name: values[name] for name in ("hbar_e", *t[0].split(), *t[1].split())}
        ))
    raise AssertionError(f"no draw for {field!r}")


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(cli.KINDS))
    spec = cli._SCHEMA[kind]
    params = {}
    if isinstance(spec, dict):  # keyed by family
        params["family"] = draw(st.sampled_from(sorted(spec)))
        spec = spec[params["family"]]
    for name, field in spec.fields.items():
        optional = field.default is not cli._REQUIRED
        if name not in params and draw(st.integers(0, 9)) < (5 if optional else 9):
            params[name] = draw(field_values(field))
    if draw(st.integers(0, 19)) == 19:
        params["bogus"] = 1
    doc = {"kind": kind, "parameters": params}
    if draw(st.booleans()):
        doc["seed"] = draw(field_values(cli._TOP["seed"]))
    return doc


def run_drawn(doc):
    """Run a document in a fresh directory that holds SAMPLED_TABLES: (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_scenario(Path(tmp), doc)
        write_tables(Path(tmp))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@given(scenarios())
def test_every_drawn_document_exits_0_2_3_or_truncates(doc):
    code, err = run_drawn(doc)
    assert code in (0, 2, 3) or (code == 4 and "(TruncationError)" in err), err


@given(st.sampled_from(TABLE_KINDS), st.one_of(LITERALS, TABLE_LITERALS))
def test_every_drawn_literal_in_a_valid_document_exits_0_3_or_truncates(case, literal):
    # few whole drawn documents are valid; one valid but for its literal reaches
    # the run, where a literal the parser let through must not fail numerically
    kind, params, _ = case
    code, err = run_drawn({"kind": kind, "parameters": params(literal)})
    assert code in (0, 3) or (code == 4 and "(TruncationError)" in err), err


_DECK = {
    "fixed-point": {"sigmas": [1.0]},
    "curves": {"family": "strategy", "strategy": "sampled(@amp.csv)"},
    "auction": AUCTION_PARAMETERS,
    "zeno": {"initial": "sampled(@amp.csv)", "total_time": 0.5, "n_values": [1, 2]},
    "thermal": {"betas": [1.0], "series_terms": 5},
    "risk-spectrum": {"levels": 3},
    "clearing": {"traders": ["gaussian(0, 1)", "gaussian(1, 1)"], "rounds": 3},
}

_RUN_DECK = """
import sys
import qmg.cli
for scenario, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert qmg.cli.main(["run", scenario, "--out", out]) == 0, scenario
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_a_run_of_every_kind_never_loads_scipy(tmp_path):
    # a fresh interpreter: this suite's own scipy imports would mask one in qmg
    assert set(_DECK) == set(cli.KINDS)
    grid = Grid(-7.0, 7.0, 241)
    amps = hermite_function(0, grid.points) + 0.5j * hermite_function(1, grid.points)
    lines = ["x,re,im"] + [f"{x!r},{a.real!r},{a.imag!r}" for x, a in zip(grid.points.tolist(), amps.tolist())]
    (tmp_path / "amp.csv").write_text("\n".join(lines) + "\n")
    argv = []
    for kind, params in _DECK.items():
        argv += [str(write_scenario(tmp_path, {"kind": kind, "parameters": params}, f"{kind}.json")),
                 str(tmp_path / f"{kind}-out")]
    src = str(Path(qmg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _RUN_DECK, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
