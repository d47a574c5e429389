"""End-to-end scenario runner and plot-data emitter checks."""

import cmath
import json
import math

import pytest

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
    for key in ("qmg", "numpy", "scipy", "python"):
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


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


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
        # accepted by the density, but the curves' spline integral overflows
        ({"family": "thermal", "beta": 1e-158}, "parameters.beta"),
        ({"family": "thermal", "beta": 1e-160}, "parameters.beta"),
        # omega squared overflows, or hbar_e omega underflows to 0
        ({"family": "excited", "n": 1, "risk": {"hbar_e": 1, "theta": 1e-160}}, "parameters.risk"),
        ({"family": "excited", "n": 1, "risk": {"hbar_e": 1e-200, "theta": 1e200}}, "parameters.risk"),
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


def test_thermal_spread_refused_where_the_energy_is_finite(tmp_path, capsys):
    # beta * (hbar omega / 2) = 5e-311 keeps the energy finite, but the
    # spread's 0.5 * beta * hbar_e underflows to 0 before omega enters
    risk = {"hbar_e": 1e-30, "omega": 1e20}
    doc = {"kind": "thermal", "parameters": {"betas": [1e-300], "series_terms": 5, "risk": risk}}
    path = write_scenario(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "invalid scenario at parameters.betas[0]:" in capsys.readouterr().err


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
