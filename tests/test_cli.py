import importlib
import io
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import casimir.cli as cli
from casimir import lifshitz, quadrature
from casimir.cli import main
from casimir.config import build_layer, read_config
from casimir.materials import Permeability, Vacuum, ev_to_radps
from casimir.quadrature import QuadratureError

# the module: casimir.torque, as an attribute of casimir, is the function
torque_module = importlib.import_module("casimir.torque")

FLOAT_CELL = re.compile(r"^-?\d\.\d{8}e[+-]\d{2,3}$")


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def drude_csv(path, omega_p_ev, gamma_ev, e_min=0.01, e_max=100.0,
              per_decade=30):
    wp, ga = ev_to_radps(omega_p_ev), ev_to_radps(gamma_ev)
    count = int(round(per_decade * math.log10(e_max / e_min))) + 1
    lines = ["energy_ev,eps1,eps2"]
    for e in np.geomspace(e_min, e_max, count):
        w = ev_to_radps(float(e))
        eps1 = 1.0 - wp ** 2 / (w ** 2 + ga ** 2)
        eps2 = wp ** 2 * ga / (w * (w ** 2 + ga ** 2))
        lines.append(f"{float(e)!r},{eps1!r},{eps2!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_table(path):
    """-> (metadata dict, column names, rows as lists of strings)."""
    meta, columns, rows = {}, None, []
    for line in open(path, encoding="utf-8"):
        line = line.rstrip("\n")
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif line.startswith("#"):
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def column(rows, columns, name, cast=float):
    idx = columns.index(name)
    return [cast(row[idx]) for row in rows]


GOLD_SECTION = """
        [material.gold]
        model = drude
        omega_p_ev = 9.0
        gamma_ev = 0.035
"""


# ---------------------------------------------------------------------------
# eps-table


def test_eps_table_matsubara_vacuum(tmp_path):
    cfg = write_cfg(tmp_path, """
        [eps_table]
        material = vacuum

        [matsubara]
        temperature_k = 300
        n_max = 5
    """)
    out = tmp_path / "eps.csv"
    assert main(["eps-table", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    assert columns == ["n", "xi_rad_s", "eps"]
    assert column(rows, columns, "n", int) == [1, 2, 3, 4, 5]
    xi = column(rows, columns, "xi_rad_s")
    assert xi[0] == pytest.approx(2.46779e14, rel=1e-5)
    assert all(cell == "1.00000000e+00" for cell in
               [row[columns.index("eps")] for row in rows])


def test_eps_table_log_grid_decreasing(tmp_path):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [eps_table]
        material = gold
        grid = log
        xi_min_rad_s = 1e13
        xi_max_rad_s = 1e17
        points = 9
    """)
    out = tmp_path / "eps.csv"
    assert main(["eps-table", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    eps = column(rows, columns, "eps")
    assert all(a > b > 1.0 for a, b in zip(eps, eps[1:]))
    wp, ga = ev_to_radps(9.0), ev_to_radps(0.035)
    assert eps[2] == pytest.approx(1.0 + wp ** 2 / (1e14 * (1e14 + ga)),
                                   rel=1e-8)


def test_eps_table_tabulated_material(tmp_path):
    drude_csv(tmp_path / "au.csv", 9.0, 0.035)
    drude_csv(tmp_path / "au_low.csv", 8.45, 0.047)
    cfg = write_cfg(tmp_path, """
        [material.gold_data]
        model = tabulated
        data_path = au.csv
        merge_data_path = au_low.csv
        merge_below_ev = 4.2
        omega_p_ev = 8.45
        gamma_ev = 0.047
        join_energy_ev = 0.01

        [eps_table]
        material = gold_data
        grid = log
        xi_min_rad_s = 1e14
        xi_max_rad_s = 1e16
        points = 5
    """)
    out = tmp_path / "eps.csv"
    assert main(["eps-table", "--config", cfg, "--out", str(out)]) == 0
    meta, columns, rows = read_table(out)
    assert meta["model"].startswith("tabulated(")
    eps = column(rows, columns, "eps")
    assert all(a > b > 1.0 for a, b in zip(eps, eps[1:]))


def test_eps_table_temperature_override(tmp_path):
    cfg = write_cfg(tmp_path, """
        [eps_table]
        material = vacuum

        [matsubara]
        n_max = 2
    """)
    out300, out600 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["eps-table", "--config", cfg, "--out", str(out300)]) == 0
    assert main(["eps-table", "--config", cfg, "--out", str(out600),
                 "--temperature-k", "600"]) == 0
    _, cols, rows300 = read_table(out300)
    _, _, rows600 = read_table(out600)
    ratio = column(rows600, cols, "xi_rad_s")[0] / \
        column(rows300, cols, "xi_rad_s")[0]
    assert ratio == pytest.approx(2.0, rel=1e-8)


def test_eps_table_bad_grid(tmp_path, capsys):
    for lo, hi, points in (("1e13", "1e17", "0"), ("nan", "1e17", "3"),
                           ("1e13", "nan", "3"), ("1e13", "inf", "3"),
                           ("0", "1e17", "3"), ("-1e13", "1e17", "3")):
        cfg = write_cfg(tmp_path, GOLD_SECTION + f"""
        [eps_table]
        material = gold
        grid = log
        xi_min_rad_s = {lo}
        xi_max_rad_s = {hi}
        points = {points}
        """)
        out = tmp_path / "eps.csv"
        assert main(["eps-table", "--config", cfg, "--out", str(out)]) == 1
        assert "xi_max_rad_s < inf and points >= 1" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("override", [["--n-max", "3"],
                                      ["--temperature-k", "1"]])
def test_eps_table_log_grid_rejects_matsubara_overrides(tmp_path, capsys,
                                                        override):
    out = tmp_path / "eps.csv"
    cfg = os.path.join(GOLDEN, "eps_log.ini")
    assert main(["eps-table", "--config", cfg, "--out", str(out),
                 *override]) == 1
    assert "apply only to grid = matsubara" in capsys.readouterr().err
    assert not out.exists()


def test_eps_table_unknown_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        [eps_table]
        material = vacuum
        grid = cubic
    """)
    assert main(["eps-table", "--config", cfg]) == 1
    assert "unknown grid" in capsys.readouterr().err


def test_eps_table_does_not_resolve_the_zero_mode(tmp_path):
    # the table holds n >= 1 only; plasma with no plasma frequency in sight
    # would be a config error for a sum, but the table never needs it
    text = """
        [material.glass]
        model = constant
        epsilon = 2.25

        [eps_table]
        material = glass
        grid = matsubara

        [matsubara]
        n_max = 3
        zero_mode = plasma
    """
    cfg = write_cfg(tmp_path, text)
    out, drude = tmp_path / "eps.csv", tmp_path / "drude.csv"
    assert main(["eps-table", "--config", cfg, "--out", str(out)]) == 0
    drude_cfg = write_cfg(tmp_path, text.replace("plasma", "drude"), "drude.ini")
    assert main(["eps-table", "--config", drude_cfg, "--out", str(drude)]) == 0
    assert out.read_bytes() == drude.read_bytes()


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.mark.parametrize("name", ["log", "matsubara", "coarse"])
def test_eps_table_golden_output(tmp_path, name):
    # tabulated gold with both tails, on a log and a Matsubara grid, and a
    # coarse table whose data band needs more than its cheapest round: every
    # byte of the recorded table (see tests/golden/README.md) must come back
    out = tmp_path / "eps.csv"
    cfg = os.path.join(GOLDEN, f"eps_{name}.ini")
    assert main(["eps-table", "--config", cfg, "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"eps_{name}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("command, name", [
    ("torque-sweep", "torque_equal"),
    ("torque-sweep", "torque_unequal"),
    ("convergence", "convergence_five_layer"),
    ("force-sweep", "force_sweep"),
])
def test_matsubara_sum_golden_output(tmp_path, command, name):
    # equal and unequal torque plates (two and three sums in one pass), a
    # magnetodielectric five-layer stack and a Drude/plasma force sweep of
    # two materials: every byte of the recorded table
    # (see tests/golden/README.md) must come back
    out = tmp_path / "out.csv"
    cfg = os.path.join(GOLDEN, f"{name}.ini")
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, f"{name}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_force_sweep_golden_past_the_engine_row_cap(tmp_path, monkeypatch):
    # the quadrature engine runs each Matsubara pass of the sweep in slices
    # of 8 rows: every byte of the recorded table must still come back
    monkeypatch.setattr(quadrature, "_MAX_ROWS", 8)
    out = tmp_path / "out.csv"
    cfg = os.path.join(GOLDEN, "force_sweep.ini")
    assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, "force_sweep.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


# ---------------------------------------------------------------------------
# force-sweep


def force_cfg(tmp_path, extra="", force_extra=""):
    return write_cfg(tmp_path, GOLD_SECTION + f"""
        [force]
        material = gold
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = 3
        {force_extra}

        [matsubara]
        temperature_k = 300
        n_max = 80
        {extra}
    """)


def test_force_sweep_columns_and_determinism(tmp_path):
    cfg = force_cfg(tmp_path)
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["force-sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _, columns, rows = read_table(out1)
    assert columns == ["d_m", "force_gold_drude_n_per_m",
                       "force_gold_plasma_n_per_m", "ratio_gold_plasma_drude"]
    assert len(rows) == 3
    drude = column(rows, columns, "force_gold_drude_n_per_m")
    plasma = column(rows, columns, "force_gold_plasma_n_per_m")
    ratio = column(rows, columns, "ratio_gold_plasma_drude")
    assert all(f > 0.0 for f in drude + plasma)
    assert all(r > 1.0 for r in ratio)
    assert all(p > d for p, d in zip(plasma, drude))
    # the ratio of the unrounded forces, written to 9 digits
    assert ratio == pytest.approx([p / d for p, d in zip(plasma, drude)],
                                  rel=2e-8)


def test_force_sweep_zero_mode_override(tmp_path):
    cfg = force_cfg(tmp_path)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out),
                 "--zero-mode", "drude", "--n-max", "40"]) == 0
    meta, columns, _ = read_table(out)
    assert columns == ["d_m", "force_gold_drude_n_per_m"]
    assert meta["n_max"] == "40"


def test_force_sweep_linear_spacing(tmp_path):
    cfg = force_cfg(tmp_path, force_extra="spacing = linear")
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out),
                 "--zero-mode", "drude"]) == 0
    meta, columns, rows = read_table(out)
    assert meta["spacing"] == "linear"
    assert column(rows, columns, "d_m", str) == [
        cli._fmt(d) for d in np.linspace(1e-7, 1e-6, 3).tolist()]


@pytest.mark.parametrize("rows, text", [
    ([(1, 2.5e-7, 1.0), (2, -3.0, 1e300)],
     "1,2.50000000e-07,1.00000000e+00\n2,-3.00000000e+00,1.00000000e+300\n"),
    ([(1, -0.0, math.nan)], "1,0.00000000e+00,nan\n"),
    ([(1, None, 0.5), (2, -0.0, -math.inf)],
     "1,,5.00000000e-01\n2,0.00000000e+00,-inf\n"),
    ([], ""),
], ids=["uniform", "negative-zero", "mixed-column", "empty"])
def test_table_cells(rows, text):
    # floats in 9 digits, a negative zero without its sign, None as an
    # empty cell, whether or not a column holds one type; rows may be any
    # iterable, as force-sweep passes a zip
    stream = io.StringIO()
    cli._write_table(stream, "cmd", [("key", -0.0)], ["a", "b", "c"], iter(rows))
    assert stream.getvalue() == "# casimir cmd\n# key = 0.00000000e+00\na,b,c\n" + text


def test_force_sweep_identical_media_zero(tmp_path):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [force]
        material = gold
        gap = gold
        treatments = drude
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1

        [matsubara]
        n_max = 10
    """)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    assert rows[0][columns.index("force_gold_drude_n_per_m")] == \
        "0.00000000e+00"


def test_force_sweep_zero_drude_force_gives_nan_ratio(tmp_path):
    # gold in a gold gap: both forces vanish, and so does the ratio's divisor
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [force]
        material = gold
        gap = gold
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1

        [matsubara]
        n_max = 10
    """)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    assert column(rows, columns, "force_gold_drude_n_per_m") == [0.0]
    assert column(rows, columns, "force_gold_plasma_n_per_m") == [0.0]
    assert rows[0][columns.index("ratio_gold_plasma_drude")] == "nan"


def test_force_sweep_requires_plasma_frequency(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        [material.glass]
        model = constant
        epsilon = 5.0

        [force]
        material = glass
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1

        [matsubara]
        n_max = 10
    """)
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "no material implies a plasma frequency" in capsys.readouterr().err


def test_force_sweep_ideal_mirror_distance_scaling(tmp_path):
    # T -> 0 proxy: the force follows 1/d**3 between 0.1 and 1 um
    cfg = write_cfg(tmp_path, """
        [material.mirror]
        model = plasma
        omega_p_ev = 65827.0

        [force]
        material = mirror
        treatments = model
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = 2
    """)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out),
                 "--temperature-k", "10", "--n-max", "3000"]) == 0
    _, columns, rows = read_table(out)
    forces = column(rows, columns, "force_mirror_model_n_per_m")
    assert forces[0] / forces[1] == pytest.approx(1000.0, rel=0.01)


def test_force_sweep_reference_ratio_converges(tmp_path):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [material.gold2]
        model = drude
        omega_p_ev = 8.45
        gamma_ev = 0.047

        [force]
        material = gold
        reference = gold2
        treatments = drude
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = 3

        [matsubara]
        n_max = 150
    """)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    gaps = [abs(r - 1.0)
            for r in column(rows, columns, "ratio_gold_gold2_drude")]
    assert gaps[0] > gaps[1] > gaps[2]


def test_force_sweep_bad_grid(tmp_path, capsys):
    cfg = force_cfg(tmp_path, force_extra="spacing = cubic")
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "unknown spacing" in capsys.readouterr().err
    for d_max in ("5e-8", "inf", "nan"):
        cfg = write_cfg(tmp_path, GOLD_SECTION + f"""
        [force]
        material = gold
        d_min_m = 1e-7
        d_max_m = {d_max}
        points = 2
        """)
        assert main(["force-sweep", "--config", cfg]) == 1
        assert "d_max_m < inf" in capsys.readouterr().err
    for points in ("0", "-1"):
        cfg = write_cfg(tmp_path, GOLD_SECTION + f"""
        [force]
        material = gold
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = {points}
        """)
        out = tmp_path / "force.csv"
        assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "[force] needs points >= 1" in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# torque-sweep


def torque_cfg(tmp_path, l_m=1e-3, materials=GOLD_SECTION,
               plate="gold", n_max=60):
    return write_cfg(tmp_path, materials + f"""
        [torque]
        plate_a = {plate}
        plate_b = {plate}
        k_m = 2e-3
        l_m = {l_m}
        h_m = 3e-3
        d3_m = 1e-7
        theta_points = 8

        [matsubara]
        temperature_k = 300
        n_max = {n_max}
        zero_mode = drude
    """)


def test_torque_sweep_output(tmp_path):
    cfg = torque_cfg(tmp_path)
    out = tmp_path / "t.csv"
    assert main(["torque-sweep", "--config", cfg, "--out", str(out)]) == 0
    meta, columns, rows = read_table(out)
    assert len(rows) == 8
    density = float(meta["energy_density_j_m2"])
    assert density < 0.0
    thetas = column(rows, columns, "theta_rad")
    assert thetas[-1] == pytest.approx(math.pi / 2.0, rel=1e-8)
    torques = column(rows, columns, "torque_n_m")
    assert abs(torques[-1]) < 1e-25
    assert all(m < 0.0 for m in torques[:-1])
    # energy column is overlap area times the shared density
    areas = column(rows, columns, "area_m2")
    energies = column(rows, columns, "energy_j")
    for area, energy in zip(areas, energies):
        assert energy == pytest.approx(area * density, rel=1e-7)
    branch = float(meta["theta0_rad"])
    edge = column(rows, columns, "edge_torque_ratio")
    for theta, ratio in zip(thetas, edge):
        if theta > branch:
            assert ratio == pytest.approx(2.64e-5, rel=1e-6)
        else:
            assert 0.0 < ratio < 1.4e-5


def test_torque_sweep_bad_grid(tmp_path, capsys):
    cfg = torque_cfg(tmp_path)
    text = open(cfg, encoding="utf-8").read()
    for points in ("0", "-3"):
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text.replace("theta_points = 8", f"theta_points = {points}"))
        out = tmp_path / "torque.csv"
        assert main(["torque-sweep", "--config", cfg, "--out", str(out)]) == 1
        assert "theta_points >= 1" in capsys.readouterr().err
        assert not out.exists()


def test_torque_sweep_narrow_plate_warning(tmp_path, capsys):
    cfg = torque_cfg(tmp_path, l_m=5e-4, materials="", plate="vacuum",
                     n_max=5)
    assert main(["torque-sweep", "--config", cfg]) == 0
    assert "edge corrections" in capsys.readouterr().err


def test_torque_sweep_branch_grid_hit(tmp_path, capsys, monkeypatch):
    grid = np.linspace(0.0, math.pi / 2.0, 9)[1:]
    hit = float(grid[2])
    monkeypatch.setattr(cli, "theta0", lambda k, l: hit)
    cfg = torque_cfg(tmp_path, materials="", plate="vacuum", n_max=5)
    out = tmp_path / "t.csv"
    assert main(["torque-sweep", "--config", cfg, "--out", str(out)]) == 0
    assert "offsetting by 1e-9" in capsys.readouterr().err
    _, columns, rows = read_table(out)
    thetas = column(rows, columns, "theta_rad")
    # output carries 9 significant digits, so allow that rounding
    assert thetas[2] == pytest.approx(hit + 1e-9, abs=1e-9)
    assert thetas[2] != pytest.approx(hit, abs=1e-10)


@pytest.mark.parametrize("key, value, message", [
    ("k_m", "5e-4", "K > L > 0"),                   # K < L
    ("h_m", "2e-3", "H**2 must exceed"),            # H**2 <= K**2 + L**2
    ("d3_m", "inf", "d3 must be positive and finite"),
])
def test_torque_sweep_bad_geometry_exits_before_any_integral(
        tmp_path, capsys, monkeypatch, key, value, message):
    def no_integrals(*args, **kwargs):
        raise AssertionError("an energy was computed")

    monkeypatch.setattr(torque_module, "energy_per_area_T", no_integrals)
    cfg = torque_cfg(tmp_path)
    text = open(cfg, encoding="utf-8").read()
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(re.sub(rf"{key} = \S+", f"{key} = {value}", text))
    assert main(["torque-sweep", "--config", cfg]) == 1
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# convergence


def test_convergence_report(tmp_path):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [stack]
        layer1 = gold
        layer2 = vacuum
        layer3 = gold
        layer4 = vacuum
        layer5 = gold
        d2_m = 2e-7
        d3_m = 2e-7
        d4_m = 2e-7

        [convergence]
        checkpoints = 50,150

        [matsubara]
        n_max = 150
    """)
    out = tmp_path / "c.csv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    _, columns, rows = read_table(out)
    assert columns == ["n", "energy_j_m2", "rel_delta"]
    assert column(rows, columns, "n", int) == [50, 150]
    assert rows[0][columns.index("rel_delta")] == ""
    energies = column(rows, columns, "energy_j_m2")
    assert all(e < 0.0 for e in energies)
    assert 0.0 <= float(rows[1][columns.index("rel_delta")]) < 1e-3


def test_convergence_wide_gap_warning(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [stack]
        layer1 = gold
        layer2 = vacuum
        layer3 = gold
        layer4 = vacuum
        layer5 = gold
        d2_m = 2e-6
        d3_m = 2e-7
        d4_m = 2e-6

        [matsubara]
        n_max = 20
    """)
    assert main(["convergence", "--config", cfg,
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert "boundary corrections" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate-data


def data_cfg(tmp_path, data_name):
    return write_cfg(tmp_path, f"""
        [data]
        path = {data_name}
    """, name="data.ini")


def test_validate_data_pass(tmp_path, capsys):
    drude_csv(tmp_path / "au.csv", 9.0, 0.035)
    cfg = data_cfg(tmp_path, "au.csv")
    assert main(["validate-data", "--config", cfg]) == 0
    output = capsys.readouterr().out
    assert "PASS" in output
    assert "ok: high-frequency tail fit" in output
    assert "strictly increasing" in output


def test_validate_data_descending_rows(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text(
        "energy_ev,eps1,eps2\n1.0,1.0,0.1\n0.5,1.0,0.1\n", encoding="utf-8")
    cfg = data_cfg(tmp_path, "bad.csv")
    assert main(["validate-data", "--config", cfg]) == 1
    output = capsys.readouterr().out
    assert "FAIL" in output
    assert "strictly increasing" in output
    assert "sample 1" in output


def test_validate_data_negative_absorption(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text(
        "energy_ev,eps1,eps2\n1.0,1.0,0.1\n2.0,1.0,-0.1\n", encoding="utf-8")
    cfg = data_cfg(tmp_path, "bad.csv")
    assert main(["validate-data", "--config", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_data_non_finite_value(tmp_path, capsys):
    for bad in ("nan", "inf"):
        (tmp_path / "bad.csv").write_text(
            f"energy_ev,eps1,eps2\n1.0,1.0,0.1\n2.0,1.0,{bad}\n",
            encoding="utf-8")
        cfg = data_cfg(tmp_path, "bad.csv")
        assert main(["validate-data", "--config", cfg]) == 1
        output = capsys.readouterr().out
        assert "FAIL" in output
        assert "eps2 must be finite; sample 1" in output


def test_validate_data_missing_file(tmp_path, capsys):
    cfg = data_cfg(tmp_path, "nope.csv")
    assert main(["validate-data", "--config", cfg]) == 1
    assert "FAIL" in capsys.readouterr().out


def _power_csv(path, eps2):
    """A table on 0.1 .. 10 eV with eps1 = 1 and the given eps2(energy)."""
    energies = np.geomspace(0.1, 10.0, 21)
    path.write_text("energy_ev,eps1,eps2\n" + "".join(
        f"{e!r},1.0,{eps2(e)!r}\n" for e in energies.tolist()), encoding="utf-8")


def test_validate_data_zero_tail(tmp_path, capsys):
    # eps2 vanishes in the top decade (1 .. 10 eV): the tail is zero
    _power_csv(tmp_path / "t.csv", lambda e: 0.5 if e < 1.0 else 0.0)
    assert main(["validate-data", "--config", data_cfg(tmp_path, "t.csv")]) == 0
    output = capsys.readouterr().out
    assert "ok: high-frequency tail is zero (eps2 vanishes in the top decade)" \
        in output
    assert output.splitlines()[-1].startswith("PASS: ")


def test_validate_data_tail_that_does_not_decay(tmp_path, capsys):
    # eps2 ~ w**-0.5 gives no integrable power tail
    _power_csv(tmp_path / "t.csv", lambda e: e ** -0.5)
    assert main(["validate-data", "--config", data_cfg(tmp_path, "t.csv")]) == 1
    output = capsys.readouterr().out
    assert "error: tail fit: PowerTail exponent must exceed 1 " in output
    assert output.splitlines()[-1].startswith("FAIL: ")


# ---------------------------------------------------------------------------
# error handling and formatting


def test_missing_config_file(tmp_path, capsys):
    assert main(["force-sweep", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_missing_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[matsubara]\nn_max = 5\n")
    assert main(["eps-table", "--config", cfg]) == 1
    assert "missing config section [eps_table]" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "d_min_m = 1e-7\n",
    "[force]\npoints = 3\n\n[force]\npoints = 4\n",
], ids=["no_section_header", "duplicate_section"])
def test_unparsable_config_is_named(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, text)
    assert main(["eps-table", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")


def test_config_that_is_a_directory_is_named(tmp_path, capsys):
    assert main(["convergence", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "missing config section" not in err


# one config that every key below breaks for the command named with it
LIBRARY_CHECKED = GOLD_SECTION + """
        [stack]
        layer1 = gold
        layer2 = vacuum
        layer3 = gold
        layer4 = vacuum
        layer5 = gold
        d2_m = 2e-7
        d3_m = 2e-7
        d4_m = 2e-7

        [force]
        material = gold
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = 3

        [matsubara]
        n_max = 80

        [quadrature]
        rel_tol = 1e-7
"""


@pytest.mark.usefixtures("no_sums")
@pytest.mark.parametrize("command, key, value, message", [
    ("convergence", "d2_m", "-1e-7",
     "d2 must be positive and finite, got -1e-07"),
    ("force-sweep", "n_max", "0", "n_max must be at least 1"),
    ("force-sweep", "rel_tol", "0", "rel_tol must lie in (0, 1e-3]"),
], ids=["d2_m", "n_max", "rel_tol"])
def test_library_checks_of_config_values_exit_1(tmp_path, capsys, command,
                                                key, value, message):
    # the stack and config classes check these values; main reports them
    cfg = write_cfg(tmp_path, re.sub(rf"{key} = \S+", f"{key} = {value}",
                                     LIBRARY_CHECKED))
    assert main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _golden_convergence(tmp_path, pattern, replacement):
    """The convergence golden's config with ``pattern`` replaced."""
    with open(os.path.join(GOLDEN, "convergence_five_layer.ini"),
              encoding="utf-8") as fh:
        text = fh.read()
    assert re.search(pattern, text, flags=re.M)
    return write_cfg(tmp_path, re.sub(pattern, replacement, text, flags=re.M))


@pytest.mark.usefixtures("no_sums")
@pytest.mark.parametrize("pattern, replacement, message", [
    (r"^checkpoints = .*$", "checkpoints = 15,x",
     "error: [convergence] checkpoints = '15,x': "
     "invalid literal for int() with base 10: 'x'\n"),
    (r"^d3_m = .*\n", "", "error: missing key 'd3_m' in section [stack]\n"),
    (r"^model = drude$", "model = banana",
     "error: [material.gold] unknown model 'banana'\n"),
    (r"^zero_mode = drude$", "zero_mode = foo",
     "error: unknown zero mode 'foo' (use drude, plasma or model)\n"),
], ids=["checkpoints", "missing_key", "unknown_model", "unknown_zero_mode"])
def test_bad_convergence_config_exits_1(tmp_path, capsys, pattern,
                                        replacement, message):
    cfg = _golden_convergence(tmp_path, pattern, replacement)
    assert main(["convergence", "--config", cfg]) == 1
    assert capsys.readouterr().err == message


def test_vacuum_section_keeps_its_mu(tmp_path):
    cfg = read_config(write_cfg(tmp_path, """
        [material.magnetic_gap]
        model = vacuum
        mu = 2.5
    """))
    layer = build_layer(cfg, "magnetic_gap")
    assert layer.eps == Vacuum() and layer.mu == Permeability(2.5)


def test_unknown_material(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        [eps_table]
        material = unobtainium
    """)
    assert main(["eps-table", "--config", cfg]) == 1
    assert "material 'unobtainium'" in capsys.readouterr().err


def test_unknown_treatment(tmp_path, capsys, monkeypatch):
    def no_integrals(*args, **kwargs):
        raise AssertionError("a force was computed")

    # every name is checked before the first force is computed
    monkeypatch.setattr(cli, "tangential_force_reduced", no_integrals)
    for treatments in ("banana", "drude,banana"):
        cfg = force_cfg(tmp_path, force_extra=f"treatments = {treatments}")
        assert main(["force-sweep", "--config", cfg]) == 1
        assert "unknown treatment 'banana'" in capsys.readouterr().err
    cfg = force_cfg(tmp_path, force_extra="treatments = ,")
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "treatments is empty" in capsys.readouterr().err


def test_force_sweep_rejects_duplicate_columns(tmp_path, capsys, monkeypatch):
    def no_integrals(*args, **kwargs):
        raise AssertionError("a force was computed")

    # a repeated treatment, or a reference that is the material itself,
    # would write the same column name twice
    monkeypatch.setattr(cli, "tangential_force_reduced", no_integrals)
    cfg = force_cfg(tmp_path, force_extra="treatments = drude,plasma,Drude")
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "lists a treatment twice" in capsys.readouterr().err
    cfg = force_cfg(tmp_path, force_extra="treatments = drude\n"
                                          "        reference = gold")
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "reference 'gold' is the material itself" in capsys.readouterr().err
    # the drude ratio to a reference named plasma is named like the
    # plasma/drude ratio of the material
    cfg = force_cfg(tmp_path, force_extra="reference = plasma\n"
                                          "        [material.plasma]\n"
                                          "        model = plasma\n"
                                          "        omega_p_ev = 9.0")
    assert main(["force-sweep", "--config", cfg]) == 1
    assert ("reference 'plasma' repeats the column ratio_gold_plasma_drude"
            in capsys.readouterr().err)


def _force_columns(path):
    """{column name: cells} of the force columns of a force-sweep table."""
    _, columns, rows = read_table(path)
    return {name: [row[i] for row in rows] for i, name in enumerate(columns)
            if name.startswith("force_")}


def test_force_sweep_shared_pass_equals_separate_runs(tmp_path):
    # drude, plasma and model share one Matsubara pass per material and
    # separation; each column must equal a run of its treatment alone
    drude_csv(tmp_path / "gold.csv", 9.0, 0.035)
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [material.gold_data]
        model = tabulated
        data_path = gold.csv
        omega_p_ev = 9.0
        gamma_ev = 0.035
        join_energy_ev = 0.01

        [force]
        material = gold
        reference = gold_data
        treatments = drude,plasma,model
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = 3

        [matsubara]
        temperature_k = 300
        n_max = 80
    """)
    together = tmp_path / "all.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(together)]) == 0
    shared = _force_columns(together)
    assert len(shared) == 6
    for t in ("drude", "plasma", "model"):
        alone = tmp_path / f"{t}.csv"
        assert main(["force-sweep", "--config", cfg, "--out", str(alone),
                     "--zero-mode", t]) == 0
        columns = _force_columns(alone)
        assert list(columns) == [f"force_gold_{t}_n_per_m",
                                 f"force_gold_data_{t}_n_per_m"]
        for name, cells in columns.items():
            assert shared[name] == cells


def test_force_sweep_separations_in_one_call(tmp_path, monkeypatch):
    # the whole grid of a material is one call; the table must be the one
    # built from one call per separation, byte for byte
    drude_csv(tmp_path / "gold.csv", 9.0, 0.035)
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [material.gold_data]
        model = tabulated
        data_path = gold.csv
        omega_p_ev = 9.0
        gamma_ev = 0.035
        join_energy_ev = 0.01

        [force]
        material = gold
        reference = gold_data
        d_min_m = 1e-7
        d_max_m = 1e-6
        points = 4

        [matsubara]
        temperature_k = 300
        n_max = 300
    """)
    batched = cli.tangential_force_reduced
    grids = []

    def one_call(bounding, gap, d4, mats, quad):
        grids.append(d4)
        return batched(bounding, gap, d4, mats, quad)

    def per_separation(bounding, gap, d4, mats, quad):
        return tuple(batched(bounding, gap, d, mats, quad) for d in d4)

    together, apart = tmp_path / "together.csv", tmp_path / "apart.csv"
    monkeypatch.setattr(cli, "tangential_force_reduced", one_call)
    assert main(["force-sweep", "--config", cfg, "--out", str(together)]) == 0
    assert len(grids) == 2 and all(len(grid) == 4 for grid in grids)
    monkeypatch.setattr(cli, "tangential_force_reduced", per_separation)
    assert main(["force-sweep", "--config", cfg, "--out", str(apart)]) == 0
    assert together.read_bytes() == apart.read_bytes()


def test_ambiguous_plasma_zero_mode(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [material.aluminum]
        model = drude
        omega_p_ev = 12.5
        gamma_ev = 0.063

        [stack]
        layer1 = gold
        layer2 = vacuum
        layer3 = aluminum
        layer4 = vacuum
        layer5 = gold
        d2_m = 2e-7
        d3_m = 2e-7
        d4_m = 2e-7

        [matsubara]
        n_max = 20
        zero_mode = plasma
    """)
    assert main(["convergence", "--config", cfg]) == 1
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("omega_p_ev, message", [
    ("inf", "PlasmaLike omega_p must be finite"),
    ("1e200", "PlasmaLike xi -> 0 coefficient overflows"),
])
def test_unusable_plasma_frequency_exits_before_any_integral(
        tmp_path, capsys, monkeypatch, omega_p_ev, message):
    def no_integrals(*args, **kwargs):
        raise AssertionError("a force was computed")

    monkeypatch.setattr(cli, "tangential_force_reduced", no_integrals)
    cfg = force_cfg(tmp_path, extra=f"omega_p_ev = {omega_p_ev}")
    assert main(["force-sweep", "--config", cfg, "--zero-mode", "plasma"]) == 1
    assert message in capsys.readouterr().err


def test_quadrature_failure_exit_code(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [force]
        material = gold
        treatments = drude
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1

        [matsubara]
        n_max = 5

        [quadrature]
        rel_tol = 1e-9
    """)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    assert main(["force-sweep", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_temperature_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [force]
        material = gold
        treatments = drude
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1

        [matsubara]
        temperature_k = inf
    """)
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "temperature must be positive and finite" in capsys.readouterr().err


def test_drude_tail_without_damping_names_its_section(tmp_path, capsys):
    drude_csv(tmp_path / "gold.csv", 9.0, 0.035, per_decade=10)
    cfg = write_cfg(tmp_path, """
        [material.gold_data]
        model = tabulated
        data_path = gold.csv
        omega_p_ev = 9.0
        gamma_ev = 0

        [eps_table]
        material = gold_data
    """)
    assert main(["eps-table", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "[material.gold_data]" in err and "gamma must be positive" in err


def test_sum_cut_at_n_max_warns_on_stderr(tmp_path, capsys):
    # Drude gold at 10 K, 100 nm, plasma zero mode, n_max = 20: the sum is
    # cut far from convergence; the table is written and the exit code is 0
    cfg = write_cfg(tmp_path, GOLD_SECTION + """
        [force]
        material = gold
        treatments = plasma
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1

        [matsubara]
        temperature_k = 10
        n_max = 20
    """)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: Matsubara sum truncated at n_max = 20")
    assert err.count("\n") == 1
    _, columns, rows = read_table(out)
    assert len(rows) == 1 and column(rows, columns, "force_gold_plasma_n_per_m")[0] > 0


def test_truncation_is_reported_before_a_later_failure(tmp_path, capsys,
                                                       monkeypatch):
    # a command whose first sum is cut at n_max and whose second fails
    def cut_then_fail(args):
        warnings.warn("Matsubara sum truncated at n_max = 20",
                      lifshitz.TruncationWarning)
        raise QuadratureError("quadrature did not reach rel_tol")

    monkeypatch.setitem(cli._COMMANDS, "force-sweep",
                        (cut_then_fail, cli._COMMANDS["force-sweep"][1]))
    cfg = write_cfg(tmp_path, GOLD_SECTION)
    assert main(["force-sweep", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: Matsubara sum truncated at n_max = 20",
        "error: quadrature did not reach rel_tol"]


def test_non_finite_material_parameter_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        [material.gold]
        model = drude
        omega_p_ev = 9.0
        gamma_ev = nan

        [force]
        material = gold
        treatments = drude
        d_min_m = 1e-7
        d_max_m = 1e-7
        points = 1
    """)
    assert main(["force-sweep", "--config", cfg]) == 1
    assert "gamma must be finite" in capsys.readouterr().err


def test_float_cells_have_nine_significant_digits(tmp_path):
    cfg = force_cfg(tmp_path)
    out = tmp_path / "f.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows = read_table(out)
    for row in rows:
        for cell in row:
            assert FLOAT_CELL.match(cell), cell


def test_force_sweep_without_scipy(tmp_path):
    # scipy is a test oracle only: a fresh interpreter that cannot import it
    # still imports the CLI and writes the same table
    cfg = force_cfg(tmp_path)
    out, reference = tmp_path / "f.csv", tmp_path / "reference.csv"
    assert main(["force-sweep", "--config", cfg, "--out", str(reference)]) == 0
    script = ("import sys; sys.modules['scipy'] = None; import casimir.cli; "
              "sys.exit(casimir.cli.main(sys.argv[1:]))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script, "force-sweep",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == reference.read_bytes()


def test_module_entry_point(tmp_path):
    drude_csv(tmp_path / "au.csv", 9.0, 0.035)
    cfg = data_cfg(tmp_path, "au.csv")
    proc = subprocess.run([sys.executable, "-m", "casimir.cli",
                           "validate-data", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# ---------------------------------------------------------------------------
# command line options; usage and file errors exit 1 (2 is non-convergence)


@pytest.mark.parametrize("command, overrides", [
    ("eps-table", ["--n-max", "--temperature-k"]),
    ("force-sweep", ["--zero-mode", "--n-max", "--temperature-k"]),
    ("torque-sweep", ["--zero-mode", "--n-max", "--temperature-k"]),
    ("convergence", ["--zero-mode", "--temperature-k"]),
    ("validate-data", []),
])
def test_each_command_takes_only_the_overrides_it_reads(capsys, command,
                                                        overrides):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    shown = re.findall(r"--(?:zero-mode|n-max|temperature-k)\b",
                       capsys.readouterr().out)
    assert sorted(set(shown)) == sorted(overrides)


@pytest.mark.parametrize("argv", [
    ["force-sweep"],                                         # no --config
    ["force-sweep", "--config", "x.ini", "--zero-mode", "bogus"],
    ["force-sweep", "--config", "x.ini", "--n-max", "ten"],
    ["eps-table", "--config", "x.ini", "--zero-mode", "drude"],
    ["convergence", "--config", "x.ini", "--n-max", "5"],
    ["validate-data", "--config", "x.ini", "--n-max", "5"],
    ["no-such-command"],
])
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_1(tmp_path, capsys):
    drude_csv(tmp_path / "au.csv", 9.0, 0.035)
    cfg = data_cfg(tmp_path, "au.csv")
    out = tmp_path / "missing" / "report.txt"
    assert main(["validate-data", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(out) in err


@pytest.fixture
def no_sums(monkeypatch):
    """Every Matsubara sum raises a QuadratureError if it is called."""
    def fail(*args, **kwargs):
        raise QuadratureError("a sum ran", 0.0, 0.0)

    monkeypatch.setattr(lifshitz, "_lockstep", fail)


@pytest.mark.usefixtures("no_sums")
@pytest.mark.parametrize("command, name", [
    ("force-sweep", "force_sweep"), ("torque-sweep", "torque_equal"),
    ("convergence", "convergence_five_layer")])
def test_unwritable_output_fails_before_any_integral(tmp_path, capsys,
                                                     command, name):
    out = tmp_path / "missing" / "x.csv"
    cfg = os.path.join(GOLDEN, f"{name}.ini")
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.usefixtures("no_sums")
def test_failed_command_leaves_the_output_as_it_was(tmp_path, capsys):
    cfg = os.path.join(GOLDEN, "force_sweep.ini")
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"earlier results\n")
    new = tmp_path / "new.csv"
    for out in (kept, new):
        assert main(["force-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "a sum ran" in capsys.readouterr().err
    assert kept.read_bytes() == b"earlier results\n"
    assert not new.exists()
