import math
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import casimir.cli as cli
from casimir.cli import main
from casimir.materials import ev_to_radps

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


def test_eps_table_unknown_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
        [eps_table]
        material = vacuum
        grid = cubic
    """)
    assert main(["eps-table", "--config", cfg]) == 1
    assert "unknown grid" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# error handling and formatting


def test_missing_config_file(tmp_path, capsys):
    assert main(["force-sweep", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_missing_section(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[matsubara]\nn_max = 5\n")
    assert main(["eps-table", "--config", cfg]) == 1
    assert "missing config section [eps_table]" in capsys.readouterr().err


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


def test_quadrature_failure_exit_code(tmp_path, capsys):
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
        max_panels = 8
    """)
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


def test_module_entry_point(tmp_path):
    drude_csv(tmp_path / "au.csv", 9.0, 0.035)
    cfg = data_cfg(tmp_path, "au.csv")
    proc = subprocess.run([sys.executable, "-m", "casimir.cli",
                           "validate-data", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
