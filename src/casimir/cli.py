"""Command line interface.

    casimir <command> --config <path> [--out <path>] [overrides]

Commands: eps-table, force-sweep, torque-sweep, convergence, validate-data;
``_COMMANDS`` lists the [matsubara] overrides each of them reads.
All numerical output is CSV with '#'-prefixed metadata lines and floats in
scientific notation with 9 significant digits, so reruns are byte-identical.

Exit codes: 0 success, 1 usage, configuration, validation or file error,
2 numerical non-convergence. A Matsubara sum cut at n_max before it
converged prints ``warning: ...`` on stderr and changes neither the CSV nor
the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import warnings

import numpy as np

from .config import (ConfigError, build_layer, build_matsubara, build_quadrature,
                     build_stack, get, matsubara_grid, read_config)
from .lifshitz import TruncationWarning, matsubara_xi, truncation_report
from .materials import (DataFileError, Tabulated, fit_power_tail,
                        load_optical_data)
from .quadrature import QuadratureError
from .tangential import tangential_force_reduced
from .torque import (TorqueGeometry, area_derivative, edge_torque_ratio,
                     overlap, theta0, torque_energy_density)

# geometry ranges outside which boundary corrections may matter
_MIN_WIDTH = 1e-3
_MAX_GAP = 1e-6


def _spec(value):
    """The % format of one cell: a float in 9 digits, None as nothing."""
    return "%.8e" if isinstance(value, float) else "%.0s" if value is None else "%s"


def _fmt(value):
    if isinstance(value, float) and value == 0.0:
        value = 0.0  # avoid printing negative zero
    return _spec(value) % (value,)


def _write_table(stream, command, metadata, columns, rows):
    stream.write(f"# casimir {command}\n")
    for key, value in metadata:
        stream.write(f"# {key} = {_fmt(value)}\n")
    stream.write(",".join(columns) + "\n")
    # one % format if each column holds one type and no zero, which %.8e
    # would print with its sign if negative; otherwise cell by cell
    rows = list(rows)
    if rows and all(len(set(map(type, column))) == 1 and 0.0 not in column
                    for column in zip(*rows)):
        stream.writelines(map((",".join(map(_spec, rows[0])) + "\n").__mod__, rows))
    else:
        stream.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _material_label(layer):
    eps = layer.eps
    if isinstance(eps, Tabulated):
        return f"tabulated({eps.table.source_label})"
    return repr(eps)


def _out_stream(args):
    if args.out:
        return open(args.out, "w", encoding="utf-8")
    # keep stdout usable after the command returns
    return contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# commands


def cmd_eps_table(args):
    cfg = read_config(args.config)
    name = get(cfg, "eps_table", "material", str)
    layer = build_layer(cfg, name)
    grid = get(cfg, "eps_table", "grid", str, "matsubara").lower()
    metadata = [("material", name), ("model", _material_label(layer)),
                ("grid", grid)]
    if grid == "matsubara":
        mats = matsubara_grid(cfg, args.n_max, args.temperature_k)
        metadata += [("temperature_k", mats.temperature), ("n_max", mats.n_max)]
        columns = ["n", "xi_rad_s", "eps"]
        ns = np.arange(1, mats.n_max + 1)
        grid_columns = [ns.tolist(), matsubara_xi(ns, mats.temperature).tolist()]
    elif grid == "log":
        if args.n_max is not None or args.temperature_k is not None:
            raise ConfigError("--n-max and --temperature-k apply only to grid = matsubara")
        lo = get(cfg, "eps_table", "xi_min_rad_s", float)
        hi = get(cfg, "eps_table", "xi_max_rad_s", float)
        points = get(cfg, "eps_table", "points", int)
        if not (0.0 < lo < math.inf and 0.0 < hi < math.inf and points >= 1):
            raise ConfigError("[eps_table] needs 0 < xi_min_rad_s, "
                              "xi_max_rad_s < inf and points >= 1")
        metadata += [("xi_min_rad_s", lo), ("xi_max_rad_s", hi), ("points", points)]
        columns = ["xi_rad_s", "eps"]
        grid_columns = [np.geomspace(lo, hi, points).tolist()]
    else:
        raise ConfigError(f"[eps_table] unknown grid '{grid}'")
    # xi (the last grid column) in one call, so tabulated data is batched
    eps = layer.eps.eps_imag_axis(np.array(grid_columns[-1]))
    rows = list(zip(*grid_columns, eps.tolist()))
    with _out_stream(args) as stream:
        _write_table(stream, "eps-table", metadata, columns, rows)
    return 0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator != 0.0 else math.nan


def cmd_force_sweep(args):
    cfg = read_config(args.config)
    bounding_name = get(cfg, "force", "material", str)
    gap_name = get(cfg, "force", "gap", str, "vacuum")
    reference_name = get(cfg, "force", "reference", str, None)
    bounding = build_layer(cfg, bounding_name)
    gap = build_layer(cfg, gap_name)
    reference = build_layer(cfg, reference_name) if reference_name else None

    if args.zero_mode:
        treatments = [args.zero_mode]
    else:
        raw = get(cfg, "force", "treatments", str, "drude,plasma")
        treatments = [t.strip().lower() for t in raw.split(",") if t.strip()]
    if not treatments:
        raise ConfigError("[force] treatments is empty")
    for t in treatments:
        if t not in ("drude", "plasma", "model"):
            raise ConfigError(f"unknown treatment '{t}' (use drude, plasma or model)")
    if len(set(treatments)) < len(treatments):
        raise ConfigError(f"[force] treatments lists a treatment twice: "
                          f"{','.join(treatments)}")
    if reference_name == bounding_name:
        raise ConfigError(f"[force] reference '{reference_name}' is the "
                          "material itself")
    if reference_name == "plasma" and {"drude", "plasma"} <= set(treatments):
        # its drude ratio column would repeat the plasma/drude ratio's name
        raise ConfigError(f"[force] reference 'plasma' repeats the column "
                          f"ratio_{bounding_name}_plasma_drude")

    d_min = get(cfg, "force", "d_min_m", float)
    d_max = get(cfg, "force", "d_max_m", float)
    points = get(cfg, "force", "points", int)
    spacing = get(cfg, "force", "spacing", str, "log").lower()
    if not 0.0 < d_min <= d_max < math.inf:
        raise ConfigError("[force] needs 0 < d_min_m <= d_max_m < inf")
    if points < 1:
        raise ConfigError("[force] needs points >= 1")
    if spacing == "log":
        grid = np.geomspace(d_min, d_max, points)
    elif spacing == "linear":
        grid = np.linspace(d_min, d_max, points)
    else:
        raise ConfigError(f"[force] unknown spacing '{spacing}'")

    targets = [(bounding_name, bounding)]
    if reference is not None:
        targets.append((reference_name, reference))
    # one configuration per (material, treatment), grouped by material and
    # built before any integral; a plasma treatment takes the plasma
    # frequency of its own material
    configs = {name: tuple(build_matsubara(cfg, [layer], t, args.n_max,
                                           args.temperature_k)[0]
                           for t in treatments)
               for name, layer in targets}
    quad = build_quadrature(cfg, default_rel_tol=1e-7)

    # one call per material: the separations are rows of the same passes,
    # and all treatments share the terms n >= 1
    separations = tuple(grid.tolist())
    table = {"d_m": separations}   # column name -> one value per separation
    for mat_name, layer in targets:
        results = tangential_force_reduced(layer, gap, separations,
                                           configs[mat_name], quad)
        for j, t in enumerate(treatments):
            table[f"force_{mat_name}_{t}_n_per_m"] = [r[j].force_per_width
                                                      for r in results]

    def force(name, t):
        return table[f"force_{name}_{t}_n_per_m"]

    if {"drude", "plasma"} <= set(treatments):
        table[f"ratio_{bounding_name}_plasma_drude"] = list(map(
            _ratio, force(bounding_name, "plasma"), force(bounding_name, "drude")))
    if reference is not None:
        for t in treatments:
            table[f"ratio_{bounding_name}_{reference_name}_{t}"] = list(map(
                _ratio, force(bounding_name, t), force(reference_name, t)))
    columns, rows = list(table), zip(*table.values())

    mats = configs[bounding_name][0]
    metadata = [("material", bounding_name),
                ("material_model", _material_label(bounding)),
                ("gap", gap_name), ("treatments", ",".join(treatments)),
                ("temperature_k", mats.temperature), ("n_max", mats.n_max),
                ("rel_tol", quad.rel_tol), ("spacing", spacing)]
    if reference is not None:
        metadata.insert(2, ("reference", reference_name))
        metadata.insert(3, ("reference_model", _material_label(reference)))
    with _out_stream(args) as stream:
        _write_table(stream, "force-sweep", metadata, columns, rows)
    return 0


def cmd_torque_sweep(args):
    cfg = read_config(args.config)
    plate_a = build_layer(cfg, get(cfg, "torque", "plate_a", str))
    plate_b = build_layer(cfg, get(cfg, "torque", "plate_b", str))
    medium = build_layer(cfg, get(cfg, "torque", "medium", str, "vacuum"))
    plate_k = get(cfg, "torque", "k_m", float)
    plate_l = get(cfg, "torque", "l_m", float)
    plate_h = get(cfg, "torque", "h_m", float)
    d3 = get(cfg, "torque", "d3_m", float)
    thickness = get(cfg, "torque", "plate_thickness_m", float, 1e-6)
    points = get(cfg, "torque", "theta_points", int, 64)
    if points < 1:
        raise ConfigError("[torque] needs theta_points >= 1")
    # checks the geometry before any integral runs
    TorqueGeometry(plate_k, plate_l, plate_h, 0.0, d3)
    branch = theta0(plate_k, plate_l)

    if plate_l < _MIN_WIDTH:
        _warn(f"plate width {plate_l:g} m is below {_MIN_WIDTH:g} m; "
              "edge corrections may not be negligible")

    mats, zero_mode_name = build_matsubara(cfg, [plate_a, plate_b, medium],
                                           args.zero_mode, args.n_max,
                                           args.temperature_k)
    quad = build_quadrature(cfg, default_rel_tol=1e-7)
    density = torque_energy_density(plate_a, plate_b, medium, d3, mats, quad,
                                    plate_thickness=thickness)

    thetas = np.linspace(0.0, math.pi / 2.0, points + 1)[1:]
    rows = []
    for theta in thetas:
        theta = float(theta)
        if theta == branch:
            _warn(f"theta grid point {theta:.9g} rad sits exactly on theta_0; "
                  "offsetting by 1e-9 rad")
            theta += 1e-9
        geom = TorqueGeometry(plate_k, plate_l, plate_h, theta, d3)
        shape = overlap(geom)
        torque_val = -area_derivative(geom) * density
        rows.append((theta, torque_val, shape.area * density, shape.area,
                     shape.perimeter, edge_torque_ratio(geom)))

    metadata = [("plate_a", _material_label(plate_a)),
                ("plate_b", _material_label(plate_b)),
                ("medium", _material_label(medium)),
                ("k_m", plate_k), ("l_m", plate_l), ("h_m", plate_h),
                ("d3_m", d3), ("plate_thickness_m", thickness),
                ("temperature_k", mats.temperature), ("n_max", mats.n_max),
                ("zero_mode", zero_mode_name), ("rel_tol", quad.rel_tol),
                ("theta0_rad", branch), ("energy_density_j_m2", density)]
    columns = ["theta_rad", "torque_n_m", "energy_j", "area_m2",
               "perimeter_m", "edge_torque_ratio"]
    with _out_stream(args) as stream:
        _write_table(stream, "torque-sweep", metadata, columns, rows)
    return 0


def cmd_convergence(args):
    cfg = read_config(args.config)
    stack = build_stack(cfg)
    d2, d3, d4 = stack.thicknesses
    if min(d2, d4) > _MAX_GAP:
        _warn(f"min(d2, d4) = {min(d2, d4):g} m exceeds "
              f"{_MAX_GAP:g} m; boundary corrections may not be negligible")
    checkpoints = get(cfg, "convergence", "checkpoints",
                      lambda raw: [int(t) for t in raw.split(",") if t.strip()],
                      [100, 500])
    # the sum runs to the last checkpoint (the largest, when they ascend);
    # truncation_report rejects empty, unsorted or out-of-range checkpoints
    mats, zero_mode_name = build_matsubara(cfg, list(stack.layers),
                                           args.zero_mode,
                                           max([1, *checkpoints]),
                                           args.temperature_k)
    quad = build_quadrature(cfg)
    rows = [(row.n, row.value, row.rel_delta)
            for row in truncation_report(stack, mats, quad, checkpoints)]
    metadata = [("temperature_k", mats.temperature),
                ("zero_mode", zero_mode_name), ("rel_tol", quad.rel_tol),
                ("d2_m", d2), ("d3_m", d3), ("d4_m", d4)]
    with _out_stream(args) as stream:
        _write_table(stream, "convergence", metadata,
                     ["n", "energy_j_m2", "rel_delta"], rows)
    return 0


def cmd_validate_data(args):
    cfg = read_config(args.config)
    path = cfg.resolve(get(cfg, "data", "path", str))
    lines = []
    failed = False
    try:
        table = load_optical_data(path)
    except DataFileError as err:
        lines.append(f"error: {err}")
        failed = True
        table = None
    if table is not None:
        lines.append(f"ok: parsed {table.energies_ev.size} samples")
        lines.append(f"ok: energies strictly increasing, "
                     f"{table.e_min_ev:.6g} to {table.e_max_ev:.6g} eV")
        lines.append("ok: eps2 non-negative")
        decades = math.log10(table.e_max_ev / table.e_min_ev)
        lines.append(f"ok: range covers {decades:.2f} decades")
        try:
            tail = fit_power_tail(table)
            if tail.amplitude == 0.0:
                lines.append("ok: high-frequency tail is zero (eps2 vanishes "
                             "in the top decade)")
            else:
                lines.append(f"ok: high-frequency tail fit eps2 ~ "
                             f"{tail.amplitude:.6g} * (w_max/w)**{tail.exponent:.4g}")
        except ValueError as err:
            lines.append(f"error: tail fit: {err}")
            failed = True
    with _out_stream(args) as stream:
        for line in lines:
            stream.write(line + "\n")
        stream.write(("FAIL" if failed else "PASS") + f": {path}\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


_OVERRIDES = {
    "--zero-mode": dict(choices=["drude", "plasma", "model"],
                        help="override the zero-frequency treatment"),
    "--n-max": dict(type=int, help="override the Matsubara cutoff"),
    "--temperature-k": dict(type=float, help="override the temperature in kelvin"),
}
# each command with the [matsubara] overrides it reads
_COMMANDS = {
    "eps-table": (cmd_eps_table, ("--n-max", "--temperature-k")),
    "force-sweep": (cmd_force_sweep, tuple(_OVERRIDES)),
    "torque-sweep": (cmd_torque_sweep, tuple(_OVERRIDES)),
    "convergence": (cmd_convergence, ("--zero-mode", "--temperature-k")),
    "validate-data": (cmd_validate_data, ()),
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1: exit code 2 means numerical non-convergence
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="casimir",
        description="Casimir energies, forces and torques for layered media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, overrides) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        for flag in overrides:
            p.add_argument(flag, **_OVERRIDES[flag])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.out:   # an unwritable --out fails before any integral
            existed = os.path.lexists(args.out)
            open(args.out, "a", encoding="utf-8").close()
            if not existed:
                os.remove(args.out)
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncationWarning)
                return _COMMANDS[args.command][0](args)
        finally:   # a sum cut at n_max is reported even if a later one fails
            for w in caught:
                if issubclass(w.category, TruncationWarning):
                    _warn(w.message)
                else:
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    except QuadratureError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:  # ConfigError, DataFileError too
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
