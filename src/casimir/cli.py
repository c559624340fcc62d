"""Command line interface.

    casimir <command> --config <path> [--out <path>]
                      [--zero-mode drude|plasma|model] [--n-max N]
                      [--temperature-k T]

Commands: eps-table, force-sweep, torque-sweep, convergence, validate-data.
All numerical output is CSV with '#'-prefixed metadata lines and floats in
scientific notation with 9 significant digits, so reruns are byte-identical.

Exit codes: 0 success, 1 configuration or validation failure, 2 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .config import (ConfigError, _resolve_path, build_layer, build_matsubara,
                     build_quadrature, build_stack, get, read_config)
from .lifshitz import MatsubaraConfig, matsubara_xi, truncation_report
from .materials import (DataFileError, Tabulated, fit_power_tail,
                        load_optical_data)
from .quadrature import QuadratureError
from .stack import StackSymmetryError
from .tangential import tangential_force_reduced
from .torque import (TorqueGeometry, area_derivative, edge_torque_ratio,
                     overlap, theta0, torque_energy_density)

# geometry ranges outside which boundary corrections may matter
_MIN_WIDTH = 1e-3
_MAX_GAP = 1e-6


def _fmt(value):
    if isinstance(value, float):
        if value == 0.0:  # avoid printing negative zero
            value = 0.0
        return f"{value:.8e}"
    if value is None:
        return ""
    return str(value)


def _write_table(stream, command, metadata, columns, rows):
    stream.write(f"# casimir {command}\n")
    for key, value in metadata:
        stream.write(f"# {key} = {_fmt(value)}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


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
        mats, _ = build_matsubara(cfg, [layer], args.zero_mode, args.n_max,
                                  args.temperature_k)
        metadata += [("temperature_k", mats.temperature), ("n_max", mats.n_max)]
        columns = ["n", "xi_rad_s", "eps"]
        ns = np.arange(1, mats.n_max + 1)
        grid_columns = [ns.tolist(), matsubara_xi(ns, mats.temperature).tolist()]
    elif grid == "log":
        lo = get(cfg, "eps_table", "xi_min_rad_s", float)
        hi = get(cfg, "eps_table", "xi_max_rad_s", float)
        points = get(cfg, "eps_table", "points", int)
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

    d_min = get(cfg, "force", "d_min_m", float)
    d_max = get(cfg, "force", "d_max_m", float)
    points = get(cfg, "force", "points", int)
    spacing = get(cfg, "force", "spacing", str, "log").lower()
    if not 0.0 < d_min <= d_max < math.inf:
        raise ConfigError("[force] needs 0 < d_min_m <= d_max_m < inf")
    if spacing == "log":
        grid = np.geomspace(d_min, d_max, points)
    elif spacing == "linear":
        grid = np.linspace(d_min, d_max, points)
    else:
        raise ConfigError(f"[force] unknown spacing '{spacing}'")

    targets = [(bounding_name, bounding)]
    if reference is not None:
        targets.append((reference_name, reference))
    # one configuration per (material, treatment), built before any integral;
    # a plasma treatment takes the plasma frequency of its own material
    configs = {(name, t): (layer, build_matsubara(cfg, [layer], t, args.n_max,
                                                  args.temperature_k)[0])
               for name, layer in targets for t in treatments}
    quad = build_quadrature(cfg, default_rel_tol=1e-7)

    columns = ["d_m"]
    for mat_name, _ in targets:
        columns += [f"force_{mat_name}_{t}_n_per_m" for t in treatments]
    if {"drude", "plasma"} <= set(treatments):
        columns.append(f"ratio_{bounding_name}_plasma_drude")
    if reference is not None:
        columns += [f"ratio_{bounding_name}_{reference_name}_{t}" for t in treatments]

    rows = []
    for d in grid:
        forces = {key: tangential_force_reduced(layer, gap, float(d), mats,
                                                quad).force_per_width
                  for key, (layer, mats) in configs.items()}
        row = [float(d)] + [forces[(mat_name, t)] for mat_name, _ in targets
                            for t in treatments]
        if {"drude", "plasma"} <= set(treatments):
            row.append(_ratio(forces[(bounding_name, "plasma")],
                              forces[(bounding_name, "drude")]))
        if reference is not None:
            row += [_ratio(forces[(bounding_name, t)], forces[(reference_name, t)])
                    for t in treatments]
        rows.append(row)

    _, mats = configs[(bounding_name, treatments[0])]
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

    if plate_l < _MIN_WIDTH:
        _warn(f"plate width {plate_l:g} m is below {_MIN_WIDTH:g} m; "
              "edge corrections may not be negligible")

    mats, zero_mode_name = build_matsubara(cfg, [plate_a, plate_b, medium],
                                           args.zero_mode, args.n_max,
                                           args.temperature_k)
    quad = build_quadrature(cfg, default_rel_tol=1e-7)
    density = torque_energy_density(plate_a, plate_b, medium, d3, mats, quad,
                                    plate_thickness=thickness)

    branch = theta0(plate_k, plate_l)
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
    if min(stack.d2, stack.d4) > _MAX_GAP:
        _warn(f"min(d2, d4) = {min(stack.d2, stack.d4):g} m exceeds "
              f"{_MAX_GAP:g} m; boundary corrections may not be negligible")
    raw = get(cfg, "convergence", "checkpoints", str, "100,500")
    checkpoints = [int(t) for t in raw.split(",") if t.strip()]
    mats, zero_mode_name = build_matsubara(cfg, list(stack.layers),
                                           args.zero_mode, args.n_max,
                                           args.temperature_k)
    if checkpoints and checkpoints[-1] > mats.n_max:
        mats = MatsubaraConfig(mats.temperature, n_max=checkpoints[-1],
                               zero_mode=mats.zero_mode)
    quad = build_quadrature(cfg)
    rows = [(row.n, row.value, row.rel_delta)
            for row in truncation_report(stack, mats, quad, checkpoints)]
    metadata = [("temperature_k", mats.temperature),
                ("zero_mode", zero_mode_name), ("rel_tol", quad.rel_tol),
                ("d2_m", stack.d2), ("d3_m", stack.d3), ("d4_m", stack.d4)]
    with _out_stream(args) as stream:
        _write_table(stream, "convergence", metadata,
                     ["n", "energy_j_m2", "rel_delta"], rows)
    return 0


def cmd_validate_data(args):
    cfg = read_config(args.config)
    path = _resolve_path(cfg, get(cfg, "data", "path", str))
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


_COMMANDS = {
    "eps-table": cmd_eps_table,
    "force-sweep": cmd_force_sweep,
    "torque-sweep": cmd_torque_sweep,
    "convergence": cmd_convergence,
    "validate-data": cmd_validate_data,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir energies, forces and torques for layered media")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--zero-mode", choices=["drude", "plasma", "model"],
                       help="override the zero-frequency treatment")
        p.add_argument("--n-max", type=int, help="override the Matsubara cutoff")
        p.add_argument("--temperature-k", type=float,
                       help="override the temperature in kelvin")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except QuadratureError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConfigError, DataFileError, StackSymmetryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
