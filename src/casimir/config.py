"""Sectioned key-value run configuration for the command line tools.

Files use INI syntax. Materials live in ``[material.<name>]`` sections and
are referenced by name from the ``[stack]``, ``[force]`` and ``[torque]``
sections; the name ``vacuum`` is always available. Energies are given in
eV and lengths in meters; keys carry their unit as a suffix.
"""

from __future__ import annotations

import configparser
import os

from .materials import (Constant, Drude, DrudeTail, Permeability, Plasma,
                        Tabulated, Vacuum, ev_to_radps, fit_power_tail,
                        load_optical_data, plasma_frequency_of)
from .lifshitz import MatsubaraConfig, QuadratureConfig
from .stack import DrudeLike, FiveLayerStack, FromModel, Layer, PlasmaLike


class ConfigError(ValueError):
    """The run configuration is missing or inconsistent."""


_REQUIRED = object()


class RunConfig(configparser.ConfigParser):
    """One INI file's sections; ``resolve`` reads relative paths from its directory."""

    def __init__(self, path):
        super().__init__(interpolation=None)
        self.base_dir = os.path.dirname(os.path.abspath(path))
        # read() would skip a path it cannot open, such as a directory
        with open(path, encoding="utf-8") as fh:
            self.read_file(fh)

    def resolve(self, path):
        return os.path.join(self.base_dir, path)


def read_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        return RunConfig(path)
    except configparser.Error as err:
        raise ConfigError(f"{path}: {err}") from err


def get(cfg, section, key, cast=str, default=_REQUIRED):
    if not cfg.has_option(section, key):
        if default is not _REQUIRED:
            return default
        if not cfg.has_section(section):
            raise ConfigError(f"missing config section [{section}]")
        raise ConfigError(f"missing key '{key}' in section [{section}]")
    raw = cfg.get(section, key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {err}") from err


def build_layer(cfg, name):
    """Material section -> Layer. The name 'vacuum' needs no section."""
    section = f"material.{name}"
    if not cfg.has_section(section):
        if name == "vacuum":
            return Layer(Vacuum())
        raise ConfigError(f"material '{name}' has no [{section}] section")
    model = get(cfg, section, "model", str).lower()
    mu = Permeability(get(cfg, section, "mu", float, 1.0))
    if model == "vacuum":
        return Layer(Vacuum(), mu)
    if model == "constant":
        return Layer(Constant(get(cfg, section, "epsilon", float)), mu)
    if model == "drude":
        return Layer(Drude(ev_to_radps(get(cfg, section, "omega_p_ev", float)),
                           ev_to_radps(get(cfg, section, "gamma_ev", float))), mu)
    if model == "plasma":
        return Layer(Plasma(ev_to_radps(get(cfg, section, "omega_p_ev", float))), mu)
    if model == "tabulated":
        path = cfg.resolve(get(cfg, section, "data_path", str))
        table = load_optical_data(path, source_label=os.path.basename(path))
        merge_path = get(cfg, section, "merge_data_path", str, None)
        if merge_path is not None:
            cutoff = get(cfg, section, "merge_below_ev", float)
            other = load_optical_data(cfg.resolve(merge_path),
                                      source_label=os.path.basename(merge_path))
            table = table.replace_below(other, cutoff)
        omega_p_ev = get(cfg, section, "omega_p_ev", float, None)
        low_tail = None
        if omega_p_ev is not None:
            tail = (ev_to_radps(omega_p_ev), ev_to_radps(get(cfg, section, "gamma_ev", float)),
                    get(cfg, section, "join_energy_ev", float, table.e_min_ev))
            try:
                low_tail = DrudeTail(*tail)
            except ValueError as err:
                raise ConfigError(f"[{section}] {err}") from err
        return Layer(Tabulated(table, low_tail, fit_power_tail(table)), mu)
    raise ConfigError(f"[{section}] unknown model '{model}'")


def build_stack(cfg):
    layers = tuple(build_layer(cfg, get(cfg, "stack", f"layer{i}", str))
                   for i in range(1, 6))
    return FiveLayerStack(layers,
                          *(get(cfg, "stack", f"d{i}_m", float) for i in (2, 3, 4)))


def resolve_zero_mode(name, cfg, candidate_layers):
    """Map a zero-mode name to a prescription, inferring omega_p if needed."""
    name = name.lower()
    if name == "model":
        return FromModel()
    if name == "drude":
        return DrudeLike()
    if name != "plasma":
        raise ConfigError(f"unknown zero mode '{name}' (use drude, plasma or model)")
    omega_p_ev = get(cfg, "matsubara", "omega_p_ev", float, None)
    if omega_p_ev is not None:
        return PlasmaLike(ev_to_radps(omega_p_ev))
    implied = {plasma_frequency_of(layer.eps) for layer in candidate_layers} - {None}
    if len(implied) == 1:
        return PlasmaLike(implied.pop())
    if not implied:
        raise ConfigError("zero_mode = plasma needs omega_p_ev in [matsubara] "
                          "(no material implies a plasma frequency)")
    raise ConfigError("zero_mode = plasma is ambiguous: materials imply "
                      "different plasma frequencies; set omega_p_ev explicitly")


def matsubara_grid(cfg, n_max_override=None, temperature_override=None):
    """[matsubara] temperature and n_max, checked; its zero mode is unread."""
    temperature = temperature_override if temperature_override is not None \
        else get(cfg, "matsubara", "temperature_k", float, 300.0)
    n_max = n_max_override if n_max_override is not None \
        else get(cfg, "matsubara", "n_max", int, 500)
    return MatsubaraConfig(temperature, n_max=n_max)


def build_matsubara(cfg, candidate_layers, zero_mode_override=None,
                    n_max_override=None, temperature_override=None):
    grid = matsubara_grid(cfg, n_max_override, temperature_override)
    name = zero_mode_override if zero_mode_override is not None \
        else get(cfg, "matsubara", "zero_mode", str, "drude")
    zero_mode = resolve_zero_mode(name, cfg, candidate_layers)
    return MatsubaraConfig(grid.temperature, grid.n_max, zero_mode), name.lower()


def build_quadrature(cfg, default_rel_tol=1e-9):
    return QuadratureConfig(get(cfg, "quadrature", "rel_tol", float,
                                default_rel_tol))
