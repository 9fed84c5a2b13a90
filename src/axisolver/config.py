"""Run configuration: defaults, file parsing, CLI overrides, echo format.

A run is configured by a single INI-style text file of ``key = value`` lines
grouped into sections, combined with a handful of command-line overrides.
Precedence is CLI flag > config file > built-in default.  Every key has a
documented default below; unknown sections or keys are rejected so typos
fail loudly (exit code 2).

The fully resolved configuration is echoed to ``<outdir>/effective.cfg`` in a
canonical ordering; re-running any subcommand from that file reproduces the
original outputs byte for byte (under the deterministic ``sim`` executor).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .errors import ConfigError

__all__ = ["DEFAULTS", "RunConfig", "load_config", "parse_points"]


#: Complete schema: section -> key -> default (all values kept as strings).
#: grid      -- node counts and physical extents of the axisymmetric box
#: model     -- medium/coefficient description shared by the subcommands:
#:                kind      homogeneous | fault | constant | files
#:                          (acoustic: homogeneous | fault; poisson:
#:                          constant; elliptic: constant | files; both
#:                          read homogeneous as constant)
#:                speed,rho              homogeneous wave medium
#:                v_top..dip             parametric two-layer fault medium
#:                                       (defaults are artifact choices)
#:                kappa0,q0              constant diffusion/reaction
#:                kappa_file,reaction_file  full-node coefficient panels
#: rhs       -- source for poisson/elliptic: manufactured | zero | uniform |
#:              file (uniform uses ``value``; file reads a full-node panel)
#: solver    -- outer method, tolerance, iteration cap, ranks, executor
#: laguerre  -- spectral-time transform scale/order/length
#: source    -- wavelet parameters and the source position
#: receivers -- trace positions "r:z, r:z, ..." and times "start, stop, count"
#: snapshot  -- instant for the optional field snapshot ("" = none)
#: output    -- artifact directory
#: bench     -- benchmark sweep: rank list, system size, batch, repeats,
#:              cost-model parameters (alpha latency, beta per-scalar send,
#:              gamma per-scalar add) and the rhs seed
DEFAULTS: Dict[str, Dict[str, str]] = {
    "grid": {"nr": "129", "nz": "128", "rmax": "950.0", "zmax": "950.0"},
    "model": {
        "kind": "homogeneous",
        "speed": "2000.0", "rho": "1.0",
        "v_top": "1800.0", "v_bottom": "2200.0", "interface_z": "475.0",
        "throw": "120.0", "fault_r": "400.0", "dip": "0.0",
        "kappa0": "1.0", "q0": "0.0",
        "kappa_file": "", "reaction_file": "",
    },
    "rhs": {"kind": "manufactured", "value": "1.0", "path": ""},
    "solver": {"method": "pcg", "tol": "1e-10", "maxiter": "500",
               "ranks": "1", "executor": "sim"},
    "laguerre": {"h": "280.0", "alpha": "5", "n_terms": "128"},
    "source": {"f0": "10.0", "t0": "0.4", "gamma": "4.0",
               "amplitude": "1.0", "r": "0.0", "z": "0.0"},
    "receivers": {"points": "300:4, 500:4, 700:4", "times": "0.0, 1.2, 601"},
    "snapshot": {"t": ""},
    "output": {"dir": "out"},
    "bench": {"ranks": "2, 4, 8", "n": "4096", "batch": "8", "repeats": "3",
              "alpha": "5e-6", "beta": "5e-9", "gamma": "2e-9", "seed": "0"},
}


@dataclass
class RunConfig:
    """Resolved configuration: the full string table."""

    values: Dict[str, Dict[str, str]]

    # -- typed accessors -----------------------------------------------------

    def get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def get_float(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {key} = {raw!r} is not a number") from exc

    def get_int(self, section: str, key: str) -> int:
        raw = self.get(section, key)
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(
                f"[{section}] {key} = {raw!r} is not an integer") from exc

    def get_choice(self, section: str, key: str, allowed) -> str:
        raw = self.get(section, key)
        if raw not in allowed:
            raise ConfigError(f"[{section}] {key} = {raw!r}; expected one of "
                              f"{sorted(allowed)}")
        return raw

    # -- aggregates ----------------------------------------------------------

    def receiver_points(self) -> List[Tuple[float, float]]:
        return parse_points(self.get("receivers", "points"))

    def receiver_times(self) -> np.ndarray:
        raw = self.get("receivers", "times")
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"[receivers] times must be 'start, stop, count', got {raw!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"[receivers] times: bad entry in {raw!r}") from exc
        if not 0.0 <= start < stop < float("inf"):
            raise ConfigError(f"[receivers] times: need finite times with "
                              f"0 <= start < stop, got {raw!r}")
        if count < 1:
            raise ConfigError(f"[receivers] times: empty span in {raw!r}")
        return np.linspace(start, stop, count)

    def bench_ranks(self) -> List[int]:
        raw = self.get("bench", "ranks")
        try:
            ranks = [int(p.strip()) for p in raw.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"[bench] ranks: bad entry in {raw!r}") from exc
        if not ranks or min(ranks) < 1:
            raise ConfigError(f"[bench] ranks must be positive, got {raw!r}")
        return ranks

    # -- echo ----------------------------------------------------------------

    def effective_text(self) -> str:
        """Canonical render of the full table (schema order, ascii)."""
        out = []
        for section, keys in DEFAULTS.items():
            out.append(f"[{section}]")
            for key in keys:
                out.append(f"{key} = {self.values[section][key]}")
            out.append("")
        return "\n".join(out)


def parse_points(raw: str) -> List[Tuple[float, float]]:
    """Parse ``"r:z, r:z, ..."`` into coordinate pairs."""
    points = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"receiver point {chunk!r} is not 'r:z'")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"receiver point {chunk!r} is not numeric") from exc
    if not points:
        raise ConfigError("no receiver points given")
    return points


def load_config(config_path=None,
                overrides: Dict[str, Dict[str, str]] = None) -> RunConfig:
    """Resolve defaults <- config file <- CLI overrides into a RunConfig."""
    values = {sec: dict(keys) for sec, keys in DEFAULTS.items()}

    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"{config_path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in values[section]:
                    raise ConfigError(
                        f"{config_path}: unknown key {key!r} in [{section}]")
                values[section][key] = value.strip()

    for section, keys in (overrides or {}).items():
        for key, value in keys.items():
            if value is not None:
                values[section][key] = value

    return RunConfig(values=values)
