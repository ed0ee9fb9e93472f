"""Plain-text configuration files for the benchmark CLI.

Two INI-style sections name the fields of the library's configuration
objects: ``[scenario]`` those of ``ScenarioConfig`` and ``[sweep]`` those of
``SweepSpec`` but ``base``.  Keys, value types and defaults are the
dataclasses' own: a field's annotation says how its text is read (``int``,
``float``, a comma list for ``tuple``; ``values`` takes the type of the
swept field), and an omitted key keeps the field's default.  Every check of
a value is the dataclasses' ``validate``.  Only the rules that belong to
files live here: unknown sections or keys are hard errors — a typo should
never silently benchmark the wrong thing — the fields without a default are
required, and ``grid_points`` must be a power of two.

Example::

    [scenario]
    targets = 8
    antennas = 16
    subcarriers = 512
    symbols = 10
    snr_db = 40
    seed = 1

    [sweep]
    parameter = snr_db
    values = 0, 10, 20, 30, 40
    trials = 200
    methods = music-signal, omp, ols, omp-imusic, ols-imusic
    order_criterion = true-k
    evaluator = fft
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, fields
from typing import get_type_hints

from doalab.bench import SweepSpec
from doalab.scenario import ScenarioConfig


class ConfigError(Exception):
    """A configuration file or option the benchmark cannot accept."""


def _parse(section: str, key: str, kind, raw: str):
    """``raw`` read as the declared type ``kind``: a ``tuple`` is a comma
    list."""
    if kind is int or kind is float:
        try:
            value = kind(raw)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(f"[{section}] {key}: expected {expected}, got {raw!r}") from None
        if math.isnan(value):
            raise ConfigError(f"[{section}] {key}: nan is not a valid value")
        return value
    if kind is str:
        return raw.strip()
    return tuple(item.strip() for item in raw.split(",") if item.strip())


def _section(parser, section: str, types: dict) -> dict:
    """The section's values by key, each key a field of ``types``."""
    values = {}
    for key, raw in parser.items(section) if parser.has_section(section) else ():
        if key not in types:
            raise ConfigError(f"unknown [{section}] key: {key!r}")
        values[key] = _parse(section, key, types[key], raw)
    return values


def parse_config(path: str) -> SweepSpec:
    """Parse a sweep configuration file into a validated SweepSpec.

    Raises:
        ConfigError: On unreadable files, unknown sections/keys, malformed
            values, or any failure of ``ScenarioConfig.validate`` or
            ``SweepSpec.validate``.
    """
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None

    unknown_sections = set(parser.sections()) - {"scenario", "sweep"}
    if unknown_sections:
        raise ConfigError(f"unknown config section(s): {sorted(unknown_sections)}")
    if "sweep" not in parser.sections():
        raise ConfigError("missing required [sweep] section")

    scenario_types = get_type_hints(ScenarioConfig)
    base = ScenarioConfig(**_section(parser, "scenario", scenario_types))
    try:
        base.validate()
    except ValueError as exc:
        raise ConfigError(f"[scenario]: {exc}") from None
    n = base.grid_points
    if n & (n - 1):
        raise ConfigError(f"[scenario] grid_points must be a power of two, got {n}")

    sweep_types = get_type_hints(SweepSpec)
    del sweep_types["base"]
    sweep = _section(parser, "sweep", sweep_types)
    for f in fields(SweepSpec):
        if f.name in sweep_types and f.default is MISSING and f.name not in sweep:
            raise ConfigError(f"missing required [sweep] key: {f.name!r}")
    kind = scenario_types.get(sweep["parameter"], str)
    sweep["values"] = tuple(_parse("sweep", "values", kind, v) for v in sweep["values"])

    spec = SweepSpec(base=base, **sweep)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(f"[sweep]: {exc}") from None
    return spec
