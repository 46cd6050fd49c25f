"""Flat key-value run configuration: ``section.key = value`` lines.

Unknown keys, retired keys (with the reason they went), duplicate keys
(both lines named), malformed lines (line/column reported) and domain
violations (constraint named) are all rejected at parse time: every real
value must be finite, the time step, horizon and watchdog ceiling
positive, the output cadence, eigenvalue count and sweep levels at least
1, seeds nonnegative, and the horizon a whole number of time steps.
Physical and resolution parameters, including every convergence degree,
are re-validated by constructing the typed objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import (ChannelGeometry, ModelParams, ParameterError, Resolution,
                     derive_params, step_count)

EXPERIMENTS = ("verify-adn", "solve", "eigs", "evolve", "sweep",
               "probe-uniqueness", "convergence")


class ConfigError(ValueError):
    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


def _parse_int_list(s):
    return tuple(int(x) for x in str(s).split(",") if x.strip())


_SCHEMA = {
    "model.alpha": (float, 0.2),
    "model.beta": (float, 0.1),
    "model.gamma": (float, 0.0),
    "model.ell": (float, 0.05),
    "geometry.L1": (float, 2.0 * math.pi),
    "geometry.L2": (float, 2.0 * math.pi),
    "geometry.H": (float, 1.0),
    "resolution.N1": (int, 16),
    "resolution.N2": (int, 16),
    "resolution.P": (int, 32),
    "experiment.kind": (str, ""),
    "forcing.id": (str, "random_solenoidal"),
    "forcing.amplitude": (float, 1.0),
    "forcing.seed": (int, 0),
    "u0.id": (str, "random"),
    "u0.amplitude": (float, 0.1),
    "u0.decay": (float, 1.0),
    "u0.seed": (int, 1),
    "time.dt": (float, 0.01),
    "time.T": (float, 1.0),
    "output.cadence": (int, 10),
    "scheme.name": (str, "euler"),
    "watchdog.ceiling": (float, 1e6),
    "sweep.levels": (int, 6),
    "probe.delta1": (float, 1e-8),
    "probe.delta2": (float, 1e-6),
    "probe.seed": (int, 7),
    "eigs.count": (int, 20),
    "convergence.p_values": (_parse_int_list, (8, 16, 24, 32)),
    "debug.inject_nan_step": (int, 0),
}

#: keys of earlier versions, rejected with the reason they went
_RETIRED = {
    "resolution.padding": "the padded grid is fixed to the smallest even "
                          "M >= 3N/2 per direction",
    "resolution.Q": "the quadrature node count follows from P: Q = ceil((3P+1)/2)",
    **dict.fromkeys(("covering.n_circle", "covering.n_magnitude", "covering.seed"),
                    "verify-adn decides the covering condition for every eta "
                    "exactly, sampling none"),
}


@dataclass
class RunConfig:
    kind: str
    params: ModelParams
    geometry: ChannelGeometry
    resolution: Resolution
    values: dict
    source_text: str

    def __getitem__(self, key):
        return self.values[key]

    def canonical_text(self):
        """Normalized config echo; re-parsing it reproduces this config."""
        lines = [f"experiment.kind = {self.kind}"]
        for key in sorted(self.values):
            if key == "experiment.kind":
                continue
            v = self.values[key]
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key} = {v}")
        return "\n".join(lines) + "\n"


def parse_config(text, kind_override=None):
    values = {k: d for k, (_, d) in _SCHEMA.items()}
    seen = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'section.key = value', got {raw!r}",
                              line=ln, col=len(line) + 1)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if "." not in key:
            raise ConfigError(f"key {key!r} is not of the form section.key",
                              line=ln, col=raw.find(key) + 1)
        if key in _RETIRED:
            raise ConfigError(f"{key} is retired: {_RETIRED[key]}", line=ln)
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", line=ln)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}: first set on line "
                              f"{seen[key]}, again on line {ln}", line=ln)
        seen[key] = ln
        caster = _SCHEMA[key][0]
        try:
            values[key] = caster(val)
        except (TypeError, ValueError):
            what = ("a comma-separated list of integers" if caster is _parse_int_list
                    else caster.__name__)
            raise ConfigError(f"cannot parse value {val!r} for {key!r} as {what}", line=ln)

    kind = kind_override or values["experiment.kind"]
    if not kind:
        raise ConfigError("experiment.kind missing (set it in the config "
                          "or pass a subcommand)")
    if values["experiment.kind"] and kind_override and \
            values["experiment.kind"] != kind_override:
        raise ConfigError(
            f"experiment.kind = {values['experiment.kind']!r} conflicts "
            f"with subcommand {kind_override!r}")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; "
                          f"expected one of {', '.join(EXPERIMENTS)}")
    if values["scheme.name"] not in ("euler", "cnab2"):
        raise ConfigError(f"unknown scheme {values['scheme.name']!r}")
    _check_domain(values, seen)

    try:
        params = derive_params(values["model.alpha"], values["model.beta"],
                               values["model.gamma"], values["model.ell"])
        geometry = ChannelGeometry(values["geometry.L1"], values["geometry.L2"],
                                   values["geometry.H"])
        resolution = Resolution(values["resolution.N1"], values["resolution.N2"],
                                values["resolution.P"])
        if not values["convergence.p_values"]:
            raise ParameterError("convergence.p_values lists no degree")
        for P in values["convergence.p_values"]:
            Resolution(resolution.N1, resolution.N2, P)
    except ParameterError as exc:
        raise ConfigError(str(exc))
    values["experiment.kind"] = kind
    return RunConfig(kind, params, geometry, resolution, values, text)


def _check_domain(values, seen):
    for key, (caster, _) in _SCHEMA.items():
        if caster is float and not math.isfinite(values[key]):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}",
                              line=seen.get(key))
    for key in ("time.dt", "time.T", "watchdog.ceiling"):
        if values[key] <= 0.0:
            raise ConfigError(f"{key} must be positive, got {values[key]!r}",
                              line=seen.get(key))
    for key in ("output.cadence", "eigs.count", "sweep.levels"):
        if values[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {values[key]!r}",
                              line=seen.get(key))
    for key in ("u0.seed", "forcing.seed", "probe.seed", "debug.inject_nan_step"):
        if values[key] < 0:
            raise ConfigError(f"{key} must be nonnegative, got {values[key]!r}",
                              line=seen.get(key))
    dt, T = values["time.dt"], values["time.T"]
    try:
        step_count(T, dt)
    except ParameterError:
        raise ConfigError(f"time.T = {T!r} is not a whole multiple of "
                          f"time.dt = {dt!r}", line=seen.get("time.T"))
