"""Run configuration: one JSON document that pins every knob.

A config file fixes integrator tolerances, path-integral grid defaults
and the lab's seed/radii/sample counts, so an experiment re-run from the
same file (and seed) reproduces its outputs byte for byte.  Flags
override file values; the file path itself can come from the
GAUGEINT_CONFIG environment variable.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import _require_count, _require_positive
from .exchange import _DEFAULT_PROBE_RADII, _require_radii
from .propagator import SliceGrid

__all__ = [
    "FORMAT_VERSION",
    "CONFIG_ENV_VAR",
    "IntegratorConfig",
    "PathintConfig",
    "LabConfig",
    "RunConfig",
    "load_config",
]

FORMAT_VERSION = 1
CONFIG_ENV_VAR = "GAUGEINT_CONFIG"

_SEED_BOUND = 1 << 64


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration tolerance; damping is checked but unused (no damping ladder)."""

    tol: float = 1e-8
    damping: float = 1e-3

    def __post_init__(self) -> None:
        object.__setattr__(self, "tol", _require_positive("tol", self.tol))
        object.__setattr__(
            self, "damping", _require_positive("damping", self.damping)
        )


@dataclass(frozen=True)
class PathintConfig:
    """The default slice grid for propagator queries (units hbar = m = 1)."""

    extent: float = 16.0
    points: int = 768
    slices: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "extent", _require_positive("extent", self.extent)
        )
        object.__setattr__(self, "points", _require_count("points", self.points, 16))
        object.__setattr__(self, "slices", _require_count("slices", self.slices, 1))
        if self.points % 2:
            raise ValueError("points must be even")


@dataclass(frozen=True)
class LabConfig:
    """Seed, probe radii and sampling counts for the exchange lab."""

    seed: int = 20260818
    radii: tuple[float, ...] = _DEFAULT_PROBE_RADII
    samples: int = 40
    eps: float = 1e-3
    m_max: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _require_count("seed", self.seed, 0))
        if self.seed >= _SEED_BOUND:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "radii", _require_radii(self.radii))
        object.__setattr__(self, "samples", _require_count("samples", self.samples, 1))
        object.__setattr__(self, "eps", _require_positive("eps", self.eps))
        object.__setattr__(self, "m_max", _require_count("m_max", self.m_max, 0))


@dataclass(frozen=True)
class RunConfig:
    """The full experiment configuration."""

    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    pathint: PathintConfig = field(default_factory=PathintConfig)
    lab: LabConfig = field(default_factory=LabConfig)
    output_dir: str = "."

    def slice_grid(self) -> SliceGrid:
        """The default slice grid: pathint extent and points (damping unused)."""
        return SliceGrid(
            extent=self.pathint.extent,
            points=self.pathint.points,
            damping=self.integrator.damping,
        )

    def to_json_dict(self) -> dict:
        doc = {
            "format_version": FORMAT_VERSION,
            "integrator": asdict(self.integrator),
            "pathint": asdict(self.pathint),
            "lab": asdict(self.lab),
            "output_dir": self.output_dir,
        }
        doc["lab"]["radii"] = list(self.lab.radii)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ValueError("config document must be a JSON object")
        version = doc.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported config format_version {version!r}"
            )
        known = {"format_version", "integrator", "pathint", "lab", "output_dir"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")

        def section(name: str, factory):
            sub = doc.get(name, {})
            if not isinstance(sub, dict):
                raise ValueError(f"config section {name!r} must be an object")
            try:
                return factory(**sub)
            except TypeError as exc:
                raise ValueError(f"bad config section {name!r}: {exc}") from exc

        output_dir = doc.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ValueError(f"output_dir must be a string, got {output_dir!r}")
        return cls(
            integrator=section("integrator", IntegratorConfig),
            pathint=section("pathint", PathintConfig),
            lab=section("lab", LabConfig),
            output_dir=output_dir,
        )

    def with_overrides(self, **sections) -> "RunConfig":
        """New config with per-section field overrides.

        Keyword arguments name sections; each value is a dict of fields
        to replace, e.g. with_overrides(lab={"seed": 7}).  None values
        inside a section dict are ignored (flag not given).
        """
        out = self
        for name, fields in sections.items():
            if fields is None:
                continue
            clean = {k: v for k, v in fields.items() if v is not None}
            if not clean:
                continue
            if name == "output_dir":
                raise ValueError("override output_dir directly via replace")
            current = getattr(out, name)
            out = replace(out, **{name: replace(current, **clean)})
        return out


def load_config(path: str | os.PathLike | None = None) -> RunConfig:
    """Load a RunConfig from a JSON file.

    Resolution order: explicit path argument, then the GAUGEINT_CONFIG
    environment variable, then built-in defaults.
    """
    chosen = path if path is not None else os.environ.get(CONFIG_ENV_VAR)
    if chosen is None or str(chosen) == "":
        return RunConfig()
    text = Path(chosen).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {chosen} is not valid JSON: {exc}")
    return RunConfig.from_json_dict(doc)
