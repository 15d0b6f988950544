"""Pipeline configuration: one nested key-value tree, YAML on disk.

`default_config()` is the reference desk-scale setup (50 synthetic speakers,
30% injected noise); `load_config(path)` overlays a YAML tree onto those
defaults and rejects unknown keys so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import yaml

from .embednet.network import EmbedStageConfig
from .errors import FormatError
from .metrics import DEFAULT_P_TARGETS
from .synth import SynthCorpusConfig

KNOWN_SYSTEMS = ("S1", "S2", "S3", "S4", "S5", "S6")


@dataclass
class FeatureStageConfig:
    posterior_dir: str | None = None  # external VPS1 posteriors, keyed by utt id


def _at_least(section, **minimums):
    for name, minimum in minimums.items():
        if getattr(section, name) < minimum:
            raise ValueError(f"{name} must be at least {minimum}")


@dataclass
class UbmStageConfig:
    n_components: int = 16
    n_iters: int = 15

    def __post_init__(self):
        _at_least(self, n_components=1, n_iters=0)


@dataclass
class TvmStageConfig:
    rank: int = 16
    n_iters: int = 10

    def __post_init__(self):
        _at_least(self, rank=1, n_iters=0)


@dataclass
class BackendStageConfig:
    plda_dim_embed: int = 16
    plda_dim_ivector: int = 16
    n_iters: int = 10

    def __post_init__(self):
        _at_least(self, plda_dim_embed=0, plda_dim_ivector=0, n_iters=0)


@dataclass
class EvalStageConfig:
    p_targets: tuple = DEFAULT_P_TARGETS

    def __post_init__(self):
        if not self.p_targets or not all(0 < p < 1 for p in self.p_targets):
            raise ValueError("p_targets must be one or more priors in (0, 1)")


@dataclass
class PipelineConfig:
    seed: int = 17
    out: str = "runs/desk"
    systems: tuple = KNOWN_SYSTEMS
    soft_vad: str = "both"  # "on" | "off" | "both"
    synth: SynthCorpusConfig = field(
        default_factory=lambda: SynthCorpusConfig(noise_fraction_jitter=0.15))
    features: FeatureStageConfig = field(default_factory=FeatureStageConfig)
    embednet: EmbedStageConfig = field(default_factory=EmbedStageConfig)
    ubm: UbmStageConfig = field(default_factory=UbmStageConfig)
    tvm: TvmStageConfig = field(default_factory=TvmStageConfig)
    backend: BackendStageConfig = field(default_factory=BackendStageConfig)
    eval: EvalStageConfig = field(default_factory=EvalStageConfig)

    def __post_init__(self):
        self.systems = tuple(self.systems)
        for s in self.systems:
            if s not in KNOWN_SYSTEMS:
                raise ValueError(f"unknown system {s!r}; choose from {KNOWN_SYSTEMS}")
        if self.soft_vad not in ("on", "off", "both"):
            raise ValueError("soft_vad must be 'on', 'off', or 'both'")

    @property
    def vad_variants(self) -> tuple[bool, ...]:
        return {"off": (False,), "on": (True,), "both": (False, True)}[self.soft_vad]


def default_config(**overrides) -> PipelineConfig:
    return validate(_merge(PipelineConfig(), overrides, ""))


def validate(cfg: PipelineConfig) -> PipelineConfig:
    """Run the field checks of cfg and of each of its sections; returns cfg.
    ValueError names the first bad field, prefixed by its section's name."""
    cfg.__post_init__()
    for f in fields(cfg):
        try:
            getattr(getattr(cfg, f.name), "__post_init__", lambda: None)()
        except ValueError as exc:
            raise ValueError(f"{f.name}: {exc}") from None
    return cfg


def _fits(value, default) -> bool:
    """Whether value may replace a field's default: a value of its type, an
    int for a float, a str for None, and a list for a tuple whose items each
    fit the default's first item. A bool is not an int here."""
    if isinstance(default, tuple):
        return type(value) in (tuple, list) and all(_fits(v, default[0]) for v in value)
    allowed = {float: (int, float), type(None): (type(None), str)}
    return type(value) in allowed.get(type(default), (type(default),))


def _merge(obj, tree: dict, path: str):
    names = {f.name: f for f in fields(obj)}
    for key, val in tree.items():
        if key not in names:
            raise ValueError(f"unknown config key {path}{key}")
        current = getattr(obj, key)
        if is_dataclass(current) and isinstance(val, dict):
            _merge(current, val, f"{path}{key}.")
        elif not _fits(val, current):
            kind = "a section" if is_dataclass(current) else f"type {type(current or '').__name__}"
            raise ValueError(f"config key {path}{key} takes {kind}, not {val!r}")
        else:
            if isinstance(current, tuple) and isinstance(val, list):
                val = tuple(val)
            setattr(obj, key, val)
    return obj


def load_config(path) -> PipelineConfig:
    with open(path) as f:
        try:
            tree = yaml.safe_load(f) or {}
        except yaml.YAMLError as exc:
            raise FormatError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(tree, dict):
        raise ValueError(f"{path}: config must be a key-value tree")
    return validate(_merge(PipelineConfig(), tree, ""))


def config_to_dict(value):
    """The config as plain YAML-ready values: dicts, lists and scalars."""
    if is_dataclass(value):
        return {f.name: config_to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [config_to_dict(v) for v in value]
    return value


def save_config(cfg: PipelineConfig, path):
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=False)

