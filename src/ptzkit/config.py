"""Run configuration: INI-style file with sections, strict key validation.

Every command-line flag overrides its config key; unknown sections or keys
are rejected so a typo cannot silently fall back to a default, and a file
configparser cannot parse (a repeated key, a key before any section header)
is a config error naming the file.  Float keys must be finite, ``[codec]
vocab_path`` must exist, ``[grpo] steps`` and ``[selftrain] rounds`` must be
positive, ``[selftrain] split`` in (0, 1) and the ``[selftrain]`` label noise
sigmas non-negative at load time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path


class ConfigError(ValueError):
    pass


@dataclass
class RunSection:
    seed: int = 0


@dataclass
class IntrinsicsSection:
    image_w: int = 1280
    image_h: int = 720
    hfov_base: float = 60.0


@dataclass
class CameraSection:
    pan: float = 0.0
    tilt: float = 0.0
    zoom: float = 0.0


@dataclass
class CodecSection:
    vocab_path: str = ""
    levels: int = 3
    strict: bool = True


@dataclass
class PseudolabelSection:
    k: int = 0  # 0 keeps every record
    kind: str = "random_forest"
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5
    fill_ratio: float = 0.30
    use_zoom_feature: bool = False
    zoom_source: str = "geometry"


@dataclass
class RewardSection:
    angle_tol: float = 1.0
    angle_penalty_span: float = 10.0
    zoom_band: float = 50.0
    zoom_penalty_span: float = 50.0


@dataclass
class GrpoSection:
    kl_weight: float = 0.04
    group_size: int = 8
    learning_rate: float = 4.0
    std_guard: float = 1e-8
    steps: int = 200


@dataclass
class SelftrainSection:
    rounds: int = 2
    thresholds: str = "0.7,0.95"
    replace_bbox: bool = True
    refit_each_round: bool = True
    split: float = 0.1
    completion_center_frac: float = 0.1
    completion_min_area: float = 0.25
    label_noise_angle: float = 0.0
    label_noise_zoom: float = 0.0

    def threshold_list(self) -> tuple[float, ...]:
        try:
            return parse_thresholds(self.thresholds)
        except ValueError as exc:
            raise ConfigError(f"[selftrain] thresholds: {exc}") from None


def parse_thresholds(text: str) -> tuple[float, ...]:
    """Comma-separated IoU thresholds, each in [0, 1]."""
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"bad thresholds list {text!r}") from None
    if not values or not all(0.0 <= t <= 1.0 for t in values):
        raise ValueError(f"expected IoU thresholds in [0, 1], got {text!r}")
    return values


@dataclass
class IoSection:
    out_dir: str = "."


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    intrinsics: IntrinsicsSection = field(default_factory=IntrinsicsSection)
    camera: CameraSection = field(default_factory=CameraSection)
    codec: CodecSection = field(default_factory=CodecSection)
    pseudolabel: PseudolabelSection = field(default_factory=PseudolabelSection)
    reward: RewardSection = field(default_factory=RewardSection)
    grpo: GrpoSection = field(default_factory=GrpoSection)
    selftrain: SelftrainSection = field(default_factory=SelftrainSection)
    io: IoSection = field(default_factory=IoSection)


def _coerce(raw: str, target_type: type, where: str):
    raw = raw.strip()
    try:
        if target_type is bool:
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        value = target_type(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if target_type is float and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {raw!r}")
    return value


def load_config(path) -> RunConfig:
    """Parse and validate a config file; unknown sections/keys are errors."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # a repeated key, a key before any [section]
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    cfg = RunConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for section_name in parser.sections():
        if section_name not in sections:
            raise ConfigError(f"unknown config section [{section_name}]")
        section = sections[section_name]
        allowed = {f.name: f.type for f in fields(section)}
        for key, raw in parser.items(section_name):
            if key not in allowed:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            current = getattr(section, key)
            setattr(section, key, _coerce(raw, type(current), f"[{section_name}] {key}"))
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    if cfg.codec.vocab_path and not Path(cfg.codec.vocab_path).exists():
        raise ConfigError(f"[codec] vocab_path: path does not exist: {cfg.codec.vocab_path}")
    if cfg.grpo.steps <= 0:
        raise ConfigError(f"[grpo] steps: must be positive, got {cfg.grpo.steps}")
    if cfg.selftrain.rounds <= 0:
        raise ConfigError(f"[selftrain] rounds: must be positive, got {cfg.selftrain.rounds}")
    if not 0.0 < cfg.selftrain.split < 1.0:
        raise ConfigError(f"[selftrain] split: must be in (0, 1), got {cfg.selftrain.split}")
    for key in ("label_noise_angle", "label_noise_zoom"):
        if getattr(cfg.selftrain, key) < 0:
            raise ConfigError(f"[selftrain] {key}: must be >= 0, got {getattr(cfg.selftrain, key)}")
