"""Run configuration: INI-style file with sections, strict key validation.

Every command-line flag overrides its config key; unknown sections or keys
are rejected so a typo cannot silently fall back to a default, and a file
configparser cannot parse (a repeated key, a key before any section header)
is a config error naming the file.  Float keys must be finite, ``[codec]
vocab_path`` must exist, ``[camera] tilt`` lie in [-90, 90] and ``zoom`` in
[0, ``camera.ZOOM_MAX``], ``[grpo] steps`` and ``[selftrain] rounds`` must be
positive, ``[selftrain] thresholds`` at least ``rounds - 1`` IoU thresholds
in [0, 1], ``split`` in (0, 1), ``completion_center_frac`` and the label
noise sigmas non-negative, ``completion_min_area`` in [0, 1], ``[pseudolabel]
fill_ratio`` in (0, 1) and ``zoom_source`` one of ``pseudolabel.ZOOM_SOURCES``
at load time.  The ``[intrinsics]``, ``[codec] levels``, ``[pseudolabel]``
regressor, ``[reward]`` and ``[grpo]`` keys are checked at load time too, by
building the library objects they configure, whose own checks hold the ranges.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ptzkit.camera import ZOOM_MAX, CameraIntrinsics
from ptzkit.codec import TokenVocab
from ptzkit.pseudolabel import ZOOM_SOURCES, RegressorConfig
from ptzkit.rewards import GRPOConfig, RewardConfig


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


def intrinsics(cfg: RunConfig) -> CameraIntrinsics:
    s = cfg.intrinsics
    return CameraIntrinsics(s.image_w, s.image_h, s.hfov_base)


def regressor_config(cfg: RunConfig, kind: str | None = None, seed: int = 0) -> RegressorConfig:
    """The ``[pseudolabel]`` regressor, with ``kind`` (when given) in place of its key."""
    p = cfg.pseudolabel
    return RegressorConfig(
        kind=kind or p.kind,
        n_trees=p.n_trees,
        max_depth=p.max_depth,
        min_samples_leaf=p.min_samples_leaf,
        seed=seed,
        use_zoom_feature=p.use_zoom_feature,
    )


def reward_config(cfg: RunConfig) -> RewardConfig:
    return RewardConfig(**asdict(cfg.reward))


def grpo_config(cfg: RunConfig) -> GRPOConfig:
    g = cfg.grpo
    return GRPOConfig(kl_weight=g.kl_weight, group_size=g.group_size, learning_rate=g.learning_rate)


def validate(cfg: RunConfig) -> None:
    if cfg.codec.vocab_path and not Path(cfg.codec.vocab_path).exists():
        raise ConfigError(f"[codec] vocab_path: path does not exist: {cfg.codec.vocab_path}")
    if not -90.0 <= cfg.camera.tilt <= 90.0:
        raise ConfigError(f"[camera] tilt: must be in [-90, 90], got {cfg.camera.tilt}")
    if not 0.0 <= cfg.camera.zoom <= ZOOM_MAX:
        raise ConfigError(f"[camera] zoom: must be in [0, {ZOOM_MAX:g}], got {cfg.camera.zoom}")
    if not 0.0 < cfg.pseudolabel.fill_ratio < 1.0:
        raise ConfigError(f"[pseudolabel] fill_ratio: must be in (0, 1), got {cfg.pseudolabel.fill_ratio}")
    if cfg.pseudolabel.zoom_source not in ZOOM_SOURCES:
        raise ConfigError(f"[pseudolabel] zoom_source: must be geometry or model, got {cfg.pseudolabel.zoom_source!r}")
    builders = {
        "intrinsics": lambda: intrinsics(cfg),
        "codec": lambda: TokenVocab.default(levels=cfg.codec.levels),
        "pseudolabel": lambda: regressor_config(cfg).forest,
        "reward": lambda: reward_config(cfg),
        "grpo": lambda: grpo_config(cfg),
    }
    for section, build in builders.items():
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    if cfg.grpo.steps <= 0:
        raise ConfigError(f"[grpo] steps: must be positive, got {cfg.grpo.steps}")
    if cfg.selftrain.rounds <= 0:
        raise ConfigError(f"[selftrain] rounds: must be positive, got {cfg.selftrain.rounds}")
    thresholds = cfg.selftrain.threshold_list()
    if len(thresholds) < cfg.selftrain.rounds - 1:
        raise ConfigError(
            f"[selftrain] thresholds: rounds = {cfg.selftrain.rounds} needs at least rounds - 1 IoU thresholds, "
            f"got {len(thresholds)}"
        )
    if not 0.0 < cfg.selftrain.split < 1.0:
        raise ConfigError(f"[selftrain] split: must be in (0, 1), got {cfg.selftrain.split}")
    for key in ("completion_center_frac", "label_noise_angle", "label_noise_zoom"):
        if getattr(cfg.selftrain, key) < 0:
            raise ConfigError(f"[selftrain] {key}: must be >= 0, got {getattr(cfg.selftrain, key)}")
    if not 0.0 <= cfg.selftrain.completion_min_area <= 1.0:
        area = cfg.selftrain.completion_min_area
        raise ConfigError(f"[selftrain] completion_min_area: must be in [0, 1], got {area}")
