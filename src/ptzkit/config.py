"""Run configuration: INI-style file with sections, strict key validation.

Unknown sections or keys are rejected, and so is a file configparser cannot
parse (a repeated key, a key before any section header).  A key has at most
one rule, in ``RULES``, and a float key must be finite: the loader holds each
key to it, and so does ``parse_value``, which parses a flag that sets a key.
The ``[intrinsics]``, ``[pseudolabel]`` regressor, ``[reward]`` and
``[grpo]`` keys are checked by building the library objects they configure.
The rules between two keys, ``PAIRS``, are checked at load and again once
flags are written in.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ptzkit.camera import ZOOM_MAX, CameraIntrinsics
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
    strict: bool = True


@dataclass
class PseudolabelSection:
    k: int = 0  # 0 keeps every record
    kind: str = "random_forest"
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5
    fill_ratio: float = 0.30
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
    split: float = 0.1
    completion_center_frac: float = 0.1
    completion_min_area: float = 0.25
    label_noise_angle: float = 0.0
    label_noise_zoom: float = 0.0

    def threshold_list(self) -> tuple[float, ...]:
        return tuple(float(t) for t in self.thresholds.split(",") if t.strip())


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

    def __post_init__(self):
        # each key that was set ("section.key"), by what set it: "[section] key" or a flag
        self.given: dict[str, str] = {}


# The type of every key, "section.key", as its default has it.
KEY_TYPES = {f"{s.name}.{k.name}": type(k.default) for s in fields(RunConfig) for k in fields(s.default_factory)}


def _key_name(key: str) -> str:
    """``[section] key`` for ``section.key``."""
    section, name = key.split(".")
    return f"[{section}] {name}"


def _get(cfg: RunConfig, key: str):
    section, name = key.split(".")
    return getattr(getattr(cfg, section), name)


def _iou_list(text: str) -> bool:
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        return False
    return bool(values) and all(0.0 <= t <= 1.0 for t in values)


# One rule per key that has one: the test its value must pass, and what the
# value must be when it fails.
RULES = {
    "run.seed": (lambda v: v >= 0, "must be >= 0"),
    "camera.tilt": (lambda v: -90.0 <= v <= 90.0, "must be in [-90, 90]"),
    "camera.zoom": (lambda v: 0.0 <= v <= ZOOM_MAX, f"must be in [0, {ZOOM_MAX:g}]"),
    "pseudolabel.k": (lambda v: v >= 0, "must be >= 0"),
    "pseudolabel.fill_ratio": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "pseudolabel.zoom_source": (lambda v: v in ZOOM_SOURCES, "must be geometry or model"),
    "grpo.steps": (lambda v: v > 0, "must be positive"),
    "selftrain.rounds": (lambda v: v > 0, "must be positive"),
    "selftrain.thresholds": (_iou_list, "must be IoU thresholds in [0, 1], comma separated"),
    "selftrain.split": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "selftrain.completion_center_frac": (lambda v: v >= 0, "must be >= 0"),
    "selftrain.completion_min_area": (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    "selftrain.label_noise_angle": (lambda v: v >= 0, "must be >= 0"),
    "selftrain.label_noise_zoom": (lambda v: v >= 0, "must be >= 0"),
}


def _enough_thresholds(cfg: RunConfig) -> bool:
    return len(cfg.selftrain.threshold_list()) >= cfg.selftrain.rounds - 1


# The rules between two keys: the keys, the test the config must pass, and
# what the two need of each other when it fails.
PAIRS = (
    ("selftrain.rounds", "selftrain.thresholds", _enough_thresholds, "need at least rounds - 1 IoU thresholds"),
)


def _coerce(raw: str, target_type: type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {raw!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    value = target_type(raw)
    if target_type is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _check(key: str, value) -> None:
    if key in RULES and not RULES[key][0](value):
        raise ValueError(f"{RULES[key][1]}, got {value!r}")


def parse_value(key: str, raw: str):
    """``raw`` as a value of ``key``, coerced to its type and held to its rule;
    a ``ValueError`` says what is wrong with it, without naming the key."""
    value = _coerce(raw, KEY_TYPES[key])
    _check(key, value)
    return value


def set_key(cfg: RunConfig, key: str, value, given_as: str) -> None:
    """Set ``key`` to ``value`` and record what set it: a flag, or ``[section] key``."""
    section, name = key.split(".")
    setattr(getattr(cfg, section), name, value)
    cfg.given[key] = given_as


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
    sections = {f.name for f in fields(cfg)}
    for section_name in parser.sections():
        if section_name not in sections:
            raise ConfigError(f"unknown config section [{section_name}]")
        for name, raw in parser.items(section_name):
            key = f"{section_name}.{name}"
            if key not in KEY_TYPES:
                raise ConfigError(f"unknown key {name!r} in section [{section_name}]")
            try:
                set_key(cfg, key, _coerce(raw, KEY_TYPES[key]), _key_name(key))
            except ValueError as exc:
                raise ConfigError(f"{_key_name(key)}: {exc}") from None
    validate(cfg)
    return cfg


def check_pairs(cfg: RunConfig) -> None:
    """Hold the keys to ``PAIRS``, naming each side by what set it (``given``) or by ``[section] key``."""
    for key, other, holds, need in PAIRS:
        if not holds(cfg):
            name = cfg.given.get(key, _key_name(key))
            raise ConfigError(f"{name} {_get(cfg, key)} with {cfg.given.get(other, _key_name(other))}: {need}")


def intrinsics(cfg: RunConfig) -> CameraIntrinsics:
    s = cfg.intrinsics
    return CameraIntrinsics(s.image_w, s.image_h, s.hfov_base)


def regressor_config(cfg: RunConfig) -> RegressorConfig:
    """The ``[pseudolabel]`` regressor, seeded by ``[run] seed``."""
    p = cfg.pseudolabel
    return RegressorConfig(
        kind=p.kind, n_trees=p.n_trees, max_depth=p.max_depth, min_samples_leaf=p.min_samples_leaf,
        seed=cfg.run.seed,
    )


def reward_config(cfg: RunConfig) -> RewardConfig:
    return RewardConfig(**asdict(cfg.reward))


def grpo_config(cfg: RunConfig) -> GRPOConfig:
    g = cfg.grpo
    return GRPOConfig(kl_weight=g.kl_weight, group_size=g.group_size, learning_rate=g.learning_rate)


def validate(cfg: RunConfig) -> None:
    if cfg.codec.vocab_path and not Path(cfg.codec.vocab_path).exists():
        raise ConfigError(f"[codec] vocab_path: path does not exist: {cfg.codec.vocab_path}")
    for key in RULES:
        try:
            _check(key, _get(cfg, key))
        except ValueError as exc:
            raise ConfigError(f"{_key_name(key)}: {exc}") from None
    builders = {
        "intrinsics": lambda: intrinsics(cfg),
        "pseudolabel": lambda: regressor_config(cfg).forest,
        "reward": lambda: reward_config(cfg),
        "grpo": lambda: grpo_config(cfg),
    }
    for section, build in builders.items():
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    check_pairs(cfg)
