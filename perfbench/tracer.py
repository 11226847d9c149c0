"""Per-layer timing by wrapping the public functions of ``ptzkit`` modules.

Each wrapper is installed wherever a caller looks the name up: on its class,
or in every loaded ``ptzkit`` module that holds the same function object
(``ptzkit.selftrain.project`` as well as ``ptzkit.camera.project``).
``uninstall`` puts every original back, so untraced operations run the
program exactly as shipped.  A name that no longer exists is recorded as
absent rather than raised, so the traced run outlives refactors.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field


def _rows(stat, args, result):
    stat.counts["rows"] = stat.counts.get("rows", 0) + len(args[1])


def _kept(stat, args, result):
    stat.counts["filtered"] = stat.counts.get("filtered", 0) + len(args[0])
    stat.counts["kept"] = stat.counts.get("kept", 0) + len(result[0])


def _useful_groups(stat, args, result):
    useful = any(r.advantage != 0.0 for r in result.rollouts)
    stat.counts["useful"] = stat.counts.get("useful", 0) + int(useful)


def _labels(stat, args, result):
    stat.counts["labels"] = stat.counts.get("labels", 0) + len(result)


# metric prefix -> (module, attribute path, optional observer of each call)
WRAPPED = {
    "cli.main": ("ptzkit.cli", "main", None),
    "config.load_config": ("ptzkit.config", "load_config", None),
    "selftrain.make_samples": ("ptzkit.selftrain", "make_samples", None),
    "selftrain.relabel": ("ptzkit.selftrain", "relabel", None),
    "selftrain.run_round": ("ptzkit.selftrain", "run_round", _kept),
    "selftrain.evaluate": ("ptzkit.selftrain", "evaluate", None),
    "pseudolabel.fit": ("ptzkit.pseudolabel", "fit", None),
    "pseudolabel.predict_batch": ("ptzkit.pseudolabel", "RegressorModel.predict_batch", None),
    "pseudolabel.generate": ("ptzkit.pseudolabel", "generate", None),
    "pseudolabel.write_pseudo_labels": ("ptzkit.pseudolabel", "write_pseudo_labels", None),
    "pseudolabel.read_pseudo_labels": ("ptzkit.pseudolabel", "read_pseudo_labels", _labels),
    "forest.fit": ("ptzkit.forest", "RandomForest.fit", None),
    "forest.predict": ("ptzkit.forest", "RandomForest.predict", _rows),
    "camera.project": ("ptzkit.camera", "project", None),
    "camera.apply_action": ("ptzkit.camera", "apply_action", None),
    "camera.iou": ("ptzkit.camera", "iou", None),
    "camera.oracle_action": ("ptzkit.camera", "oracle_action", None),
    "rewards.build_rollout_group": ("ptzkit.rewards", "build_rollout_group", _useful_groups),
    "rewards.ToyPolicy.sample": ("ptzkit.rewards", "ToyPolicy.sample", None),
    "rewards.composite_reward": ("ptzkit.rewards", "composite_reward", None),
    "rewards.grpo_step": ("ptzkit.rewards", "grpo_step", None),
    "codec.encode_action": ("ptzkit.codec", "encode_action", None),
    "codec.decode": ("ptzkit.codec", "decode", None),
}


@dataclass
class Stat:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs timing wrappers; ``stats`` accumulates across installs."""

    def __init__(self):
        self.stats = {name: Stat() for name in WRAPPED}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []

    def _wrap(self, fn, stat: Stat, observe):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.seconds += elapsed
                stat.self_seconds += elapsed - children
                stat.calls += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(stat, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        absent = []
        modules = [m for n, m in sys.modules.items() if n == "ptzkit" or n.startswith("ptzkit.")]
        for name, (module_name, path, observe) in WRAPPED.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                absent.append(name)
                continue
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                absent.append(name)
                continue
            stat = self.stats[name]
            if isinstance(original, (classmethod, staticmethod)):
                self._patch(owner, attr, type(original)(self._wrap(original.__func__, stat, observe)))
                continue
            wrapper = self._wrap(original, stat, observe)
            self._patch(owner, attr, wrapper)
            if classes:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        self.absent = absent

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation means: ``<name>.s``, ``.self_s`` and ``.calls``, plus ratios."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.s"] = (stat.seconds / n_ops, "s")
            out[f"{name}.self_s"] = (stat.self_seconds / n_ops, "s")
            out[f"{name}.calls"] = (stat.calls / n_ops, "count")
        s = self.stats

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["forest.predict.rows_per_call"] = (
            ratio(s["forest.predict"].counts.get("rows", 0), s["forest.predict"].calls), "count")
        out["selftrain.run_round.kept_ratio"] = (
            ratio(s["selftrain.run_round"].counts.get("kept", 0),
                  s["selftrain.run_round"].counts.get("filtered", 0)), "1")
        out["rewards.useful_group_ratio"] = (
            ratio(s["rewards.build_rollout_group"].counts.get("useful", 0),
                  s["rewards.build_rollout_group"].calls), "1")
        out["codec.decode.per_label"] = (
            ratio(s["codec.decode"].calls,
                  s["pseudolabel.read_pseudo_labels"].counts.get("labels", 0)), "count")
        out["trace.absent"] = (len(self.absent), "count")
        return out
