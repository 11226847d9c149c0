"""The ``ptzkit`` command line: one entry point for the whole pipeline.

Subcommands: encode, decode, scene-gen, synth, fit, iterate, grpo-train,
eval, report.  Global flags: --config, --seed, --out, --quiet.  Exit codes:
0 success, 2 usage or parse error, 3 data error, 4 a filter round kept
nothing.  A flag that overrides a config key (``FLAG_KEYS``) is a spelling
of that key: it is parsed by the key's coercion and held to the key's rule,
and ``main`` writes it into the loaded config, which is all a command reads.
Commands validate inputs before touching outputs; files are written to a
``.partial`` path and renamed on success.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from ptzkit import camera as cam
from ptzkit import codec, jsonl
from ptzkit import pseudolabel as pl
from ptzkit import rewards as rw
from ptzkit import selftrain as st
from ptzkit.config import (
    ConfigError,
    RunConfig,
    check_pairs,
    grpo_config,
    intrinsics,
    load_config,
    parse_value,
    regressor_config,
    reward_config,
    set_key,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EMPTY_FILTER = 4


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_atomic(path: Path, writer) -> None:
    partial = Path(str(path) + ".partial")
    writer(partial)
    os.replace(partial, path)


def _vocab(cfg: RunConfig) -> codec.TokenVocab:
    if cfg.codec.vocab_path:
        return codec.TokenVocab.load(cfg.codec.vocab_path)
    return codec.TokenVocab.default()


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_range(text: str, name: str) -> tuple[float, float]:
    """``LO,HI`` as two floats; ``camera.sample_targets`` holds the range to its rule."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--{name} expects LO,HI")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--{name} expects numbers, got {text!r}") from None


def _scene_samples(args, cfg: RunConfig):
    """The samples of the scene's usable targets, and the camera; each skipped target is said."""
    scene = cam.read_scene(args.scene)
    k, pose = intrinsics(cfg), cam.CameraState(cfg.camera.pan, cfg.camera.tilt, cfg.camera.zoom)
    samples, skipped = st.make_samples(scene, k, pose, cfg.pseudolabel.fill_ratio, seed=cfg.run.seed)
    for target_id, reason in skipped:
        _say(args, f"skipped {target_id}: {reason}")
    if not samples:
        raise ValueError(f"no usable targets in {args.scene}")
    return samples, k


# --- subcommands -----------------------------------------------------------


def cmd_encode(args, cfg: RunConfig) -> int:
    vocab = _vocab(cfg)
    try:
        action = codec.ActionDelta(args.pan, args.tilt, args.zoom)
        seq = codec.encode_action(action, vocab)
    except codec.CodecError as exc:
        print(f"encode error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(codec.seq_to_str(seq, vocab))
    return EXIT_OK


def cmd_decode(args, cfg: RunConfig) -> int:
    vocab = _vocab(cfg)
    text = args.tokens if args.tokens is not None else sys.stdin.read()
    try:
        ids = codec.ids_from_str(text, vocab)
        action = codec.decode(ids, vocab, strict=cfg.codec.strict)
    except codec.CodecError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{action.pan_deg} {action.tilt_deg} {action.zoom_units}")
    return EXIT_OK


def cmd_scene_gen(args, cfg: RunConfig) -> int:
    if args.count < 0:
        print("scene-gen error: --count must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(cfg.run.seed)
    try:
        ranges = {
            f"{name}_range": _parse_range(text, name)
            for name in ("azimuth", "elevation", "distance", "size", "aspect")
            if (text := getattr(args, name)) is not None
        }
        targets = cam.sample_targets(args.count, rng, **ranges)
    except (ConfigError, ValueError) as exc:
        print(f"scene-gen error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _out_dir(cfg) / args.scene_file
    _write_atomic(out, lambda p: cam.write_scene(p, targets))
    _say(args, f"wrote {len(targets)} targets to {out}")
    return EXIT_OK


def cmd_synth(args, cfg: RunConfig) -> int:
    vocab = _vocab(cfg)
    records = pl.read_grounding_records(args.records)
    if cfg.pseudolabel.k:
        records = pl.select_smallest(records, min(cfg.pseudolabel.k, len(records)))
    model = pl.load_model(args.model)
    labels, skipped = pl.generate(records, model, seed=cfg.run.seed, zoom_source=cfg.pseudolabel.zoom_source)
    out = _out_dir(cfg) / args.labels_file
    _write_atomic(out, lambda p: pl.write_pseudo_labels(p, labels, vocab))
    for record_id, reason in skipped:
        _say(args, f"skipped {record_id}: {reason}")
    _say(args, f"wrote {len(labels)} pseudo-labels to {out} ({len(skipped)} skipped)")
    return EXIT_OK


def cmd_fit(args, cfg: RunConfig) -> int:
    if bool(args.pairs) == bool(args.scene):
        print("fit error: provide exactly one of --pairs or --scene", file=sys.stderr)
        return EXIT_USAGE
    if args.pairs:
        x, actions = pl.read_feature_action_pairs(args.pairs)
    else:
        samples, _ = _scene_samples(args, cfg)
        x, actions = samples.features, samples.actions
    model = pl.fit(x, actions, regressor_config(cfg))
    out = _out_dir(cfg) / args.model_file
    _write_atomic(out, lambda p: pl.save_model(p, model))
    r2 = " ".join(f"{h}={model.train_r2[h]:.4f}" for h in pl.HEAD_NAMES)
    _say(args, f"fit {model.kind} on {len(x)} samples: R2 {r2} -> {out}")
    return EXIT_OK


def cmd_iterate(args, cfg: RunConfig) -> int:
    seed = cfg.run.seed
    s = cfg.selftrain
    iter_cfg = st.IterationConfig(rounds=s.rounds, iou_thresholds=s.threshold_list(), replace_bbox=s.replace_bbox)
    samples, k = _scene_samples(args, cfg)
    out_dir = _out_dir(cfg)
    train, test = st.split_dataset(samples, s.split, seed)
    if s.label_noise_angle > 0 or s.label_noise_zoom > 0:
        train = st.relabel(train, _noisy_oracle(k, cfg, seed + 1))
    factory = st.regressor_policy_factory(regressor_config(cfg))
    completion_cfg = st.CompletionConfig(s.completion_center_frac, s.completion_min_area)
    vocab = _vocab(cfg)

    def dump_round(round_idx: int, refined) -> None:
        path = out_dir / f"round{round_idx}_refined.jsonl"
        _write_atomic(path, lambda p: pl.write_pseudo_labels(p, st.pseudolabels(refined, k), vocab))

    reports = st.iterate(train, test, iter_cfg, factory, k, completion_cfg, on_round=dump_round)
    report_path = out_dir / args.report
    _write_atomic(report_path, lambda p: st.write_round_reports(p, reports))
    final = reports[-1].metrics
    _say(args, f"iterate: {len(reports)} rounds, final mean IoU {final.mean_iou:.4f}, "
               f"CR {final.completion_rate:.2f} -> {report_path}")
    return EXIT_OK


def cmd_grpo_train(args, cfg: RunConfig) -> int:
    seed, steps = cfg.run.seed, cfg.grpo.steps
    samples, k = _scene_samples(args, cfg)
    out_dir = _out_dir(cfg)
    policy = rw.ToyPolicy.init(n_features=3)
    policy, history = rw.grpo_train(policy, samples, k, grpo_config(cfg), reward_config(cfg), steps, seed)
    policy_path = out_dir / args.policy_file
    log_path = out_dir / args.report
    _write_atomic(policy_path, lambda p: rw.save_policy(p, policy, seed=seed))
    _write_atomic(log_path, lambda p: rw.write_training_log(p, history))
    _say(args, f"grpo-train: {steps} steps on {len(samples)} prompts, "
               f"mean reward {history[0].mean_reward:.3f} -> {history[-1].mean_reward:.3f}, checkpoint {policy_path}")
    return EXIT_OK


def _noisy_oracle(k: cam.CameraIntrinsics, cfg: RunConfig, seed: int) -> st.NoisyOraclePolicy:
    s = cfg.selftrain
    fill_ratio = cfg.pseudolabel.fill_ratio
    return st.NoisyOraclePolicy(k, s.label_noise_angle, s.label_noise_zoom, seed=seed, fill_ratio=fill_ratio)


def _load_policy_adapter(spec: str, k: cam.CameraIntrinsics, cfg: RunConfig):
    if spec == "oracle":
        return st.OraclePolicy(k, cfg.pseudolabel.fill_ratio)
    if spec == "noisy-oracle":
        if cfg.selftrain.label_noise_angle == 0 and cfg.selftrain.label_noise_zoom == 0:
            raise ConfigError(
                "--policy noisy-oracle needs [selftrain] label_noise_angle or "
                "label_noise_zoom above 0; with both 0 it is the oracle"
            )
        return _noisy_oracle(k, cfg, cfg.run.seed)
    if spec == "zero":
        return st.ConstantPolicy(codec.ActionDelta(0, 0, 0))
    return jsonl.load(spec, _policy_from_doc, "regressor model or policy checkpoint")


def _policy_from_doc(doc: dict):
    if "bins" in doc:
        return st.ToyPolicyAdapter(rw.ToyPolicy.from_dict(doc))
    return st.RegressorPolicy(pl.model_from_dict(doc))


def cmd_eval(args, cfg: RunConfig) -> int:
    samples, k = _scene_samples(args, cfg)
    policy = _load_policy_adapter(args.policy, k, cfg)
    s = cfg.selftrain
    completion_cfg = st.CompletionConfig(s.completion_center_frac, s.completion_min_area)
    metrics = st.evaluate(policy, samples, k, completion_cfg)
    doc = {
        "policy": args.policy,
        "n_samples": metrics.n_samples,
        "mae_theta1": metrics.mae_theta1,
        "mae_theta2": metrics.mae_theta2,
        "mae_zoom": metrics.mae_zoom,
        "mean_iou": metrics.mean_iou,
        "cr": metrics.completion_rate,
    }
    out = _out_dir(cfg) / args.eval_file
    _write_atomic(out, lambda p: jsonl.write(p, [doc]))
    _say(args, f"eval {args.policy}: MAE ({metrics.mae_theta1:.2f}, {metrics.mae_theta2:.2f}, "
               f"{metrics.mae_zoom:.1f}), mean IoU {metrics.mean_iou:.4f}, "
               f"CR {metrics.completion_rate:.2%} on {metrics.n_samples} samples")
    return EXIT_OK


def cmd_report(args, cfg: RunConfig) -> int:
    rows = jsonl.read(args.file, _report_row, "report row")
    if not rows:
        print("report error: empty report file", file=sys.stderr)
        return EXIT_DATA
    columns = list(rows[0].keys())
    widths = {c: max(len(c), max(len(_fmt_cell(r.get(c))) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(_fmt_cell(r.get(c)).ljust(widths[c]) for c in columns))
    return EXIT_OK


def _report_row(rec: dict) -> dict:
    jsonl.finite([v for v in rec.values() if isinstance(v, float)], "report numbers")
    return rec


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


# --- parser ----------------------------------------------------------------

# Every flag that sets a config key, and its key.  A flag that takes a value is
# parsed by its key's coercion and held to its key's rule; one in CONSTANT_FLAGS
# sets its key to the constant.  --kind also takes the short names in KIND_NAMES.
FLAG_KEYS = {
    "--seed": "run.seed",
    "--out": "io.out_dir",
    "--vocab": "codec.vocab_path",
    "--lenient": "codec.strict",
    "--zoom-source": "pseudolabel.zoom_source",
    "--kind": "pseudolabel.kind",
    "--steps": "grpo.steps",
    "--rounds": "selftrain.rounds",
    "--thresholds": "selftrain.thresholds",
    "--replace-bbox": "selftrain.replace_bbox",
    "--no-replace-bbox": "selftrain.replace_bbox",
    "--label-noise-angle": "selftrain.label_noise_angle",
    "--label-noise-zoom": "selftrain.label_noise_zoom",
    "--split": "selftrain.split",
}
CONSTANT_FLAGS = {"--lenient": False, "--replace-bbox": True, "--no-replace-bbox": False}
KIND_NAMES = {"ols": "ols_linear", "rf": "random_forest"}


def _key_flag(parser: argparse.ArgumentParser, flag: str, **kwargs) -> None:
    """Add ``flag``, which sets its key when given; absent, it leaves no value."""
    key = FLAG_KEYS[flag]

    def parse(text: str):
        try:
            return parse_value(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    if flag in CONSTANT_FLAGS:
        kwargs.update(action="store_const", const=CONSTANT_FLAGS[flag])
    else:
        kwargs = {"type": parse, "metavar": flag[2:].replace("-", "_").upper(), **kwargs}
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kwargs)


def _global_flags(parser: argparse.ArgumentParser) -> None:
    # on the top parser and on every subcommand, so the flags work in either position
    parser.add_argument("--config", default=argparse.SUPPRESS, help="config file (INI sections)")
    _key_flag(parser, "--seed", help="master seed")
    _key_flag(parser, "--out", help="output directory")
    parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS, help="suppress summaries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptzkit",
        description="Pan/tilt/zoom active-vision toolkit: codec, simulator, "
        "pseudo-labels, GRPO training, and IoU-filtered self-training.",
    )
    _global_flags(parser)
    parser.set_defaults(config=None, quiet=False)
    globals_parent = argparse.ArgumentParser(add_help=False)
    _global_flags(globals_parent)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("encode", parents=[globals_parent], help="action triple -> token string")
    p.add_argument("--pan", type=int, required=True)
    p.add_argument("--tilt", type=int, required=True)
    p.add_argument("--zoom", type=int, required=True)
    _key_flag(p, "--vocab", help="vocabulary table path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", parents=[globals_parent], help="token string -> action triple")
    p.add_argument("tokens", nargs="?", default=None, help="token string (stdin if omitted)")
    _key_flag(p, "--lenient", help="accept non-canonical sequences")
    _key_flag(p, "--vocab")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("scene-gen", parents=[globals_parent], help="sample a synthetic scene file")
    p.add_argument("--count", type=int, required=True)
    # an absent range flag leaves camera.sample_targets' default
    p.add_argument("--azimuth", help="degrees LO,HI")
    p.add_argument("--elevation", help="degrees LO,HI")
    p.add_argument("--distance", help="meters LO,HI")
    p.add_argument("--size", help="target width in meters LO,HI")
    p.add_argument("--aspect", help="height/width factor LO,HI")
    p.add_argument("--scene-file", default="scene.jsonl")
    p.set_defaults(func=cmd_scene_gen)

    p = sub.add_parser("synth", parents=[globals_parent], help="grounding records + model -> pseudo-labels")
    p.add_argument("--records", required=True, help="grounding records (JSONL)")
    p.add_argument("--model", required=True, help="fitted regressor (JSON)")
    _key_flag(p, "--zoom-source", help="geometry | model")
    p.add_argument("--labels-file", default="labels.jsonl")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", parents=[globals_parent], help="fit the action regressor")
    p.add_argument("--pairs", default=None, help="feature/action pairs (JSONL)")
    p.add_argument("--scene", default=None, help="scene file; oracle labels are fitted")
    _key_flag(
        p, "--kind", type=lambda text: KIND_NAMES.get(text, text), choices=tuple(KIND_NAMES.values()),
        metavar="{ols,rf,ols_linear,random_forest}",
    )
    p.add_argument("--model-file", default="model.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("iterate", parents=[globals_parent], help="multi-round IoU-filtered self-training")
    p.add_argument("--scene", required=True)
    _key_flag(p, "--rounds")
    _key_flag(p, "--thresholds", help="per-round IoU thresholds in [0, 1], comma separated")
    _key_flag(p, "--replace-bbox")
    _key_flag(p, "--no-replace-bbox")
    _key_flag(p, "--label-noise-angle", help="sigma in degrees")
    _key_flag(p, "--label-noise-zoom", help="sigma in zoom units")
    _key_flag(p, "--split", help="held-out test fraction")
    p.add_argument("--report", default="round_report.jsonl")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("grpo-train", parents=[globals_parent], help="train the toy policy with GRPO")
    p.add_argument("--scene", required=True)
    _key_flag(p, "--steps")
    p.add_argument("--policy-file", default="policy.json")
    p.add_argument("--report", default="train_log.jsonl")
    p.set_defaults(func=cmd_grpo_train)

    p = sub.add_parser("eval", parents=[globals_parent], help="score a policy on a scene")
    p.add_argument("--scene", required=True)
    p.add_argument(
        "--policy", required=True, help="oracle | noisy-oracle | zero | regressor model path | policy checkpoint path"
    )
    p.add_argument("--eval-file", default="eval.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[globals_parent], help="pretty-print a report file")
    p.add_argument("file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        try:
            for flag, key in FLAG_KEYS.items():
                if hasattr(args, key):
                    set_key(cfg, key, getattr(args, key), flag)
            check_pairs(cfg)
        except ConfigError as exc:  # the keys agree (checked at load), so a flag is involved
            print(f"{args.command} error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return args.func(args, cfg)
    except st.EmptyFilterError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_EMPTY_FILTER
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
