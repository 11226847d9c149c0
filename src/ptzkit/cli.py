"""The ``ptzkit`` command line: one entry point for the whole pipeline.

Subcommands: encode, decode, scene-gen, synth, fit, iterate, grpo-train,
eval, report.  Global flags: --config, --seed, --out, --quiet.  Exit codes:
0 success, 2 usage or parse error, 3 data error, 4 a filter round kept
nothing.  Every command resolves its configuration (flags override config
keys) and validates inputs before touching outputs; files are written to a
``.partial`` path and renamed on success.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from ptzkit import camera as cam
from ptzkit import codec, jsonl
from ptzkit import pseudolabel as pl
from ptzkit import rewards as rw
from ptzkit import selftrain as st
from ptzkit.config import ConfigError, RunConfig, load_config, parse_thresholds

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


def _vocab(args, cfg: RunConfig) -> codec.TokenVocab:
    path = getattr(args, "vocab", None) or cfg.codec.vocab_path
    if path:
        return codec.TokenVocab.load(path)
    return codec.TokenVocab.default(levels=cfg.codec.levels)


def _intrinsics(cfg: RunConfig) -> cam.CameraIntrinsics:
    s = cfg.intrinsics
    return cam.CameraIntrinsics(s.image_w, s.image_h, s.hfov_base)


def _camera(cfg: RunConfig) -> cam.CameraState:
    s = cfg.camera
    return cam.CameraState(s.pan, s.tilt, s.zoom)


def _seed(args, cfg: RunConfig) -> int:
    return cfg.run.seed if args.seed is None else args.seed


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out if args.out is not None else cfg.io.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_range(text: str, name: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--{name} expects LO,HI")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--{name} expects numbers, got {text!r}") from None
    if lo > hi:
        raise ConfigError(f"--{name}: empty range {text!r}")
    return lo, hi


def _thresholds_flag(text: str) -> tuple[float, ...]:
    try:
        return parse_thresholds(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _fraction_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1), got {text!r}")
    return value


def _sigma_flag(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite sigma >= 0, got {text!r}")
    return value


def _regressor_config(cfg: RunConfig, kind: str | None, seed: int) -> pl.RegressorConfig:
    p = cfg.pseudolabel
    return pl.RegressorConfig(
        kind=kind or p.kind,
        n_trees=p.n_trees,
        max_depth=p.max_depth,
        min_samples_leaf=p.min_samples_leaf,
        seed=seed,
        use_zoom_feature=p.use_zoom_feature,
    )


def _scene_samples(args, cfg: RunConfig, seed: int):
    scene = cam.read_scene(args.scene)
    k = _intrinsics(cfg)
    samples, skipped = st.make_samples(
        scene, k, _camera(cfg), cfg.pseudolabel.fill_ratio, seed=seed
    )
    if not samples:
        raise ValueError(f"no usable targets in {args.scene}")
    return samples, skipped, k


# --- subcommands -----------------------------------------------------------


def cmd_encode(args, cfg: RunConfig) -> int:
    vocab = _vocab(args, cfg)
    try:
        action = codec.ActionDelta(args.pan, args.tilt, args.zoom)
        seq = codec.encode_action(action, vocab)
    except codec.CodecError as exc:
        print(f"encode error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(codec.seq_to_str(seq, vocab))
    return EXIT_OK


def cmd_decode(args, cfg: RunConfig) -> int:
    vocab = _vocab(args, cfg)
    text = args.tokens if args.tokens is not None else sys.stdin.read()
    strict = cfg.codec.strict and not args.lenient
    try:
        ids = codec.ids_from_str(text, vocab)
        action = codec.decode(ids, vocab, strict=strict)
    except codec.CodecError as exc:
        print(f"decode error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{action.pan_deg} {action.tilt_deg} {action.zoom_units}")
    return EXIT_OK


def cmd_scene_gen(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    out = _out_dir(args, cfg) / args.scene_file
    if args.count < 0:
        print("scene-gen error: --count must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    rng = np.random.default_rng(seed)
    try:
        targets = cam.sample_targets(
            args.count,
            rng,
            azimuth_range=_parse_range(args.azimuth, "azimuth"),
            elevation_range=_parse_range(args.elevation, "elevation"),
            distance_range=_parse_range(args.distance, "distance"),
            size_range=_parse_range(args.size, "size"),
            aspect_range=_parse_range(args.aspect, "aspect"),
        )
    except (ConfigError, ValueError) as exc:
        print(f"scene-gen error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_atomic(out, lambda p: cam.write_scene(p, targets))
    _say(args, f"wrote {len(targets)} targets to {out}")
    return EXIT_OK


def cmd_synth(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    vocab = _vocab(args, cfg)
    records = pl.read_grounding_records(args.records)
    if cfg.pseudolabel.k:
        records = pl.select_smallest(records, min(cfg.pseudolabel.k, len(records)))
    model = pl.load_model(args.model)
    zoom_source = args.zoom_source or cfg.pseudolabel.zoom_source
    labels, skipped = pl.generate(records, model, seed=seed, zoom_source=zoom_source)
    out = _out_dir(args, cfg) / args.labels_file
    _write_atomic(out, lambda p: pl.write_pseudo_labels(p, labels, vocab))
    for record_id, reason in skipped:
        _say(args, f"skipped {record_id}: {reason}")
    _say(args, f"wrote {len(labels)} pseudo-labels to {out} ({len(skipped)} skipped)")
    return EXIT_OK


def cmd_fit(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    if bool(args.pairs) == bool(args.scene):
        print("fit error: provide exactly one of --pairs or --scene", file=sys.stderr)
        return EXIT_USAGE
    if args.pairs:
        pairs = pl.read_feature_action_pairs(args.pairs)
    else:
        samples, _, _ = _scene_samples(args, cfg, seed)
        pairs = [(s.features, s.gt_action) for s in samples]
    model = pl.fit(pairs, _regressor_config(cfg, args.kind, seed))
    out = _out_dir(args, cfg) / args.model_file
    _write_atomic(out, lambda p: pl.save_model(p, model))
    r2 = " ".join(f"{h}={model.train_r2[h]:.4f}" for h in pl.HEAD_NAMES)
    _say(args, f"fit {model.kind} on {len(pairs)} samples: R2 {r2} -> {out}")
    return EXIT_OK


def cmd_iterate(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    out_dir = _out_dir(args, cfg)
    samples, _, k = _scene_samples(args, cfg, seed)
    s = cfg.selftrain
    rounds = args.rounds if args.rounds is not None else s.rounds
    thresholds = args.thresholds if args.thresholds is not None else s.threshold_list()
    replace_bbox = s.replace_bbox if args.replace_bbox is None else args.replace_bbox
    iter_cfg = st.IterationConfig(
        rounds=rounds,
        iou_thresholds=thresholds,
        replace_bbox=replace_bbox,
        refit_each_round=s.refit_each_round,
        test_fraction=args.split if args.split is not None else s.split,
        seed=seed,
    )
    train, test = st.split_dataset(samples, iter_cfg.test_fraction, seed)
    noise_angle = args.label_noise_angle if args.label_noise_angle is not None else s.label_noise_angle
    noise_zoom = args.label_noise_zoom if args.label_noise_zoom is not None else s.label_noise_zoom
    if noise_angle > 0 or noise_zoom > 0:
        noisy = st.NoisyOraclePolicy(
            k, noise_angle, noise_angle, noise_zoom, seed=seed + 1,
            fill_ratio=cfg.pseudolabel.fill_ratio,
        )
        train = st.relabel(train, noisy)
    factory = st.regressor_policy_factory(_regressor_config(cfg, None, seed))
    completion_cfg = st.CompletionConfig(s.completion_center_frac, s.completion_min_area)
    vocab = _vocab(args, cfg)

    def dump_round(round_idx: int, refined) -> None:
        path = out_dir / f"round{round_idx}_refined.jsonl"
        labels = [st.sample_to_pseudolabel(x, k) for x in refined]
        _write_atomic(path, lambda p: pl.write_pseudo_labels(p, labels, vocab))

    reports = st.iterate(
        train, iter_cfg, factory, k, testset=test,
        completion_cfg=completion_cfg, on_round=dump_round,
    )
    report_path = out_dir / args.report
    _write_atomic(report_path, lambda p: st.write_round_reports(p, reports))
    final = reports[-1].metrics
    _say(
        args,
        f"iterate: {len(reports)} rounds, final mean IoU {final.mean_iou:.4f}, "
        f"CR {final.completion_rate:.2f} -> {report_path}",
    )
    return EXIT_OK


def cmd_grpo_train(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    out_dir = _out_dir(args, cfg)
    samples, _, k = _scene_samples(args, cfg, seed)
    tasks = st.grpo_tasks_from_samples(samples)
    g = cfg.grpo
    grpo_cfg = rw.GRPOConfig(
        kl_weight=g.kl_weight,
        group_size=g.group_size,
        learning_rate=g.learning_rate,
        std_guard=g.std_guard,
    )
    reward_cfg = rw.RewardConfig(
        angle_tol=cfg.reward.angle_tol,
        angle_penalty_span=cfg.reward.angle_penalty_span,
        zoom_band=cfg.reward.zoom_band,
        zoom_penalty_span=cfg.reward.zoom_penalty_span,
    )
    steps = args.steps if args.steps is not None else g.steps
    policy = rw.ToyPolicy.init(n_features=3)
    policy, history = rw.grpo_train(policy, tasks, k, grpo_cfg, reward_cfg, steps, seed)
    policy_path = out_dir / args.policy_file
    log_path = out_dir / args.report
    _write_atomic(policy_path, lambda p: rw.save_policy(p, policy, seed=seed))
    _write_atomic(log_path, lambda p: rw.write_training_log(p, history))
    _say(
        args,
        f"grpo-train: {steps} steps on {len(tasks)} prompts, "
        f"mean reward {history[0].mean_reward:.3f} -> {history[-1].mean_reward:.3f}, "
        f"checkpoint {policy_path}",
    )
    return EXIT_OK


def _load_policy_adapter(spec: str, k: cam.CameraIntrinsics, cfg: RunConfig, seed: int):
    if spec == "oracle":
        return st.OraclePolicy(k, cfg.pseudolabel.fill_ratio)
    if spec == "noisy-oracle":
        s = cfg.selftrain
        if s.label_noise_angle == 0 and s.label_noise_zoom == 0:
            raise ConfigError(
                "--policy noisy-oracle needs [selftrain] label_noise_angle or "
                "label_noise_zoom above 0; with both 0 it is the oracle"
            )
        return st.NoisyOraclePolicy(
            k,
            s.label_noise_angle,
            s.label_noise_angle,
            s.label_noise_zoom,
            seed=seed,
            fill_ratio=cfg.pseudolabel.fill_ratio,
        )
    if spec == "zero":
        return st.ConstantPolicy(codec.ActionDelta(0, 0, 0))
    return jsonl.load(spec, _policy_from_doc, "regressor model or policy checkpoint")


def _policy_from_doc(doc: dict):
    if "bins" in doc:
        return st.ToyPolicyAdapter(rw.ToyPolicy.from_dict(doc))
    return st.RegressorPolicy(pl.model_from_dict(doc))


def cmd_eval(args, cfg: RunConfig) -> int:
    seed = _seed(args, cfg)
    samples, _, k = _scene_samples(args, cfg, seed)
    policy = _load_policy_adapter(args.policy, k, cfg, seed)
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
    out = _out_dir(args, cfg) / args.eval_file
    _write_atomic(out, lambda p: jsonl.write(p, [doc]))
    _say(
        args,
        f"eval {args.policy}: MAE ({metrics.mae_theta1:.2f}, {metrics.mae_theta2:.2f}, "
        f"{metrics.mae_zoom:.1f}), mean IoU {metrics.mean_iou:.4f}, "
        f"CR {metrics.completion_rate:.2%} on {metrics.n_samples} samples",
    )
    return EXIT_OK


def cmd_report(args, cfg: RunConfig) -> int:
    rows = jsonl.read(args.file, _report_row, "report row")
    if not rows:
        print("report error: empty report file", file=sys.stderr)
        return EXIT_DATA
    columns = list(rows[0].keys())
    widths = {
        c: max(len(c), max(len(_fmt_cell(r.get(c))) for r in rows)) for c in columns
    }
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


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # also attached to every subcommand so the flags work in either position
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default, help="config file (INI sections)")
    parser.add_argument("--seed", type=int, default=default, help="master seed")
    parser.add_argument("--out", default=default, help="output directory")
    if suppress:
        parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    else:
        parser.add_argument("--quiet", action="store_true", help="suppress summaries")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptzkit",
        description="Pan/tilt/zoom active-vision toolkit: codec, simulator, "
        "pseudo-labels, GRPO training, and IoU-filtered self-training.",
    )
    _global_flags(parser, suppress=False)
    globals_parent = argparse.ArgumentParser(add_help=False)
    _global_flags(globals_parent, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("encode", parents=[globals_parent], help="action triple -> token string")
    p.add_argument("--pan", type=int, required=True)
    p.add_argument("--tilt", type=int, required=True)
    p.add_argument("--zoom", type=int, required=True)
    p.add_argument("--vocab", default=None, help="vocabulary table path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", parents=[globals_parent], help="token string -> action triple")
    p.add_argument("tokens", nargs="?", default=None, help="token string (stdin if omitted)")
    p.add_argument("--lenient", action="store_true", help="accept non-canonical sequences")
    p.add_argument("--vocab", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("scene-gen", parents=[globals_parent], help="sample a synthetic scene file")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--azimuth", default="-25,25", help="degrees LO,HI")
    p.add_argument("--elevation", default="-12,12", help="degrees LO,HI")
    p.add_argument("--distance", default="1.5,2.6", help="meters LO,HI")
    p.add_argument("--size", default="0.3,0.5", help="target width in meters LO,HI")
    p.add_argument("--aspect", default="0.7,1.4", help="height/width factor LO,HI")
    p.add_argument("--scene-file", default="scene.jsonl")
    p.set_defaults(func=cmd_scene_gen)

    p = sub.add_parser("synth", parents=[globals_parent], help="grounding records + model -> pseudo-labels")
    p.add_argument("--records", required=True, help="grounding records (JSONL)")
    p.add_argument("--model", required=True, help="fitted regressor (JSON)")
    p.add_argument("--zoom-source", choices=("geometry", "model"), default=None)
    p.add_argument("--labels-file", default="labels.jsonl")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", parents=[globals_parent], help="fit the action regressor")
    p.add_argument("--pairs", default=None, help="feature/action pairs (JSONL)")
    p.add_argument("--scene", default=None, help="scene file; oracle labels are fitted")
    p.add_argument("--kind", choices=("ols", "rf", "ols_linear", "random_forest"), default=None)
    p.add_argument("--model-file", default="model.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("iterate", parents=[globals_parent], help="multi-round IoU-filtered self-training")
    p.add_argument("--scene", required=True)
    p.add_argument("--rounds", type=_positive_int_flag, default=None)
    p.add_argument(
        "--thresholds", type=_thresholds_flag, default=None,
        help="per-round IoU thresholds in [0, 1], comma separated",
    )
    p.add_argument("--replace-bbox", dest="replace_bbox", action="store_true", default=None)
    p.add_argument("--no-replace-bbox", dest="replace_bbox", action="store_false")
    p.add_argument("--label-noise-angle", type=_sigma_flag, default=None, help="sigma in degrees")
    p.add_argument("--label-noise-zoom", type=_sigma_flag, default=None, help="sigma in zoom units")
    p.add_argument("--split", type=_fraction_flag, default=None, help="held-out test fraction")
    p.add_argument("--report", default="round_report.jsonl")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("grpo-train", parents=[globals_parent], help="train the toy policy with GRPO")
    p.add_argument("--scene", required=True)
    p.add_argument("--steps", type=_positive_int_flag, default=None)
    p.add_argument("--policy-file", default="policy.json")
    p.add_argument("--report", default="train_log.jsonl")
    p.set_defaults(func=cmd_grpo_train)

    p = sub.add_parser("eval", parents=[globals_parent], help="score a policy on a scene")
    p.add_argument("--scene", required=True)
    p.add_argument(
        "--policy",
        required=True,
        help="oracle | noisy-oracle | zero | regressor model path | policy checkpoint path",
    )
    p.add_argument("--eval-file", default="eval.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", parents=[globals_parent], help="pretty-print a report file")
    p.add_argument("file")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if getattr(args, "kind", None) in ("ols", "rf"):
            args.kind = "ols_linear" if args.kind == "ols" else "random_forest"
        return args.func(args, cfg)
    except st.EmptyFilterError as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return EXIT_EMPTY_FILTER
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
