"""Command line interface.

Subcommands: enhance (run the streaming engine over a WAV), embed (extract
and cache a speaker embedding), check-latency (perturbation probe of the
128-sample budget), simulate (render a synthetic scene), evaluate (score an
estimate), init-weights (write a seeded random weight container).

Each setting has one spelling: the engine's tunables (``iterations``,
``alpha``, ``loading``) are ``enhance --config`` keys only, and fitting runs
exactly when ``--listener`` is given. ``check-latency`` checks that the
pipeline is deterministic, then prints one ``causality_check`` report per
trial. Every failure exits nonzero with one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dsp import StftConfig, StreamingAnalyzer, causality_check
from .embedder import EmbedConfig, SpeakerEmbedder, cache_embedding, load_embedding
from .fitting import EQ_DELAY, ListenerFitting, load_listener
from .gridnet import GridNetConfig, infer_config
from .metrics import multires_si_loss, si_sdr, si_sdri
from .pipeline import (
    PipelineConfig,
    enhance_offline,
    enhance_signal,
    init_pipeline_weights,
)
from .scenes import SceneSpec, simulate_scene
from .wavio import read_wav, write_wav
from .weights import WeightStore

_CONFIG_KEYS = ("iterations", "alpha", "loading")


class _Parser(argparse.ArgumentParser):
    """argparse with single-line errors and exit code 2."""

    def error(self, message: str) -> None:  # noqa: D102
        print(f"error: {' '.join(message.split())}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hearstream")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance a multichannel WAV")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--enroll")
    group.add_argument("--embedding")
    p.add_argument("--listener")
    p.add_argument("--ear", choices=("left", "right"), default="left")
    p.add_argument("--config")
    p.add_argument("--output", required=True)

    p = sub.add_parser("embed", help="extract a speaker embedding")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("check-latency", help="verify the algorithmic latency budget")
    p.add_argument("--weights", required=True)
    p.add_argument("--budget-samples", type=int, default=128)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("simulate", help="render a synthetic scene to WAV files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--snr", type=float, default=0.0)
    p.add_argument("--channels", type=int, default=6)
    p.add_argument("--duration", type=float, default=2.0)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("evaluate", help="score an estimate against a reference")
    p.add_argument("--est", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--mix", required=True)

    p = sub.add_parser("init-weights", help="write a seeded random weight container")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--channels", type=int, default=2)
    p.add_argument("--scale", choices=("toy", "full"), default="toy")
    return parser


def _pipeline_config(store: WeightStore, args) -> PipelineConfig:
    model = infer_config(store)
    overrides: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(overrides) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
    return PipelineConfig(model=model, **overrides)


def _cmd_enhance(args) -> int:
    store = WeightStore.load(args.weights)
    config = _pipeline_config(store, args)
    fitting = None
    if args.listener:
        listeners = load_listener(args.listener)
        fitting = ListenerFitting(listeners[args.ear], stft=config.stft)
    mixture = read_wav(args.input)
    if args.embedding:
        embedding = load_embedding(args.embedding, emb_dim=config.model.emb_dim)
    else:
        embedding = _enroll(store, args.enroll)
    out = enhance_signal(mixture, config, store, embedding, fitting=fitting)
    write_wav(args.output, out)
    print(f"wrote {args.output} ({len(out)} samples)")
    return 0


def _enroll(store: WeightStore, wav_path: str) -> np.ndarray:
    """The speaker embedding of a WAV's channel 0. The engine rejects it if
    the model was built for another embedding size."""
    frames = StreamingAnalyzer(StftConfig(), 1).analyze(read_wav(wav_path)[:, 0])
    return SpeakerEmbedder(EmbedConfig(), store).embed(frames[:, :, 0])


def _cmd_embed(args) -> int:
    embedding = _enroll(WeightStore.load(args.weights), args.input)
    cache_embedding(args.output, embedding)
    print(f"wrote {args.output} ({embedding.shape[0]}-dim embedding)")
    return 0


def _cmd_check_latency(args) -> int:
    if args.budget_samples < 0 or args.trials < 1:
        raise ValueError("budget-samples must be >= 0 and trials >= 1")
    store = WeightStore.load(args.weights)
    model = infer_config(store)
    config = PipelineConfig(model=model)
    scene = simulate_scene(
        SceneSpec(seed=100, channels=model.channels, duration_s=0.5, snr_db=0.0)
    )
    x = scene.mixture

    # Random weights can legitimately mute the output (the rescaling gain
    # clamps at zero), which would make every trial pass vacuously. Scan
    # probe embeddings until one keeps the gain live over the whole signal,
    # so a perturbation anywhere has an observable effect.
    warm_in = 8 * config.stft.hop
    baseline = embedding = None
    for probe_seed in range(32):
        cand = np.random.default_rng(probe_seed).standard_normal(model.emb_dim)
        cand = cand.astype(np.float32)
        out = enhance_offline(x, config, store, cand)
        hop_rms = np.sqrt(np.mean(out[warm_in:].reshape(-1, config.stft.hop) ** 2, axis=1))
        if float(hop_rms.min()) > 1e-7:
            baseline, embedding = out, cand
            print(f"probe embedding seed {probe_seed} (live output on every hop)")
            break
    if baseline is None:
        print("error: no probe embedding produced non-silent output", file=sys.stderr)
        return 1
    again = enhance_offline(x, config, store, embedding)
    if not np.array_equal(again, baseline):
        print("error: pipeline output is not deterministic", file=sys.stderr)
        return 1

    def run(signal: np.ndarray) -> np.ndarray:
        return enhance_offline(signal, config, store, embedding)

    rng = np.random.default_rng(2718)
    failures = 0
    for trial in range(args.trials):
        n = int(rng.integers(2 * warm_in, x.shape[0] - 128))
        report = causality_check(
            run, x, n=n, budget_samples=args.budget_samples, baseline=baseline
        )
        print(f"trial {trial:02d}: {report}")
        failures += 0 if report.passed else 1
    print(f"note: fitting path adds a {EQ_DELAY}-sample static FIR group delay")
    if failures:
        print(f"FAIL {args.trials - failures}/{args.trials} trials within budget")
        return 1
    print(f"PASS {args.trials}/{args.trials} trials within budget")
    return 0


def _cmd_simulate(args) -> int:
    spec = SceneSpec(
        seed=args.seed,
        channels=args.channels,
        duration_s=args.duration,
        snr_db=args.snr,
    )
    scene = simulate_scene(spec)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {
        "mixture": os.path.join(args.out_dir, "mixture.wav"),
        "target_ref": os.path.join(args.out_dir, "target_ref.wav"),
        "anechoic_target": os.path.join(args.out_dir, "anechoic_target.wav"),
    }
    # Scale into (-1, 1) uniformly so WAV peaks stay valid; one shared gain
    # preserves the scene's SNR and channel ratios.
    peak = max(
        float(np.max(np.abs(scene.mixture))),
        float(np.max(np.abs(scene.anechoic_target))),
    )
    gain = 0.9 / peak if peak > 0.9 else 1.0
    write_wav(paths["mixture"], scene.mixture * gain)
    write_wav(paths["target_ref"], scene.target_ref * gain)
    write_wav(paths["anechoic_target"], scene.anechoic_target * gain)
    print(json.dumps(paths))
    return 0


def _cmd_evaluate(args) -> int:
    est = read_wav(args.est)[:, 0]
    ref = read_wav(args.ref)[:, 0]
    mix = read_wav(args.mix)[:, 0]
    n = min(len(est), len(ref), len(mix))
    est, ref, mix = est[:n], ref[:n], mix[:n]
    report = {
        "si_sdr": si_sdr(est, ref),
        "si_sdri": si_sdri(est, mix, ref),
        "multires_loss": multires_si_loss(est, ref),
    }
    print(json.dumps(report))
    return 0


def _cmd_init_weights(args) -> int:
    if args.scale == "toy":
        model = GridNetConfig.toy(channels=args.channels)
    else:
        model = GridNetConfig.full_scale(channels=args.channels)
    config = PipelineConfig(model=model)
    store = init_pipeline_weights(config, seed=args.seed)
    store.save(args.output)
    print(f"wrote {args.output} ({store.param_count()} parameters, {len(store)} tensors)")
    return 0


_COMMANDS = {
    "enhance": _cmd_enhance,
    "embed": _cmd_embed,
    "check-latency": _cmd_check_latency,
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "init-weights": _cmd_init_weights,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
