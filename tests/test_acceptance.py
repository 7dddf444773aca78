"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one summary line; run with ``pytest -v`` to see a
criterion-per-line pass/fail listing.
"""

import math
import time

import numpy as np
import pytest

from hearstream import gridnet
from hearstream.beamform import CovarianceState
from hearstream.cli import main as cli_main
from hearstream.dsp import (
    StftConfig,
    StreamingAnalyzer,
    causality_check,
    istft_frames,
    sqrt_hann,
)
from hearstream.embedder import EmbedConfig, embed_weight_schema
from hearstream.fitting import (
    CATALOGUE_CFS,
    DRC_KNEE_DB,
    DRC_RATIO,
    DRC_THRESHOLD_DB,
    DrcState,
    ListenerFitting,
    design_fir,
    drc_static_gain,
    nalr_gains,
)
from hearstream.gridnet import GridNetConfig, GridNetStream, MisoGridNet, weight_schema
from hearstream.kernels import conv2d, lstm_forward, masked_attention
from hearstream.metrics import multires_si_loss, si_sdr
from hearstream.pipeline import (
    PipelineConfig,
    StreamingEnhancer,
    beamform_frames,
    enhance_offline,
    init_pipeline_weights,
)
from hearstream.scenes import SceneSpec, simulate_scene
from helpers import flat_audiogram


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def toy_cfg():
    return PipelineConfig()


@pytest.fixture(scope="module")
def toy_store(toy_cfg):
    return init_pipeline_weights(toy_cfg, seed=0)


@pytest.fixture(scope="module")
def weights_file(toy_store, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("acc") / "toy.inxw")
    toy_store.save(path)
    return path


def test_criterion_01_stft_roundtrip():
    stft = StftConfig()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32000, 6))
    t0 = time.perf_counter()
    frames = StreamingAnalyzer(stft, 6).analyze(x)
    recon = np.stack(
        [istft_frames(frames[:, :, c], stft) for c in range(6)], axis=1
    )
    elapsed = time.perf_counter() - t0
    aligned = recon[stft.warmup :]
    ref = x[: len(aligned)]
    rel = float(
        np.sqrt(np.mean((aligned - ref) ** 2)) / np.sqrt(np.mean(ref**2))
    )
    report(
        1,
        rel <= 1e-6 and elapsed < 1.0,
        f"1 s 6-channel round-trip rel RMS {rel:.2e} (<=1e-6), {elapsed:.2f} s (<1 s)",
    )


def test_criterion_02_latency_contract(weights_file, toy_cfg, toy_store, capsys, leaky_attention):
    code = cli_main(["check-latency", "--weights", weights_file, "--trials", "20"])
    out = capsys.readouterr().out
    trials_pass = code == 0 and "PASS 20/20" in out

    emb = np.random.default_rng(2).standard_normal(128).astype(np.float32)
    scene = simulate_scene(SceneSpec(seed=100, channels=2, duration_s=0.5, snr_db=0.0))

    def run(x):
        return enhance_offline(x, toy_cfg, toy_store, emb)

    with leaky_attention():
        mutant = causality_check(
            run, scene.mixture, n=8000, budget_samples=128, baseline=run(scene.mixture)
        )
    report(
        2,
        trials_pass and not mutant.passed,
        f"check-latency 20/20 at budget 128 (exit {code}); non-causal attention "
        f"mutant first_diff={mutant.first_diff_index} correctly fails",
    )


def test_criterion_03_mcwf_math():
    rng = np.random.default_rng(1)
    alpha, channels, updates = 0.5, 3, 1000
    cov = CovarianceState(1, channels, alpha=alpha)
    ys = rng.standard_normal((updates, channels)) + 1j * rng.standard_normal(
        (updates, channels)
    )
    ss = rng.standard_normal(updates) + 1j * rng.standard_normal(updates)
    for y, s in zip(ys, ss):
        cov.update(y[None, :], np.array([s]))
    weights_t = (1 - alpha) * alpha ** np.arange(updates - 1, -1, -1)
    closed_yy = np.einsum("t,tc,td->cd", weights_t, ys, np.conj(ys))
    closed_ys = np.einsum("t,tc,t->c", weights_t, ys, np.conj(ss))
    err_yy = np.max(np.abs(cov.phi_yy[0] - closed_yy)) / np.max(np.abs(closed_yy))
    err_ys = np.max(np.abs(cov.phi_ys[0] - closed_ys)) / np.max(np.abs(closed_ys))

    scalar = CovarianceState(1, 1, alpha=0.5, loading=1e-4)
    scalar.update(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]))
    w = scalar.solve()[0, 0]  # phi=0.5, cross=0.5 -> w = 1/(1+loading)
    report(
        3,
        err_yy <= 1e-6 and err_ys <= 1e-6 and abs(w - 1.0) <= 2e-4,
        f"recursive vs closed form rel err {max(err_yy, err_ys):.2e} (<=1e-6) "
        f"over 1000 updates; scalar solve w={w.real:.6f} (=1 within loading tol)",
    )


def test_criterion_04_beamforming_benefit():
    t0 = time.perf_counter()
    stft = StftConfig()
    scene = simulate_scene(SceneSpec(seed=7, channels=2, duration_s=2.0, snr_db=0.0))
    frames = StreamingAnalyzer(stft, 2).analyze(scene.mixture)
    oracle = StreamingAnalyzer(stft, 1).analyze(scene.target_ref)[:, :, 0]
    z = istft_frames(beamform_frames(frames, oracle), stft)[stft.warmup :]
    burn = 32000
    ref = scene.target_ref[: len(z)]
    mix = scene.mixture[: len(z), 0]
    gain = si_sdr(z[burn:], ref[burn:]) - si_sdr(mix[burn:], ref[burn:])
    elapsed = time.perf_counter() - t0
    report(
        4,
        gain >= 5.0 and elapsed < 10.0,
        f"oracle-estimate MCWF SI-SDRi {gain:.2f} dB (>=5) after 1 s burn-in, "
        f"{elapsed:.2f} s (<10 s)",
    )


def _brute_multires(est, ref, windows=(512, 1024, 2048, 256, 128)):
    """Loop-wise mirror of the loss for cross-checking."""
    dot = sum(float(e) * float(r) for e, r in zip(est, ref))
    energy = sum(float(e) ** 2 for e in est)
    a = dot / energy if energy > 0 else 0.0
    scaled = [a * float(e) for e in est]
    total = sum(abs(s - r) for s, r in zip(scaled, ref)) / sum(abs(r) for r in ref)
    for win in windows:
        hop = win // 2
        n_frames = (len(ref) - win) // hop + 1 if len(ref) >= win else 0
        if n_frames <= 0:
            continue
        w = sqrt_hann(win)
        mags_e, mags_r = [], []
        for f in range(n_frames):
            seg_e = np.array(scaled[f * hop : f * hop + win]) * w
            seg_r = np.array(ref[f * hop : f * hop + win]) * w
            mags_e.append(np.abs(np.fft.rfft(seg_e)))
            mags_r.append(np.abs(np.fft.rfft(seg_r)))
        denom = float(np.sum(mags_r))
        if denom <= 0:
            continue
        total += float(np.sum(np.abs(np.array(mags_e) - np.array(mags_r)))) / denom
    return total


def test_criterion_05_metric_oracles():
    exact = si_sdr(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    rng = np.random.default_rng(5)
    ref = rng.standard_normal(512)
    cap_hi = si_sdr(2.0 * ref, ref)
    orth = si_sdr(np.concatenate([np.zeros(256), np.ones(256)]),
                  np.concatenate([np.ones(256), np.zeros(256)]))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(700, 4000))
        est = rng.standard_normal(n)
        target = rng.standard_normal(n)
        got = multires_si_loss(est, target)
        want = _brute_multires(est, target)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    report(
        5,
        exact == 0.0 and cap_hi == 60.0 and orth == -60.0 and worst <= 1e-6,
        f"si_sdr hand case {exact} dB (==0.0 exactly); caps +/-60 hit; "
        f"multires vs brute force worst rel err {worst:.2e} (<=1e-6, 50 pairs)",
    )


def test_criterion_06_nalr():
    k_table = (-17.0, -8.0, 1.0, -1.0, -2.0, -2.0, -2.0, -2.0)
    flat0 = nalr_gains(flat_audiogram(0.0))
    exact_k = np.array_equal(flat0, np.array(k_table))

    # flat 40: X = 0.05 * 120 = 6, per-band 6 + 0.31*40 + k = 18.4 + k
    flat40 = nalr_gains(flat_audiogram(40.0))
    hand_ok = all(abs(g - (18.4 + k)) <= 0.01 for g, k in zip(flat40, k_table))

    fs, taps = 32000, design_fir(flat40)
    worst_db = 0.0
    for cf, want in zip(CATALOGUE_CFS, flat40):
        if cf > 6000:
            continue
        resp = np.sum(taps * np.exp(-2j * np.pi * cf * np.arange(len(taps)) / fs))
        worst_db = max(worst_db, abs(20.0 * math.log10(abs(resp)) - want))

    stft = StftConfig()
    rng = np.random.default_rng(6)
    x = rng.standard_normal(16000)
    frames = StreamingAnalyzer(stft, 1).analyze(x)[:, :, 0]
    fitted = frames * ListenerFitting(flat_audiogram(40.0), stft=stft).spectrum
    y_stft = istft_frames(fitted, stft)[stft.warmup :]
    y_time = np.convolve(x, taps)[: len(y_stft)]
    rel = float(np.sqrt(np.mean((y_stft - y_time) ** 2)) / np.sqrt(np.mean(y_time**2)))
    report(
        6,
        exact_k and hand_ok and worst_db <= 1.0 and rel <= 0.02,
        f"flat-0 IG == k(f) exactly; flat-40 within 0.01 dB; FIR response "
        f"within {worst_db:.2f} dB (<=1) at 250-6000 Hz; STFT vs convolution "
        f"{100 * rel:.2f}% (<=2%) rel RMS",
    )


def test_criterion_07_drc():
    pts = {-60.0: 0.0, -40.0: -1.0 / 12.0, -20.0: -10.0 / 3.0}
    static_ok = all(
        abs(float(drc_static_gain(level)) - want) <= 0.01
        for level, want in pts.items()
    )

    # Step from silence to a steady -20 dB frame: the dB gain relaxes toward
    # the static target with the attack coefficient exp(-hop/attack), so the
    # 1 - 1/e crossing lands at log(1 - 0.632) / log(coeff) frames.
    state = DrcState(StftConfig())
    fft = 512
    amp = math.sqrt(fft) * 10.0 ** (-20.0 / 20.0)  # frame level exactly -20 dB
    frame = np.full(fft // 2 + 1, amp, dtype=complex)
    target = float(drc_static_gain(-20.0))
    predicted = math.log(1.0 - 0.632) / math.log(state.attack_coeff)
    crossing = None
    for n in range(200):
        state.step(frame)
        if crossing is None and state.gain_db <= 0.632 * target:
            crossing = n + 1
    tc_ok = crossing is not None and abs(crossing - predicted) <= 1.0

    # knee edges: adjacent branch formulas must agree (no gain jump)
    t, w, r = DRC_THRESHOLD_DB, DRC_KNEE_DB, DRC_RATIO
    lo, hi = t - w / 2.0, t + w / 2.0
    knee_at_lo = (1.0 / r - 1.0) * (lo - t + w / 2.0) ** 2 / (2.0 * w)
    knee_at_hi = (1.0 / r - 1.0) * (hi - t + w / 2.0) ** 2 / (2.0 * w)
    above_at_hi = (t + (hi - t) / r) - hi
    cont = max(
        abs(float(drc_static_gain(lo)) - knee_at_lo),
        abs(knee_at_lo - 0.0),
        abs(float(drc_static_gain(hi)) - above_at_hi),
        abs(knee_at_hi - above_at_hi),
    )
    report(
        7,
        static_ok and tc_ok and cont <= 1e-9,
        f"static points within 0.01 dB; attack 63.2% crossing at frame {crossing} "
        f"(predicted {predicted:.1f} +/-1); knee-edge jump {cont:.1e} dB (<=1e-9)",
    )


def test_criterion_08_causal_kernels(toy_cfg, toy_store):
    rng = np.random.default_rng(8)
    cut = 6

    def exact_prefix(full, perturbed):
        return np.array_equal(full[: cut + 1], perturbed[: cut + 1])

    # 2-D convolution over [C, T, F] maps as conv_in runs it: Kt-1 history
    # frames (zeros at the start) ahead of the input, no time padding
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = np.zeros(4, np.float32)
    x = rng.standard_normal((3, 12, 9)).astype(np.float32)
    xp = x.copy()
    xp[:, cut + 1 :] = rng.standard_normal(xp[:, cut + 1 :].shape)
    history = np.zeros((3, w.shape[2] - 1, 9), np.float32)

    def conv_in(a):
        return conv2d(np.concatenate([history, a], axis=1), w, b)

    conv_ok = exact_prefix(conv_in(x).transpose(1, 0, 2), conv_in(xp).transpose(1, 0, 2))

    # forward LSTM over an [L, C] sequence, run as a batch of one
    wl = rng.standard_normal((16, 3)).astype(np.float32)
    rl = rng.standard_normal((16, 4)).astype(np.float32)
    bl = np.zeros(16, np.float32)
    s = rng.standard_normal((12, 3)).astype(np.float32)
    sp = s.copy()
    sp[cut + 1 :] = rng.standard_normal(sp[cut + 1 :].shape)
    lstm_ok = exact_prefix(
        lstm_forward(s[None], wl, rl, bl)[0], lstm_forward(sp[None], wl, rl, bl)[0]
    )

    # masked attention
    q = rng.standard_normal((12, 5)).astype(np.float32)
    qp = q.copy()
    qp[cut + 1 :] = rng.standard_normal(qp[cut + 1 :].shape)
    attn_ok = exact_prefix(
        masked_attention(q, q, q), masked_attention(qp, qp, qp)
    )

    # sub-band temporal module and full model, via the assembled network
    tx = rng.standard_normal((toy_cfg.model.d, 12, 257)).astype(np.float32)
    txp = tx.copy()
    txp[:, cut + 1 :] = rng.standard_normal(txp[:, cut + 1 :].shape)
    emb = rng.standard_normal(128).astype(np.float32)
    model = MisoGridNet(toy_cfg.model, [("dnn1", 0)], toy_store, emb)

    def temporal(a):
        block = model._zero_block(a.shape[2])
        return gridnet._temporal(a[None], model.blocks[0], block, model.config)[0]

    temporal_ok = np.array_equal(temporal(tx)[:, : cut + 1], temporal(txp)[:, : cut + 1])

    frames = rng.standard_normal((12, 257, 2)) + 1j * rng.standard_normal((12, 257, 2))
    framesp = frames.copy()
    framesp[cut + 1 :] = rng.standard_normal(framesp[cut + 1 :].shape)
    model_ok = exact_prefix(model.forward(frames, [None])[0], model.forward(framesp, [None])[0])

    # FiLM identity: zeroed projections with unit gamma make the output
    # independent of the embedding, bit for bit: a model built for emb and
    # one built for -emb agree
    neutered = init_pipeline_weights(toy_cfg, seed=0)
    for name in list(neutered.keys()):
        if ".film.w_gamma" in name or ".film.w_beta" in name:
            neutered[name] = np.zeros_like(neutered[name])
    film_ok = np.array_equal(
        MisoGridNet(toy_cfg.model, [("dnn1", 0)], neutered, emb).forward(frames, [None])[0],
        MisoGridNet(toy_cfg.model, [("dnn1", 0)], neutered, -emb).forward(frames, [None])[0],
    )
    report(
        8,
        conv_ok and lstm_ok and attn_ok and temporal_ok and model_ok and film_ok,
        "future-perturbation exact for conv/LSTM/attention/temporal/full model; "
        "FiLM identity bit-exact",
    )


def test_criterion_09_streaming_equivalence(toy_cfg, toy_store):
    rng = np.random.default_rng(9)
    emb = rng.standard_normal(128).astype(np.float32)
    model = MisoGridNet(toy_cfg.model, [("dnn1", 0)], toy_store, emb)
    frames = rng.standard_normal((24, 257, 2)) + 1j * rng.standard_normal((24, 257, 2))
    full = model.forward(frames, [None])[0]
    stream = GridNetStream(model)
    inc = np.stack([stream.step(frames[t]) for t in range(24)])
    scale = float(np.max(np.abs(full)))
    model_err = float(np.max(np.abs(inc - full))) / scale

    emb2 = np.random.default_rng(2).standard_normal(128).astype(np.float32)
    scene = simulate_scene(SceneSpec(seed=0, channels=2, duration_s=0.2))
    x = scene.mixture
    one_call = StreamingEnhancer(toy_cfg, toy_store, emb2).process(x)
    engine = StreamingEnhancer(toy_cfg, toy_store, emb2)
    blocks = [engine.process(x[i : i + 128]) for i in range(0, len(x), 128)]
    blocked = np.concatenate(blocks)
    out_scale = max(float(np.max(np.abs(one_call))), 1e-12)
    block_err = float(np.max(np.abs(blocked - one_call))) / out_scale
    report(
        9,
        model_err <= 1e-5 and block_err <= 1e-6,
        f"model incremental vs full-sequence rel err {model_err:.2e} (<=1e-5); "
        f"pipeline block-size invariance rel err {block_err:.2e} (<=1e-6)",
    )


def test_criterion_10_parameter_scale_reported():
    dnn = sum(np.prod(s.shape) for s in weight_schema(GridNetConfig.full_scale()))
    spk = sum(np.prod(s.shape) for s in embed_weight_schema(EmbedConfig()))
    dnn_ok = abs(dnn - 8_000_000) <= 0.25 * 8_000_000
    spk_ok = abs(spk - 600_000) <= 0.25 * 600_000
    print(
        f"[criterion 10] REPORTED (not gating): full-scale DNN {dnn:,} params "
        f"({'within' if dnn_ok else 'OUTSIDE'} 25% of 8M); embedder {spk:,} "
        f"({'within' if spk_ok else 'OUTSIDE'} 25% of 0.6M)"
    )
