"""Frame-online target-speaker enhancement pipeline.

Cascade per 128-sample hop: STFT analysis, first-stage neural estimate,
recursive multichannel Wiener filter, second-stage neural refinement,
energy rescaling, optional hearing-aid fitting, overlap-add synthesis.

Timing model. Both neural stages predict ``stft.lookahead`` frames ahead,
``win // hop - 1`` (3 by default): after consuming mixture frame k a stage
emits its estimate of target frame k+3, which is overlap-added at that
frame's own position. The synthesis timeline therefore carries target
content shifted by the analysis/synthesis chain offset of ``win - hop``
(384) samples, and dropping exactly that head leaves output sample n
holding the target estimate for time n. The cascade
is primed on ``lookahead`` zero frames: their estimates are the first ones
due, and their output falls entirely inside the dropped head. Net effect:
one output hop per input hop, and output hop k is available as soon as
input hop k has arrived, so output sample t depends only on input samples
earlier than t + 128 (4 ms at 32 kHz). Static filters further down the
fitting path add group delay but never shift frame timing.

The cascade is written once, in ``_Cascade``, which runs any number of
frames per call and carries every state between calls. The streaming
engine primes it in one run over the zero frames, then runs it on one frame
per hop; :func:`enhance_offline` is the same code in one run over the zero
frames and the whole utterance, so each network makes one whole-sequence
forward. That is what the latency
checker probes: a hidden dependence on future frames cannot hide there,
while a streaming wrapper is causal by construction.

Independence within a hop. Each second-stage pass reads the estimates the
network before it made for the run's frames, and those left that network
``lookahead`` frames earlier. In a run of T <= ``lookahead`` frames (every
stream hop, and the priming) they therefore all came out of earlier runs,
so no network reads another's output of the same run: the networks of a
hop are independent, and ``_Cascade`` runs them in lockstep, two per
stacked forward. A longer run needs each network's fresh output and runs
them one at a time, in order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .beamform import ALPHA, LOADING, CovarianceState
from .dsp import StftConfig, StreamingAnalyzer, StreamingSynthesizer
from .embedder import EmbedConfig, embed_weight_schema
from .fitting import ListenerFitting
from .gridnet import GridNetConfig, MisoGridNet, weight_schema
from .weights import WeightStore, seeded_init

SECOND_STAGE_EXTRAS = 4  # RI planes of first-stage estimate + beamformer output
MAX_ITERATIONS = 4  # the most Wiener-filter + second-stage passes a config may ask for
RESCALE_EPS = 1e-8  # floor of the rescale gain's denominator


@dataclass(frozen=True)
class PipelineConfig:
    """Engine wiring: model geometry, STFT, Wiener-filter settings.

    ``iterations`` counts Wiener-filter + second-stage passes, an int from 1
    to ``MAX_ITERATIONS``; each extra pass re-estimates the spatial filter
    from the previous refinement. The cap bounds what an engine holds and
    does per hop: each pass adds a second-stage forward per hop, plus its
    own GridNet state and Wiener-filter statistics. ``alpha`` and
    ``loading`` are the filter's forgetting factor and diagonal loading;
    ``CovarianceState`` checks their type and range when the engine is
    built. The output is referenced to channel 0, the reference microphone.
    """

    model: GridNetConfig = GridNetConfig()
    stft: StftConfig = StftConfig()
    iterations: int = 1
    alpha: float = ALPHA
    loading: float = LOADING

    def __post_init__(self) -> None:
        its = self.iterations
        is_int = isinstance(its, numbers.Integral) and not isinstance(its, bool)
        if not is_int or not 1 <= its <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be an int from 1 to {MAX_ITERATIONS}, got {its!r}")
        if self.model.n_freq != self.stft.bins:
            raise ValueError(
                f"model n_freq {self.model.n_freq} != STFT bins {self.stft.bins}"
            )

    def second_stage(self) -> GridNetConfig:
        return replace(self.model, extra_inputs=SECOND_STAGE_EXTRAS)


def init_pipeline_weights(config: PipelineConfig, seed: int) -> WeightStore:
    """Seeded store holding both stages and the speaker embedder."""
    specs = (
        weight_schema(config.model, "dnn1")
        + weight_schema(config.second_stage(), "dnn2")
        + embed_weight_schema(EmbedConfig(n_freq=config.stft.bins))
    )
    return seeded_init(specs, seed)


class RescaleState:
    """Running projection of the refined estimate onto the beamformer output.

    Accumulates num = sum Re(z * conj(s)) and den = sum |s|^2 over all frames
    and bins seen so far; the gain max(num, 0) / max(den, RESCALE_EPS)
    restores the spatial filter's energy scale to the network output without
    ever boosting silence (zero mixture keeps num at zero, so the gain stays
    zero).
    """

    def __init__(self) -> None:
        self.num = 0.0
        self.den = 0.0

    def update(self, bf_frame: np.ndarray, est_frame: np.ndarray) -> float:
        bf_frame = np.asarray(bf_frame)
        est_frame = np.asarray(est_frame)
        if bf_frame.shape != est_frame.shape:
            raise ValueError(
                f"frame shapes disagree: {bf_frame.shape} vs {est_frame.shape}"
            )
        self.num += float(np.real(np.vdot(est_frame, bf_frame)))
        self.den += float(np.real(np.vdot(est_frame, est_frame)))
        return self.gain

    @property
    def gain(self) -> float:
        return max(self.num, 0.0) / max(self.den, RESCALE_EPS)


def beamform_frames(
    frames: np.ndarray,
    estimates: np.ndarray,
    *,
    alpha: float = ALPHA,
    loading: float = LOADING,
) -> np.ndarray:
    """Run the recursive Wiener filter over aligned frame sequences.

    frames[T, F, C] is the mixture STFT, estimates[T, F] the target estimate
    for the same frame indices. Statistics update before each apply, so frame
    k's output already reflects frame k.
    """
    frames = np.asarray(frames)
    estimates = np.asarray(estimates)
    if frames.ndim != 3 or estimates.shape != frames.shape[:2]:
        raise ValueError(
            f"expected frames[T, F, C] with estimates[T, F], got {frames.shape} / {estimates.shape}"
        )
    t_len, bins, channels = frames.shape
    cov = CovarianceState(bins, channels, alpha=alpha, loading=loading)
    out = np.empty((t_len, bins), dtype=np.complex128)
    for k in range(t_len):
        out[k] = cov.step(frames[k], estimates[k])
    return out


class _Cascade:
    """The enhancement cascade over frames, continuing one carried state.

    The carried state is each lockstep stack's GridNet state, each
    network's ledger of the ``lookahead`` estimates it has emitted that are
    not yet due (zero frames at the start), each iteration's Wiener-filter
    statistics, the rescale sums, the fitting chain and the synthesis
    overlap. Successive runs of at most ``lookahead`` frames equal one run
    over their frames up to float32 accumulation order inside the networks.

    Network i > 0 reads network i-1's estimates due at the run's frames.
    In a run of T <= ``lookahead`` frames the ledgers hold all of them
    before any network runs, so the networks are independent: such a run
    takes every due estimate from its ledger, steps each Wiener filter and
    runs the networks in lockstep, two per stacked forward, each stack on
    its own state. A longer run needs each network's fresh output and runs
    them one per stack, in order; that is the offline form, which sets
    ``states`` to None so each stack of one starts from zero state and
    keeps none. Two is the most a stack takes: at full scale the
    recurrence blocks of four LSTM directions fit a 2 MB L2 cache, those of
    eight do not.
    """

    STACK = 2  # networks per stacked forward in a lockstep run

    def __init__(
        self,
        config: PipelineConfig,
        store: WeightStore,
        embedding: np.ndarray,
        fitting: ListenerFitting | None,
    ) -> None:
        stft = config.stft
        if fitting is not None and fitting.stft != stft:
            raise ValueError(
                f"fitting was built for {fitting.stft}, the pipeline runs {stft}"
            )
        self.lookahead = stft.lookahead
        self.covs = [
            CovarianceState(
                stft.bins, config.model.channels, alpha=config.alpha, loading=config.loading
            )
            for _ in range(config.iterations)
        ]
        first = MisoGridNet(config.model, store, embedding, "dnn1")
        second = MisoGridNet(config.second_stage(), store, embedding, "dnn2")
        self.nets = [first] + [second] * config.iterations
        self.ledgers = [
            np.zeros((stft.lookahead, stft.bins), dtype=np.complex64) for _ in self.nets
        ]
        # (stacked model, the indices of its networks) by stack size, in order
        n = len(self.nets)
        self.stacks = {
            size: [
                (MisoGridNet.stack(self.nets[lo : lo + size]), range(lo, min(lo + size, n)))
                for lo in range(0, n, size)
            ]
            for size in (1, self.STACK)
        }
        self.states = [model.zero_state() for model, _ in self.stacks[self.STACK]]
        self.rescale = RescaleState()
        self.fitting = fitting
        self.synth = StreamingSynthesizer(stft)

    def run(self, frames: np.ndarray) -> tuple[np.ndarray, dict]:
        """frames[T, F, C] -> (T hops of output samples, taps aligned with frames).

        Output hop j overlap-adds, at position j, the rescaled refinement of
        frame j + ``lookahead`` that the networks predicted from frame j.
        """
        t_len = len(frames)
        lockstep = t_len <= self.lookahead
        # due[i]: network i's estimates due at these frames; in lockstep all
        # of them are in the ledgers already
        due = [ledger[:t_len] if lockstep else None for ledger in self.ledgers]
        stacks = self.stacks[self.STACK if lockstep else 1]
        if self.states is None:  # the offline form: every stack from zero state
            states = [None] * len(stacks)
        elif lockstep:
            states = self.states
        else:
            raise ValueError(f"a run of {t_len} frames cannot continue the lockstep state")
        for (model, members), state in zip(stacks, states):
            extras = []
            for i in members:
                if i:  # pass i filters with the previous network's estimates
                    cov, prev = self.covs[i - 1], due[i - 1]
                    beamformed = np.stack([cov.step(y, s) for y, s in zip(frames, prev)])
                    extras.append(np.stack([prev, beamformed], axis=-1))
                else:
                    extras.append(None)
            fresh = model.forward(frames, extras, state)
            for i, est in zip(members, fresh):
                due[i], self.ledgers[i] = np.split(np.concatenate([self.ledgers[i], est]), [t_len])
        gains = [self.rescale.update(z, s) for z, s in zip(beamformed, due[-1])]
        hops = []
        for gain, est in zip(gains, fresh[-1]):
            out = gain * est  # a Python float keeps the complex64 estimate complex64
            if self.fitting is not None:
                out = self.fitting.step(out)
            hops.append(self.synth.push(out))
        taps = {"est1": due[0], "mcwf": beamformed, "est2": due[-1], "gain": np.array(gains)}
        return np.concatenate(hops), taps


def _checked_audio(x: np.ndarray, config: PipelineConfig) -> np.ndarray:
    """Input audio as float64 [samples, channels]; a wrong shape, or a sample
    that is non-finite or beyond float32 max / ``stft.win`` in magnitude,
    raises ValueError.

    Under that bound no analysis frame can overflow float32 on its way into
    the networks: a bin sums at most ``win`` samples, each weighted by a
    sqrt-Hann value of at most 1.
    """
    channels = config.model.channels
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[1] != channels:
        raise ValueError(f"expected [samples, {channels} channels] audio, got {x.shape}")
    limit = float(np.finfo(np.float32).max) / config.stft.win
    if not np.all(np.abs(x) <= limit):  # NaN fails the comparison too
        raise ValueError(
            f"audio contains non-finite samples or samples beyond +/-{limit:.3g}"
        )
    return x


def _padded_signal(signal: np.ndarray, config: PipelineConfig) -> tuple[np.ndarray, int]:
    """A checked whole recording zero-padded to a hop multiple, and its length."""
    x = _checked_audio(signal, config)
    n = x.shape[0]
    if n == 0:
        raise ValueError("signal is empty")
    pad = (-n) % config.stft.hop
    return np.concatenate([x, np.zeros((pad, x.shape[1]))]), n


class StreamingEnhancer:
    """Block-in, block-out enhancement engine.

    Accepts arbitrary block sizes; every completed 128-sample hop yields 128
    output samples, so the cut points never change the result. A block with
    a wrong shape, or a sample that is non-finite or out of range (see
    ``_checked_audio``), raises ValueError and leaves the engine as it was.
    A supplied ``fitting`` chain must be built for ``config.stft``; it is
    stateful and owned by this engine afterwards.
    """

    def __init__(
        self,
        config: PipelineConfig,
        store: WeightStore,
        embedding: np.ndarray,
        *,
        fitting: ListenerFitting | None = None,
    ) -> None:
        self.config = config
        stft = config.stft
        channels = config.model.channels
        self.cascade = _Cascade(config, store, embedding, fitting)
        self.analyzer = StreamingAnalyzer(stft, channels)
        self._buffer = np.zeros((0, channels))
        # Prime on zero frames so an estimate of frame k is in hand when
        # mixture frame k arrives; their output is the dropped chain-offset
        # head. The ``lookahead`` frames are one lockstep run.
        self.cascade.run(np.zeros((stft.lookahead, stft.bins, channels), dtype=np.complex128))

    def process(self, block: np.ndarray) -> np.ndarray:
        """Consume samples; returns 128 output samples per completed hop."""
        block = _checked_audio(block, self.config)
        self._buffer = np.concatenate([self._buffer, block])
        hop = self.config.stft.hop
        emitted = []
        while self._buffer.shape[0] >= hop:
            frame = self.analyzer.push(self._buffer[:hop])
            self._buffer = self._buffer[hop:]
            emitted.append(self.cascade.run(frame[None])[0])
        if not emitted:
            return np.zeros(0)
        return np.concatenate(emitted)


def enhance_signal(
    signal: np.ndarray,
    config: PipelineConfig,
    store: WeightStore,
    embedding: np.ndarray,
    *,
    fitting: ListenerFitting | None = None,
) -> np.ndarray:
    """Enhance a whole recording through the streaming engine.

    Zero-pads to a hop multiple internally; the mono output has exactly the
    input's length and sample n estimates the target at time n.
    """
    x, n = _padded_signal(signal, config)
    engine = StreamingEnhancer(config, store, embedding, fitting=fitting)
    return engine.process(x)[:n]


def enhance_offline(
    signal: np.ndarray,
    config: PipelineConfig,
    store: WeightStore,
    embedding: np.ndarray,
    *,
    fitting: ListenerFitting | None = None,
    collect: bool = False,
):
    """Whole-utterance form: the stream's cascade in one run over all frames.

    The run covers ``lookahead`` zero frames (the stream's priming) and then
    every hop-synchronous frame, so each network makes one whole-sequence
    forward, and dropping the chain offset leaves output sample n estimating
    the target at time n. No state is carried past the run, so each forward
    starts from its own zero state, and that state, attention cache
    included, is freed before the next network runs. With ``collect`` the
    return value is ``(output, taps)`` where taps holds the per-stage frame
    sequences aligned with the mixture ``frames``: ``est1``, ``mcwf``,
    ``est2`` and ``gain``.
    """
    cascade = _Cascade(config, store, embedding, fitting)
    cascade.states = None  # forward each stack of one from zero state, keeping none
    x, n = _padded_signal(signal, config)
    stft = config.stft
    frames = StreamingAnalyzer(stft, x.shape[1]).analyze(x)  # [T, F, C]
    lead_in = np.zeros((stft.lookahead,) + frames.shape[1:], dtype=frames.dtype)
    y, taps = cascade.run(np.concatenate([lead_in, frames]))
    out = y[stft.warmup :][:n]
    if not collect:
        return out
    taps = {k: v[stft.lookahead :] for k, v in taps.items()}
    return out, {"frames": frames, **taps}
