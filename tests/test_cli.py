"""CLI surface: subcommand wiring, file round-trips, exit codes."""

import argparse
import json
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from hearstream import cli
from hearstream.cli import main
from hearstream.pipeline import MAX_ITERATIONS
from hearstream.scenes import SceneSpec, simulate_scene
from hearstream.wavio import read_wav, write_wav


@pytest.fixture(scope="module")
def weights_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("w") / "toy.inxw")
    assert main(["init-weights", "--seed", "0", "--output", path]) == 0
    return path


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("scene"))
    code = main(
        [
            "simulate",
            "--seed",
            "3",
            "--snr",
            "0",
            "--channels",
            "2",
            "--duration",
            "0.4",
            "--out-dir",
            out,
        ]
    )
    assert code == 0
    return out


class TestInitWeights:
    def test_writes_loadable_container(self, weights_path):
        from hearstream.weights import WeightStore

        store = WeightStore.load(weights_path)
        assert "dnn1.conv_in.w" in store
        assert "dnn2.conv_in.w" in store
        assert "spk.enc.conv0.w" in store


class TestSimulate:
    def test_writes_three_wavs(self, scene_dir):
        mix = read_wav(f"{scene_dir}/mixture.wav")
        ref = read_wav(f"{scene_dir}/target_ref.wav")
        ane = read_wav(f"{scene_dir}/anechoic_target.wav")
        assert mix.shape == (12800, 2)
        assert ref.shape == ane.shape == (12800, 1)
        assert float(np.max(np.abs(mix))) <= 1.0

    def test_deterministic(self, scene_dir, tmp_path):
        out = str(tmp_path / "again")
        main(
            ["simulate", "--seed", "3", "--snr", "0", "--channels", "2",
             "--duration", "0.4", "--out-dir", out]
        )
        assert np.array_equal(
            read_wav(f"{out}/mixture.wav"), read_wav(f"{scene_dir}/mixture.wav")
        )

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_undefined_snr_fails(self, tmp_path, capsys, snr):
        # "--snr=-inf": a separate "-inf" argument would parse as an option
        code = main(["simulate", "--seed", "3", f"--snr={snr}", "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err and "snr_db" in err
        assert not list(tmp_path.iterdir())


class TestEvaluate:
    def test_est_equals_ref_hits_cap(self, tmp_path, capsys):
        scene = simulate_scene(SceneSpec(seed=1, channels=2, duration_s=0.2))
        ref = str(tmp_path / "ref.wav")
        mix = str(tmp_path / "mix.wav")
        write_wav(ref, scene.target_ref * 0.1)
        write_wav(mix, scene.mixture * 0.1)
        assert main(["evaluate", "--est", ref, "--ref", ref, "--mix", mix]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert report["si_sdr"] == 60.0
        assert math.isfinite(report["si_sdri"])
        assert report["multires_loss"] <= 1e-6

    def test_missing_file_single_line_error(self, tmp_path, capsys):
        ref = str(tmp_path / "r.wav")
        write_wav(ref, np.zeros(256) + 0.1)
        code = main(["evaluate", "--est", "/nonexistent.wav", "--ref", ref, "--mix", ref])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err


class TestEmbedAndEnhance:
    def test_embed_writes_cache(self, weights_path, scene_dir, tmp_path, capsys):
        emb_path = str(tmp_path / "emb.inxw")
        code = main(
            ["embed", "--input", f"{scene_dir}/anechoic_target.wav",
             "--weights", weights_path, "--output", emb_path]
        )
        assert code == 0
        from hearstream.embedder import load_embedding

        emb = load_embedding(emb_path)
        assert emb.shape == (128,)
        assert np.all(np.isfinite(emb))

    def test_enhance_with_enroll_writes_finite_bounded_output(
        self, weights_path, scene_dir, tmp_path
    ):
        out_path = str(tmp_path / "out.wav")
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav",
             "--weights", weights_path,
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--output", out_path]
        )
        assert code == 0
        out = read_wav(out_path)
        mix = read_wav(f"{scene_dir}/mixture.wav")
        assert out.shape == (mix.shape[0], 1)
        assert np.all(np.isfinite(out))
        assert float(np.max(np.abs(out))) <= 4.0 * float(np.max(np.abs(mix)))

    def test_enhance_with_cached_embedding_and_listener(
        self, weights_path, scene_dir, tmp_path
    ):
        emb_path = str(tmp_path / "emb.inxw")
        main(
            ["embed", "--input", f"{scene_dir}/anechoic_target.wav",
             "--weights", weights_path, "--output", emb_path]
        )
        listener = tmp_path / "listener.json"
        listener.write_text(
            json.dumps(
                {
                    "audiogram_cfs": [250, 500, 1000, 2000, 4000, 8000],
                    "audiogram_levels_l": [30, 35, 40, 45, 50, 55],
                    "audiogram_levels_r": [25, 30, 35, 40, 45, 50],
                }
            )
        )
        out_path = str(tmp_path / "fitted.wav")
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav",
             "--weights", weights_path, "--embedding", emb_path,
             "--listener", str(listener), "--ear", "right",
             "--output", out_path]
        )
        assert code == 0
        assert np.all(np.isfinite(read_wav(out_path)))

    @pytest.mark.parametrize(
        "text", ['{"audiogram_cfs": 5}', "null", '{"audiogram_cfs": [250'], ids=str
    )
    def test_malformed_listener_fails_cleanly(
        self, weights_path, scene_dir, tmp_path, capsys, text
    ):
        listener = tmp_path / "listener.json"
        listener.write_text(text)
        out_path = tmp_path / "o.wav"
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav", "--weights", weights_path,
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--listener", str(listener), "--output", str(out_path)]
        )
        assert code == 2 and not out_path.exists()
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err and "listener.json" in err

    def test_enhance_channel_mismatch_fails(self, weights_path, tmp_path, capsys):
        mono = str(tmp_path / "mono.wav")
        write_wav(mono, np.zeros(4000) + 0.01)
        code = main(
            ["enhance", "--input", mono, "--weights", weights_path,
             "--enroll", mono, "--output", str(tmp_path / "o.wav")]
        )
        assert code == 2
        assert "channels" in capsys.readouterr().err

    def test_enroll_for_another_embedding_size_fails(self, scene_dir, tmp_path, capsys):
        # networks whose FiLM layers read 64-wide embeddings: no enrolled
        # 128-wide one fits them
        from hearstream.pipeline import PipelineConfig, init_pipeline_weights

        path = str(tmp_path / "emb64.inxw")
        store = init_pipeline_weights(PipelineConfig(), seed=0)
        for name in list(store.keys()):
            if name.startswith("dnn") and ".film.w_" in name:
                store[name] = np.zeros((store[name].shape[0], 64), np.float32)
        store.save(path)
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav", "--weights", path,
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--output", str(tmp_path / "o.wav")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err and "FiLM width 64" in err

    def test_enroll_and_embedding_mutually_exclusive(self, weights_path, tmp_path, capsys):
        wav = str(tmp_path / "w.wav")
        write_wav(wav, np.zeros((4000, 2)) + 0.01)
        with pytest.raises(SystemExit) as exc:
            main(
                ["enhance", "--input", wav, "--weights", weights_path,
                 "--enroll", wav, "--embedding", wav,
                 "--output", str(tmp_path / "o.wav")]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err

    def test_config_file_overrides(self, weights_path, scene_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.6}))
        out_path = str(tmp_path / "out.wav")
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav",
             "--weights", weights_path,
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--config", str(cfg), "--output", out_path]
        )
        assert code == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alpha": 0.6, "bogus": 1}))
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav",
             "--weights", weights_path,
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--config", str(bad), "--output", out_path]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text",
        [
            '{"alpha": NaN}',
            '{"alpha": Infinity}',
            '{"alpha": -Infinity}',
            '{"alpha": "0.5"}',
            '{"alpha": true}',
            '{"loading": NaN}',
            '{"loading": Infinity}',
            '{"loading": "1e-4"}',
            '{"loading": false}',
            '{"iterations": 1.5}',
            '{"iterations": true}',
            '{"iterations": "2"}',
            '{"iterations": NaN}',
            f'{{"iterations": {MAX_ITERATIONS + 1}}}',
        ],
    )
    def test_bad_config_value_fails_cleanly(self, weights_path, scene_dir, tmp_path, capsys, text):
        # Python's json reads NaN and Infinity, so they reach the engine
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out_path = tmp_path / "out.wav"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["enhance", "--input", f"{scene_dir}/mixture.wav",
                 "--weights", weights_path,
                 "--enroll", f"{scene_dir}/anechoic_target.wav",
                 "--config", str(cfg), "--output", str(out_path)]
            )
        assert code == 2 and caught == [] and not out_path.exists()
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert next(iter(json.loads(text))) in err

    @pytest.mark.parametrize("dims", [[2**36], [2**62, 4], [2**64 - 1]], ids=str)
    def test_weight_header_beyond_file_fails_cleanly(self, scene_dir, tmp_path, capsys, dims):
        # sizes no file holds: a 256 GB read, an int64 product that wraps to
        # 0, and a length beyond a signed read
        name = b"dnn1.conv_in.w"
        path = tmp_path / "bad.inxw"
        path.write_bytes(
            b"INXW" + struct.pack("<III", 1, 1, len(name)) + name
            + struct.pack(f"<BI{len(dims)}Q", 0, len(dims), *dims) + b"\0" * 16
        )
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav", "--weights", str(path),
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--output", str(tmp_path / "o.wav")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert "bad.inxw" in err and "'dnn1.conv_in.w'" in err

    @pytest.mark.parametrize(
        "pattern, axis, message",
        [
            (r"\.attn\.head\d+\.[qk]\.", 0, "qk_channels must be >= 1"),
            (r"\.film\.w_", 1, "FiLM width 0, not the embedding's 128"),
        ],
        ids=["qk_channels", "emb_dim"],
    )
    def test_weights_with_an_empty_width_fail_cleanly(
        self, weights_path, scene_dir, tmp_path, capsys, pattern, axis, message
    ):
        # such a file once built an engine that died on an mmap of 0 bytes
        # with a bare OSError
        from hearstream.weights import WeightStore

        store = WeightStore.load(weights_path)
        for name in store.keys():
            if name.startswith("dnn") and re.search(pattern, name):
                shape = list(store[name].shape)
                shape[axis] = 0
                store[name] = np.zeros(shape, np.float32)
        path = str(tmp_path / "empty.inxw")
        store.save(path)
        code = main(
            ["enhance", "--input", f"{scene_dir}/mixture.wav", "--weights", path,
             "--enroll", f"{scene_dir}/anechoic_target.wav",
             "--output", str(tmp_path / "o.wav")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err and message in err


class TestCheckLatency:
    def test_default_budget_exits_zero(self, weights_path, capsys):
        code = main(["check-latency", "--weights", weights_path, "--trials", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS 3/3" in out

    def test_zero_budget_fails(self, weights_path, capsys):
        code = main(
            ["check-latency", "--weights", weights_path, "--trials", "2",
             "--budget-samples", "0"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nondeterministic_pipeline_fails(self, weights_path, capsys, monkeypatch):
        enhance = cli.enhance_offline
        rng = np.random.default_rng(6)

        def noisy(*args, **kwargs):
            out = enhance(*args, **kwargs)
            return out + rng.standard_normal(out.shape) * 1e-3

        monkeypatch.setattr(cli, "enhance_offline", noisy)
        code = main(["check-latency", "--weights", weights_path, "--trials", "1"])
        assert code == 1
        assert "not deterministic" in capsys.readouterr().err

    def test_missing_weights_file(self, capsys):
        code = main(["check-latency", "--weights", "/no/such.inxw"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


def _readme_flags() -> dict[str, set[str]]:
    """The flags README.md lists per subcommand under "Subcommands and their
    main flags"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Subcommands and their main flags:", 1)[1].split("\n\n", 2)[1]
    flags = {}
    for item in re.split(r"^- ", section, flags=re.M)[1:]:
        name = re.match(r"`([a-z-]+)", item).group(1)
        flags[name] = set(re.findall(r"--[a-z-]+", item))
    return flags


def test_readme_lists_every_flag():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    expected = {
        name: {o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, sub in commands.choices.items()
    }
    assert _readme_flags() == expected
