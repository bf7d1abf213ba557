import json
from dataclasses import fields

import numpy as np
import pytest

from vora import checkpoint, cli, config, data, trainer
from vora.model import ModelConfig


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults_fill_in(self, tmp_path):
        cfg = config.parse_file(write(tmp_path, "seed=3\n"))
        assert cfg["seed"] == 3
        assert cfg["lr"] == 2e-4
        assert cfg["warmup_steps"] == 100
        assert cfg["mask_mode"] == "hybrid"

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = config.parse_file(write(tmp_path, "# comment\n\nseed=1  # inline\nlr=0.001\n"))
        assert cfg["seed"] == 1 and cfg["lr"] == 0.001

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(config.ConfigFileError, match="learning_rate"):
            config.parse_file(write(tmp_path, "seed=0\nlearning_rate=1\n"))

    def test_missing_seed_named(self, tmp_path):
        with pytest.raises(config.ConfigFileError, match="seed"):
            config.parse_file(write(tmp_path, "lr=0.001\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(config.ConfigFileError, match="duplicate"):
            config.parse_file(write(tmp_path, "seed=0\nseed=1\n"))

    @pytest.mark.parametrize("lines", [
        "warmup_steps=400\ntotal_steps=500",
        "d_model=8\nn_heads=2\nd_ff=8\nrank=2",
    ])
    def test_unused_ablation_keys_not_checked(self, tmp_path, lines):
        # the default ablate_steps and ablate_ranks do not fit these runs,
        # but only `vora ablate` uses them
        config.parse_file(write(tmp_path, f"seed=0\n{lines}\n"))

    def test_bad_value_reports_line(self, tmp_path):
        with pytest.raises(config.ConfigFileError, match=":2:"):
            config.parse_file(write(tmp_path, "seed=0\nlr=fast\n"))

    def test_missing_value(self, tmp_path):
        with pytest.raises(config.ConfigFileError, match="missing value"):
            config.parse_file(write(tmp_path, "seed=\n"))

    def test_list_values(self, tmp_path):
        cfg = config.parse_file(write(tmp_path, "seed=0\nthresholds=3.0,2.5\nablate_ranks=4,8\n"))
        assert cfg["thresholds"] == (3.0, 2.5)
        assert cfg["ablate_ranks"] == (4, 8)

    def test_normalize_roundtrip_identical(self, tmp_path):
        cfg = config.parse_file(write(tmp_path, "seed=7\nlr=0.0005\nanyres=true\n"))
        text = config.normalize(cfg)
        cfg2 = config.parse_text(text)
        assert cfg2.values == cfg.values
        assert config.normalize(cfg2) == text  # normalization is idempotent

    def test_every_config_field_has_a_schema_default(self):
        # resolution is built from resolution_h and resolution_w; seed is required
        defaults = {key: default for key, (default, _, _) in config.SCHEMA.items()}
        defaults.update(resolution=(defaults["resolution_h"], defaults["resolution_w"]), seed=0)
        for cls in (ModelConfig, trainer.TrainConfig, data.DataConfig):  # patch feeds two of them
            for f in fields(cls):
                assert f.name in defaults, (cls.__name__, f.name)
                assert f.default == defaults[f.name], (cls.__name__, f.name)


BASE_CFG = "seed=0\ntotal_steps=4\nwarmup_steps=1\nbatch_size=2\n"


class TestCli:
    def test_pretrain_writes_artifacts_and_is_deterministic(self, tmp_path):
        cfg_path = write(tmp_path, BASE_CFG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["pretrain", cfg_path, str(out1)]) == 0
        assert cli.main(["pretrain", cfg_path, str(out2)]) == 0
        assert (out1 / "checkpoint.vora").read_bytes() == (out2 / "checkpoint.vora").read_bytes()
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        # config snapshots differ at most in the single timestamp line
        a = (out1 / "config.resolved").read_text().splitlines()
        b = (out2 / "config.resolved").read_text().splitlines()
        assert a[1:] == b[1:]
        assert a[0].startswith("# written:")

    def test_total_steps_zero_writes_init_checkpoint(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\ntotal_steps=0\n")
        out = tmp_path / "out"
        assert cli.main(["pretrain", cfg_path, str(out)]) == 0
        assert (out / "checkpoint.vora").exists()
        assert (out / "metrics.jsonl").read_text() == ""

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\nnot_a_key=1\n")
        assert cli.main(["pretrain", cfg_path, str(tmp_path / "x")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        cfg_path = write(tmp_path, "total_steps=1\n")
        assert cli.main(["pretrain", cfg_path, str(tmp_path / "x")]) == 2

    def test_nan_abort_exits_3(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\nlr=1e30\nwarmup_steps=0\ntotal_steps=30\nbatch_size=2\n")
        with np.errstate(all="ignore"):
            assert cli.main(["pretrain", cfg_path, str(tmp_path / "x")]) == 3

    def test_merge_and_remerge_guard(self, tmp_path):
        cfg_path = write(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        assert cli.main(["pretrain", cfg_path, str(out)]) == 0
        merged = tmp_path / "merged.vora"
        assert cli.main(["merge", str(out / "checkpoint.vora"), str(merged)]) == 0
        _, tensors, meta = checkpoint.load(merged)
        assert meta["merged"] == "true"
        assert not any(n.startswith("lora.") for n in tensors)
        assert cli.main(["merge", str(merged), str(tmp_path / "m2.vora")]) == 4

    def test_zero_b_merge_byte_equal_base(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\ntotal_steps=0\n")
        out = tmp_path / "out"
        cli.main(["pretrain", cfg_path, str(out)])
        merged = tmp_path / "merged.vora"
        cli.main(["merge", str(out / "checkpoint.vora"), str(merged)])
        _, base_tensors, _ = checkpoint.load(out / "checkpoint.vora")
        _, merged_tensors, _ = checkpoint.load(merged)
        for name, arr in merged_tensors.items():
            if name.startswith("llm."):
                assert arr.tobytes() == base_tensors[name].tobytes(), name

    def test_eval_parity_across_merge(self, tmp_path, capsys):
        cfg_path = write(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        cli.main(["pretrain", cfg_path, str(out)])
        merged = tmp_path / "merged.vora"
        cli.main(["merge", str(out / "checkpoint.vora"), str(merged)])
        assert cli.main(["eval", str(out / "checkpoint.vora"), cfg_path]) == 0
        before = json.loads(capsys.readouterr().out)
        assert cli.main(["eval", str(merged), cfg_path]) == 0
        after = json.loads(capsys.readouterr().out)
        assert before["caption_token_accuracy"] == after["caption_token_accuracy"]
        assert abs(before["text_perplexity"] - after["text_perplexity"]) <= 1e-3 * before["text_perplexity"]
        assert "distill_alignment" in before and "distill_alignment" not in after

    def test_finetune_and_already_merged_exit_4(self, tmp_path):
        cfg_path = write(tmp_path, BASE_CFG)
        out = tmp_path / "out"
        cli.main(["pretrain", cfg_path, str(out)])
        ft_out = tmp_path / "ft"
        assert cli.main(["finetune", str(out / "checkpoint.vora"), cfg_path, str(ft_out)]) == 0
        _, tensors, meta = checkpoint.load(ft_out / "checkpoint.vora")
        assert meta["merged"] == "true"
        assert not any(n.startswith(("lora.", "aux.")) for n in tensors)
        for line in (ft_out / "metrics.jsonl").read_text().splitlines():
            assert "distill_loss" not in json.loads(line)
        # fine-tuning the merged output again is a state error
        assert cli.main(["finetune", str(ft_out / "checkpoint.vora"), cfg_path,
                         str(tmp_path / "ft2")]) == 4

    def test_ablate_single_cell_csv(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\nablate_masks=hybrid\nablate_distills=none\n"
                                   "ablate_ranks=8\nthresholds=9.0\nablate_steps=3\n"
                                   "warmup_steps=1\nbatch_size=2\n")
        out = tmp_path / "ab"
        assert cli.main(["ablate", cfg_path, str(out)]) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "mask_mode,distill_mode,rank,threshold,steps_to_threshold,final_loss"
        assert len(lines) == 2

    def test_ablate_on_finetune_config(self, tmp_path):
        # every ablation cell is a pretrain run, whatever the config's mode
        cfg_path = write(tmp_path, "seed=0\nmode=finetune\nablate_distills=none\nablate_steps=3\n"
                                   "warmup_steps=1\nbatch_size=2\n")
        assert cli.main(["ablate", cfg_path, str(tmp_path / "ab")]) == 0

    def test_ablate_last_block_cell(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\nablate_masks=hybrid\nablate_distills=last_block\n"
                                   "ablate_ranks=8\nthresholds=9.0\nablate_steps=3\n"
                                   "warmup_steps=1\nbatch_size=2\n")
        assert cli.main(["ablate", cfg_path, str(tmp_path / "ab")]) == 0

    @pytest.mark.parametrize("command, lines", [
        ("pretrain", "lr=0"), ("pretrain", "mode=bogus"), ("pretrain", "n_heads=5"),
        ("pretrain", "rank=100"), ("pretrain", "resolution_h=30"), ("pretrain", "image_fraction=1.5"),
        ("pretrain", "batch_size=0"), ("pretrain", "vocab=50\nimage_fraction=0"),
        ("eval", "eval_captions=0"), ("ablate", "ablate_distills=none,bogus\nablate_steps=3"),
        ("pretrain", "resolution_h=96\nresolution_w=96"), ("pretrain", "anyres=true\nanyres_max=96"),
        ("eval", "max_seq=33"), ("pretrain", "vit_heads=0"), ("pretrain", "vit_heads=-2"),
        ("ablate", "log_window=0\nablate_steps=3"), ("ablate", "log_window=-1\nablate_steps=3"),
        ("ablate", "ablate_steps=0"), ("pretrain", "seed=-1"), ("pretrain", "lr=nan"),
        ("pretrain", "lr=inf"), ("ablate", "thresholds=4.0,nan\nablate_steps=3"),
        ("pretrain", "weight_decay=-1"), ("pretrain", "teacher_warm_steps=-5"),
        ("pretrain", "anyres=true\nanyres_min=48\nanyres_max=16"),
        ("pretrain", "anyres=true\nanyres_min=20\nanyres_max=44"),
    ])
    def test_out_of_range_value_exits_2_before_work(self, tmp_path, command, lines):
        seed = "" if lines.startswith("seed=") else "seed=0\n"
        cfg_path = write(tmp_path, f"{seed}total_steps=2\nwarmup_steps=1\n{lines}\n")
        if command == "eval":
            ckpt = tmp_path / "init.vora"
            cfg = ModelConfig()
            checkpoint.save(ckpt, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)),
                            {"merged": "false"})
            args = [str(ckpt), cfg_path]
        else:
            args = [cfg_path, str(tmp_path / "out")]
        before = sorted(tmp_path.iterdir())
        assert cli.main([command, *args]) == cli.EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before

    def test_gradcheck_exits_zero(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "seed=0\n")
        assert cli.main(["gradcheck", cfg_path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "end-to-end" in out

    def test_eval_untrained_checkpoint_no_crash(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "seed=0\ntotal_steps=0\n")
        out = tmp_path / "out"
        cli.main(["pretrain", cfg_path, str(out)])
        assert cli.main(["eval", str(out / "checkpoint.vora"), cfg_path]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert all(np.isfinite(v) for v in metrics.values())
