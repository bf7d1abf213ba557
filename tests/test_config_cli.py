import inspect
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from vora import checkpoint, cli, config, data, distill, trainer
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
        defaults = {key: default for key, (default, _) in config.SCHEMA.items()}
        assert defaults["seed"] is None
        defaults.update(resolution=(defaults["resolution_h"], defaults["resolution_w"]), seed=0)
        for cls in (ModelConfig, trainer.TrainConfig, data.DataConfig):  # patch feeds two of them
            for f in fields(cls):
                assert f.name in defaults, (cls.__name__, f.name)
                assert f.default == defaults[f.name], (cls.__name__, f.name)
                if f.name in config.SCHEMA:  # its parser reads the rendered default back as the field's type
                    assert type(config.SCHEMA[f.name][1](config._render(f.default))) is f.type, (cls.__name__, f.name)

    def test_eval_keys_default_to_eval_metrics_defaults(self):
        # perfbench's deploy cycle calls eval_metrics with its own defaults
        # as the `vora eval` defaults, so the two must agree
        params = inspect.signature(trainer.eval_metrics).parameters
        for key, arg in (("eval_captions", "n_caption"), ("eval_texts", "n_text"), ("eval_max_new", "max_new")):
            assert config.SCHEMA[key][0] == params[arg].default, key


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

    @pytest.mark.parametrize("command, lines", [
        ("pretrain", ""), ("pretrain", "anyres=true"), ("pretrain", "mask_mode=causal"),
        ("pretrain", "anyres=true\nmask_mode=causal"), ("pretrain", "mode=full_llm_unstable"), ("finetune", ""),
    ])
    def test_one_process_and_two_write_the_same_bytes(self, tmp_path, monkeypatch, command, lines):
        # whether shard 1 runs in a worker or in the command's process changes no byte
        cfg_path = write(tmp_path, f"seed=0\ntotal_steps=4\nwarmup_steps=1\n{lines}\n")
        outs = []
        for fork in (False, True):
            monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: fork)
            pretrained, out = tmp_path / f"pretrain_{fork}", tmp_path / f"{command}_{fork}"
            assert cli.main(["pretrain", cfg_path, str(pretrained)]) == 0
            if command == "finetune":
                assert cli.main(["finetune", str(pretrained / "checkpoint.vora"), cfg_path, str(out)]) == 0
            outs.append(out)
        for artifact in ("metrics.jsonl", "checkpoint.vora"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes(), artifact

    def test_total_steps_zero_writes_init_checkpoint(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\ntotal_steps=0\n")
        out = tmp_path / "out"
        assert cli.main(["pretrain", cfg_path, str(out)]) == 0
        assert (out / "checkpoint.vora").exists()
        assert (out / "metrics.jsonl").read_text() == ""

    def test_huge_max_seq_allocates_nothing_per_position(self, tmp_path):
        # nothing is sized by max_seq, so a limit no sequence reaches costs
        # no memory in pretrain or eval
        cfg_path = write(tmp_path, "seed=0\nmax_seq=1000000000000\ntotal_steps=0\n"
                                   "eval_captions=2\neval_texts=2\neval_max_new=4\n")
        out = tmp_path / "out"
        assert cli.main(["pretrain", cfg_path, str(out)]) == 0
        assert cli.main(["eval", str(out / "checkpoint.vora"), cfg_path]) == 0

    def test_invalid_config_exits_2(self, tmp_path):
        cfg_path = write(tmp_path, "seed=0\nnot_a_key=1\n")
        assert cli.main(["pretrain", cfg_path, str(tmp_path / "x")]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        cfg_path = write(tmp_path, "total_steps=1\n")
        assert cli.main(["pretrain", cfg_path, str(tmp_path / "x")]) == 2

    def test_a_dead_shard_worker_exits_5_naming_the_step(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: True)
        main, real = os.getpid(), trainer.compute_losses
        monkeypatch.setattr(trainer, "compute_losses",
                            lambda *args: real(*args) if os.getpid() == main else os._exit(1))
        cfg_path = write(tmp_path, BASE_CFG)
        assert cli.main(["pretrain", cfg_path, str(tmp_path / "x")]) == cli.EXIT_WORKER == 5
        assert "step 0: the shard worker died" in caplog.text

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_value_error_in_either_shard_leaves_the_cli_alike(self, tmp_path, monkeypatch, shards):
        # `shards` counts the processes the two shards run in: with 1 the main
        # process raises, with 2 the worker alone
        main, real = os.getpid(), trainer.compute_losses

        def losses(*args):
            if shards == 2 and os.getpid() == main:
                return real(*args)
            raise ValueError("fault in a shard")

        monkeypatch.setattr(trainer, "compute_losses", losses)
        monkeypatch.setattr(trainer, "_two_shards", lambda tcfg: shards == 2)
        cfg_path = write(tmp_path, BASE_CFG)
        with pytest.raises(ValueError, match="fault in a shard"):
            cli.main(["pretrain", cfg_path, str(tmp_path / "x")])

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

    @pytest.mark.parametrize("distill_mode", ["last_block", "none"])
    def test_eval_aligns_only_the_blocks_the_checkpoint_trained(self, tmp_path, capsys, monkeypatch, distill_mode):
        # the run config says block_wise; the checkpoint's distill_mode decides
        cfg_path = write(tmp_path, f"{BASE_CFG}distill_mode={distill_mode}\n", "train.cfg")
        eval_cfg = write(tmp_path, "seed=0\neval_captions=1\neval_texts=1\neval_max_new=2\n", "eval.cfg")
        out = tmp_path / "out"
        assert cli.main(["pretrain", cfg_path, str(out)]) == 0
        losses = []
        block_loss = distill.block_distill_loss

        def spy(*args):
            loss = block_loss(*args)
            losses.append(float(loss.data))
            return loss

        monkeypatch.setattr(distill, "block_distill_loss", spy)
        assert cli.main(["eval", str(out / "checkpoint.vora"), eval_cfg]) == 0
        metrics = json.loads(capsys.readouterr().out)
        if distill_mode == "none":
            assert "distill_alignment" not in metrics and losses == []
        else:  # the last block's head alone, not the mean over all four
            assert len(losses) == 1
            assert metrics["distill_alignment"] == pytest.approx(1.0 - losses[0], abs=1e-6)

    def test_eval_scores_under_the_checkpoints_mask(self, tmp_path, capsys):
        # the run config's mask_mode (default hybrid) does not override the
        # causal mask the checkpoint trained under
        common = "seed=0\ntotal_steps=20\nwarmup_steps=5\neval_captions=2\neval_texts=2\neval_max_new=4\n"
        causal_cfg = write(tmp_path, f"{common}mask_mode=causal\n", "causal.cfg")
        out = tmp_path / "out"
        assert cli.main(["pretrain", causal_cfg, str(out)]) == 0
        printed = []
        for cfg_path in (causal_cfg, write(tmp_path, common, "default.cfg")):
            assert cli.main(["eval", str(out / "checkpoint.vora"), cfg_path]) == 0
            printed.append(capsys.readouterr().out)
        assert "distill_alignment" in printed[0] and printed[0] == printed[1]

    @staticmethod
    def _eval_with_meta(tmp_path, meta):
        ckpt = tmp_path / "odd.vora"
        cfg = ModelConfig()
        checkpoint.save(ckpt, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)),
                        dict(meta, merged="false"))
        return cli.main(["eval", str(ckpt), write(tmp_path, "seed=0\n")])

    def test_eval_unknown_distill_mode_exits_4(self, tmp_path):
        assert self._eval_with_meta(tmp_path, {"distill_mode": "every_other_block"}) == cli.EXIT_STATE

    def test_eval_unknown_mask_mode_exits_4(self, tmp_path):
        assert self._eval_with_meta(tmp_path, {"mask_mode": "sideways"}) == cli.EXIT_STATE

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
        ("pretrain", "max_seq=33"), ("pretrain", "vit_heads=0"), ("pretrain", "vit_heads=-2"),
        ("pretrain", "d_vit=1\nvit_heads=1"),
        ("ablate", "log_window=0\nablate_steps=3"), ("ablate", "log_window=-1\nablate_steps=3"),
        ("ablate", "ablate_steps=0"), ("pretrain", "seed=-1"), ("pretrain", "lr=nan"),
        ("pretrain", "lr=inf"), ("ablate", "thresholds=4.0,nan\nablate_steps=3"),
        ("pretrain", "weight_decay=-1"), ("pretrain", "teacher_warm_steps=-5"),
        ("pretrain", "anyres=true\nanyres_min=48\nanyres_max=16"),
        ("pretrain", "anyres=true\nanyres_min=20\nanyres_max=44"), ("pretrain", "n_vit=0"),
        ("ablate", "ablate_masks=,\nablate_steps=3"), ("ablate", "thresholds=,\nablate_steps=3"),
        ("eval", "patch=4"), ("eval", "max_seq=200\nresolution_h=96\nresolution_w=96"), ("finetune", "patch=4"),
        ("ablate", "ablate_ranks=8,8\nablate_steps=3"), ("ablate", "ablate_ranks=8,08\nablate_steps=3"),
        ("ablate", "ablate_masks=hybrid,hybrid\nablate_steps=3"),
        ("ablate", "ablate_distills=none,none\nablate_steps=3"), ("ablate", "thresholds=4.0,4.0\nablate_steps=3"),
        # batches without an image leave the trainable vision embed without a gradient
        ("pretrain", "image_fraction=0.0"), ("pretrain", "image_fraction=0.0\nmode=full_llm_unstable"),
        ("finetune", "image_fraction=0.0"), ("ablate", "image_fraction=0.0\nablate_steps=3"),
        ("pretrain", "batch_size=1\nimage_fraction=0.4"),
    ])
    def test_out_of_range_value_exits_2_before_work(self, tmp_path, command, lines):
        seed = "" if lines.startswith("seed=") else "seed=0\n"
        cfg_path = write(tmp_path, f"{seed}total_steps=2\nwarmup_steps=1\n{lines}\n")
        if command in ("eval", "finetune"):  # on a default-config checkpoint
            ckpt = tmp_path / "init.vora"
            cfg = ModelConfig()
            checkpoint.save(ckpt, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)),
                            {"merged": "false"})
            args = [str(ckpt), cfg_path] + ([str(tmp_path / "out")] if command == "finetune" else [])
        else:
            args = [cfg_path, str(tmp_path / "out")]
        before = sorted(tmp_path.iterdir())
        assert cli.main([command, *args]) == cli.EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before

    def test_a_one_wide_teacher_exits_2_saying_why(self, tmp_path, caplog):
        cfg_path = write(tmp_path, "seed=0\ntotal_steps=2\nwarmup_steps=1\nd_vit=1\nvit_heads=1\n")
        assert cli.main(["pretrain", cfg_path, str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "d_vit (1) must be >= 2: at width 1 every distillation cosine is +-1" in caplog.text

    def test_eval_checks_max_seq_against_the_checkpoint_model(self, tmp_path, capsys):
        # 96x96 images need a max_seq of 162: more than the run config's own
        # default 160, but within the checkpoint's 200, and only the
        # checkpoint's model runs under eval
        cfg_path = write(tmp_path, "seed=0\nresolution_h=96\nresolution_w=96\n"
                                   "eval_captions=1\neval_texts=1\neval_max_new=2\n")
        ckpt = tmp_path / "init.vora"
        cfg = ModelConfig(max_seq=200)
        checkpoint.save(ckpt, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)), {"merged": "false"})
        assert cli.main(["eval", str(ckpt), cfg_path]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["text_perplexity"])

    @pytest.mark.parametrize("command", ["eval", "finetune"])
    def test_vocab_is_checked_against_the_checkpoint_model(self, tmp_path, command):
        # the checkpoint's vocab misses the data vocabulary: exit 2 before work
        cfg_path = write(tmp_path, "seed=0\ntotal_steps=2\nwarmup_steps=1\n")
        ckpt = tmp_path / "small.vora"
        cfg = ModelConfig(vocab=20)
        checkpoint.save(ckpt, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)), {"merged": "false"})
        out = [str(tmp_path / "out")] if command == "finetune" else []
        before = sorted(tmp_path.iterdir())
        assert cli.main([command, str(ckpt), cfg_path, *out]) == cli.EXIT_CONFIG
        assert sorted(tmp_path.iterdir()) == before

    def test_eval_ignores_the_run_config_vocab(self, tmp_path, capsys):
        # vocab=100 is below the data vocabulary, but only the checkpoint's model runs
        cfg_path = write(tmp_path, "seed=0\nvocab=100\neval_captions=1\neval_texts=1\neval_max_new=2\n")
        ckpt = tmp_path / "init.vora"
        cfg = ModelConfig()
        checkpoint.save(ckpt, cfg, trainer.collect_state(trainer.build_pipeline(cfg, seed=0)), {"merged": "false"})
        assert cli.main(["eval", str(ckpt), cfg_path]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["text_perplexity"])

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
