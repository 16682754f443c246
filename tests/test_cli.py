import json

import numpy as np
import pytest

from xscene.cli import main
from xscene.data import load_csv
from xscene.harness import save_checkpoint
from xscene.model import COMPONENT_ORDER, ModelBundle


def write_cfg(tmp_path, **extra):
    cfg = {
        "seed": 2,
        "epochs_agree": 2, "epochs_disagree": 1, "epochs_ensemble": 1,
        "batch_size": 32, "feat_dim": 8, "hidden_dim": 8, "enc_dim": 8,
        "synth": {
            "bands_source": 10, "bands_target": 8,
            "classes_source": 4, "classes_target": 3, "shared_classes": 2,
            "samples_per_class_source": 40, "samples_per_class_target": 30,
            "seed": 11,
        },
    }
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenData:
    def test_writes_both_scenes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        src = load_csv(out_dir / "source.csv")
        tgt = load_csv(out_dir / "target.csv")
        assert src.n == 160 and src.bands == 10
        assert tgt.n == 90 and tgt.bands == 8
        assert "source.csv" in capsys.readouterr().out

    def test_unknown_key_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nope": 1}))
        assert main(["gen-data", "--config", str(path),
                     "--out-dir", str(tmp_path / "d")]) == 2
        assert "nope" in capsys.readouterr().err

    def test_wrongly_typed_value_is_clean_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, use_dir="no")
        assert main(["gen-data", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "d")]) == 2
        assert "error: use_dir must be a bool" in capsys.readouterr().err


class TestTrain:
    def test_writes_log_and_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, use_ensemble=True)
        log = tmp_path / "run.jsonl"
        model = tmp_path / "model.bin"
        rc = main(["train", "--config", str(cfg), "--log", str(log),
                   "--checkpoint", str(model)])
        assert rc == 0
        lines = log.read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert {"oa", "aa", "kappa"} == set(records[-1])
        phases = {r["phase"] for r in records[:-1]}
        assert phases == {"agree", "disagree", "ensemble"}
        assert model.exists()
        out = capsys.readouterr().out
        assert "OA" in out and "kappa" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_run_exits_2_without_log(self, tmp_path, capsys):
        # the default config with a finite but far too large learning rate
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1e6}))
        log = tmp_path / "run.jsonl"
        assert main(["train", "--config", str(cfg), "--log", str(log)]) == 2
        assert "error: agree step " in capsys.readouterr().err
        assert not log.exists()

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 74.5 GiB")
        monkeypatch.setattr("xscene.cli.train", no_memory)
        cfg = write_cfg(tmp_path)
        log = tmp_path / "run.jsonl"
        assert main(["train", "--config", str(cfg), "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 74.5 GiB\n"
        assert not log.exists()

    def test_log_deterministic_across_invocations(self, tmp_path):
        cfg = write_cfg(tmp_path)
        l1, l2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["train", "--config", str(cfg), "--log", str(l1)]) == 0
        assert main(["train", "--config", str(cfg), "--log", str(l2)]) == 0
        assert l1.read_bytes() == l2.read_bytes()


class TestEval:
    def test_checkpoint_scores_saved_data(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, use_ensemble=True, use_dir=True)
        log = tmp_path / "run.jsonl"
        model = tmp_path / "model.bin"
        data_dir = tmp_path / "data"
        assert main(["train", "--config", str(cfg), "--log", str(log),
                     "--checkpoint", str(model)]) == 0
        assert main(["gen-data", "--config", str(cfg), "--out-dir",
                     str(data_dir)]) == 0
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data",
                   str(data_dir / "target.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "eval[ensemble]" in out

    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path / "nope.bin"),
                     "--data", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_checkpoint_header_exits_2(self, tmp_path, capsys):
        model = tmp_path / "model.bin"
        model.write_bytes(b'{"format":"xscene-checkpoint-v1","meta":{}}\n')
        assert main(["eval", "--model", str(model),
                     "--data", str(tmp_path / "nope.csv")]) == 2
        assert "layout" in capsys.readouterr().err


    def _eval_crafted(self, tmp_path, capsys, name, dims, fill=None):
        """Exit code and stderr of `eval` on write_cfg's 8-band, 3-class
        target.csv, with a zero checkpoint whose agreement path is
        8 -> 8 -> 8 -> 3 except that component `name` has `dims`; `fill`,
        if given, writes the parameter values before the save."""
        cfg = write_cfg(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "data")]) == 0
        layout = {n: [8, 3] for n in COMPONENT_ORDER}
        layout.update(target_extractor=[8, 8], shared_encoder=[8, 8])
        layout[name] = dims
        model = tmp_path / "model.bin"
        bundle = ModelBundle(layout)
        if fill is not None:
            fill(bundle.params[0])
        save_checkpoint(model, bundle)
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data",
                   str(tmp_path / "data" / "target.csv")])
        return rc, capsys.readouterr().err

    def test_band_count_mismatch_exits_2(self, tmp_path, capsys):
        rc, err = self._eval_crafted(tmp_path, capsys, "target_extractor",
                                     [9, 8])
        assert rc == 2
        assert err.startswith("error: ") and "fan-in 9" in err

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        rc, err = self._eval_crafted(tmp_path, capsys, "target_head", [8, 4])
        assert rc == 2
        assert err == ("error: dataset has 3 classes but the agree head "
                       "predicts 4\n")

    def test_unchained_component_widths_exit_2(self, tmp_path, capsys):
        # shared_encoder takes 7 features; target_extractor emits 8
        rc, err = self._eval_crafted(tmp_path, capsys, "shared_encoder",
                                     [7, 8])
        assert rc == 2
        assert err.startswith("error: ") and "fan-in 7" in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_parameter_exits_2(self, tmp_path, capsys):
        def fill(values):
            values[:] = 0.5
            values[7] = np.nan

        rc, err = self._eval_crafted(tmp_path, capsys, "target_head", [8, 3],
                                     fill)
        assert rc == 2
        assert err == (f"error: {tmp_path / 'model.bin'}: checkpoint holds "
                       "non-finite parameters\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_parameters_exit_2(self, tmp_path, capsys):
        # finite weights of 1e150 overflow float64 by the third layer
        def fill(values):
            values[:] = 1e150 * np.random.default_rng(0).standard_normal(
                values.size)

        rc, err = self._eval_crafted(tmp_path, capsys, "target_head", [8, 3],
                                     fill)
        assert rc == 2
        assert err.startswith("error: evaluating the agree head: ")
        assert err.count("\n") == 1

    # a head that is not a string is no head name, not a TypeError from
    # hashing it; the error names the checkpoint, like every checkpoint error
    @pytest.mark.parametrize("head", [[], {"a": 1}, "bogus"],
                             ids=["list", "dict", "bogus"])
    @pytest.mark.filterwarnings("error")
    def test_eval_head_not_a_name_exits_2(self, tmp_path, capsys, head):
        cfg = write_cfg(tmp_path)
        assert main(["gen-data", "--config", str(cfg), "--out-dir",
                     str(tmp_path / "data")]) == 0
        model = tmp_path / "model.bin"
        save_checkpoint(model, ModelBundle.build(10, 8, 4, 3, 8, 8, 8),
                        meta={"eval_head": head})
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data",
                   str(tmp_path / "data" / "target.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {model}: unknown evaluation head {head!r}\n")


class TestUndecodableInput:
    # bytes that are not UTF-8, an integer past Python's 4300-digit limit,
    # nesting past the recursion limit
    BAD_UTF8 = b'{"seed": "\xff"}'
    BIG_INT = b'{"seed": ' + b"1" * 5000 + b"}"
    DEEP = b"[" * 100000

    @pytest.mark.parametrize("kind, content", [
        ("config", BAD_UTF8), ("config", BIG_INT), ("config", DEEP),
        ("model", BIG_INT + b"\n"), ("model", DEEP + b"\n"),
        ("data", b"# scene=target bands=8 classes=3\n0" + b",\xff" * 8 + b"\n"),
    ], ids=["config-utf8", "config-int", "config-nesting", "model-int",
            "model-nesting", "data-utf8"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, kind, content):
        bad = tmp_path / f"bad.{kind}"
        bad.write_bytes(content)
        if kind == "config":
            argv = ["train", "--config", str(bad), "--log", str(tmp_path / "l")]
        else:
            model = tmp_path / "model.bin"
            layout = {n: [8, 3] for n in COMPONENT_ORDER}
            layout.update(target_extractor=[8, 8], shared_encoder=[8, 8])
            save_checkpoint(model, ModelBundle(layout))
            paths = {"model": model, "data": tmp_path / "target.csv", kind: bad}
            argv = ["eval", "--model", str(paths["model"]),
                    "--data", str(paths["data"])]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")


class TestOverflowingConfig:
    # a float field given as an int past the float range, and noise large
    # enough that rendering the scenes overflows float64 (1e200 in Python
    # floats, 1e154 in numpy)
    @pytest.mark.parametrize("command", ["train", "gen-data"])
    @pytest.mark.parametrize("raw, named", [
        ({"lr": 10**400}, "lr"),
        ({"synth": {"noise_sigma": 10**400}}, "noise_sigma"),
        ({"synth": {"noise_sigma": 1e200}}, "synth"),
        ({"synth": {"noise_sigma": 1e154}}, "synth"),
    ], ids=["lr-int", "noise-int", "noise-1e200", "noise-1e154"])
    @pytest.mark.filterwarnings("error")
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, command,
                                         raw, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        flag = "--log" if command == "train" else "--out-dir"
        assert main([command, "--config", str(cfg), flag, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert not out.exists()


class TestOversizedCounts:
    # counts whose arrays numpy refuses to build (it raises a ValueError
    # past its index range) end like any allocation too big for memory
    TRAIN_ONLY = [{"feat_dim": 10**15}, {"batch_size": 10**20},
                  {"epochs_agree": 0, "hidden_dim": 2**62}]
    SCENES = [{"synth": {"samples_per_class_source": 10**20}},
              {"synth": {"samples_per_class_source": 2**62}},
              {"synth": {"bands_source": 2**62}}]

    @pytest.mark.parametrize("command, raw", [
        *[("train", raw) for raw in TRAIN_ONLY + SCENES],
        *[("gen-data", raw) for raw in SCENES],
    ], ids=["train-feat", "train-batch", "train-hidden", "train-samples-1e20",
            "train-samples-2e62", "train-bands", "gen-samples-1e20",
            "gen-samples-2e62", "gen-bands"])
    @pytest.mark.filterwarnings("error")
    def test_exits_2_as_out_of_memory(self, tmp_path, capsys, command, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        flag = "--log" if command == "train" else "--out-dir"
        assert main([command, "--config", str(cfg), flag, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()


class TestAblateCommand:
    def test_five_row_table_and_log(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, epochs_agree=1)
        log = tmp_path / "ablate.jsonl"
        assert main(["ablate", "--config", str(cfg), "--log", str(log)]) == 0
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(records) == 5
        assert [r["row"] for r in records] == [1, 2, 3, 4, 5]
        assert records[0]["use_gradvac"] is False
        assert records[4]["use_dir"] is True
        for r in records:
            assert 0.0 <= r["oa"] <= 100.0
        out = capsys.readouterr().out
        assert "baseline" in out and "+dir" in out
