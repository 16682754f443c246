import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xscene.cli import main
from xscene.data import SceneDataset, load_csv, save_csv
from xscene.harness import Run, evaluate, save_checkpoint
from xscene.model import COMPONENT_ORDER, HEADS, ModelBundle


def write_cfg(tmp_path, **extra):
    cfg = {
        "seed": 2,
        "epochs_agree": 2, "epochs_disagree": 1, "epochs_ensemble": 1,
        "batch_size": 32,
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

    def test_prints_evaluates_figures(self, tmp_path, capsys):
        # identity weights end to end, so the logits are the spectra: rows
        # 2 and 4 are misclassified, and OA 60, AA 58.33 and kappa 16.67
        # all differ
        bundle = ModelBundle({name: [2, 2] for name in COMPONENT_ORDER})
        for name in COMPONENT_ORDER:
            getattr(bundle, name).weights[0][:] = np.eye(2)
        model, data = tmp_path / "model.bin", tmp_path / "scene.csv"
        save_checkpoint(model, bundle)
        spectra = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                            [1.0, 0.0]])
        save_csv(SceneDataset("t", 2, spectra, np.array([0, 0, 0, 1, 1])), data)
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        oa, aa, kappa = evaluate(bundle, load_csv(data), "agree")
        assert capsys.readouterr().out == (
            f"eval[agree] OA {100 * oa:.2f}  AA {100 * aa:.2f}  "
            f"kappa {100 * kappa:.2f}\n")
        assert len({round(100 * v, 2) for v in (oa, aa, kappa)}) == 3

    def test_missing_model_file(self, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path / "nope.bin"),
                     "--data", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err


@st.composite
def eval_inputs(draw):
    """A checkpoint and a scene for `xscene eval`: layouts of 2-3 widths in
    1-9 per component, an evaluation head, a correctly sized blob of finite
    parameters of any scale, and a scene of 1-9 bands and classes. Each
    link of the evaluated chain (bands to the first network, network to
    network, last network to classes) holds in about 3 examples of 4, so
    every check and the scoring itself are reached."""
    widths = st.integers(1, 9)
    links = st.sampled_from([True, True, True, False])
    layout = {name: draw(st.lists(widths, min_size=2, max_size=3))
              for name in COMPONENT_ORDER}
    head = draw(st.sampled_from(sorted(HEADS)))
    bands = width = draw(widths)
    for name in HEADS[head]:
        if draw(links):
            layout[name][0] = width
        width = layout[name][-1]
    classes = width if draw(links) else draw(widths)
    rows = draw(st.integers(classes, 3 * classes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # past about 1e154 a product of a weight and an input overflows float64
    scale, spectra_scale = (10.0 ** draw(st.integers(-3, 300)) for _ in range(2))
    bundle = ModelBundle(layout)
    bundle.params[0] = scale * rng.standard_normal(bundle.params.shape[1])
    ds = SceneDataset("target", classes,
                      spectra_scale * rng.standard_normal((rows, bands)),
                      np.arange(rows) % classes)
    return bundle, head, ds


class TestEvalProperty:
    # each example writes its files to its own TemporaryDirectory, since a
    # function-scoped fixture such as tmp_path is shared by every example
    @given(eval_inputs())
    @settings(max_examples=150)
    def test_exits_0_or_2_with_one_error_line(self, inputs):
        bundle, head, ds = inputs
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            model, data = os.path.join(tmp, "model.bin"), os.path.join(tmp, "scene.csv")
            save_checkpoint(model, bundle, meta={"eval_head": head})
            save_csv(ds, data)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["eval", "--model", model, "--data", data])
        if rc == 0:
            assert err.getvalue() == ""
            assert out.getvalue().startswith(f"eval[{head}] OA ")
        else:
            assert rc == 2
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


def splice(data, valid):
    """Arbitrary bytes, or the bytes of a valid file with a range replaced
    by arbitrary bytes: inserted, overwritten at the file's own length, or
    cut short."""
    patch = data.draw(st.binary(max_size=24))
    if data.draw(st.booleans()):
        return patch
    start = data.draw(st.integers(0, len(valid)))
    end = data.draw(st.sampled_from([start, start + len(patch), len(valid)]))
    return valid[:start] + patch + valid[end:]


class TestEvalBytesProperty:
    # as TestEvalProperty: a TemporaryDirectory per example
    @pytest.mark.parametrize("kind", ["model", "data"])
    @given(data=st.data())
    @settings(max_examples=75)
    def test_any_bytes_exit_0_or_2_with_one_error_line(self, kind, data):
        # the file of `kind` holds any bytes, the other one a valid file
        rng = np.random.default_rng(0)
        bundle = ModelBundle.build(3, 2, 2, 3, 2, 2, 2, rng)
        ds = SceneDataset("target", 3, rng.standard_normal((6, 2)),
                          np.arange(6) % 3)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            paths = {"model": os.path.join(tmp, "model.bin"),
                     "data": os.path.join(tmp, "scene.csv")}
            save_checkpoint(paths["model"], bundle)
            save_csv(ds, paths["data"])
            with open(paths[kind], "rb") as f:
                content = splice(data, f.read())
            with open(paths[kind], "wb") as f:
                f.write(content)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["eval", "--model", paths["model"], "--data", paths["data"]])
        if rc == 0:
            assert err.getvalue() == ""
            assert out.getvalue().startswith("eval[agree] OA ")
        else:
            assert rc == 2 and out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


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
    TRAIN_ONLY = [{"batch_size": 10**20}]
    SCENES = [{"synth": {"samples_per_class_source": 10**20}},
              {"synth": {"samples_per_class_source": 2**62}},
              {"synth": {"bands_source": 2**62}}]

    @pytest.mark.parametrize("command, raw", [
        *[("train", raw) for raw in TRAIN_ONLY + SCENES],
        *[("gen-data", raw) for raw in SCENES],
    ], ids=["train-batch", "train-samples-1e20",
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

    def test_table_columns_match_the_log(self, tmp_path, capsys, monkeypatch):
        # a trained ladder scores class-balanced splits, where OA equals AA;
        # rows with three distinct figures show each lands in its own column
        def ablate(cfg):
            return [(f"row{k}", Run(cfg, None, None, None, 1, oa=50.0 + k,
                                    aa=40.0 + k / 3, kappa=30.0 - k / 7))
                    for k in range(5)]
        monkeypatch.setattr("xscene.cli.ablate", ablate)
        log = tmp_path / "ablate.jsonl"
        assert main(["ablate", "--config", str(write_cfg(tmp_path)),
                     "--log", str(log)]) == 0
        table = capsys.readouterr().out.splitlines()[1:]
        assert table[0].split() == ["row", "config", "OA", "AA", "kappa"]
        records = [json.loads(l) for l in log.read_text().splitlines()]
        assert [line.split() for line in table[1:]] == [
            [str(r["row"]), r["name"],
             *(f"{r[key]:.2f}" for key in ("oa", "aa", "kappa"))]
            for r in records]
