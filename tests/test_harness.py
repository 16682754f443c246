import dataclasses
import importlib.util
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xscene.harness as harness
from xscene.data import SceneDataset, SynthConfig, generate_pair, sample_k_per_class
from xscene.errors import ConfigError, DataError, DivergenceError, ParseError
from xscene.harness import (ABLATION_LADDER, EMA_BETA, EVAL_BLOCK_ROWS,
                            TOGGLES, Run, TrainConfig, ablate, config_from_dict,
                            evaluate, load_checkpoint, load_config,
                            save_checkpoint, train, write_ablation_log,
                            write_log)
from xscene.metrics import (ConfusionMatrix, average_accuracy, cohen_kappa,
                            overall_accuracy)
from xscene.model import COMPONENT_ORDER, HEADS, ModelBundle, predict


def quick_cfg(**overrides):
    """Small but real config so full runs stay fast in unit tests."""
    synth = SynthConfig(bands_source=10, bands_target=8, classes_source=4,
                        classes_target=3, shared_classes=2,
                        samples_per_class_source=40,
                        samples_per_class_target=30, seed=5)
    base = dict(seed=1, epochs_agree=3, epochs_disagree=2, epochs_ensemble=2,
                batch_size=32, shots=10, feat_dim=8, hidden_dim=8, enc_dim=8,
                synth=synth)
    base.update(overrides)
    return TrainConfig(**base)


class TestConfigIo:
    def test_defaults_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 3, "lr": 1e-3,
                                    "synth": {"seed": 9, "noise_sigma": 0.2}}))
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.lr == 1e-3
        assert cfg.synth.seed == 9
        assert cfg.synth.noise_sigma == 0.2
        assert cfg.batch_size == 64  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 1e-3}))
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(path)
        # settings fixed in the code are not config keys
        for key in ("adam_beta1", "adam_beta2", "adam_eps", "temp_scaled",
                    "phi_mag_threshold", "dcor_weight", "ensemble_weight",
                    "source_weight", "target_weight", "weight_decay", "beta",
                    "tau", "temp_agree", "temp_disagree"):
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                config_from_dict({key: 1.0})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="bands"):
            config_from_dict({"synth": {"bands": 10}})

    def test_invalid_values_rejected(self):
        for raw in ({"lr": 0.0}, {"lr": -1e-3}, {"batch_size": 0},
                    {"use_dir": True, "batch_size": 1},
                    # shots that leave the evaluation split empty
                    {"shots": 60}, {"shots": 7, "synth": {"samples_per_class_target": 7}},
                    # wrong JSON types and non-finite floats
                    {"use_dir": "no"}, {"use_gradvac": 1}, {"lr": float("nan")},
                    {"lr": True}, {"epochs_agree": "3"},
                    {"batch_size": 64.0}, {"shots": False},
                    {"synth": {"bands_source": 48.5}},
                    {"synth": {"noise_sigma": None}},
                    # negative seeds
                    {"seed": -1}, {"synth": {"seed": -3}}):
            with pytest.raises(ConfigError):
                config_from_dict(raw)
        # a single-class scene has nothing to classify; the error names the key
        for key in ("classes_source", "classes_target"):
            with pytest.raises(ConfigError, match=key):
                config_from_dict({"synth": {key: 1, "shared_classes": 1}})

    @pytest.mark.parametrize("raw, message", [
        ({"shots": 0}, "shots must be >= 1"),
        ({"epochs_disagree": -1}, "epoch counts must be >= 0"),
        ({"enc_dim": 0}, "architecture dims must be >= 1"),
        ({"synth": []}, "synth must be an object of SynthConfig keys"),
        ([], "config must be a JSON object"),
        ({"synth": {"bands_target": 0}},
         "all band/class/sample counts must be >= 1"),
        ({"synth": {"noise_sigma": -0.1}}, "noise_sigma must be >= 0"),
    ], ids=["shots-0", "epochs-negative", "enc-dim-0", "synth-list",
            "top-level-list", "bands-target-0", "noise-negative"])
    def test_bounds_rejected_with_their_message(self, tmp_path, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=f"{re.escape(message)}$"):
            load_config(path)

    def test_ints_accepted_for_float_fields(self):
        cfg = config_from_dict({"lr": 1, "synth": {"noise_sigma": 0}})
        assert cfg.lr == 1 and cfg.synth.noise_sigma == 0
        # stored as floats, so no int past the float range reaches training
        assert type(cfg.lr) is float and type(cfg.synth.noise_sigma) is float

    def test_checked_when_built(self):
        # dataclasses.replace builds a new config, so it is checked too
        with pytest.raises(ConfigError, match="batch_size must be >= 1"):
            dataclasses.replace(TrainConfig(), batch_size=0)
        with pytest.raises(ConfigError, match="use_dir needs batch_size >= 2"):
            dataclasses.replace(TrainConfig(), use_dir=True, batch_size=1)
        with pytest.raises(ConfigError, match="classes_source must be >= 2"):
            SynthConfig(classes_source=1)
        # field types too, not only in config_from_dict
        with pytest.raises(ConfigError, match="use_dir must be a bool, got 'no'"):
            TrainConfig(use_dir="no")
        with pytest.raises(ConfigError, match="use_gradvac must be a bool, got 1"):
            TrainConfig(use_gradvac=1)
        assert type(TrainConfig(lr=1).lr) is float
        with pytest.raises(ConfigError, match="batch_size must be an int, got 64.0"):
            dataclasses.replace(TrainConfig(), batch_size=64.0)

    def test_frozen_and_hashable(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch_size = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.synth.classes_source = 1
        assert cfg.batch_size == 64 and cfg.synth.classes_source == 7
        assert hash(cfg) == hash(TrainConfig())

    def test_toggles_are_the_use_fields(self):
        # a new toggle cannot miss the ablation ladder or its log
        use = {f.name for f in dataclasses.fields(TrainConfig)
               if f.name.startswith("use_")}
        assert use == set(TOGGLES)


TRAIN_KEYS = [f.name for f in dataclasses.fields(TrainConfig)]
SYNTH_KEYS = [f.name for f in dataclasses.fields(SynthConfig)]
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3)


def mixed_objects(own, other):
    """Objects of up to 4 keys, mostly `own` keys, so that most examples
    get past the unknown-key check to the value checks, and sometimes
    `other` keys, each key holding any JSON value."""
    return st.dictionaries(st.sampled_from(3 * own + other), JSON_VALUES,
                           max_size=4)


# TrainConfig objects with some SynthConfig keys, and in about half of
# them a synth key that holds any JSON value or a SynthConfig object with
# some TrainConfig keys
CONFIG_OBJECTS = st.builds(
    lambda raw, synth: {**raw, **synth},
    mixed_objects(TRAIN_KEYS, SYNTH_KEYS),
    st.fixed_dictionaries({}, optional={
        "synth": JSON_VALUES | mixed_objects(SYNTH_KEYS, TRAIN_KEYS)}))


class TestLoadConfigProperty:
    """load_config on any file gives a TrainConfig or raises ConfigError."""

    @staticmethod
    def check(content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "wb") as f:
                f.write(content)
            try:
                cfg = load_config(path)
            except ConfigError:
                return
        assert isinstance(cfg, TrainConfig)

    @given(st.binary())
    @settings(max_examples=200)
    def test_any_bytes(self, content):
        self.check(content)

    @given(CONFIG_OBJECTS)
    @settings(max_examples=100)
    def test_any_object_of_config_keys(self, raw):
        # json.dumps writes a non-finite float as NaN or Infinity, which
        # json.loads reads back
        self.check(json.dumps(raw).encode("utf-8"))


class TestTrainDeterminism:
    def test_same_seed_same_report(self):
        a = train(quick_cfg())
        b = train(quick_cfg())
        assert a.oa == b.oa and a.aa == b.aa and a.kappa == b.kappa
        assert a.steps == b.steps

    def test_log_bytes_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_log(p1, train(quick_cfg()))
        write_log(p2, train(quick_cfg()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        a = train(quick_cfg(seed=1))
        b = train(quick_cfg(seed=2))
        assert a.steps != b.steps


class TestDivergence:
    # lr=1e6 is a valid config value, but training overflows; the run must
    # stop at that step without printing a numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_run_raises_naming_phase_step_and_key(self):
        with pytest.raises(DivergenceError,
                           match=r"^agree step \d+: (\w+ is (nan|inf|-inf)|"
                                 r"(overflow|invalid value) encountered in \w+)$"):
            train(quick_cfg(lr=1e6))

    def test_floating_point_error_names_the_step_it_hit(self, monkeypatch):
        # two steps of this phase logged, the third overflows; the records
        # of earlier phases do not count
        def phase(run):
            for t in (1, 2):
                run.log({"phase": "ensemble", "step": t})
            np.float64(1e308) * 10.0

        monkeypatch.setattr(harness, "_run_ensemble_phase", phase)
        with pytest.raises(DivergenceError,
                           match=r"^ensemble step 3: overflow encountered in "):
            train(quick_cfg(use_ensemble=True))

    def test_non_finite_logged_value_names_its_key(self, monkeypatch):
        # a value that turns non-finite without a floating-point error is
        # caught when the step is logged
        monkeypatch.setattr("xscene.model.symmetric_kl",
                            lambda student, teacher, temp:
                            (float("inf"), np.zeros_like(student)))
        with pytest.raises(DivergenceError, match="^ensemble step 1: e_en1 is inf$"):
            train(quick_cfg(use_ensemble=True))

    def test_logs_refuse_non_finite_values(self, tmp_path):
        run = dataclasses.replace(train(quick_cfg(epochs_agree=0)),
                                  oa=float("nan"))
        with pytest.raises(ValueError):
            write_log(tmp_path / "run.jsonl", run)
        with pytest.raises(ValueError):
            write_ablation_log(tmp_path / "ablate.jsonl", [("baseline", run)])


class TestPhaseStructure:
    def test_toggles_off_runs_only_agreement(self):
        rep = train(quick_cfg())
        phases = {s["phase"] for s in rep.steps}
        assert phases == {"agree"}
        assert rep.eval_head == "agree"

    def test_ensemble_without_dir_trains_private_on_ce_alone(self):
        rep = train(quick_cfg(use_ensemble=True))
        phases = [s["phase"] for s in rep.steps]
        assert "disagree" in phases and "ensemble" in phases
        dcors = [s["dcor"] for s in rep.steps if s["phase"] == "disagree"]
        assert all(d is None for d in dcors)
        assert rep.eval_head == "ensemble"

    def test_dir_without_ensemble_runs_private_phase(self):
        rep = train(quick_cfg(use_dir=True))
        phases = {s["phase"] for s in rep.steps}
        assert phases == {"agree", "disagree"}
        assert rep.eval_head == "agree"
        dcors = [s["dcor"] for s in rep.steps if s["phase"] == "disagree"]
        assert all(isinstance(d, float) for d in dcors)

    def test_dir_toggle_never_changes_phase_a(self):
        a = train(quick_cfg(use_ensemble=True, use_dir=False))
        b = train(quick_cfg(use_ensemble=True, use_dir=True))
        sa = [s for s in a.steps if s["phase"] == "agree"]
        sb = [s for s in b.steps if s["phase"] == "agree"]
        assert sa == sb


FULL = dict.fromkeys(TOGGLES, True)


class TestRunState:
    def test_later_phases_replay_from_a_snapshot(self, monkeypatch):
        # the parameter block, the batch generator's state and the step
        # count taken before phase B are all phases B and C depend on
        private = harness._run_private_phase
        snaps = []

        def snapshot_then_run(run):
            snaps.append((run.bundle.params.copy(), run.rng.bit_generator.state,
                          len(run.steps)))
            private(run)

        monkeypatch.setattr(harness, "_run_private_phase", snapshot_then_run)
        run = train(quick_cfg(**FULL))
        steps, params = list(run.steps), run.bundle.params.copy()
        [(snap_params, snap_state, count)] = snaps
        run.bundle.params[:] = snap_params
        run.rng.bit_generator.state = snap_state
        del run.steps[count:]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            private(run)
            harness._run_ensemble_phase(run)
        assert {s["phase"] for s in steps[count:]} == {"disagree", "ensemble"}
        assert run.steps == steps
        assert run.bundle.params.tobytes() == params.tobytes()

    def test_tracer_spans_every_phase(self):
        # the benchmark fails a traced training whose spans cover too little
        # of it: train, its set-up calls, its phases and its evaluation must
        # each still be found by the name the tracer patches, and be called
        # through it
        path = Path(__file__).parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        with tracer.installed(tracing.patch_table()):
            harness.train(quick_cfg(**FULL, epochs_agree=1, epochs_disagree=1,
                                    epochs_ensemble=1))
        spanned = {f"xscene.harness.{name}" for name in (
            "train", "_run_agreement_phase", "_run_private_phase",
            "_run_ensemble_phase", "evaluate", "generate_pair",
            "sample_k_per_class")} | {"ModelBundle.build"}
        assert spanned.isdisjoint(tracer.missing)
        spans = tracer.take()
        assert [name for name, _, _, parent, _ in spans if parent < 0] == [
            "harness.train"]
        assert [name for name, _, _, parent, _ in spans if parent == 0] == [
            "data.generate_pair", "data.sample_k_per_class", "model.build",
            "harness.agree_phase", "harness.private_phase",
            "harness.ensemble_phase", "harness.evaluate"]


class TestPhaseAInvariants:
    def test_post_surgery_phi_equals_alpha_when_fired(self):
        rep = train(quick_cfg(use_gradvac=True, epochs_agree=6))
        fired = [s for s in rep.steps
                 if s["phase"] == "agree" and s["gradvac_applied"]]
        assert fired, "surgery never fired on the conflict task"
        for s in fired:
            assert s["phi_post"] == pytest.approx(s["alpha"], abs=1e-9)

    def test_logitnorm_rows_at_unit_over_tau(self):
        rep = train(quick_cfg(use_logitnorm=True))
        ln_steps = [s for s in rep.steps
                    if s["phase"] == "agree" and s["logitnorm_active"]]
        assert ln_steps
        for s in ln_steps:
            assert s["ln_err_s"] <= 1e-9
            assert s["ln_err_t"] <= 1e-9

    def test_alpha_trajectory_matches_recursion(self):
        cfg = quick_cfg(use_gradvac=True)
        rep = train(cfg)
        alpha = 0.0
        for s in (x for x in rep.steps if x["phase"] == "agree"):
            assert s["alpha"] == pytest.approx(alpha, abs=1e-12)
            alpha = (1 - EMA_BETA) * alpha + EMA_BETA * s["phi_raw"]
            alpha = float(np.clip(alpha, -(1 - 1e-6), 1 - 1e-6))


class TestTargetBatches:
    @given(n=st.integers(1, 5000), batch=st.integers(1, 70),
           steps=st.integers(1, 12), epochs=st.integers(0, 4),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_equals_one_draw_per_step(self, n, batch, steps, epochs, seed):
        ds = SceneDataset("t", 2, np.zeros((n, 1)), np.zeros(n, dtype=np.int64))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        run = Run(TrainConfig(batch_size=batch), ds, None, rng, steps)
        got = list(run.batches(epochs))
        want = [ref.integers(0, n, size=batch) for _ in range(steps * epochs)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestEvaluate:
    def test_perfect_classifier(self):
        # identity weights end to end: logits == spectra, so labeling by
        # argmax of the spectra is classified perfectly
        bundle = ModelBundle({name: [2, 2] for name in COMPONENT_ORDER})
        for name in COMPONENT_ORDER:
            getattr(bundle, name).weights[0][:] = np.eye(2)
        spectra = np.array([[2.0, 1.0], [3.0, 0.5], [0.1, 0.9], [1.0, 4.0]])
        ds = SceneDataset("t", 2, spectra, np.array([0, 0, 1, 1]))
        assert evaluate(bundle, ds, "agree") == (1.0, 1.0, 1.0)

    def test_fixed_fixture(self):
        # hand-built dataset where the model's prediction is forced:
        # identical inputs give identical predictions, so one class recall
        # is 1 and the others 0
        for classes in (2, 3):
            bundle = ModelBundle.build(4, 3, 2, classes, 2, 2, 2,
                                       np.random.default_rng(0))
            ds = SceneDataset("t", classes, np.zeros((2 * classes, 3)),
                              np.repeat(np.arange(classes), 2))
            oa, aa, kappa = evaluate(bundle, ds, "agree")
            assert oa == pytest.approx(1.0 / classes)
            assert aa == pytest.approx(1.0 / classes)
            assert kappa == pytest.approx(0.0, abs=1e-12)

    def test_class_count_must_match_head(self):
        bundle = ModelBundle.build(4, 3, 2, 5, 2, 2, 2, np.random.default_rng(0))
        for classes in (3, 7):
            ds = SceneDataset("t", classes, np.zeros((classes, 3)),
                              np.arange(classes))
            for head in ("agree", "disagree", "ensemble"):
                with pytest.raises(DataError, match="classes"):
                    evaluate(bundle, ds, head)

    def test_heads_are_the_keys_of_model_heads(self):
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2, np.random.default_rng(0))
        ds = SceneDataset("t", 2, np.zeros((2, 3)), np.array([0, 1]))
        assert set(HEADS) == {"agree", "disagree", "ensemble"}
        for head in HEADS:
            assert len(evaluate(bundle, ds, head)) == 3

    def test_overflowing_parameters_raise(self):
        # finite weights of 1e150 overflow float64 by the third layer
        rng = np.random.default_rng(0)
        bundle = ModelBundle.build(4, 8, 2, 3, 8, 8, 8)
        bundle.params[0] = 1e150 * rng.standard_normal(bundle.params.shape[1])
        ds = SceneDataset("t", 3, rng.standard_normal((30, 8)), np.arange(30) % 3)
        with pytest.raises(DataError, match=r"^evaluating the agree head: "
                                            r"(overflow|invalid value) encountered in \w+$"):
            evaluate(bundle, ds, "agree")


class TestEvaluateInBlocks:
    """evaluate() scores EVAL_BLOCK_ROWS rows at a time."""

    @staticmethod
    def scene(n, bands, classes, seed=0):
        rng = np.random.default_rng(seed)
        return SceneDataset("t", classes, rng.standard_normal((n, bands)),
                            rng.integers(0, classes, n))

    @given(shape=st.integers(1, 60).flatmap(
               lambda n: st.tuples(st.just(n), st.integers(1, min(n, 4)))),
           block=st.integers(1, 7), head=st.sampled_from(sorted(HEADS)),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_any_block_size_scores_as_one_predict(self, shape, block, head, seed):
        # (rows, classes): every class has a row
        rows, classes = shape
        rng = np.random.default_rng(seed)
        bundle = ModelBundle.build(3, 4, 2, classes, 4, 6, 4, rng)
        ds = SceneDataset("t", classes, rng.standard_normal((rows, 4)),
                          rng.permutation(np.arange(rows) % classes))
        preds = predict(bundle, head, ds.spectra).argmax(axis=1)
        cm = ConfusionMatrix.from_predictions(classes, ds.labels, preds)
        with patch.object(harness, "EVAL_BLOCK_ROWS", block):
            got = evaluate(bundle, ds, head)
        assert got == (overall_accuracy(cm), average_accuracy(cm), cohen_kappa(cm))

    def test_forward_sees_blocks_of_eval_block_rows(self, monkeypatch):
        seen = []

        def spy(bundle, head, x):
            seen.append(len(x))
            return predict(bundle, head, x)

        monkeypatch.setattr(harness, "predict", spy)
        bundle = ModelBundle.build(4, 6, 2, 3, 8, 16, 8, np.random.default_rng(0))
        evaluate(bundle, self.scene(2 * EVAL_BLOCK_ROWS + 3, 6, 3), "agree")
        assert seen == [EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS, 3]

    # (component, its dims, scene bands, scene classes, error) against a
    # 6-band, 3-class agree head: a band, a link and a class mismatch
    MISMATCHES = [
        ("target_extractor", [6, 16, 8], 5, 3, "target_extractor of the agree "
         "head has fan-in 6 but is given the dataset's 5 bands"),
        ("shared_encoder", [7, 16, 8], 6, 3, "shared_encoder of the agree head "
         "has fan-in 7 but is given target_extractor's 8 outputs"),
        ("target_head", [8, 3], 6, 4, "dataset has 4 classes but the agree "
         "head predicts 3")]

    @pytest.mark.parametrize("name, dims, bands, classes, error", MISMATCHES,
                             ids=["bands", "link", "classes"])
    def test_mismatch_raises_before_any_block_is_scored(
            self, monkeypatch, name, dims, bands, classes, error):
        seen = []
        monkeypatch.setattr(harness, "predict",
                            lambda *args: seen.append(args) or predict(*args))
        layout = ModelBundle.build(4, 6, 2, 3, 8, 16, 8).layout()
        layout[name] = dims
        ds = self.scene(2 * EVAL_BLOCK_ROWS + 3, bands, classes)
        with pytest.raises(DataError, match=f"^{error}$"):
            evaluate(ModelBundle(layout), ds, "agree")
        assert seen == []

    def test_only_the_evaluated_head_must_chain(self):
        # the private chain does not link; the agree head still evaluates
        bundle = ModelBundle.build(4, 6, 2, 3, 8, 16, 8, np.random.default_rng(0))
        layout = bundle.layout()
        layout["private_encoder"] = [3, 16, 8]
        unlinked = ModelBundle(layout)
        unlinked.agreement[:] = bundle.agreement
        ds = self.scene(50, 6, 3)
        assert evaluate(unlinked, ds, "agree") == evaluate(bundle, ds, "agree")
        with pytest.raises(DataError, match="private_encoder of the disagree "
                                            "head has fan-in 3"):
            evaluate(unlinked, ds, "disagree")

    def test_peak_memory_does_not_grow_with_the_rows(self):
        # the activations of one block dominate; the predictions and the
        # confusion count of 4 blocks add 8 bytes a row each
        bundle = ModelBundle.build(4, 32, 2, 5, 32, 64, 32, np.random.default_rng(0))

        def peak(rows):
            ds = self.scene(rows, 32, 5)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                evaluate(bundle, ds, "agree")
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        assert peak(4 * EVAL_BLOCK_ROWS) < 1.5 * peak(EVAL_BLOCK_ROWS)


def ablate_cfg():
    return quick_cfg(epochs_agree=2, epochs_disagree=1, epochs_ensemble=1)


@pytest.fixture(scope="module")
def ablation_rows():
    return ablate(ablate_cfg())


class TestAblate:
    def test_ladder_structure(self, ablation_rows):
        assert len(ablation_rows) == 5
        names = [name for name, _ in ablation_rows]
        assert names == [n for n, _ in ABLATION_LADDER]
        toggle_counts = [sum(getattr(run.cfg, key) for key in TOGGLES)
                         for _, run in ablation_rows]
        assert toggle_counts == [0, 1, 2, 3, 4]
        for _, run in ablation_rows:
            assert 0.0 <= run.oa <= 100.0

    @pytest.mark.parametrize("row, name, toggles", [
        (0, "baseline", {}),
        (1, "+gradvac", {"use_gradvac": True}),
        (2, "+logitnorm", {"use_gradvac": True, "use_logitnorm": True}),
        (3, "+ensemble", {"use_gradvac": True, "use_logitnorm": True,
                          "use_ensemble": True}),
        (4, "+dir", {"use_gradvac": True, "use_logitnorm": True,
                     "use_ensemble": True, "use_dir": True}),
    ], ids=range(5))
    def test_rows_reproduce_standalone_runs(self, ablation_rows, row, name,
                                            toggles):
        lone = train(dataclasses.replace(ablate_cfg(), **toggles))
        row_name, run = ablation_rows[row]
        row_toggles = {key: True for key in TOGGLES if getattr(run.cfg, key)}
        assert (row_name, row_toggles) == (name, toggles)
        assert run.oa == lone.oa
        assert run.steps == lone.steps

    def test_every_row_validated_before_any_trains(self, monkeypatch):
        # batch_size 1 is valid for rows 1-4 but not for the +dir row
        calls = []
        monkeypatch.setattr("xscene.harness.train", calls.append)
        with pytest.raises(ConfigError, match="use_dir needs batch_size >= 2"):
            ablate(quick_cfg(batch_size=1))
        assert len(calls) == 0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = quick_cfg(use_ensemble=True, use_dir=True)
        rep = train(cfg)
        path = tmp_path / "model.bin"
        save_checkpoint(path, rep.bundle, meta={"eval_head": rep.eval_head})
        loaded, head = load_checkpoint(path)
        assert head == "ensemble"
        assert loaded.layout() == rep.bundle.layout()
        assert np.array_equal(loaded.params[0], rep.bundle.params[0])

    def test_loaded_model_evaluates_identically(self, tmp_path):
        cfg = quick_cfg(use_ensemble=True)
        rep = train(cfg)
        _, tgt = generate_pair(cfg.synth)
        _, heldout = sample_k_per_class(tgt, cfg.shots,
                                        np.random.SeedSequence(cfg.seed).spawn(3)[1])
        path = tmp_path / "model.bin"
        save_checkpoint(path, rep.bundle, meta={"eval_head": rep.eval_head})
        loaded, head = load_checkpoint(path)
        before = evaluate(rep.bundle, heldout, head)
        after = evaluate(loaded, heldout, head)
        assert before == after

    def test_header_is_json_line_then_floats(self, tmp_path):
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(path, bundle)
        raw = path.read_bytes()
        header = json.loads(raw[:raw.index(b"\n")].decode())
        assert raw[raw.index(b"\n") + 1:] == bundle.params[0].astype("<f8").tobytes()
        assert list(header["layout"]) == list(COMPONENT_ORDER)

    LAYOUT = ("checkpoint layout must name exactly the components "
              + ", ".join(COMPONENT_ORDER))

    @staticmethod
    def dims_error(name):
        return (f"checkpoint layout dims of {name} must be a list of at least "
                "2 ints, each at least 1")

    @pytest.mark.parametrize("edit, message", [
        (lambda h: {k: v for k, v in h.items() if k != "layout"}, LAYOUT),
        (lambda h: {**h, "layout": {k: v for k, v in h["layout"].items()
                                    if k != "ensemble_head"}}, LAYOUT),
        (lambda h: [h], "not a xscene-checkpoint-v1 file"),
        (lambda h: {**h, "meta": []}, "checkpoint meta must be an object"),
        (lambda h: {**h, "layout": {**h["layout"], "source_extractor": "4x2"}},
         dims_error("source_extractor")),
        (lambda h: {**h, "layout": {**h["layout"],
                                    "source_extractor": [1000000, 1000000]}},
         "checkpoint holds 832 bytes of parameters, expected 8000008000704"),
        # 30 parameters, as in the saved [4, 2, 2] and [3, 2, 2], but only
        # because [-1, 5] counts -5 weights and 5 biases
        (lambda h: {**h, "layout": {**h["layout"], "source_extractor": [4, 4, 2],
                                    "target_extractor": [-1, 5]}},
         dims_error("target_extractor")),
        # 12 parameters, as in the saved two [2, 2] heads
        (lambda h: {**h, "layout": {**h["layout"], "source_head": [2],
                                    "target_head": [2, 2, 2]}},
         dims_error("source_head")),
        # 12 parameters again, with a head of zero outputs
        (lambda h: {**h, "layout": {**h["layout"], "source_head": [2, 0],
                                    "target_head": [2, 4]}},
         dims_error("source_head")),
    ], ids=["no_layout", "layout_missing_component", "header_is_list",
            "meta_not_object", "layout_dims_not_list", "layout_too_big_for_blob",
            "layout_dims_cancel", "layout_dims_single_entry", "layout_dims_zero"])
    def test_malformed_header_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.bin"
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2, np.random.default_rng(0))
        save_checkpoint(path, bundle)
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = edit(json.loads(raw[:newline]))
        path.write_bytes(json.dumps(header).encode() + raw[newline:])
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2)
        bundle.params[0] = 0.5
        bundle.params[0, 7] = np.nan
        save_checkpoint(path, bundle)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: checkpoint "
                                             "holds non-finite parameters$"):
            load_checkpoint(path)

    def test_saved_without_meta_evaluates_the_agree_head(self, tmp_path):
        path = tmp_path / "model.bin"
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2, np.random.default_rng(0))
        save_checkpoint(path, bundle)
        assert load_checkpoint(path)[1] == "agree"

    # the head is checked where the file enters, so its error names the file
    @pytest.mark.parametrize("head", [
        [], {"a": 1}, 7, "bogus", "source", "target", "Agree", "agree ", "",
        "ensemble_head"], ids=["list", "dict", "int", "bogus", "source",
                               "target", "Agree", "agree_space", "empty",
                               "ensemble_head"])
    def test_unknown_eval_head_rejected(self, tmp_path, head):
        path = tmp_path / "model.bin"
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2, np.random.default_rng(0))
        save_checkpoint(path, bundle, meta={"eval_head": head})
        message = (f"^{re.escape(str(path))}: unknown evaluation head "
                   f"{re.escape(repr(head))}$")
        with pytest.raises(ParseError, match=message):
            load_checkpoint(path)

    def test_header_without_newline_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b'{"format":"xscene-checkpoint-v1"}')
        with pytest.raises(ParseError, match="missing checkpoint header$"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        bundle = ModelBundle.build(4, 3, 2, 2, 2, 2, 2, np.random.default_rng(0))
        path = tmp_path / "model.bin"
        save_checkpoint(path, bundle)
        raw = path.read_bytes()
        for cut in (8, 3):  # a whole float short, and a ragged float
            path.write_bytes(raw[:-cut])
            with pytest.raises(ParseError):
                load_checkpoint(path)
