import json
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xscene import data
from xscene.data import (SceneDataset, SynthConfig, generate_pair, load_csv,
                         sample_k_per_class, save_csv)
from xscene.errors import ConfigError, DataError, ParseError


def tiny_cfg(**overrides):
    base = dict(bands_source=12, bands_target=12, classes_source=4,
                classes_target=4, shared_classes=4,
                samples_per_class_source=30, samples_per_class_target=20,
                noise_sigma=0.1, conflict_strength=0.5, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


class TestGeneratePair:
    def test_deterministic(self):
        a_src, a_tgt = generate_pair(tiny_cfg())
        b_src, b_tgt = generate_pair(tiny_cfg())
        assert np.array_equal(a_src.spectra, b_src.spectra)
        assert np.array_equal(a_tgt.spectra, b_tgt.spectra)
        assert np.array_equal(a_src.labels, b_src.labels)
        assert np.array_equal(a_tgt.labels, b_tgt.labels)

    def test_different_seeds_differ(self):
        a_src, _ = generate_pair(tiny_cfg())
        b_src, _ = generate_pair(tiny_cfg(seed=8))
        assert not np.array_equal(a_src.spectra, b_src.spectra)

    def test_label_coverage_and_sizes(self):
        src, tgt = generate_pair(tiny_cfg())
        assert sorted(set(src.labels.tolist())) == [0, 1, 2, 3]
        assert sorted(set(tgt.labels.tolist())) == [0, 1, 2, 3]
        assert src.n == 4 * 30
        assert tgt.n == 4 * 20
        assert src.spectra.shape == (120, 12)

    def test_linear_probe_transfers_when_scenes_agree(self):
        # same band count, no noise, no conflict, all classes shared:
        # a least-squares probe fit on source must classify the target
        # perfectly (the two scenes differ only by a positive scale)
        cfg = tiny_cfg(noise_sigma=0.0, conflict_strength=0.0)
        src, tgt = generate_pair(cfg)
        onehot = np.eye(cfg.classes_source)[src.labels]
        w, *_ = np.linalg.lstsq(
            np.hstack([src.spectra, np.ones((src.n, 1))]), onehot, rcond=None)
        logits = np.hstack([tgt.spectra, np.ones((tgt.n, 1))]) @ w
        assert (logits.argmax(axis=1) == tgt.labels).all()

    def test_conflict_knob_induces_gradient_conflict(self):
        # measured through a bundle whose target branch is a copy of the
        # source branch, so only the data differs between the two tasks
        from xscene.model import ModelBundle, agreement_backward
        from xscene.agreement import gradvac_update

        def mean_phi(conflict, shared):
            phis = []
            for seed in range(20):
                cfg = tiny_cfg(conflict_strength=conflict,
                               shared_classes=shared, seed=100 + seed)
                src, tgt = generate_pair(cfg)
                bundle = ModelBundle.build(cfg.bands_source, cfg.bands_target,
                                           cfg.classes_source, cfg.classes_target,
                                           32, 64, 32, np.random.default_rng(seed))
                for pair in (("target_extractor", "source_extractor"),
                             ("target_head", "source_head")):
                    dst, srcc = (getattr(bundle, pair[0]), getattr(bundle, pair[1]))
                    dst.values[:] = srcc.values
                res = agreement_backward(bundle,
                                         (src.spectra[:64], src.labels[:64]),
                                         (tgt.spectra[:64], tgt.labels[:64]))
                phis.append(gradvac_update(res.g_s, res.g_t, 0.0, False).phi_raw)
            return float(np.mean(phis))

        assert mean_phi(1.0, 0) < mean_phi(0.0, 4)

    def test_config_validated(self):
        with pytest.raises(ConfigError):
            generate_pair(tiny_cfg(shared_classes=9))
        with pytest.raises(ConfigError):
            generate_pair(tiny_cfg(conflict_strength=1.5))


class TestSampleKPerClass:
    def test_ten_shot_count(self):
        labels = np.repeat(np.arange(9), 30)
        rng = np.random.default_rng(0)
        ds = SceneDataset("t", 9, rng.normal(size=(270, 4)), labels)
        train, heldout = sample_k_per_class(ds, 10, seed=1)
        assert train.n == 90
        assert heldout.n == 180
        assert np.bincount(train.labels, minlength=9).tolist() == [10] * 9

    def test_full_class_size_boundary(self):
        labels = np.repeat(np.arange(3), 5)
        ds = SceneDataset("t", 3, np.random.default_rng(1).normal(size=(15, 2)),
                          labels)
        train, heldout = sample_k_per_class(ds, 5, seed=0)
        assert train.n == 15
        assert heldout.n == 0

    def test_disjoint_by_construction(self):
        _, tgt = generate_pair(tiny_cfg())
        train, heldout = sample_k_per_class(tgt, 10, seed=3)
        joined = np.vstack([train.spectra, heldout.spectra])
        assert joined.shape[0] == tgt.n
        # every original row appears exactly once across the two splits
        order = np.lexsort(joined.T)
        orig = np.lexsort(tgt.spectra.T)
        assert np.array_equal(joined[order], tgt.spectra[orig])

    def test_deterministic_per_seed(self):
        _, tgt = generate_pair(tiny_cfg())
        a = sample_k_per_class(tgt, 10, seed=5)[0]
        b = sample_k_per_class(tgt, 10, seed=5)[0]
        assert np.array_equal(a.spectra, b.spectra)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        _, tgt = generate_pair(tiny_cfg())
        path = tmp_path / "scene.csv"
        save_csv(tgt, path)
        loaded = load_csv(path)
        assert loaded.name == tgt.name
        assert loaded.bands == tgt.bands
        assert loaded.classes == tgt.classes
        assert np.array_equal(loaded.spectra, tgt.spectra)
        assert np.array_equal(loaded.labels, tgt.labels)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# scene=s bands=3 classes=2\n")
        with pytest.raises(DataError, match="no samples"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bands=2\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    # a row of no bands is its label alone, on the serial and split paths
    @pytest.mark.parametrize("split_min_bytes", [1 << 62, 0], ids=["serial", "split"])
    def test_zero_band_round_trip(self, tmp_path, monkeypatch, split_min_bytes):
        monkeypatch.setattr(data, "SPLIT_MIN_BYTES", split_min_bytes)
        ds = SceneDataset("s", 2, np.zeros((3, 0)), np.array([0, 1, 1]))
        path = tmp_path / "scene.csv"
        save_csv(ds, path)
        assert path.read_bytes() == b"# scene=s bands=0 classes=2\n0\n1\n1\n"
        loaded = load_csv(path)
        assert loaded.spectra.shape == (3, 0)
        assert loaded.labels.tolist() == [0, 1, 1]

    def test_lf_line_endings(self, tmp_path):
        _, tgt = generate_pair(tiny_cfg())
        path = tmp_path / "scene.csv"
        save_csv(tgt, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


def eval_csv(tmp_path, content, bands):
    """`xscene eval` of `content` as a CSV against a checkpoint of `bands`
    input bands: (exit code, the CSV's path)."""
    from xscene.cli import main
    from xscene.harness import save_checkpoint
    from xscene.model import ModelBundle
    path = tmp_path / "scene.csv"
    path.write_bytes(content)
    model = tmp_path / "model.bin"
    save_checkpoint(model, ModelBundle.build(3, bands, 2, 2, 2, 2, 2))
    return main(["eval", "--model", str(model), "--data", str(path)]), path


class TestCsvLoaderEdges:
    """What load_csv accepts and rejects, byte for byte of the file."""

    HEADER = b"# scene=s bands=2 classes=2\n"

    def load(self, tmp_path, content):
        path = tmp_path / "scene.csv"
        path.write_bytes(content)
        return load_csv(path)

    def test_crlf_rows_parse(self, tmp_path):
        ds = self.load(tmp_path, self.HEADER + b"0,1.0,2.0\r\n1,3.0,4.0\r\n")
        assert ds.spectra.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_crlf_header_is_a_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match=r"line 1: bad header .*\\r'"):
            self.load(tmp_path, b"# scene=s bands=2 classes=2\r\n0,1.0,2.0\r\n")

    def test_no_final_newline(self, tmp_path):
        ds = self.load(tmp_path, self.HEADER + b"0,1.0,2.0\n1,3.0,4.0")
        assert ds.spectra.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("tail", [b"\n1,3.0,4.0\n", b"\n"],
                             ids=["middle", "end"])
    def test_blank_line_names_its_line(self, tmp_path, tail):
        with pytest.raises(ParseError, match="^line 3: expected 3 fields, got 1$"):
            self.load(tmp_path, self.HEADER + b"0,1.0,2.0\n" + tail)

    def test_empty_file_has_no_header(self, tmp_path):
        with pytest.raises(ParseError, match="^line 1: missing header$"):
            self.load(tmp_path, b"")

    def test_bad_utf8_past_the_first_64_kib(self, tmp_path):
        rows = self.HEADER + b"0,1.0,2.0\n" * 10000
        assert len(rows) > 64 * 1024
        message = (f"{tmp_path / 'scene.csv'}: line 10002: 'utf-8' codec can't "
                   "decode byte 0xff in position 6: invalid start byte")
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            self.load(tmp_path, rows + b"1,3.0,\xff\n")

    def test_zero_bands(self, tmp_path):
        ds = self.load(tmp_path, b"# scene=s bands=0 classes=2\n0\n1\n")
        assert ds.spectra.shape == (2, 0)
        assert ds.labels.tolist() == [0, 1]
        with pytest.raises(DataError, match="no samples"):
            self.load(tmp_path, b"# scene=s bands=0 classes=2\n")
        with pytest.raises(ParseError, match="^line 2: expected 1 fields, got 2$"):
            self.load(tmp_path, b"# scene=s bands=0 classes=2\n0,1.0\n")
        with pytest.raises(ParseError, match="^line 3: invalid literal for int"):
            self.load(tmp_path, b"# scene=s bands=0 classes=2\n0\n\n1\n")

    BIG_CLASSES = (b"# scene=s bands=1 classes=99999999999999999999999\n"
                   b"99999999999999999999,1.0\n")

    def test_class_count_past_int64(self, tmp_path):
        with pytest.raises(ParseError, match="^line 1: classes="
                           "99999999999999999999999 does not fit int64$"):
            self.load(tmp_path, self.BIG_CLASSES)
        with pytest.raises(ParseError, match="^line 1: classes="
                           "9223372036854775808 does not fit int64$"):
            self.load(tmp_path, b"# scene=s bands=1 classes=9223372036854775808"
                      b"\n0,1.0\n")
        # the largest int64 count still loads, and so does its last label
        ds = self.load(tmp_path, b"# scene=s bands=1 classes=9223372036854775807"
                       b"\n9223372036854775806,1.0\n")
        assert ds.labels.tolist() == [2**63 - 2]

    # a count of more digits than int() converts (4,300 by default)
    LONG_COUNTS = {"bands": b"# scene=s bands=" + b"1" * 5000 + b" classes=3\n0,1.0\n",
                   "classes": b"# scene=s bands=1 classes=" + b"1" * 5000 + b"\n0,1.0\n"}

    @pytest.mark.parametrize("field", sorted(LONG_COUNTS))
    def test_count_past_the_digit_limit(self, tmp_path, field):
        with pytest.raises(ParseError, match="^line 1: Exceeds the limit"):
            self.load(tmp_path, self.LONG_COUNTS[field])

    def test_round_trip_past_one_eval_block(self, tmp_path):
        from xscene.harness import EVAL_BLOCK_ROWS
        _, tgt = generate_pair(tiny_cfg(samples_per_class_target=1100))
        assert tgt.n > EVAL_BLOCK_ROWS
        path = tmp_path / "scene.csv"
        save_csv(tgt, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.spectra, tgt.spectra)
        assert np.array_equal(loaded.labels, tgt.labels)
        assert loaded.spectra.dtype == np.float64
        assert loaded.labels.dtype == np.int64


def test_load_csv_peak_memory_is_within_twice_the_spectra(tmp_path, monkeypatch):
    # the rows stream into one float64 buffer that becomes the spectra;
    # holding the file's text, its lines or a list of boxed floats per row
    # would each cost several times the payload, and so would holding a
    # worker's reply whole (the second pass splits the file)
    _, tgt = generate_pair(tiny_cfg(samples_per_class_target=1250))
    path = tmp_path / "scene.csv"
    save_csv(tgt, path)
    for split_min_bytes in (data.SPLIT_MIN_BYTES, 0):
        monkeypatch.setattr(data, "SPLIT_MIN_BYTES", split_min_bytes)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.spectra, tgt.spectra)
        assert peak <= 2 * tgt.spectra.nbytes


def serial_csv(ds):
    """The bytes save_csv writes, by the per-row repr loop it ran before
    large scenes were split: save_csv's one bit-for-bit reference."""
    text = f"# scene={ds.name} bands={ds.bands} classes={ds.classes}\n"
    for label, row in zip(ds.labels.tolist(), ds.spectra):
        text += ",".join((str(label), *map(repr, row.tolist()))) + "\n"
    return text.encode()


class Popens:
    """Records every worker process started while installed."""

    def __init__(self, monkeypatch):
        self.started = []
        outer = self

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                outer.started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)

    def take(self):
        """The processes started since the last take; each has exited."""
        started, self.started = self.started, []
        assert all(proc.returncode is not None for proc in started)
        return started


class TestSplitPath:
    """A scene of at least SPLIT_MIN_BYTES has its second half of rows
    written or read by one worker process, with the serial path's bytes,
    arrays and errors."""

    HEADER = b"# scene=s bands=2 classes=2\n"
    GOOD = b"0,1.0,2.0\n"
    # each kind of malformed row, and its error when it is line 17
    BAD = {"fields": b"1,1.0,2.0,3.0\n", "float": b"0,1.0,oops\n",
           "label": b"5,1.0,2.0\n", "non-finite": b"1,nan,4.0\n",
           "blank": b"\n", "utf8": b"1,3.0,\xff\n"}
    ERRORS = {"fields": "line 17: expected 3 fields, got 4",
              "float": "line 17: could not convert string to float: 'oops'",
              "label": "line 17: label 5 out of range [0, 2)",
              "non-finite": "line 17: non-finite band value",
              "blank": "line 17: expected 3 fields, got 1",
              "utf8": "{path}: line 17: 'utf-8' codec can't decode byte 0xff "
                      "in position 6: invalid start byte"}

    @pytest.fixture
    def popens(self, monkeypatch):
        return Popens(monkeypatch)

    @staticmethod
    def both_ways(path):
        """load_csv(path) serially and split: each outcome, a ParseError
        as its text."""
        outcomes = []
        for split_min_bytes in (1 << 62, 0):
            with patch.object(data, "SPLIT_MIN_BYTES", split_min_bytes):
                try:
                    outcomes.append(load_csv(path))
                except ParseError as exc:
                    outcomes.append(f"ParseError: {exc}")
        return outcomes

    @given(rows=st.integers(1, 60), bands=st.integers(0, 5),
           ending=st.sampled_from(["lf", "crlf", "no final newline"]),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=1, bands=0, ending="no final newline", seed=0)
    @example(rows=2, bands=0, ending="crlf", seed=0)
    @example(rows=60, bands=5, ending="crlf", seed=1)
    @settings(max_examples=12)   # each example starts two workers
    def test_split_matches_serial(self, rows, bands, ending, seed):
        rng = np.random.default_rng(seed)
        # values of every magnitude, so reprs of every length
        ds = SceneDataset("s", 3, rng.standard_normal((rows, bands))
                          * 10.0 ** rng.integers(-300, 300, (rows, bands)),
                          rng.integers(0, 3, rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.csv"
            with patch.object(data, "SPLIT_MIN_BYTES", 0):
                save_csv(ds, path)
            assert path.read_bytes() == serial_csv(ds)
            # the same rows, with the line ending under test
            header, *lines = serial_csv(ds).decode().split("\n")[:-1]
            newline = "\r\n" if ending == "crlf" else "\n"
            text = newline.join(lines) + ("" if ending == "no final newline" else newline)
            path.write_text(header + "\n" + text, encoding="utf-8", newline="")
            serial, split = self.both_ways(path)
        for got in (serial, split):
            assert (got.name, got.classes) == ("s", 3)
            assert got.spectra.dtype == np.float64 and got.labels.dtype == np.int64
            assert np.array_equal(got.spectra, ds.spectra)
            assert np.array_equal(got.labels, ds.labels)

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_error_in_the_workers_half_reads_as_serial(self, tmp_path, popens, case):
        path = tmp_path / "scene.csv"
        path.write_bytes(self.HEADER + self.GOOD * 15 + self.BAD[case] + self.GOOD * 4)
        # the bad line starts past the middle of the file
        assert len(self.HEADER + self.GOOD * 15) >= path.stat().st_size // 2
        serial, split = self.both_ways(path)
        assert serial == split == "ParseError: " + self.ERRORS[case].format(path=path)
        assert len(popens.take()) == 1

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_the_earlier_of_two_bad_lines_wins(self, tmp_path, popens, case):
        later = sorted(self.BAD)[sorted(self.BAD).index(case) - 1]
        path = tmp_path / "scene.csv"
        path.write_bytes(self.HEADER + self.GOOD + self.BAD[case]
                         + self.GOOD * 15 + self.BAD[later] + self.GOOD * 4)
        serial, split = self.both_ways(path)
        assert ": line 3: " in serial
        assert split == serial
        assert len(popens.take()) == 1

    def test_each_call_waits_for_its_one_worker(self, tmp_path, monkeypatch, popens):
        _, tgt = generate_pair(tiny_cfg())
        path = tmp_path / "scene.csv"
        save_csv(tgt, path)
        load_csv(path)
        assert popens.take() == []  # below SPLIT_MIN_BYTES
        monkeypatch.setattr(data, "SPLIT_MIN_BYTES", 0)
        save_csv(tgt, path)
        assert len(popens.take()) == 1
        assert np.array_equal(load_csv(path).spectra, tgt.spectra)
        assert len(popens.take()) == 1
        for rows in ([self.BAD["label"]] + [self.GOOD] * 20,
                     [self.GOOD] * 20 + [self.BAD["label"]],
                     [self.BAD["utf8"]] + [self.GOOD] * 20 + [self.BAD["label"]]):
            path.write_bytes(self.HEADER + b"".join(rows))
            with pytest.raises(ParseError):
                load_csv(path)
            assert len(popens.take()) == 1

    def test_a_bad_first_half_kills_the_worker(self, tmp_path, monkeypatch, popens,
                                               capfd):
        # the worker's reply (240 KB) cannot fit in its pipe, so the worker
        # is still running when the first half raises
        monkeypatch.setattr(data, "SPLIT_MIN_BYTES", 0)
        path = tmp_path / "scene.csv"
        path.write_bytes(self.HEADER + self.BAD["label"] + self.GOOD * 20000)
        with pytest.raises(ParseError, match="^line 2: label 5 out of range"):
            load_csv(path)
        [worker] = popens.take()
        assert worker.returncode == -signal.SIGKILL
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("worker", ["cannot start", "exits 1"])
    def test_failed_worker_exits_2(self, tmp_path, monkeypatch, popens, capsys, worker):
        from xscene.cli import main
        monkeypatch.setattr(data, "SPLIT_MIN_BYTES", 0)
        if worker == "cannot start":
            monkeypatch.setattr(sys, "executable", str(tmp_path / "no-python"))
        else:
            monkeypatch.setattr(data, "_WORKER_CODE", "import sys; sys.exit(1)")
        # the source scene's second half (268 KB) overfills the pipe of a
        # worker that never reads it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"samples_per_class_target": 11}}))
        for run in (lambda: main(["gen-data", "--config", str(cfg),
                                  "--out-dir", str(tmp_path)]),
                    lambda: eval_csv(tmp_path, self.HEADER + self.GOOD * 20, 2)[0]):
            assert run() == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert ("the CSV worker" in err) == (worker == "exits 1")
            assert len(popens.take()) == (worker == "exits 1")


def test_worker_starts_without_numpy():
    # the worker's own command line, run once its entry point has returned
    # (on an empty share); importing numpy would cost every large file
    # about 70 ms more
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         data._WORKER_CODE + "; print('numpy' in sys.modules, sorted("
         "name for name in sys.modules if name.startswith('xscene')))",
         "format", "0", "0"], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "False ['xscene', 'xscene.csvrows', 'xscene.errors']\n"
