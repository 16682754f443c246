import json
import math
import os
import re
import tempfile
import tracemalloc
from array import array
from dataclasses import asdict, fields
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xscene import data
from xscene.data import (SceneDataset, SynthConfig, generate_pair, load_csv,
                         parse_rows, sample_k_per_class, save_csv, text_lines)
from xscene.errors import InputError


def tiny_cfg(**overrides):
    base = dict(bands_source=12, bands_target=12, classes_source=4,
                classes_target=4, shared_classes=4,
                samples_per_class_source=30, samples_per_class_target=20,
                noise_sigma=0.1, conflict_strength=0.5, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


def old_band_resample(mix, bands_out):
    """data._band_resample as a loop over each bucket's input bands. Its
    float bound ceil((t + 1) * width) can step one band past the last,
    which raises IndexError on 112 of the band pairs in 1..64."""
    bands_in = mix.shape[1]
    weights = np.zeros((bands_in, bands_out))
    width = bands_in / bands_out
    for t in range(bands_out):
        lo, hi = t * width, (t + 1) * width
        for s in range(int(np.floor(lo)), int(np.ceil(hi))):
            overlap = min(hi, s + 1) - max(lo, s)
            if overlap > 0:
                weights[s, t] = overlap / width
    return mix @ weights


class TestBandResample:
    def test_matches_the_old_loop_and_maps_every_pair(self):
        # an identity map comes back as the weights themselves
        overruns = []
        for bands_in in range(1, 65):
            eye = np.eye(bands_in)
            for bands_out in range(1, 65):
                weights = data._band_resample(eye, bands_out)
                try:
                    old = old_band_resample(eye, bands_out)
                except IndexError:
                    overruns.append((bands_in, bands_out))
                    assert weights.shape == (bands_in, bands_out)
                    assert (weights >= 0.0).all()
                    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12
                else:
                    assert weights.tobytes() == old.tobytes()
        assert len(overruns) == 112 and (29, 7) in overruns


def synth_fields(classes_source, classes_target):
    """A strategy for every SynthConfig field, over its valid range at
    small sizes (noise_sigma up to 10, far from float64 overflow)."""
    return dict(
        bands_source=st.integers(1, 64), bands_target=st.integers(1, 64),
        classes_source=st.just(classes_source),
        classes_target=st.just(classes_target),
        shared_classes=st.integers(0, min(classes_source, classes_target)),
        samples_per_class_source=st.integers(1, 12),
        samples_per_class_target=st.integers(1, 12),
        noise_sigma=st.floats(0.0, 10.0), conflict_strength=st.floats(0.0, 1.0),
        seed=st.integers(0, 2 ** 64))


SYNTH_KWARGS = st.tuples(st.integers(2, 6), st.integers(2, 6)).flatmap(
    lambda classes: st.fixed_dictionaries(synth_fields(*classes)))


class TestGeneratePair:
    def test_deterministic(self):
        a_src, a_tgt = generate_pair(tiny_cfg())
        b_src, b_tgt = generate_pair(tiny_cfg())
        assert np.array_equal(a_src.spectra, b_src.spectra)
        assert np.array_equal(a_tgt.spectra, b_tgt.spectra)
        assert np.array_equal(a_src.labels, b_src.labels)
        assert np.array_equal(a_tgt.labels, b_tgt.labels)

    @given(SYNTH_KWARGS)
    @example(asdict(SynthConfig()))
    @example({**asdict(SynthConfig()), "bands_source": 29, "bands_target": 7})
    @settings(max_examples=100)
    def test_every_valid_config_renders(self, kwargs):
        # a field added to SynthConfig must be drawn here too
        assert kwargs.keys() == {f.name for f in fields(SynthConfig)}
        cfg = SynthConfig(**kwargs)
        pair = generate_pair(cfg)
        for ds, bands, classes, per_class in (
                (pair[0], cfg.bands_source, cfg.classes_source,
                 cfg.samples_per_class_source),
                (pair[1], cfg.bands_target, cfg.classes_target,
                 cfg.samples_per_class_target)):
            assert ds.classes == classes
            assert ds.spectra.dtype == np.float64
            assert ds.spectra.shape == (classes * per_class, bands)
            assert np.isfinite(ds.spectra).all()
            assert ds.labels.dtype == np.int64
            assert np.bincount(ds.labels).tolist() == [per_class] * classes
        for ds, again in zip(pair, generate_pair(cfg)):
            assert ds.spectra.tobytes() == again.spectra.tobytes()
            assert ds.labels.tobytes() == again.labels.tobytes()

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
                g_s, g_t, *_ = agreement_backward(
                    bundle, (src.spectra[:64], src.labels[:64]),
                    (tgt.spectra[:64], tgt.labels[:64]))
                phis.append(gradvac_update(g_s, g_t, 0.0, False)[1]["phi_raw"])
            return float(np.mean(phis))

        assert mean_phi(1.0, 0) < mean_phi(0.0, 4)

    def test_config_validated(self):
        with pytest.raises(InputError):
            generate_pair(tiny_cfg(shared_classes=9))
        with pytest.raises(InputError):
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
        with pytest.raises(InputError, match="no samples"):
            load_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("bands=2\n")
        with pytest.raises(InputError, match="^" + re.escape(
                f"{path}: line 1: bad header 'bands=2'") + "$"):
            load_csv(path)

    # a row of no bands is its label alone, in one block or a block per row
    @pytest.mark.parametrize("block_rows", [data.BLOCK_ROWS, 1],
                             ids=["one-block", "block-per-row"])
    def test_zero_band_round_trip(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
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


class TestCsvLoaderEdges:
    """What load_csv accepts and rejects, byte for byte of the file."""

    HEADER = b"# scene=s bands=2 classes=2\n"

    def load(self, tmp_path, content):
        path = tmp_path / "scene.csv"
        path.write_bytes(content)
        return load_csv(path)

    @staticmethod
    def error(tmp_path, text):
        """The match pattern of exactly load_csv's InputError `text`, which
        begins with the file's path."""
        return "^" + re.escape(f"{tmp_path / 'scene.csv'}: {text}") + "$"

    def test_crlf_rows_parse(self, tmp_path):
        ds = self.load(tmp_path, self.HEADER + b"0,1.0,2.0\r\n1,3.0,4.0\r\n")
        assert ds.spectra.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_crlf_header_is_a_bad_header(self, tmp_path):
        with pytest.raises(InputError, match=self.error(
                tmp_path, r"line 1: bad header '# scene=s bands=2 classes=2\r'")):
            self.load(tmp_path, b"# scene=s bands=2 classes=2\r\n0,1.0,2.0\r\n")

    def test_no_final_newline(self, tmp_path):
        ds = self.load(tmp_path, self.HEADER + b"0,1.0,2.0\n1,3.0,4.0")
        assert ds.spectra.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("tail", [b"\n1,3.0,4.0\n", b"\n"],
                             ids=["middle", "end"])
    def test_blank_line_names_its_line(self, tmp_path, tail):
        with pytest.raises(InputError, match=self.error(
                tmp_path, "line 3: expected 3 fields, got 1")):
            self.load(tmp_path, self.HEADER + b"0,1.0,2.0\n" + tail)

    def test_empty_file_has_no_header(self, tmp_path):
        with pytest.raises(InputError, match=self.error(tmp_path, "line 1: bad header ''")):
            self.load(tmp_path, b"")

    def test_bad_utf8_past_the_first_64_kib(self, tmp_path):
        rows = self.HEADER + b"0,1.0,2.0\n" * 10000
        assert len(rows) > 64 * 1024
        message = (f"{tmp_path / 'scene.csv'}: line 10002: 'utf-8' codec can't "
                   "decode byte 0xff in position 6: invalid start byte")
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            self.load(tmp_path, rows + b"1,3.0,\xff\n")

    def test_zero_bands(self, tmp_path):
        ds = self.load(tmp_path, b"# scene=s bands=0 classes=2\n0\n1\n")
        assert ds.spectra.shape == (2, 0)
        assert ds.labels.tolist() == [0, 1]
        with pytest.raises(InputError, match="no samples"):
            self.load(tmp_path, b"# scene=s bands=0 classes=2\n")
        with pytest.raises(InputError, match=self.error(
                tmp_path, "line 2: expected 1 fields, got 2")):
            self.load(tmp_path, b"# scene=s bands=0 classes=2\n0,1.0\n")
        with pytest.raises(InputError, match=self.error(
                tmp_path, "line 3: invalid literal for int() with base 10: ''")):
            self.load(tmp_path, b"# scene=s bands=0 classes=2\n0\n\n1\n")

    def test_largest_class_count_loads(self, tmp_path):
        # 18 digits, the most a count may have, and its largest label
        ds = self.load(tmp_path, b"# scene=s bands=1 classes=999999999999999999"
                       b"\n999999999999999998,1.0\n")
        assert ds.labels.tolist() == [10**18 - 2]

    # a count of more digits than int() converts (4,300 by default) is a bad
    # header, not int()'s own error
    LONG_COUNTS = {"bands": b"# scene=s bands=" + b"1" * 5000 + b" classes=3",
                   "classes": b"# scene=s bands=1 classes=" + b"1" * 5000}

    @pytest.mark.parametrize("field", sorted(LONG_COUNTS))
    def test_count_past_the_digit_limit(self, tmp_path, field):
        header = self.LONG_COUNTS[field].decode()
        with pytest.raises(InputError, match=self.error(
                tmp_path, f"line 1: bad header {header!r}")):
            self.load(tmp_path, self.LONG_COUNTS[field] + b"\n0,1.0\n")

    # counts of ASCII, fullwidth and Arabic-Indic decimal digits
    COUNTS = st.text("0123456789", min_size=1, max_size=18) | st.text(
        "0123456789\uff12\u0663", max_size=25)
    HEADERS = st.just("") | st.builds(
        "# scene={} bands={} classes={}{}".format, st.text("ab_-. \u00e9", max_size=6),
        COUNTS, COUNTS, st.sampled_from(["", " "]))

    @staticmethod
    def fits_grammar(header):
        """Whether `header` is `# scene=<name> bands=<B> classes=<C>` with
        B and C of 1-18 ASCII digits, for a name that holds no '='."""
        rest, _, classes = header.rpartition(" classes=")
        name, _, bands = rest.rpartition(" bands=")
        return (name.startswith("# scene=") and name != "# scene="
                and all(count.isascii() and count.isdigit() and len(count) <= 18
                        for count in (bands, classes)))

    @given(header=HEADERS)
    @example(header="# scene=s bands=\uff12 classes=\uff12")
    @example(header="# scene=s bands=1 classes=" + "9" * 19)
    @example(header="")   # the empty file
    @settings(max_examples=200)
    def test_a_header_loads_if_and_only_if_it_fits_the_grammar(self, header):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.csv"
            path.write_text(header and header + "\n0,1.0\n", encoding="utf-8")
            try:
                load_csv(path)
                outcome = "loads"
            except InputError as exc:
                outcome = exc
        if not self.fits_grammar(header):
            assert type(outcome) is InputError
            assert str(outcome) == f"{path}: line 1: bad header {header!r}"
        else:
            # the row after it loads or is the error
            assert outcome == "loads" or str(outcome).startswith(f"{path}: line 2: ")


def test_load_csv_peak_memory_is_within_twice_the_spectra(tmp_path):
    # the rows stream into one float64 buffer that becomes the spectra;
    # holding the file's text, its lines or a list of boxed floats per row
    # would each cost several times the payload, and BLOCK_ROWS bounds the
    # lines and boxed floats of the one block held at a time
    _, tgt = generate_pair(tiny_cfg(samples_per_class_target=1250))
    path = tmp_path / "scene.csv"
    save_csv(tgt, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.spectra, tgt.spectra)
    assert peak <= 2 * tgt.spectra.nbytes


def repr_csv(ds):
    """The bytes save_csv writes, by a per-row repr loop: save_csv's one
    bit-for-bit reference."""
    text = f"# scene={ds.name} bands={ds.bands} classes={ds.classes}\n"
    for label, row in zip(ds.labels.tolist(), ds.spectra):
        text += ",".join((str(label), *map(repr, row.tolist()))) + "\n"
    return text.encode()


def bits(labels, spectra):
    """Loaded arrays as their dtypes, shape and bytes, so that equal means
    equal bit for bit and the sign of -0.0 shows."""
    return labels.dtype, labels.tobytes(), spectra.dtype, spectra.shape, spectra.tobytes()


def line_load(path):
    """What load_csv gives for `path` by data.parse_rows over all its
    lines, one at a time: the bits of its arrays, or the text of its
    InputError."""
    with open(path, "rb") as f:
        header, *lines = f
    bands = int(re.search(rb"bands=(\d+)", header)[1])
    classes = int(re.search(rb"classes=(\d+)", header)[1])
    spectra, labels = array("d"), array("q")
    try:
        parse_rows(text_lines(lines, 2), 2, bands, classes, spectra, labels)
    except InputError as exc:
        return f"InputError: {path}: {exc}"
    if not labels:
        return f"InputError: {path}: dataset has no samples"
    return bits(np.array(labels, dtype=np.int64),
                np.array(spectra, dtype=np.float64).reshape(len(labels), bands))


def block_load(path):
    """load_csv(path) as line_load gives it."""
    try:
        ds = load_csv(path)
    except InputError as exc:
        return f"{type(exc).__name__}: {exc}"
    return bits(ds.labels, ds.spectra)


# float64 values of every kind save_csv meets: the edges of the range where
# orjson writes repr's text (1e-4 and 1e16, and their neighbours), signed
# zeros, subnormals, the extremes and the non-finite values
EDGES = [1e-4, 1e16, 0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
         1.7976931348623157e308, 1e-300, 1e300, 1e22, 1e23, 123456789012345.67,
         float("nan"), float("inf")]
EDGE_VALUES = st.sampled_from(
    [sign * v for v in EDGES + [math.nextafter(1e-4, 0), math.nextafter(1e16, 0),
                                math.nextafter(1e-4, 1), math.nextafter(1e16, math.inf)]
     for sign in (1.0, -1.0)])
FLOATS = EDGE_VALUES | st.floats(width=64) | st.floats(1e-6, 1e18) | st.floats(-1e3, 1e3)
BLOCK_SIZES = st.integers(1, 7) | st.just(data.BLOCK_ROWS)


@st.composite
def scenes(draw):
    """A scene of 0-5 bands and 0-20 rows of any float64 values, finite or
    not (save_csv writes what it is given)."""
    bands = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(FLOATS, min_size=bands, max_size=bands), max_size=20))
    labels = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    return SceneDataset("s", 3, np.array(rows, dtype=np.float64).reshape(len(rows), bands),
                        np.array(labels, dtype=np.int64))


# fields that JSON reads otherwise than int() and float() do, or not at all;
# those with "],[" make one line two rows in JSON's eyes
ODD_FIELDS = ["-0", "2", "true", "false", "null", "1e400", "-1e400", "1e-400",
              "99999999999999999999999", "+1.5", ".5", "1_0.5", "\u0661", "1,2],[3,4",
              "0.5],[1,0.5", "1],[0", "[1]", '"1"', '"2.5"', "{}", "1.0", " 2.5 ",
              "nan", "inf", "", "\ufeff1.5"]
# labels out of range or of another type than JSON's int
ODD_LABELS = ["-1", "3", "-0", "true", "1.0", "99999999999999999999999",
              "18446744073709551615"]


@st.composite
def scene_files(draw):
    """The bytes of a scene CSV of 0-4 bands and 3 classes: rows as save_csv
    writes them, some with an odd label or one field replaced by an odd
    one, some blank or not UTF-8; with LF or CRLF endings and perhaps no
    final newline."""
    bands = draw(st.integers(0, 4))
    lines = []
    for _ in range(draw(st.integers(0, 16))):
        fields = [str(draw(st.integers(0, 2)))] + [
            repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
            for _ in range(bands)]
        kind = draw(st.sampled_from(["row"] * 5 + ["label", "field", "blank", "bytes"]))
        if kind == "label":
            fields[0] = draw(st.sampled_from(ODD_LABELS))
        elif kind == "field":
            fields[draw(st.integers(0, bands))] = draw(st.sampled_from(ODD_FIELDS))
        line = {"blank": b"", "bytes": b"0,\xff"}.get(kind, ",".join(fields).encode())
        lines.append(line + draw(st.sampled_from([b"\n", b"\r\n"])))
    body = b"".join(lines)
    if draw(st.booleans()):
        body = body.removesuffix(b"\n")
    return f"# scene=s bands={bands} classes=3\n".encode() + body


class TestCsvBlocks:
    """save_csv and load_csv work BLOCK_ROWS rows at a time through orjson,
    with the bytes, arrays and errors of the per-line row grammar at
    every block size."""

    HEADER = b"# scene=s bands=2 classes=2\n"
    GOOD = b"0,1.0,2.0\n"
    # each kind of malformed row, and its error when it is line 17
    BAD = {"fields": b"1,1.0,2.0,3.0\n", "float": b"0,1.0,oops\n",
           "label": b"5,1.0,2.0\n", "non-finite": b"1,nan,4.0\n",
           "blank": b"\n", "utf8": b"1,3.0,\xff\n"}
    ERRORS = {"fields": "{path}: line 17: expected 3 fields, got 4",
              "float": "{path}: line 17: could not convert string to float: 'oops'",
              "label": "{path}: line 17: label 5 out of range [0, 2)",
              "non-finite": "{path}: line 17: non-finite band value",
              "blank": "{path}: line 17: expected 3 fields, got 1",
              "utf8": "{path}: line 17: 'utf-8' codec can't decode byte 0xff "
                      "in position 6: invalid start byte"}
    # line 17 falls in the first block, inside a later one, at the start of
    # one and at the end of one
    SIZES = [data.BLOCK_ROWS, 7, 5, 4]

    def every_block_size(self, path):
        """load_csv(path) at each block size of SIZES: each outcome, an
        InputError as its text."""
        outcomes = []
        for block_rows in self.SIZES:
            with patch.object(data, "BLOCK_ROWS", block_rows):
                try:
                    outcomes.append(load_csv(path))
                except InputError as exc:
                    outcomes.append(f"InputError: {exc}")
        return outcomes

    @given(ds=scenes(), block_rows=BLOCK_SIZES)
    @example(ds=SceneDataset("s", 3, np.zeros((3, 0)), np.array([0, 1, 2])), block_rows=2)
    @example(ds=SceneDataset("s", 3, np.array([[9.99e-05, 1e16, -0.0, float("nan")]] * 3),
                             np.array([0, 1, 2])), block_rows=2)
    @settings(max_examples=150)
    def test_save_matches_repr_csv(self, ds, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.csv"
            with patch.object(data, "BLOCK_ROWS", block_rows):
                save_csv(ds, path)
            assert path.read_bytes() == repr_csv(ds)

    # a default scene's block is 100-240 KB of text, so it is written in
    # several chunks of about FILE_BUFFER bytes; each holds rows that orjson
    # writes otherwise than repr
    def test_default_scenes_save_as_repr_csv(self, tmp_path):
        for ds in generate_pair(SynthConfig()):
            ds.spectra[::37, 3] = 9.99e-05
            save_csv(ds, tmp_path / "scene.csv")
            assert (tmp_path / "scene.csv").read_bytes() == repr_csv(ds)

    @given(content=scene_files(), block_rows=st.integers(1, 7))
    @example(content=b"# scene=s bands=1 classes=3\n-0,1.5\n0,-0\n1,true\n", block_rows=3)
    @example(content=b"# scene=s bands=2 classes=3\n0,1.5,2.5\n1,2],[3,4\n", block_rows=2)
    @example(content=b"# scene=s bands=1 classes=3\n0,1.5\n0,oops\n0,1.5\n0,\xff\n",
             block_rows=2)
    @example(content=b"# scene=s bands=0 classes=3\n0\n1],[0\n", block_rows=2)
    # lines that JSON reads as lists and a number: one item more than there
    # are lines, and (the first list nesting two lines) one item per line
    @example(content=b"# scene=s bands=1 classes=3\n0,1.5],5,[[\n0]\n", block_rows=2)
    @example(content=b"# scene=s bands=3 classes=3\n0,[1.5\n2.5\n3.5]],5,[0,1.5,2.5,3.5\n",
             block_rows=3)
    @example(content=b"# scene=s bands=1 classes=3\n0,1.5\n-1,1.5\n3,1.5\n", block_rows=3)
    @example(content=b"# scene=s bands=1 classes=3\n", block_rows=1)
    # a JSON string, which numpy would read as its number, and bare ints
    # other than 0 and 1, which are taken as orjson reads them
    @example(content=b'# scene=s bands=2 classes=3\n0,1.5,"2.5"\n0,5,2\n', block_rows=1)
    # values numpy cannot convert: a list and an object
    @example(content=b"# scene=s bands=2 classes=3\n0,[1.5],2.5\n0,{},2.5\n", block_rows=1)
    @settings(max_examples=200)
    def test_load_matches_line_load(self, content, block_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.csv"
            path.write_bytes(content)
            with patch.object(data, "BLOCK_ROWS", block_rows):
                assert block_load(path) == line_load(path)

    # every block of a default scene as save_csv writes it (io-eval's
    # traffic) is taken whole from orjson: no line goes through parse_rows
    def test_default_scenes_load_without_the_line_parser(self, tmp_path):
        for ds in generate_pair(SynthConfig()):
            ds.spectra[::37, 3] = 9.99e-05
            save_csv(ds, tmp_path / "scene.csv")
            with patch.object(data, "parse_rows", side_effect=AssertionError("parse_rows")):
                loaded = load_csv(tmp_path / "scene.csv")
            assert bits(loaded.labels, loaded.spectra) == bits(ds.labels, ds.spectra)

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_error_in_any_block_names_its_line(self, tmp_path, case):
        path = tmp_path / "scene.csv"
        path.write_bytes(self.HEADER + self.GOOD * 15 + self.BAD[case] + self.GOOD * 4)
        assert self.every_block_size(path) == [
            "InputError: " + self.ERRORS[case].format(path=path)] * len(self.SIZES)

    # orjson 3.8 refuses 1e400; a reader that reads it as inf and NaN as nan,
    # as the standard library's json does, leaves such a block to
    # _take_block's finite check, which hands it to parse_rows
    @pytest.mark.parametrize("line", [BAD["non-finite"], b"1,1e400,4.0\n", b"1,NaN,4.0\n"],
                             ids=["nan", "1e400", "NaN"])
    @pytest.mark.parametrize("block_rows", [data.BLOCK_ROWS, 2])
    def test_non_finite_values_read_as_inf_still_raise(self, tmp_path, line, block_rows):
        path = tmp_path / "scene.csv"
        path.write_bytes(self.HEADER + self.GOOD * 15 + line + self.GOOD * 4)
        with patch.multiple(data.orjson, loads=json.loads,
                            JSONDecodeError=json.JSONDecodeError), \
                patch.object(data, "BLOCK_ROWS", block_rows), \
                pytest.raises(InputError, match="^" + re.escape(
                    self.ERRORS["non-finite"].format(path=path)) + "$"):
            load_csv(path)

    # the error's text holds the file name, whatever its bytes
    @pytest.mark.parametrize("case", ["label", "utf8"])
    def test_an_error_names_a_file_name_that_is_not_utf8(self, tmp_path, case):
        path = tmp_path / os.fsdecode(b"\xff.csv")
        path.write_bytes(self.HEADER + self.GOOD * 15 + self.BAD[case] + self.GOOD * 4)
        assert self.every_block_size(path) == [
            "InputError: " + self.ERRORS[case].format(path=path)] * len(self.SIZES)

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_the_earlier_of_two_bad_lines_wins(self, tmp_path, case):
        later = sorted(self.BAD)[sorted(self.BAD).index(case) - 1]
        path = tmp_path / "scene.csv"
        path.write_bytes(self.HEADER + self.GOOD + self.BAD[case]
                         + self.GOOD * 15 + self.BAD[later] + self.GOOD * 4)
        first, *others = self.every_block_size(path)
        assert ": line 3: " in first
        assert others == [first] * len(others)
