"""Synthetic cross-scene spectral datasets, few-shot subsampling, and
CSV persistence.

Each class owns a latent prototype; a scene renders samples by pushing
(prototype + noise_sigma * jitter) through its own band-mixing map. The
target map is a linear blend between a band-resampled copy of the source
map and a randomly rotated one, so conflict_strength sweeps the two
scenes from consistent to decorrelated. Shared classes reuse prototypes
across scenes; the rest get fresh ones.
"""

import math
import re
from array import array
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import countOf

import numpy as np
import orjson

from .errors import InputError
from .nn import check_nbytes

LATENT_DIM = 16
PROTO_SCALE = 0.4
# source classes sit in one tight family: separable with many samples,
# barely with a few shots, so the source loss keeps its gradients loud
FINE_RATIO = 0.12
# the source sensor records at a larger radiometric scale, which is what
# lets its logits and gradients dominate the shared encoder
SOURCE_BAND_STD = 3.0

# matched in full; counts of at most 18 digits keep every label in int64
_HEADER_RE = re.compile(r"# scene=(.+?) bands=([0-9]{1,18}) classes=([0-9]{1,18})")

# Rows per block of save_csv and load_csv. A block's lines, and when loading
# orjson's lists of boxed floats for them, are held whole, so this bounds
# what load_csv holds above the spectra:
# test_load_csv_peak_memory_is_within_twice_the_spectra.
BLOCK_ROWS = 256

# save_csv's and load_csv's file buffer, and about the most text save_csv
# joins at once. It takes a fifteenth of the write and read system calls of
# Python's default 8 KiB on io-eval's scenes, and stays under glibc's 128 KiB
# mmap threshold: joining a whole block's text, above it, moved peak RSS.
FILE_BUFFER = 64 * 1024

# the value types each field annotation accepts (a bool is not an int here)
_FIELD_TYPES = {bool: ("a bool", (bool,)), int: ("an int", (int,)),
                float: ("a finite number", (int, float))}


def at_least(bound, *, default):
    """A config field of `default` whose values check_fields holds at
    `bound` or above."""
    return field(default=default, metadata={"at_least": bound})


def check_fields(cfg):
    """Check a frozen config's fields, in declaration order, against their
    annotations and at_least bounds, and store float fields as floats; a
    bad value is an InputError naming its field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        what, types = _FIELD_TYPES.get(f.type, (f"a {f.type.__name__}", (f.type,)))
        if type(value) not in types or (type(value) is float
                                        and not math.isfinite(value)):
            raise InputError(f"{f.name} must be {what}, got {value!r}")
        if f.type is float:
            try:
                value = float(value)
            except OverflowError:
                raise InputError(f"{f.name} must be {what}, got an integer "
                                 "past the float range") from None
            object.__setattr__(cfg, f.name, value)
        bound = f.metadata.get("at_least")
        if bound is not None and value < bound:
            raise InputError(f"{f.name} must be >= {bound}, got {value}")


@dataclass
class SceneDataset:
    """A scene's arrays, checked where they enter: load_csv, generate_pair."""
    name: str
    classes: int
    spectra: np.ndarray  # (N, bands) float64, finite
    labels: np.ndarray   # (N,) int64, each in [0, classes)

    @property
    def bands(self):
        return self.spectra.shape[1]

    @property
    def n(self):
        return self.spectra.shape[0]

    def subset(self, indices):
        return SceneDataset(self.name, self.classes,
                            self.spectra[indices], self.labels[indices])


@dataclass(frozen=True)
class SynthConfig:
    bands_source: int = at_least(1, default=48)
    bands_target: int = at_least(1, default=32)
    # a classifier needs two classes
    classes_source: int = at_least(2, default=7)
    classes_target: int = at_least(2, default=5)
    shared_classes: int = at_least(0, default=3)
    samples_per_class_source: int = at_least(1, default=200)
    samples_per_class_target: int = at_least(1, default=60)
    noise_sigma: float = at_least(0, default=0.1)
    conflict_strength: float = 0.6
    seed: int = at_least(0, default=0)

    def __post_init__(self):
        check_fields(self)
        if self.shared_classes > min(self.classes_source, self.classes_target):
            raise InputError(
                f"shared_classes={self.shared_classes} exceeds the class counts"
            )
        if not 0.0 <= self.conflict_strength <= 1.0:
            raise InputError("conflict_strength must lie in [0, 1]")


def _band_resample(mix, bands_out):
    """Average the columns of a (latent, bands_in) map into bands_out
    buckets with fractional overlap weights; identity when sizes match."""
    bands_in = mix.shape[1]
    width = bands_in / bands_out
    s = np.arange(bands_in)[:, None]
    t = np.arange(bands_out)[None, :]
    # input band s overlaps bucket [t * width, (t + 1) * width) by this much
    overlap = np.minimum((t + 1) * width, s + 1) - np.maximum(t * width, s)
    return mix @ np.where(overlap > 0, overlap / width, 0.0)


def _random_rotation(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))[None, :]


def generate_pair(cfg):
    """Build a (source, target) scene pair; pure function of cfg.seed.
    Settings whose scenes overflow float64 are a config error."""
    # resampling weights, then per scene: prototypes, band map, jitter, spectra
    check_nbytes("synth: the scenes", 8 * (cfg.bands_source * cfg.bands_target + sum(
        LATENT_DIM * (classes + per_class + bands) + classes * per_class * bands
        for classes, per_class, bands in (
            (cfg.classes_source, cfg.samples_per_class_source, cfg.bands_source),
            (cfg.classes_target, cfg.samples_per_class_target, cfg.bands_target)))))
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _render_pair(cfg)
    except (OverflowError, FloatingPointError) as exc:
        raise InputError(f"synth: scene values overflow float64: {exc}") from None


def _render_pair(cfg):
    rng = np.random.default_rng(cfg.seed)
    latent = LATENT_DIM
    n_protos = cfg.classes_source + cfg.classes_target - cfg.shared_classes
    protos = PROTO_SCALE * rng.standard_normal((n_protos, latent))
    # source classes (including the shared ones) form one fine-grained
    # family that never trains to low loss, so its gradients stay loud;
    # fresh target classes keep coarse, well-separated prototypes
    family_center = protos[0].copy()
    offsets = FINE_RATIO * PROTO_SCALE * rng.standard_normal(
        (cfg.classes_source, latent))
    protos[:cfg.classes_source] = family_center + offsets

    # fixed mean per-band variance per scene keeps logit scales under
    # control whatever the prototype/noise ratio; class difficulty lives
    # in latent space, and the blend below cannot silently shrink the
    # target bands
    latent_var = PROTO_SCALE ** 2 + cfg.noise_sigma ** 2

    def normalize(mix, band_std):
        band_var = latent_var * (mix * mix).sum(axis=0).mean()
        return mix * (band_std / np.sqrt(band_var))

    mix_source = normalize(rng.standard_normal((latent, cfg.bands_source)),
                           SOURCE_BAND_STD)
    base = _band_resample(mix_source, cfg.bands_target)
    rotated = _random_rotation(latent, rng) @ base
    c = cfg.conflict_strength
    mix_target = normalize((1.0 - c) * base + c * rotated, 1.0)

    # the first shared_classes target classes reuse source prototypes
    ids = np.arange(cfg.classes_target)
    target_protos = np.where(ids < cfg.shared_classes, ids,
                             ids + cfg.classes_source - cfg.shared_classes)

    def render(name, mix, proto_ids, per_class):
        classes = len(proto_ids)
        spectra = np.empty((classes * per_class, mix.shape[1]))
        for k in range(classes):
            jitter = rng.standard_normal((per_class, latent))
            latent_points = protos[proto_ids[k]][None, :] + cfg.noise_sigma * jitter
            np.matmul(latent_points, mix, out=spectra[k * per_class:(k + 1) * per_class])
        labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
        perm = rng.permutation(spectra.shape[0])
        return SceneDataset(name, classes, spectra[perm], labels[perm])

    source = render("source", mix_source, np.arange(cfg.classes_source),
                    cfg.samples_per_class_source)
    target = render("target", mix_target, target_protos,
                    cfg.samples_per_class_target)
    return source, target


def sample_k_per_class(ds, k, seed):
    """Draw exactly k samples per class without replacement, from a scene
    that holds at least k of each; returns (train, heldout) with disjoint
    indices. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    picked = []
    for c in range(ds.classes):
        idx = np.flatnonzero(ds.labels == c)
        picked.append(rng.permutation(idx)[:k])
    train_idx = np.sort(np.concatenate(picked))
    mask = np.ones(ds.n, dtype=bool)
    mask[train_idx] = False
    heldout_idx = np.flatnonzero(mask)
    return ds.subset(train_idx), ds.subset(heldout_idx)


def save_csv(ds, path):
    """Header line `# scene=<name> bands=<B> classes=<C>`, then one
    `label,b0,...` row per sample, BLOCK_ROWS rows at a time. Every float
    is written as its repr, so the round trip is exact: a row takes
    orjson's text only when every value is ±0 or of magnitude in [1e-4,
    1e16), where that text is repr's, and format_rows writes the others
    and every row of a scene with no bands."""
    with open(path, "wb", buffering=FILE_BUFFER) as f:
        f.write(f"# scene={ds.name} bands={ds.bands} classes={ds.classes}\n".encode())
        for lo in range(0, ds.n, BLOCK_ROWS):
            f.writelines(_format_block(
                ds.labels[lo:lo + BLOCK_ROWS].tolist(),
                np.ascontiguousarray(ds.spectra[lo:lo + BLOCK_ROWS], dtype=np.float64)))


def _format_block(labels, values):
    """A block of labels and float64 rows as bytes chunks of about
    FILE_BUFFER bytes, each joined in C from its rows' `label,`, orjson
    text and newline (a row that orjson writes otherwise than repr is its
    format_rows line): cheaper than a write call per piece or a bytes
    object per line."""
    if not values.shape[1]:
        return [line.encode() for line in format_rows(labels, values.tolist())]
    size = np.abs(values)
    # orjson writes 9.99e-05 as 0.0000999, 1e16 as 1e16 and NaN or inf as
    # null; the test is written positively so that a NaN fails it
    exact = ((values == 0) | (size >= 1e-4) & (size < 1e16)).all(axis=1)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    rows = [(b"%d," % label, row, b"\n") for label, row in zip(labels, text[2:-2].split(b"],["))]
    for i in np.flatnonzero(~exact):
        rows[i] = (next(format_rows([labels[i]], [values[i].tolist()])).encode(),)
    step = max(1, FILE_BUFFER * len(rows) // len(text))
    return [b"".join(chain.from_iterable(rows[lo:lo + step])) for lo in range(0, len(rows), step)]


def format_rows(labels, rows):
    """The line of each label and row of floats (a row of no bands is its
    label alone); repr makes the round trip exact."""
    for label, row in zip(labels, rows):
        yield ",".join((str(label), *map(repr, row))) + "\n"


def load_csv(path):
    """Read a save_csv file, BLOCK_ROWS lines at a time, into one float64
    and one int64 buffer that become the dataset's arrays, so the file's
    text is never held whole. A block is taken from orjson when it reads
    the lines as parse_rows would (see _take_block), and from
    parse_rows otherwise. A malformed line raises InputError naming the
    file and the line, the first one if there are several."""
    spectra, labels = array("d"), array("q")
    try:
        with open(path, "rb", buffering=FILE_BUFFER) as f:
            header = next(text_lines(f, 1), "")
            m = _HEADER_RE.fullmatch(header)
            if not m:
                raise InputError(f"line 1: bad header {header!r}")
            name, bands, classes = m[1], int(m[2]), int(m[3])
            lineno = 2
            while lines := list(islice(f, BLOCK_ROWS)):
                if not _take_block(lines, bands, classes, spectra, labels):
                    parse_rows(text_lines(lines, lineno), lineno, bands, classes,
                               spectra, labels)
                lineno += len(lines)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not labels:
        raise InputError(f"{path}: dataset has no samples")
    return SceneDataset(name, classes,
                        np.frombuffer(spectra).reshape(len(labels), bands),
                        np.frombuffer(labels, dtype=np.int64))


def _take_block(lines, bands, classes, spectra, labels):
    """Append a block of raw lines' labels and values as orjson reads them,
    and return True, if that is what parse_rows would append: one
    list per line of bands + 1 items, an int label in [0, classes) and
    finite values. Otherwise append nothing and return False. The value
    checks cost per block, not per value. A quote rejects the block, since
    numpy would read the JSON string "2.5" as 2.5. A value numpy cannot
    convert (a list, an object, an int past the float range) rejects it.
    A value equal to 0 or 1 must be a float: JSON reads `-0` as the int 0,
    losing its sign, and `true` and `false` as bools. Every other int
    token reads as float() reads its text."""
    text = b"[[" + b"],[".join(lines) + b"]]"
    if b'"' in text:
        return False
    try:
        rows = orjson.loads(text)
    except orjson.JSONDecodeError:
        return False
    del text
    n = len(lines)
    if (len(rows) != n or countOf(map(type, rows), list) != n
            or any(len(row) != bands + 1 for row in rows)):
        return False
    heads = [row[0] for row in rows]
    if countOf(map(type, heads), int) != n or min(heads) < 0 or max(heads) >= classes:
        return False
    try:
        values = np.array(rows, dtype=np.float64)[:, 1:]
    except (TypeError, ValueError, OverflowError):
        return False
    if not np.isfinite(values).all():
        return False
    zero_one = np.argwhere((values == 0) | (values == 1)).tolist()
    if any(type(rows[r][c + 1]) is not float for r, c in zero_one):
        return False
    labels.fromlist(heads)
    spectra.frombytes(values.tobytes())
    return True


def text_lines(lines, lineno):
    """Each raw line (bytes, split at its newline byte alone, so a carriage
    return stays part of it) as UTF-8 text; the first is line `lineno`."""
    for lineno, raw in enumerate(lines, start=lineno):
        try:
            yield raw.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc


def parse_rows(lines, lineno, bands, classes, spectra, labels):
    """Append each line's label to `labels` (array "q") and its values to
    `spectra` (array "d"); the first line is line `lineno`. A malformed
    line raises InputError naming it."""
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split(",")
        if len(parts) != bands + 1:
            raise InputError(
                f"line {lineno}: expected {bands + 1} fields, got {len(parts)}"
            )
        try:
            label = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
        if not 0 <= label < classes:
            raise InputError(f"line {lineno}: label {label} out of range [0, {classes})")
        if not all(map(math.isfinite, values)):
            raise InputError(f"line {lineno}: non-finite band value")
        labels.append(label)
        spectra.fromlist(values)
