"""Synthetic cross-scene spectral datasets, few-shot subsampling, and
CSV persistence.

Each class owns a latent prototype; a scene renders samples by pushing
(prototype + noise_sigma * jitter) through its own band-mixing map. The
target map is a linear blend between a band-resampled copy of the source
map and a randomly rotated one, so conflict_strength sweeps the two
scenes from consistent to decorrelated. Shared classes reuse prototypes
across scenes; the rest get fresh ones.
"""

import contextlib
import math
import os
import re
import shutil
import subprocess
import sys
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .csvrows import format_rows, parse_rows, serve, text_lines
from .errors import ConfigError, DataError, ParseError
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

# A scene CSV smaller than this (its spectra's float64 bytes when saving,
# its file's bytes when loading) is written or read in this process alone.
# A worker takes 23-29 ms to start and join, and on the default 1.3 MB
# source scene (2 vCPUs, three sets of 30 alternations) split medians of
# 0.057-0.066 s to load and 0.080-0.109 s to save gave no resolved gain
# over serial ones of 0.056-0.060 s and 0.098-0.102 s.
SPLIT_MIN_BYTES = 2 << 20
# values per read of a worker's reply, so the reply is never held whole
READ_CHUNK = 1 << 13
# a worker imports csvrows alone, from this package's folder: no site
# packages, no numpy
_WORKER_CODE = (
    "import sys; "
    f"sys.path.insert(0, {os.path.dirname(os.path.dirname(os.path.abspath(__file__)))!r}); "
    f"from {serve.__module__} import {serve.__name__}; {serve.__name__}()")

# the value types each field annotation accepts (a bool is not an int here)
_FIELD_TYPES = {bool: ("a bool", (bool,)), int: ("an int", (int,)),
                float: ("a finite number", (int, float))}


def check_field_types(cfg):
    """Check a frozen config's fields against their annotations and store
    float fields as floats; a bad value is a ConfigError naming its field."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        what, types = _FIELD_TYPES.get(f.type, (f"a {f.type.__name__}", (f.type,)))
        if type(value) not in types or (type(value) is float
                                        and not math.isfinite(value)):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if f.type is float:
            try:
                object.__setattr__(cfg, f.name, float(value))
            except OverflowError:
                raise ConfigError(f"{f.name} must be {what}, got an integer "
                                  "past the float range") from None


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
    bands_source: int = 48
    bands_target: int = 32
    classes_source: int = 7
    classes_target: int = 5
    shared_classes: int = 3
    samples_per_class_source: int = 200
    samples_per_class_target: int = 60
    noise_sigma: float = 0.1
    conflict_strength: float = 0.6
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        counts = (self.bands_source, self.bands_target, self.classes_source,
                  self.classes_target, self.samples_per_class_source,
                  self.samples_per_class_target)
        if any(c < 1 for c in counts):
            raise ConfigError("all band/class/sample counts must be >= 1")
        for key in ("classes_source", "classes_target"):
            if getattr(self, key) < 2:
                raise ConfigError(f"{key} must be >= 2: a classifier needs "
                                  f"two classes, got {getattr(self, key)}")
        if not 0 <= self.shared_classes <= min(self.classes_source, self.classes_target):
            raise ConfigError(
                f"shared_classes={self.shared_classes} exceeds the class counts"
            )
        if self.noise_sigma < 0.0:
            raise ConfigError("noise_sigma must be >= 0")
        if not 0.0 <= self.conflict_strength <= 1.0:
            raise ConfigError("conflict_strength must lie in [0, 1]")


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
        raise ConfigError(f"synth: scene values overflow float64: {exc}") from None


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
    `label,b0,...` row per sample. Floats use repr so the round-trip is
    exact. A scene of at least SPLIT_MIN_BYTES of spectra has its second
    half of rows formatted by a worker process while this one formats the
    first; the worker's lines are then copied into the file in chunks."""
    mine = ds.n // 2 if ds.spectra.nbytes >= SPLIT_MIN_BYTES else ds.n
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# scene={ds.name} bands={ds.bands} classes={ds.classes}\n")
        with (_worker(path, ["format", ds.bands, ds.n - mine], feed=(
                np.ascontiguousarray(ds.labels[mine:], dtype=np.int64),
                np.ascontiguousarray(ds.spectra[mine:], dtype=np.float64)))
              if mine < ds.n else contextlib.nullcontext()) as reply:
            f.writelines(format_rows(ds.labels[:mine].tolist(),
                                     (row.tolist() for row in ds.spectra[:mine])))
            if reply is not None:
                f.flush()
                shutil.copyfileobj(reply, f.buffer)


def load_csv(path):
    """Read a save_csv file. Rows stream into one float64 and one int64
    buffer that become the dataset's arrays, so the file's text is never
    held whole. A file of at least SPLIT_MIN_BYTES has the rows that start
    in its second half parsed by a worker process while this one parses
    the first; the worker's arrays are then read into the buffers in
    chunks. A malformed line raises ParseError naming the file and the
    line, the earliest one if there are several."""
    spectra, labels = array("d"), array("q")
    try:
        with open(path, "rb") as f:
            header = next(text_lines(f, 1, math.inf), "")
            m = _HEADER_RE.fullmatch(header)
            if not m:
                raise ParseError(f"line 1: bad header {header!r}")
            name, bands, classes = m[1], int(m[2]), int(m[3])
            # the worker takes the lines that start at or past byte `split`;
            # a pipe's size reads 0, so it stays in this process
            size = os.fstat(f.fileno()).st_size
            split = max(f.tell(), size // 2) if size >= SPLIT_MIN_BYTES else size
            with (_worker(path, ["parse", os.fsdecode(path), split, bands, classes])
                  if split < size else contextlib.nullcontext()) as reply:
                limit = math.inf if reply is None else split - f.tell()
                parse_rows(text_lines(f, 2, limit), 2, bands, classes,
                           spectra, labels)
                if reply is not None:
                    _read_rows(path, reply, bands, spectra, labels)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not labels:
        raise DataError(f"{path}: dataset has no samples")
    return SceneDataset(name, classes,
                        np.frombuffer(spectra).reshape(len(labels), bands),
                        np.frombuffer(labels, dtype=np.int64))


@contextlib.contextmanager
def _worker(path, args, feed=()):
    """One csvrows.serve process on `args`, given the buffers in `feed`
    on its stdin; the body gets its stdout. The worker is killed if the
    body raises and waited for on every path; a worker that cannot start
    or exits non-zero raises OSError."""
    with subprocess.Popen([sys.executable, "-I", "-S", "-c", _WORKER_CODE,
                           *map(str, args)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        try:
            # a worker that ends before reading its input is reported by its
            # exit status, not by the broken pipe
            with contextlib.suppress(BrokenPipeError):
                try:
                    for buffer in feed:
                        proc.stdin.write(buffer)
                finally:
                    proc.stdin.close()
            yield proc.stdout
        except BaseException:
            proc.kill()
            raise
    if proc.returncode:
        raise OSError(f"{path}: the CSV worker exited with status {proc.returncode}")


def _read_rows(path, reply, bands, spectra, labels):
    """Append a parse worker's reply (see csvrows.serve) to the caller's
    buffers, READ_CHUNK values at a time."""
    count = array("q")
    try:
        count.fromfile(reply, 1)
        if count[0] < 0:
            raise ParseError(reply.read(-count[0]).decode())
        labels.fromfile(reply, count[0])
        for left in range(count[0] * bands, 0, -READ_CHUNK):
            spectra.fromfile(reply, min(left, READ_CHUNK))
    except EOFError:
        raise OSError(f"{path}: the CSV worker's reply ended early") from None
