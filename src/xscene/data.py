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
from dataclasses import dataclass, fields

import numpy as np

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

_HEADER_RE = re.compile(r"^# scene=(.+?) bands=(\d+) classes=(\d+)$")

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
    weights = np.zeros((bands_in, bands_out))
    width = bands_in / bands_out
    for t in range(bands_out):
        lo, hi = t * width, (t + 1) * width
        for s in range(int(np.floor(lo)), int(np.ceil(hi))):
            overlap = min(hi, s + 1) - max(lo, s)
            if overlap > 0:
                weights[s, t] = overlap / width
    return mix @ weights


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

    source_protos = np.arange(cfg.classes_source)
    target_protos = np.array(
        [k if k < cfg.shared_classes else cfg.classes_source + k - cfg.shared_classes
         for k in range(cfg.classes_target)]
    )

    def render(name, mix, proto_ids, per_class, bands, classes):
        spectra = np.empty((classes * per_class, bands))
        for k in range(classes):
            jitter = rng.standard_normal((per_class, latent))
            latent_points = protos[proto_ids[k]][None, :] + cfg.noise_sigma * jitter
            np.matmul(latent_points, mix, out=spectra[k * per_class:(k + 1) * per_class])
        labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
        perm = rng.permutation(spectra.shape[0])
        return SceneDataset(name, classes, spectra[perm], labels[perm])

    source = render("source", mix_source, source_protos,
                    cfg.samples_per_class_source, cfg.bands_source,
                    cfg.classes_source)
    target = render("target", mix_target, target_protos,
                    cfg.samples_per_class_target, cfg.bands_target,
                    cfg.classes_target)
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
    exact."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(f"# scene={ds.name} bands={ds.bands} classes={ds.classes}\n")
        for label, row in zip(ds.labels.tolist(), ds.spectra):
            f.write(str(label) + "," + ",".join(repr(v) for v in row.tolist()) + "\n")


def load_csv(path):
    """Read a save_csv file. Rows stream into one float64 and one int64
    buffer that become the dataset's arrays, so the file's text is never
    held whole. A malformed line raises ParseError naming it."""
    spectra, labels = array("d"), array("q")
    with open(path, "rb") as f:
        lines = _text_lines(path, f)
        header = next(lines, None)
        if header is None:
            raise ParseError("line 1: missing header")
        m = _HEADER_RE.match(header)
        if not m:
            raise ParseError(f"line 1: bad header {header!r}")
        name, bands, classes = m.group(1), int(m.group(2)), int(m.group(3))
        if classes > np.iinfo(np.int64).max:
            raise ParseError(f"line 1: classes={classes} does not fit int64")
        for lineno, line in enumerate(lines, start=2):
            parts = line.split(",")
            if len(parts) != bands + 1:
                raise ParseError(
                    f"line {lineno}: expected {bands + 1} fields, got {len(parts)}"
                )
            try:
                label = int(parts[0])
                values = [float(p) for p in parts[1:]]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            if not 0 <= label < classes:
                raise ParseError(f"line {lineno}: label {label} out of range [0, {classes})")
            if not all(map(math.isfinite, values)):
                raise ParseError(f"line {lineno}: non-finite band value")
            labels.append(label)
            spectra.fromlist(values)
    if not labels:
        raise DataError(f"{path}: dataset has no samples")
    return SceneDataset(name, classes,
                        np.frombuffer(spectra).reshape(len(labels), bands),
                        np.frombuffer(labels, dtype=np.int64))


def _text_lines(path, f):
    """The lines of binary file `f` as UTF-8 text, split at each newline
    byte alone, so a carriage return stays part of its line."""
    for lineno, raw in enumerate(f, start=1):
        try:
            yield raw.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
