"""Three-phase training loop over one run state, ablation ladder,
evaluation, and the file formats the CLI speaks (JSON config, JSON-lines
metric log, binary checkpoint).

Phase A trains the agreement branch on both scenes with optional gradient
surgery and logit normalization on the shared encoder. Phase B trains the
private target branch under the decorrelation penalty against the frozen
shared features. Phase C trains the ensemble against both frozen teachers
with symmetric-KL distillation. Later phases run only when their toggles
ask for them; evaluation uses the ensemble head when it was trained and
the agreement target head otherwise.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .agreement import ema_update, gradvac_update, logitnorm
from .data import (SceneDataset, SynthConfig, at_least, check_fields,
                   generate_pair, sample_k_per_class)
from .disagreement import log_softmax, smoothed_distances
from .errors import DivergenceError, InputError
from .metrics import (ConfusionMatrix, average_accuracy, cohen_kappa,
                      overall_accuracy)
from .model import (COMPONENT_ORDER, HEADS, ModelBundle, agreement_backward,
                    ensemble_backward, predict, private_backward)
from .nn import adam_step, check_nbytes, n_params

CHECKPOINT_MAGIC = "xscene-checkpoint-v1"

# rows evaluate() pushes through a network at once
EVAL_BLOCK_ROWS = 4096

# the four components under study; row k of the ablation ladder switches
# on the first k of them
TOGGLES = ("use_gradvac", "use_logitnorm", "use_ensemble", "use_dir")

# the hyperparameters of those components are held fixed, not studied:
# Adam's learning rate and weight decay, GradVac's EMA rate, LogitNorm's
# tau, and the distillation temperatures of the agreement and private
# teachers; so are the network widths (extractor features, hidden layers,
# encoder outputs)
LR = 5e-4
WEIGHT_DECAY = 5e-3
EMA_BETA = 0.1
LOGITNORM_TAU = 2.0
TEMP_AGREE = 1.0
TEMP_DISAGREE = 0.05
FEAT_DIM, HIDDEN_DIM, ENC_DIM = 32, 64, 32


@dataclass(frozen=True)
class TrainConfig:
    seed: int = at_least(0, default=0)
    batch_size: int = at_least(1, default=64)
    epochs_agree: int = at_least(0, default=40)
    epochs_disagree: int = at_least(0, default=20)
    epochs_ensemble: int = at_least(0, default=20)
    shots: int = at_least(1, default=10)
    use_gradvac: bool = False
    use_logitnorm: bool = False
    use_ensemble: bool = False
    use_dir: bool = False
    synth: SynthConfig = field(default_factory=SynthConfig)

    def __post_init__(self):
        check_fields(self)
        if self.use_dir and self.batch_size < 2:
            raise InputError("use_dir needs batch_size >= 2: distance "
                             "correlation compares the rows of a batch")
        if self.shots >= self.synth.samples_per_class_target:
            raise InputError(
                f"shots={self.shots} leaves no evaluation rows: each target "
                f"class has {self.synth.samples_per_class_target} samples")


def config_from_dict(raw, _cls=None):
    """Build a TrainConfig from a plain dict; unknown keys anywhere are
    config errors, and the config checks its own values."""
    cls = _cls or TrainConfig
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
        if key == "synth":
            if not isinstance(value, dict):
                raise InputError("synth must be an object of SynthConfig keys")
            value = config_from_dict(value, _cls=SynthConfig)
        kwargs[key] = value
    return cls(**kwargs)


def _decode_json(data, context):
    """Parse UTF-8 JSON bytes. Bytes that are not UTF-8, an integer past
    Python's digit limit and nesting past the recursion limit raise
    InputError, prefixed by `context`, like any other malformed JSON."""
    try:
        return json.loads(data.decode("utf-8"))
    # ValueError covers UnicodeDecodeError and json.JSONDecodeError
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{context}: {exc}") from exc


def load_config(path):
    with open(path, "rb") as f:
        raw = _decode_json(f.read(), path)
    if not isinstance(raw, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


@dataclass
class Run:
    """The state the phases of one training advance; no scene but the
    few-shot target split. train() sets the evaluated head and its
    metrics (percentages)."""
    cfg: TrainConfig
    split: SceneDataset
    bundle: ModelBundle = field(repr=False)
    # a string: np.random.Generator would import numpy.random with this
    # module, not at the first train(), and raise io-eval's peak RSS 4 MB
    rng: "np.random.Generator" = field(repr=False)
    steps_per_epoch: int
    steps: list = field(default_factory=list)
    eval_head: str = None
    oa: float = None
    aa: float = None
    kappa: float = None

    def batches(self, epochs=1):
        """Each step's row indices into the split, resampled with
        replacement (the split is smaller than a batch). They are drawn
        one epoch at a time, which gives the same indices, and leaves the
        generator in the same state, as one draw per step."""
        size = (self.steps_per_epoch, self.cfg.batch_size)
        for _ in range(epochs):
            yield from self.rng.integers(0, self.split.n, size=size)

    def log(self, record):
        """Append one step's log record; a non-finite float in it means the
        training diverged, and the error names the phase, step and key."""
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DivergenceError(
                    f"{record['phase']} step {record['step']}: {key} is {value}")
        self.steps.append(record)

    def metrics_dict(self):
        return {"oa": round(self.oa, 2), "aa": round(self.aa, 2),
                "kappa": round(self.kappa, 2)}


def evaluate(bundle, ds, head):
    """Argmax classification of a target dataset by `head` (a HEADS key);
    returns (OA, AA, kappa) as fractions. The dataset has rows: load_csv
    rejects a file with none, and TrainConfig rejects shots that leave no
    evaluation split. The head's networks must chain from the dataset's
    bands to its classes, which is checked before any row is scored. Rows
    are scored EVAL_BLOCK_ROWS at a time, so beyond the dataset it holds
    one block's activations and the predictions; logits that overflow
    raise InputError."""
    width, given = ds.bands, f"the dataset's {ds.bands} bands"
    for name in HEADS[head]:
        mlp = getattr(bundle, name)
        if mlp.dims[0] != width:
            raise InputError(f"{name} of the {head} head has fan-in "
                             f"{mlp.dims[0]} but is given {given}")
        width, given = mlp.dims[-1], f"{name}'s {mlp.dims[-1]} outputs"
    if width != ds.classes:
        raise InputError(f"dataset has {ds.classes} classes but the {head} "
                         f"head predicts {width}")
    preds = np.empty(ds.n, dtype=np.intp)
    for lo in range(0, ds.n, EVAL_BLOCK_ROWS):
        # errstate sees only this thread's flags, not OpenBLAS's workers'
        with np.errstate(all="ignore"):
            logits = predict(bundle, head, ds.spectra[lo:lo + EVAL_BLOCK_ROWS])
        if not np.isfinite(logits).all():
            raise InputError(f"evaluating the {head} head: logits overflow float64")
        logits.argmax(axis=1, out=preds[lo:lo + EVAL_BLOCK_ROWS])
    cm = ConfusionMatrix.from_predictions(ds.classes, ds.labels, preds)
    return overall_accuracy(cm), average_accuracy(cm), cohen_kappa(cm)


def _run_agreement_phase(run, source):
    cfg, bundle, split = run.cfg, run.bundle, run.split
    tau = LOGITNORM_TAU if cfg.use_logitnorm else None
    alpha = 0.0
    step = 0
    for _ in range(cfg.epochs_agree):
        order = run.rng.permutation(source.n)
        spectra, labels = source.spectra[order], source.labels[order]
        for start, idx in zip(range(0, source.n, cfg.batch_size), run.batches()):
            chunk = slice(start, start + cfg.batch_size)
            batch_s = (spectra[chunk], labels[chunk])
            batch_t = (split.spectra[idx], split.labels[idx])
            g_s, g_t, loss_s, loss_t = agreement_backward(bundle, batch_s,
                                                          batch_t, tau)
            g, figures = gradvac_update(g_s, g_t, alpha, cfg.use_gradvac)
            g_t += g  # g_t is the shared encoder's gradient buffer
            step += 1
            adam_step(bundle.agreement, LR, weight_decay=WEIGHT_DECAY, t=step)
            run.log({"phase": "agree", "step": step, "alpha": alpha,
                     "loss_s": loss_s, "loss_t": loss_t, **figures})
            alpha = ema_update(alpha, figures["phi_raw"], EMA_BETA)


def _run_private_phase(run):
    cfg, bundle, split = run.cfg, run.bundle, run.split
    # the shared side is frozen: its distances over the few-shot split are
    # computed once, and each batch's rows and columns are gathered from them
    shared_dist = None
    if cfg.use_dir:
        shared_dist = smoothed_distances(bundle.shared_encoder.predict(
            bundle.target_extractor.predict(split.spectra)))
    for t, idx in enumerate(run.batches(cfg.epochs_disagree), start=1):
        loss_ce, dcor = private_backward(bundle, split.spectra[idx],
                                         split.labels[idx], shared_dist, idx)
        adam_step(bundle.private, LR, weight_decay=WEIGHT_DECAY, t=t)
        run.log({
            "phase": "disagree", "step": t, "loss_ce": loss_ce, "dcor": dcor,
            "loss": loss_ce if dcor is None else loss_ce + dcor,
        })


def _run_ensemble_phase(run):
    cfg, bundle, split = run.cfg, run.bundle, run.split
    # the extractor and both teachers are frozen: run them once over the
    # few-shot split, take the teachers' log probabilities at their
    # temperatures once, and gather each batch's rows
    base_all = bundle.target_extractor.predict(split.spectra)
    agree_all = predict(bundle, "agree", split.spectra)
    # under logit normalization the agreement head's trained distribution
    # is softmax of the *normalized* logits; distill from those, not from
    # the raw logits whose scale the normalized loss never controlled
    if cfg.use_logitnorm:
        agree_all = logitnorm(agree_all, LOGITNORM_TAU)
    agree_lp = log_softmax(agree_all, TEMP_AGREE)
    disagree_lp = log_softmax(predict(bundle, "disagree", split.spectra),
                              TEMP_DISAGREE)
    for t, idx in enumerate(run.batches(cfg.epochs_ensemble), start=1):
        loss_ce, e1, e2 = ensemble_backward(
            bundle, base_all[idx], split.labels[idx],
            (agree_lp[idx], TEMP_AGREE), (disagree_lp[idx], TEMP_DISAGREE))
        adam_step(bundle.ensemble, LR, weight_decay=WEIGHT_DECAY, t=t)
        run.log({
            "phase": "ensemble", "step": t, "loss_ce": loss_ce, "e_en1": e1,
            "e_en2": e2, "e_en": e1 + e2, "loss": loss_ce + (e1 + e2),
        })


@np.errstate(over="raise", invalid="raise", divide="raise")
def train(cfg):
    """Run the full pipeline for one config and return its Run. Overflow,
    invalid values and division by zero raise, so a diverging run stops
    at the step where it first leaves the finite floats; the error names
    the phase and the step."""
    check_nbytes("a batch's row indices", 8 * cfg.batch_size)
    init_ss, shot_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    source, target = generate_pair(cfg.synth)
    split, tgt_eval = sample_k_per_class(target, cfg.shots, shot_ss)
    bundle = ModelBundle.build(
        cfg.synth.bands_source, cfg.synth.bands_target,
        cfg.synth.classes_source, cfg.synth.classes_target,
        FEAT_DIM, HIDDEN_DIM, ENC_DIM, np.random.default_rng(init_ss))
    run = Run(cfg, split, bundle, np.random.default_rng(batch_ss),
              -(-source.n // cfg.batch_size))
    # phases are looked up per call, so wrappers on the module see them
    for phase, run_phase, enabled in (
            ("agree", lambda run: _run_agreement_phase(run, source), True),
            ("disagree", _run_private_phase, cfg.use_dir or cfg.use_ensemble),
            ("ensemble", _run_ensemble_phase, cfg.use_ensemble)):
        if not enabled:
            continue
        start = len(run.steps)
        try:
            run_phase(run)
        except FloatingPointError as exc:
            raise DivergenceError(
                f"{phase} step {len(run.steps) - start + 1}: {exc}") from None

    run.eval_head = "ensemble" if cfg.use_ensemble else "agree"
    oa, aa, kappa = evaluate(bundle, tgt_eval, run.eval_head)
    run.oa, run.aa, run.kappa = oa * 100.0, aa * 100.0, kappa * 100.0
    return run


def ablate(cfg):
    """Run the cumulative five-row component ladder with a shared seed;
    returns [(row_name, Run)]. Every row's config is built, and so
    checked, before the first row trains."""
    ladder = [("+" + TOGGLES[k - 1].removeprefix("use_") if k else "baseline",
               dataclasses.replace(cfg, **{key: key in TOGGLES[:k]
                                           for key in TOGGLES}))
              for k in range(len(TOGGLES) + 1)]
    return [(name, train(row_cfg)) for name, row_cfg in ladder]


def _json_line(record):
    # strict JSON: NaN and Infinity are not JSON tokens
    return json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"


def write_log(path, run):
    """JSON-lines metric log: one object per step, then the final metrics
    as percentages rounded to two decimals."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        for step in run.steps:
            f.write(_json_line(step))
        f.write(_json_line(run.metrics_dict()))


def write_ablation_log(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        for i, (name, run) in enumerate(rows, start=1):
            record = {"row": i, "name": name,
                      **{key: getattr(run.cfg, key) for key in TOGGLES},
                      **run.metrics_dict()}
            f.write(_json_line(record))


def save_checkpoint(path, bundle, meta=None):
    """JSON header line (layout + metadata), then the bundle's parameter
    vector as little-endian float64: component by component in
    COMPONENT_ORDER, each layer's weights before its biases."""
    header = {"format": CHECKPOINT_MAGIC, "layout": bundle.layout(),
              "meta": meta or {}}
    with open(path, "wb") as f:
        f.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        f.write(bundle.params[0].astype("<f8").tobytes())


def load_checkpoint(path):
    with open(path, "rb") as f:
        raw = f.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise InputError(f"{path}: missing checkpoint header")
    header = _decode_json(raw[:newline], f"{path}: bad checkpoint header")
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a {CHECKPOINT_MAGIC} file")
    layout = header.get("layout")
    if not isinstance(layout, dict) or set(layout) != set(COMPONENT_ORDER):
        raise InputError(f"{path}: checkpoint layout must name exactly the "
                         f"components {', '.join(COMPONENT_ORDER)}")
    for name, dims in layout.items():
        if not (isinstance(dims, list) and len(dims) >= 2
                and all(type(d) is int and d >= 1 for d in dims)):
            raise InputError(f"{path}: checkpoint layout dims of {name} must be "
                             "a list of at least 2 ints, each at least 1")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError(f"{path}: checkpoint meta must be an object")
    head = meta.get("eval_head", "agree")
    if not isinstance(head, str) or head not in HEADS:
        raise InputError(f"{path}: unknown evaluation head {head!r}")
    # size the blob against the layout before allocating anything for it
    expected = sum(n_params(dims) for dims in layout.values())
    blob = raw[newline + 1:]
    if len(blob) != 8 * expected:
        raise InputError(f"{path}: checkpoint holds {len(blob)} bytes of "
                         f"parameters, expected {8 * expected}")
    bundle = ModelBundle(layout)
    bundle.params[0] = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(bundle.params[0]).all():
        raise InputError(f"{path}: checkpoint holds non-finite parameters")
    return bundle, head
