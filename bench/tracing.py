"""Span tracer for the xscene benchmark.

The tracer wraps calls into each xscene module from outside the package;
nothing under src/ changes. A wrapper has to sit where the caller looks the
name up: `from .nn import adam_step` binds `xscene.harness.adam_step`, so
patching only `xscene.nn.adam_step` would miss every call the harness makes.
Methods and classmethods are patched on their class, which every caller
reaches through the instance or the class.

Spans are kept in memory as (name, start, end, parent, count) tuples, where
`parent` is the index of the enclosing span (-1 at the top) and `count` is a
per-call work count (rows, bytes) or 0. A span's layer is the part of its
name before the first dot; layers are the xscene modules.
"""

import contextlib
import functools
import os
import time


def _rows(args, result):
    return len(args[1])                      # Mlp.forward(self, x)


def _dcor_bytes(args, result):
    # the two n x n x d float64 difference tensors dcor_loss builds
    shared, private = args[0], args[1]
    n = len(shared)
    return 8 * n * n * (shared.shape[1] + private.shape[1])


def _file_bytes(args, result):
    return os.path.getsize(args[1] if len(args) > 1 else args[0])


def patch_table():
    """(owner, attribute, span name, count function) for every call site the
    benchmark's workloads reach."""
    from xscene import cli, harness, model
    from xscene.metrics import ConfusionMatrix
    from xscene.model import ModelBundle
    from xscene.nn import Mlp

    table = [
        (cli, "main", "cli.main", None),
        (harness, "train", "harness.train", None),
        (harness, "_run_agreement_phase", "harness.agree_phase", None),
        (harness, "_run_private_phase", "harness.private_phase", None),
        (harness, "_run_ensemble_phase", "harness.ensemble_phase", None),
        (harness, "evaluate", "harness.evaluate", None),
        (cli, "evaluate", "harness.evaluate", None),
        (cli, "load_checkpoint", "harness.load_checkpoint", None),
        (cli, "load_config", "harness.load_config", None),
        (ModelBundle, "build", "model.build", None),
        (harness, "agreement_backward", "model.agreement_backward", None),
        (harness, "forward_target_agree", "model.forward_target_agree", None),
        (harness, "forward_ensemble", "model.forward_ensemble", None),
        (harness, "forward_target_disagree", "model.forward_target_disagree", None),
        (Mlp, "forward", "nn.mlp_forward", _rows),
        (Mlp, "backward", "nn.mlp_backward", None),
        (harness, "adam_step", "nn.adam_step", None),
        (harness, "cosine_similarity", "agreement.cosine_similarity", None),
        (harness, "gradvac_update", "agreement.gradvac_update", None),
        (harness, "magnitude_similarity", "agreement.magnitude_similarity", None),
        (harness, "ema_update", "agreement.ema_update", None),
        (harness, "logitnorm", "agreement.logitnorm", None),
        (model, "logitnorm", "agreement.logitnorm", None),
        (model, "logitnorm_ce", "agreement.logitnorm_ce", None),
        (harness, "dcor_loss", "disagreement.dcor_loss", _dcor_bytes),
        (harness, "symmetric_kl", "disagreement.symmetric_kl", None),
        (harness, "generate_pair", "data.generate_pair", None),
        (cli, "generate_pair", "data.generate_pair", None),
        (harness, "sample_k_per_class", "data.sample_k_per_class", None),
        (cli, "save_csv", "data.save_csv", _file_bytes),
        (cli, "load_csv", "data.load_csv", _file_bytes),
        (ConfusionMatrix, "from_predictions", "metrics.confusion", None),
        (harness, "overall_accuracy", "metrics.overall_accuracy", None),
        (harness, "average_accuracy", "metrics.average_accuracy", None),
        (harness, "cohen_kappa", "metrics.cohen_kappa", None),
    ]
    for mod in (harness, model):
        for fn in ("softmax", "cross_entropy", "ce_logit_grad"):
            table.append((mod, fn, f"nn.{fn}", None))
    return table


class Tracer:
    """Records nested spans around patched call sites, in one thread."""

    def __init__(self):
        self.spans = []
        self.missing = []        # patch targets the program no longer has
        self._stack = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            work = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    work = count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, work)
        return traced

    @contextlib.contextmanager
    def installed(self, table):
        """Patch every call site in `table` for the duration of the block
        and restore the originals afterwards."""
        saved = []
        self.missing = []
        try:
            for owner, attr, name, count in table:
                orig = vars(owner).get(attr)
                if orig is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if isinstance(orig, classmethod):
                    new = classmethod(self._wrap(name, orig.__func__, count))
                else:
                    new = self._wrap(name, orig, count)
                setattr(owner, attr, new)
                saved.append((owner, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def take(self):
        """Hand over the spans recorded so far and start a fresh list. Call
        it outside `installed`: wrappers append to the list current when
        they were installed."""
        spans = self.spans
        self.spans = []
        return spans


def summarize(spans):
    """Per span name: [calls, inclusive seconds, self seconds, work count].
    Self time is a span's duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, work in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
        row[3] += work
    return out


def covered_seconds(spans):
    """Time inside the direct children of top-level spans: for a training,
    the set-up calls, the three phases and the evaluation."""
    top = {i for i, span in enumerate(spans) if span[3] < 0}
    return sum(end - start for _, start, end, parent, _ in spans if parent in top)
