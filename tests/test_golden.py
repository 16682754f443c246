"""Golden-log oracle: the seed-0 full-pipeline run must reproduce these
exact bytes. A refactor that keeps both digests changed no logged or
checkpointed number; a change that moves them must say why.

The digests depend on numpy's floating-point kernels, so they are pinned
to the numpy version they were recorded with.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from xscene.harness import TrainConfig, save_checkpoint, train, write_log

RECORDED_NUMPY = "2.4.6"
LOG_SHA256 = "fc2df6610f4aab4586c3fd9c14ae85d6a731f73dffee52cd515e5318767ee00c"
CHECKPOINT_SHA256 = "af7d09d74714bd3c0cc24c6e4919c7dd777ef1c6a37fa7c6c94b4e191df9e55c"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden digests recorded on numpy {RECORDED_NUMPY}, "
           f"running numpy {np.__version__}")
def test_full_pipeline_seed0_bytes(tmp_path):
    cfg = dataclasses.replace(TrainConfig(seed=0), use_gradvac=True,
                              use_logitnorm=True, use_ensemble=True,
                              use_dir=True)
    rep = train(cfg)
    log, ckpt = tmp_path / "run.jsonl", tmp_path / "model.bin"
    write_log(log, rep)
    save_checkpoint(ckpt, rep.bundle, meta={"eval_head": rep.eval_head})
    assert _sha256(log) == LOG_SHA256
    assert _sha256(ckpt) == CHECKPOINT_SHA256
