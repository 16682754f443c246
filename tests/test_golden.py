"""Golden-log oracle: acceptance check 7's three seed-0 configs, and one
config with small, duplicate-heavy target batches, must reproduce these
exact bytes. A refactor that keeps every digest changed no logged or
checkpointed number; a change that moves them must say why.

The off config pins the plain softmax-CE agreement path, gradvac+logitnorm
the agreement-only pipeline with both toggles, and full all three phases.
dir+ensemble-ragged draws 37-row batches with replacement from a 15-row
few-shot split, so most rows of every private and ensemble batch repeat.
The digests depend on numpy's floating-point kernels, so they are pinned
to the numpy version they were recorded with.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from xscene.harness import TrainConfig, save_checkpoint, train, write_log

RECORDED_NUMPY = "2.4.6"
# config name -> (toggles, log SHA-256, checkpoint SHA-256)
GOLDEN = {
    "off": (
        {},
        "4fac5a59b4bfbf2b952e13567f0e75359a60b5af062185d78df41792e0547474",
        "bc0372418d9381159e603ead88fea5568c77dc13046030ecf76ced960b3e80d9"),
    "gradvac+logitnorm": (
        dict(use_gradvac=True, use_logitnorm=True),
        "a55ad39ca15473d193851aeb4c89f732c190ae756cb5d1260321bc07f65f8b1f",
        "13d20e7ac69471e6346f0a2665a22e37b1829432b88952a681352754f6be5a3f"),
    "full": (
        dict(use_gradvac=True, use_logitnorm=True, use_ensemble=True,
             use_dir=True),
        "abf20157ac22352e05015f76da93c3844e7024f8e209ef70b0d7dc6272136b60",
        "af7d09d74714bd3c0cc24c6e4919c7dd777ef1c6a37fa7c6c94b4e191df9e55c"),
    "dir+ensemble-ragged": (
        dict(use_dir=True, use_ensemble=True, batch_size=37, shots=3,
             epochs_agree=8),
        "1f2afbad10e49ac603e05ede76754dec9cced3404dd294e29fda884ff196a976",
        "0905a45999e8bbc23662653f334681743e8ca1ce3f870f1f037a0a2c16a6434c"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden digests recorded on numpy {RECORDED_NUMPY}, "
           f"running numpy {np.__version__}")
@pytest.mark.parametrize("name", list(GOLDEN))
def test_seed0_bytes(name, tmp_path):
    toggles, log_sha, ckpt_sha = GOLDEN[name]
    rep = train(dataclasses.replace(TrainConfig(seed=0), **toggles))
    log, ckpt = tmp_path / "run.jsonl", tmp_path / "model.bin"
    write_log(log, rep)
    save_checkpoint(ckpt, rep.bundle, meta={"eval_head": rep.eval_head})
    assert _sha256(log) == log_sha
    assert _sha256(ckpt) == ckpt_sha
