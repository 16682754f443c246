"""Golden-log oracle: acceptance check 7's three seed-0 configs, and one
config with small, duplicate-heavy target batches, must reproduce these
exact bytes. A refactor that keeps every digest changed no logged or
checkpointed number; a change that moves them must say why.

The off config pins the plain softmax-CE agreement path, gradvac+logitnorm
the agreement-only pipeline with both toggles, and full all three phases.
dir+ensemble-ragged draws 37-row batches with replacement from a 15-row
few-shot split, so most rows of every private and ensemble batch repeat.
The digests depend on numpy's floating-point kernels, so they are pinned
to the numpy version they were recorded with and to one OpenBLAS kernel:
the four configs train in one child process with OPENBLAS_CORETYPE set to
KERNEL, and so give the same bits on every CPU that can run it. Run as a
script, this file trains them and prints their digests as JSON.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from xscene.harness import TrainConfig, save_checkpoint, train, write_log

RECORDED_NUMPY = "2.4.6"
# OpenBLAS's AVX2 kernel; the instruction sets it needs, as /proc/cpuinfo
# names them
KERNEL = "Haswell"
KERNEL_FLAGS = {"avx2", "fma"}
# config name -> (toggles, log SHA-256, checkpoint SHA-256)
GOLDEN = {
    "off": (
        {},
        "2cdf453e2ae43e00a9b8c3ca52bea8bce3e4beb83d4def418d70bf4d12d1ddca",
        "2d32883a079aeeab14d23fd7795fc5ed94a025c9c10215e752b46c28dfa839d1"),
    "gradvac+logitnorm": (
        dict(use_gradvac=True, use_logitnorm=True),
        "a8ea19c93c2c16caac3c4384f1826c308fca332db3cfd844f99e9012f612b5c3",
        "fc734f9f44758e9f856412f5d205bf663de61b2c2eb47a906d90e55fe03214fa"),
    "full": (
        dict(use_gradvac=True, use_logitnorm=True, use_ensemble=True,
             use_dir=True),
        "6a18c269f459c68d00305a1d271e418056f5234510e4096219e58c2f5749a7a1",
        "950a5d7eb07ea0c52c6820ae89cb6ebd54b3cec19d3b90d46dfa98ba00ed14ab"),
    "dir+ensemble-ragged": (
        dict(use_dir=True, use_ensemble=True, batch_size=37, shots=3,
             epochs_agree=8),
        "e800be0739290732cfb02132755d8e043c52472eb626b85e5ac1176543932d14",
        "6eb18d03eaa0464805cfcc8ae90c24d0a8d7fc67937f1fd36ace6ac40ff1924d"),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cpu_flags():
    """The CPU's feature flags from /proc/cpuinfo; empty where it has none."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines
                 if line.startswith("flags")), set())


def _digests():
    """{config name: [log SHA-256, checkpoint SHA-256]}, trained here."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        log, ckpt = Path(tmp, "run.jsonl"), Path(tmp, "model.bin")
        for name, (toggles, *_) in GOLDEN.items():
            rep = train(dataclasses.replace(TrainConfig(seed=0), **toggles))
            write_log(log, rep)
            save_checkpoint(ckpt, rep.bundle, meta={"eval_head": rep.eval_head})
            digests[name] = [_sha256(log), _sha256(ckpt)]
    return digests


@pytest.fixture(scope="module")
def digests():
    # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernel it loaded on stderr
    env = dict(os.environ, OPENBLAS_CORETYPE=KERNEL, OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    if f"Core: {KERNEL}" not in proc.stderr.splitlines():
        pytest.skip(f"golden digests recorded under OpenBLAS's {KERNEL} "
                    f"kernel, which numpy did not load: {proc.stderr!r}")
    return json.loads(proc.stdout)


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden digests recorded on numpy {RECORDED_NUMPY}, "
           f"running numpy {np.__version__}")
@pytest.mark.skipif(
    not KERNEL_FLAGS <= _cpu_flags(),
    reason=f"golden digests recorded under OpenBLAS's {KERNEL} kernel, "
           f"which needs {sorted(KERNEL_FLAGS)}; this CPU lacks them")
@pytest.mark.parametrize("name", list(GOLDEN))
def test_seed0_bytes(name, digests):
    assert digests[name] == list(GOLDEN[name][1:])


if __name__ == "__main__":
    print(json.dumps(_digests()))
