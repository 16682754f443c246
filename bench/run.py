"""Benchmark for the xscene lab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, with no threads or worker processes, on
the package under src/ of the checkout this file sits in. The seed feeds
both TrainConfig.seed and SynthConfig.seed. After a set-up, the workload's
operation is repeated until S seconds have passed (at least twice), and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Workloads (see BENCHMARK.json for why each was chosen):
  train-full   one default-scale train() with all four toggles on
  seed-ladder  acceptance check 7's three configs (off, gradvac+logitnorm,
               full), train() over LADDER_SEEDS consecutive seeds
  io-eval      `xscene gen-data` of an enlarged target scene, then
               `xscene eval` of a checkpoint trained during set-up

End-to-end metrics (--trace 0, tracing off):
  setup_s           imports (timed from the first line of this file) plus
                    the median of SETUP_REPEATS workload set-ups
  wall_s            median wall time of one operation
  throughput_per_s  median per operation of logged optimizer steps per
                    second (training workloads) or target rows per second
                    of `gen-data` plus `eval` (io-eval)
  peak_rss_mb       peak resident memory of the process
Every time above is scaled to one host speed by the yardstick() measured
around it; the times as measured, the speeds and oa_pct (the mean eval-head
OA of the full-config trainings, or the OA `eval` prints on io-eval) are
printed and kept in the manifest.

Per-layer metrics (--trace 1) come from spans recorded around the calls
into each xscene module (see tracing.py). Layers are the modules: harness,
model, nn, agreement, disagreement, data, metrics, cli. Times and ratios are
medians over traced operations of the per-operation figure; counts and
bytes are per operation and must repeat exactly. Traced and untraced
operations alternate, and trace.overhead_s is their difference in median
wall time. In a traced training, the spans of the set-up calls, the three
phases and the evaluation must cover MIN_TRACE_COVERAGE of the wall time.

An operation fails when it raises, when `xscene` returns non-zero, when a
logged loss or gradient norm is non-finite, when a repeat of the same seed
logs different bytes, when the CSV round trip is not exact, or when `eval`
after the checkpoint reload disagrees with the in-memory evaluation. A
manifest (seed, versions, BLAS threads, log SHA-256s) and, for traced runs,
the spans go to .bench_out/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse
import collections
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
YARDSTICK_REF_S = 0.04     # yardstick time at the host speed end-to-end times are quoted at
MIN_REPEATS = 2            # a repeat of each seed is what the determinism gate compares
LADDER_SEEDS = 2
IO_ROWS_PER_CLASS = {"default": 4000, "tiny": 100}
MIN_TRACE_COVERAGE = 0.9   # share of a traced training the phase and set-up spans cover
LAYERS = ("harness", "model", "nn", "agreement", "disagreement", "data", "metrics")

FULL = dict(use_gradvac=True, use_logitnorm=True, use_ensemble=True, use_dir=True)
LADDER = (("off", {}),
          ("gradvac+logitnorm", dict(use_gradvac=True, use_logitnorm=True)),
          ("full", FULL))

clock = time.perf_counter


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def make_config(seed, toggles, scale):
    from xscene.data import SynthConfig
    from xscene.harness import TrainConfig
    cfg = TrainConfig(seed=seed, synth=SynthConfig(seed=seed), **toggles)
    if scale == "tiny":
        cfg = dataclasses.replace(
            cfg, epochs_agree=2, epochs_disagree=1, epochs_ensemble=1,
            synth=dataclasses.replace(cfg.synth, samples_per_class_source=40,
                                      samples_per_class_target=20))
    return cfg


def warm_up(cfg):
    """One short training, so that lazy library set-up is not timed."""
    from xscene import harness
    harness.train(dataclasses.replace(cfg, epochs_agree=1, epochs_disagree=1,
                                      epochs_ensemble=1))


def yardstick():
    """Seconds a fixed slice of work shaped like training steps takes now:
    64-row float64 matmuls, ReLU, softmax, Adam updates and a per-step log
    record, in the benchmark's own code. On a shared host (2 vCPUs of an
    Intel Xeon at 2.1 GHz) the speed of the same code drifted by up to 40%
    over minutes, moving every wall time together; scaling a time by the
    yardstick measured around it removes most of that drift. The slice runs
    twice and the second run counts, as the first after an operation pays
    for the memory state the operation left."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 48))
    w1, w2 = 0.1 * rng.standard_normal((48, 64)), 0.1 * rng.standard_normal((64, 32))
    moments = [np.zeros_like(w) for w in (w1, w1, w2, w2)]
    for _ in range(2):
        records = []
        start = clock()
        for step in range(300):
            h = x @ w1
            a = np.maximum(h, 0.0)
            z = a @ w2
            e = np.exp(z - z.max(axis=1, keepdims=True))
            gz = e / e.sum(axis=1, keepdims=True) / 64.0
            ga = gz @ w2.T
            ga[h <= 0.0] = 0.0
            for w, g, m, v in ((w1, x.T @ ga, *moments[:2]), (w2, a.T @ gz, *moments[2:])):
                m *= 0.9
                m += 0.1 * g
                v *= 0.999
                v += 0.001 * (g * g)
                w -= 1e-3 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-4)
            records.append({"step": step, "loss": float(gz.max()),
                            "norm": float(np.linalg.norm(ga))})
        seconds = clock() - start
    return seconds


def timed(calls):
    """Run each call alone between two yardstick readings. Returns (results,
    seconds spent in the calls, host speed over them): the speed is the
    time-weighted YARDSTICK_REF_S / yardstick seconds, so a long operation
    is scaled by readings taken every call rather than only at its ends."""
    results, seconds, scaled = [], 0.0, 0.0
    before = yardstick()
    for call in calls:
        start = clock()
        results.append(call())
        took = clock() - start
        after = yardstick()
        seconds += took
        scaled += took * 2.0 * YARDSTICK_REF_S / (before + after)
        before = after
    return results, seconds, scaled / seconds


@dataclasses.dataclass
class OpResult:
    attempted: int
    wall: float
    work: int = 0          # optimizer steps, or target rows scored
    oas: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)
    failures: dict = dataclasses.field(default_factory=dict)  # label -> reason
    steps: int = 0
    gradvac_applied: int = 0
    gradvac_base: int = 0
    speed: float = 1.0     # host speed over the operation, from timed()

    def fail(self, label, reason):
        self.failures.setdefault(label, reason)


def _describe(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _non_finite(report):
    for step in report.steps:
        for key, value in step.items():
            if isinstance(value, float) and not math.isfinite(value):
                return f"{step['phase']} step {step['step']}: {key}={value}"
    for key in ("oa", "aa", "kappa"):
        if not math.isfinite(getattr(report, key)):
            return f"final {key} is {getattr(report, key)}"
    return None


class Training:
    """Serial train() calls over (label, config) pairs; one operation runs
    them all."""

    def __init__(self, runs, out_dir):
        self.runs = runs
        self.out_dir = out_dir

    def setup(self):
        from xscene.data import generate_pair
        for _, cfg in self.runs:
            generate_pair(cfg.synth)
        warm_up(self.runs[-1][1])

    @staticmethod
    def _train(cfg):
        from xscene import harness
        try:
            return harness.train(cfg)
        except Exception as exc:  # a raising training is a failed operation
            return exc

    def op(self):
        return timed([functools.partial(self._train, cfg) for _, cfg in self.runs])

    def check(self, wall, outcomes):
        from xscene.harness import write_log
        res = OpResult(attempted=len(self.runs), wall=wall)
        for (label, cfg), out in zip(self.runs, outcomes):
            if isinstance(out, Exception):
                res.fail(label, f"raised {_describe(out)}")
                continue
            bad = _non_finite(out)
            if bad:
                res.fail(label, f"non-finite value, {bad}")
                continue
            path = self.out_dir / f"{label}.jsonl"
            write_log(path, out)
            res.digests[label] = sha256(path.read_bytes())
            res.work += len(out.steps)
            res.steps += len(out.steps)
            if all(getattr(cfg, key) for key in FULL):
                res.oas.append(out.oa)
            if cfg.use_gradvac:
                agree = [s for s in out.steps if s["phase"] == "agree"]
                res.gradvac_applied += sum(s["gradvac_applied"] for s in agree)
                res.gradvac_base += len(agree)
        return res


_EVAL_LINE = re.compile(r"^eval\[(\w+)\] OA (\S+)  AA (\S+)  kappa (\S+)$", re.M)


class IoEval:
    """`xscene gen-data` on an enlarged target scene, then `xscene eval` of a
    checkpoint saved during set-up against the written target CSV."""

    def __init__(self, seed, scale, out_dir):
        self.cfg = make_config(seed, FULL, scale)
        self.big = dataclasses.replace(
            self.cfg.synth, samples_per_class_target=IO_ROWS_PER_CLASS[scale])
        self.config_path = out_dir / "gen-data.json"
        self.data_dir = out_dir / "data"
        self.model_path = out_dir / "model.bin"

    def setup(self):
        from xscene import harness
        from xscene.data import generate_pair
        self.config_path.write_text(json.dumps(
            {"seed": self.cfg.seed, "synth": dataclasses.asdict(self.big)}))
        report = harness.train(self.cfg)
        harness.save_checkpoint(self.model_path, report.bundle,
                                meta={"eval_head": report.eval_head})
        self.scenes = generate_pair(self.big)
        oa, aa, kappa = harness.evaluate(report.bundle, self.scenes[1],
                                         report.eval_head)
        self.expected = (report.eval_head, f"{oa * 100:.2f}", f"{aa * 100:.2f}",
                         f"{kappa * 100:.2f}")

    @staticmethod
    def _cli(argv):
        from xscene import cli
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(argv)
        except Exception as exc:  # a raising command is a failed operation
            status = exc
        return status, out.getvalue(), err.getvalue()

    def op(self):
        return timed([
            functools.partial(self._cli, ["gen-data", "--config", str(self.config_path),
                                          "--out-dir", str(self.data_dir)]),
            functools.partial(self._cli, ["eval", "--model", str(self.model_path),
                                          "--data", str(self.data_dir / "target.csv")])])

    def check(self, wall, outcome):
        from xscene.data import load_csv
        import numpy as np
        (gen_status, _, gen_err), (ev_status, ev_out, ev_err) = outcome
        res = OpResult(attempted=2, wall=wall)
        if gen_status != 0:
            res.fail("gen-data", f"status {gen_status!r} {gen_err.strip()}")
        else:
            for ds in self.scenes:
                path = self.data_dir / f"{ds.name}.csv"
                loaded = load_csv(path)
                if not (loaded.name == ds.name and loaded.bands == ds.bands
                        and loaded.classes == ds.classes
                        and np.array_equal(loaded.spectra, ds.spectra)
                        and np.array_equal(loaded.labels, ds.labels)):
                    res.fail("gen-data", f"{path.name} does not round-trip exactly")
                res.digests[path.name] = sha256(path.read_bytes())
        if ev_status != 0:
            res.fail("eval", f"status {ev_status!r} {ev_err.strip()}")
            return res
        match = _EVAL_LINE.search(ev_out)
        if match is None or match.groups() != self.expected:
            res.fail("eval", f"printed {ev_out.strip()!r}, in-memory evaluate "
                             f"gives {self.expected!r}")
            return res
        res.digests["eval"] = sha256(ev_out.encode())
        res.work = self.scenes[1].n
        res.oas.append(float(match.group(2)))
        return res


def build_workload(name, seed, scale, out_dir):
    if name == "train-full":
        return Training([(f"full-seed{seed}", make_config(seed, FULL, scale))],
                        out_dir)
    if name == "seed-ladder":
        runs = [(f"{label}-seed{s}", make_config(s, toggles, scale))
                for label, toggles in LADDER
                for s in range(seed, seed + LADDER_SEEDS)]
        return Training(runs, out_dir)
    return IoEval(seed, scale, out_dir)


def blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, or None where it
    cannot be queried."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def layer_row(spans, res):
    """Per-layer figures of one traced operation, and its span summary."""
    import tracing
    summary = tracing.summarize(spans)

    def total(*names, col=1):
        return sum(summary.get(n, (0, 0.0, 0.0, 0))[col] for n in names)

    row = {
        "disagreement.dcor_loss_s": total("disagreement.dcor_loss"),
        "disagreement.dcor_loss_calls": total("disagreement.dcor_loss", col=0),
        "disagreement.dcor_bytes_computed": total("disagreement.dcor_loss", col=3),
        "disagreement.symmetric_kl_s": total("disagreement.symmetric_kl"),
        "nn.mlp_forward_s": total("nn.mlp_forward"),
        "nn.mlp_forward_rows": total("nn.mlp_forward", col=3),
        "nn.mlp_backward_s": total("nn.mlp_backward"),
        "nn.adam_step_s": total("nn.adam_step"),
        "nn.adam_step_calls": total("nn.adam_step", col=0),
        "model.agreement_backward_s": total("model.agreement_backward"),
        "agreement.logitnorm_ce_s": total("agreement.logitnorm_ce"),
        "agreement.surgery_s": total("agreement.cosine_similarity",
                                     "agreement.gradvac_update",
                                     "agreement.magnitude_similarity"),
        "agreement.gradvac_applied_ratio": (
            res.gradvac_applied / res.gradvac_base if res.gradvac_base else 0.0),
        "harness.agree_phase_s": total("harness.agree_phase"),
        "harness.private_phase_s": total("harness.private_phase"),
        "harness.ensemble_phase_s": total("harness.ensemble_phase"),
        "harness.steps": res.steps,
        "harness.evaluate_s": total("harness.evaluate"),
        "harness.load_checkpoint_s": total("harness.load_checkpoint"),
        "data.generate_pair_s": total("data.generate_pair"),
        "data.save_csv_s": total("data.save_csv"),
        "data.load_csv_s": total("data.load_csv"),
        "data.csv_bytes": total("data.save_csv", "data.load_csv", col=3),
        "metrics.confusion_s": total("metrics.confusion"),
        "cli.main_self_s": total("cli.main", col=2),
        "trace.coverage": tracing.covered_seconds(spans) / res.wall,
    }
    for layer in LAYERS:
        row[f"{layer}.self_s"] = sum((self_s for name, (_, _, self_s, _) in summary.items()
                                      if name.split(".", 1)[0] == layer), 0.0)
    return row, summary


EXACT_COUNTS = ("nn.mlp_forward_rows", "nn.adam_step_calls",
                "disagreement.dcor_loss_calls", "harness.steps")

UNITS = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("_ratio", ".coverage")):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description="xscene benchmark")
    p.add_argument("--workload", required=True,
                   choices=("train-full", "seed-ladder", "io-eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("default", "tiny"), default="default",
                   help="tiny shrinks every training and scene (self-test)")
    return p.parse_args(argv)


def measure(workload, seconds, trace, table):
    """Repeat the workload's operation until `seconds` have passed. Without
    tracing it runs at least MIN_REPEATS times; with tracing, traced and
    untraced operations alternate and at least MIN_REPEATS are traced.
    Returns (untraced OpResults, traced (spans, OpResult, row, summary)
    tuples, first log digest per label, patch targets the program lacks)."""
    import tracing
    tracer = tracing.Tracer()
    untraced, traced = [], []
    first_digests, first_counts = {}, None
    loop_start = clock()
    while True:
        elapsed = clock() - loop_start
        if elapsed >= seconds and len(untraced) >= (1 if trace else MIN_REPEATS) \
                and (not trace or len(traced) >= MIN_REPEATS):
            return untraced, traced, first_digests, tracer.missing
        use_trace = bool(trace and untraced
                         and (len(traced) < len(untraced) or elapsed >= seconds))
        if use_trace:
            with tracer.installed(table):
                outcome, wall, speed = workload.op()
            spans = tracer.take()
        else:
            outcome, wall, speed = workload.op()
        res = workload.check(wall, outcome)
        res.speed = speed
        for label, digest in res.digests.items():
            if first_digests.setdefault(label, digest) != digest:
                res.fail(label, "log differs from an earlier repeat of the same seed")
        if not use_trace:
            untraced.append(res)
            continue
        row, summary = layer_row(spans, res)
        traced.append((spans, res, row, summary))
        counts = {k: row[k] for k in EXACT_COUNTS}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            res.fail("trace", f"counts {counts} differ from {first_counts}")
        if isinstance(workload, Training) and row["trace.coverage"] < MIN_TRACE_COVERAGE:
            res.fail("trace", f"spans cover {row['trace.coverage']:.3f} of "
                              f"the operation, under {MIN_TRACE_COVERAGE}")


def per_layer(traced, untraced, missing):
    # counts repeat exactly (measure() checks the ones later claims rest on)
    metrics = {key: (value if layer_unit(key) in ("count", "bytes")
                     else statistics.median(t[2][key] for t in traced))
               for key, value in traced[0][2].items()}
    metrics["trace.overhead_s"] = (statistics.median(t[1].wall for t in traced)
                                   - statistics.median(r.wall for r in untraced))
    top = max(traced[-1][3].items(), key=lambda kv: kv[1][2])
    last = traced[-1][1]
    lines = [f"  tracing overhead: traced wall_s {metrics['trace.overhead_s']:+.4f} s "
             f"against untraced (medians of {len(traced)} and {len(untraced)})",
             f"  spans cover {metrics['trace.coverage']:.4f} of the traced wall "
             "time (for a training: set-up calls, phases and evaluation)",
             f"  largest self time: {top[0]} {top[1][2]:.4f} s",
             f"  gradvac applied on {last.gradvac_applied} of {last.gradvac_base} "
             "agreement steps of trainings with use_gradvac on"]
    if missing:
        lines.append(f"  not traced (absent from the program): {', '.join(missing)}")
    return metrics, {name: layer_unit(name) for name in metrics}, lines


def end_to_end(untraced, import_s, import_speed, setups, training):
    """Time metrics are quoted at the host speed where the yardstick takes
    YARDSTICK_REF_S: each measured time is multiplied by its speed."""
    done = [r for r in untraced if r.work]
    speeds = [r.speed for r in untraced]
    metrics = {
        "setup_s": (import_s * import_speed
                    + statistics.median(t * speed for t, speed in setups)),
        "wall_s": statistics.median(r.wall * r.speed for r in untraced),
        "throughput_per_s": (statistics.median(r.work / (r.wall * r.speed) for r in done)
                             if done else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    oas = [statistics.fmean(r.oas) for r in untraced if r.oas]
    lines = [f"  oa_pct {statistics.median(oas) if oas else float('nan'):.2f} %: eval-head "
             "OA of the full-config trainings (io-eval: the OA eval prints)",
             "  throughput_per_s is " + (
                 "steps_per_s: logged optimizer steps per second" if training
                 else "rows_per_s: target rows generated, written, read and "
                      "scored per second of gen-data plus eval"),
             f"  as measured: setup_s {import_s + statistics.median(t for t, _ in setups):.4f} s "
             f"(imports {import_s:.4f} s + median of {len(setups)} set-ups), "
             f"wall_s {statistics.median(r.wall for r in untraced):.4f} s, "
             "throughput_per_s "
             f"{statistics.median(r.work / r.wall for r in done) if done else 0.0:.4f} 1/s",
             f"  host speed (yardstick {YARDSTICK_REF_S} s / measured) per operation: "
             f"median {statistics.median(speeds):.4f}, "
             f"range {min(speeds):.4f}-{max(speeds):.4f}"]
    return metrics, UNITS, lines


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "xscene" / "__init__.py").is_file():
        print(f"error: no xscene package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import xscene
    import tracing
    if Path(xscene.__file__).resolve().parent != (src / "xscene").resolve():
        print(f"error: imported xscene from {xscene.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = clock() - _T0

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = build_workload(args.workload, args.seed, args.scale, out_dir)
    # set-up times are scaled by host speed like the operations (see yardstick)
    import_speed = YARDSTICK_REF_S / yardstick()
    setups = [timed([workload.setup])[1:]      # (seconds, host speed)
              for _ in range(1 if args.trace else SETUP_REPEATS)]

    table = tracing.patch_table() if args.trace else []
    untraced, traced, digests, missing = measure(workload, args.seconds,
                                                 args.trace, table)
    ops = untraced + [t[1] for t in traced]
    attempted = sum(r.attempted for r in ops)
    failed = sum(min(len(r.failures), r.attempted) for r in ops)
    failures = [f"{k}: {v}" for r in ops for k, v in r.failures.items()]
    if args.trace:
        metrics, units, notes = per_layer(traced, untraced, missing)
    else:
        metrics, units, notes = end_to_end(untraced, import_s, import_speed, setups,
                                           isinstance(workload, Training))

    manifest = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(), "log_sha256": digests,
        "workload_sha256": sha256("\n".join(
            f"{k} {v}" for k, v in digests.items()).encode()),
        "attempted": attempted, "failed": failed, "failures": failures,
        "op_walls_s": [r.wall for r in untraced],
        "op_speeds": [r.speed for r in untraced],
        "setups_s_speed": setups, "imports_s": import_s,
        "oa_pct": [statistics.fmean(r.oas) for r in ops if r.oas],
        "metrics": metrics,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    if args.trace:
        with open(out_dir / "spans.csv", "w", encoding="utf-8") as f:
            f.write("op,name,start,end,parent,count\n")
            for op, (spans, *_) in enumerate(traced):
                for name, start, end, parent, work in spans:
                    f.write(f"{op},{name},{start!r},{end!r},{parent},{work}\n")

    lines = [f"workload {args.workload} seed {args.seed} scale {args.scale} "
             f"trace {args.trace}: {len(untraced)} untraced + {len(traced)} "
             "traced operations",
             f"  attempted {attempted}, failed {failed}, "
             f"failed_frac {failed / attempted:.4f}"]
    lines += notes
    lines += [f"  {name:<34} {value:>16.6f} {units[name]}"
              for name, value in metrics.items()]
    lines += [f"  FAILED {failure} ({times} times)"
              for failure, times in collections.Counter(failures).most_common(20)]
    lines.append(f"  manifest {out_dir / 'manifest.json'}: workload_sha256 "
                 f"{manifest['workload_sha256'][:16]}, python "
                 f"{manifest['python']}, numpy {np.__version__}, "
                 f"blas_threads {manifest['blas_threads']}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
