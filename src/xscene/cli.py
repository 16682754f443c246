"""Command-line harness.

Subcommands:
  gen-data --config cfg.json --out-dir DIR     write source.csv / target.csv
  train    --config cfg.json --log out.jsonl   [--checkpoint model.bin]
  ablate   --config cfg.json --log out.jsonl   run the 5-row component ladder
  eval     --model model.bin --data scene.csv  score a saved model on a CSV
"""

import argparse
import os
import sys

from .data import generate_pair, load_csv, save_csv
from .errors import ConfigError, DataError, DivergenceError, ParseError
from .harness import (ablate, evaluate, load_checkpoint, load_config,
                      save_checkpoint, train, write_ablation_log, write_log)


def _fmt_metrics(oa, aa, kappa):
    return f"OA {oa:.2f}  AA {aa:.2f}  kappa {kappa:.2f}"


def _cmd_gen_data(args):
    cfg = load_config(args.config)
    source, target = generate_pair(cfg.synth)
    os.makedirs(args.out_dir, exist_ok=True)
    for ds in (source, target):
        path = os.path.join(args.out_dir, f"{ds.name}.csv")
        save_csv(ds, path)
        print(f"wrote {path}: {ds.n} samples, {ds.bands} bands, {ds.classes} classes")
    return 0


def _cmd_train(args):
    cfg = load_config(args.config)
    report = train(cfg)
    write_log(args.log, report)
    if args.checkpoint:
        save_checkpoint(args.checkpoint, report.bundle,
                        meta={"eval_head": report.eval_head})
        print(f"wrote checkpoint {args.checkpoint}")
    print(f"wrote log {args.log}")
    print(f"eval[{report.eval_head}] " + _fmt_metrics(report.oa, report.aa, report.kappa))
    return 0


def _cmd_ablate(args):
    cfg = load_config(args.config)
    rows = ablate(cfg)
    write_ablation_log(args.log, rows)
    print(f"wrote log {args.log}")
    print(f"{'row':<4}{'config':<12}{'OA':>8}{'AA':>8}{'kappa':>8}")
    for i, (name, _, report) in enumerate(rows, start=1):
        print(f"{i:<4}{name:<12}{report.oa:>8.2f}{report.aa:>8.2f}{report.kappa:>8.2f}")
    return 0


def _cmd_eval(args):
    bundle, head = load_checkpoint(args.model)
    ds = load_csv(args.data)
    oa, aa, kappa = evaluate(bundle, ds, head)
    print(f"eval[{head}] " + _fmt_metrics(oa * 100.0, aa * 100.0, kappa * 100.0))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xscene",
        description="Cross-scene transfer experiments on synthetic spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a source/target CSV pair")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run one training config")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("ablate", help="run the 5-row component ladder")
    p.add_argument("--config", required=True)
    p.add_argument("--log", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, DivergenceError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
