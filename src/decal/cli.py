"""Command-line interface: generate datasets, run experiments, compare, re-report."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import load_config_file
from .data import generate_synthetic, write_csv, write_dataset
from .errors import ConfigError, DataError, DecalError
from .experiment import compare_initializations, run_experiment
from .presets import PRESETS, get_preset
from .report import emit_report, regenerate_report, report_files

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_DATA_ERROR = 2
EXIT_RUNTIME_ERROR = 3


class _Parser(argparse.ArgumentParser):
    # malformed command lines are config errors (exit 1), not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="decal", description="Patient-aware pool-based active learning engine.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    gen.add_argument("--preset", required=True, choices=sorted(PRESETS), help="synthetic preset name")
    gen.add_argument("--seed", type=int, required=True, help="generator seed")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(handler=_cmd_gen)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--workers", type=int, default=1, help="processes for the dataset CSV parse and the trials, capped at the usable CPUs")
    run.set_defaults(handler=_cmd_run)

    cmp = sub.add_parser("compare", help="compare two configs differing only in init_mode")
    cmp.add_argument("--config-a", required=True, help="first JSON config (treatment if decal init)")
    cmp.add_argument("--config-b", required=True, help="second JSON config")
    cmp.add_argument("--round", type=int, required=True, help="round index to compare at")
    cmp.add_argument("--out", required=True, help="output directory")
    cmp.add_argument("--workers", type=int, default=1, help="processes for the dataset CSV parse and the trials, capped at the usable CPUs")
    cmp.set_defaults(handler=_cmd_compare)

    rep = sub.add_parser("report", help="regenerate aggregate CSV and plots from raw.csv")
    rep.add_argument("--in", dest="in_dir", required=True, help="directory containing raw.csv")
    rep.set_defaults(handler=_cmd_report)

    return parser


def _check_out_dir(out, files) -> None:
    """Reject an output directory that cannot be made, or one of ``files`` that exists as a directory.

    Called before any work starts; creates nothing.
    """
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"output directory {out}: {path} exists and is not a directory")
            break
    for path in files:
        if Path(path).is_dir():
            raise ConfigError(f"output file {path} is a directory")


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _check_out_dir(Path(args.out).parent, [args.out])
    split = generate_synthetic(get_preset(args.preset), args.seed)
    write_dataset(split, args.out)
    print(
        f"wrote {args.out}: pool {len(split.pool)} samples / "
        f"{len(split.pool.patient_names)} patients, test {len(split.test)} samples / "
        f"{len(split.test.patient_names)} patients, {split.num_classes} classes, d={split.feature_dim}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = load_config_file(args.config)
    _check_out_dir(args.out, report_files(args.out, [(cfg.strategy, cfg.init_mode)]))
    result = run_experiment(cfg, workers=args.workers)
    paths = emit_report([result], args.out)
    final = result.curve.mean_accuracy[-1]
    stderr = result.curve.stderr_accuracy[-1]
    print(
        f"{cfg.strategy} ({cfg.init_mode} init): {result.curve.trials} trials, "
        f"final mean accuracy {final:.4f} +/- {stderr:.4f} (stderr) at train size "
        f"{result.curve.train_sizes[-1]}"
    )
    print(f"report written to {paths['raw'].parent}")
    for failure in result.failures:
        print(f"error: {failure}", file=sys.stderr)
    return EXIT_RUNTIME_ERROR if result.failures else EXIT_OK


def _cmd_compare(args) -> int:
    cfg_a = load_config_file(args.config_a)
    cfg_b = load_config_file(args.config_b)
    comparison_path = Path(args.out) / "comparison.csv"
    keys = [(cfg.strategy, cfg.init_mode) for cfg in (cfg_a, cfg_b)]
    _check_out_dir(args.out, [*report_files(args.out, keys), comparison_path])
    comparison = compare_initializations(cfg_a, cfg_b, args.round, workers=args.workers)
    results = (comparison.treatment_result, comparison.baseline_result)
    emit_report(results, args.out)

    write_csv(comparison_path, [
        "strategy", "round", "treatment_init", "baseline_init",
        "treatment_mean", "treatment_std", "baseline_mean", "baseline_std",
        "percent_change", "mean_of_percent_changes", "percent_change_of_means",
    ], [[
        comparison.strategy, comparison.round_index,
        comparison.treatment_mode, comparison.baseline_mode,
        comparison.treatment_mean, comparison.treatment_std,
        comparison.baseline_mean, comparison.baseline_std,
        comparison.percent_change,
        comparison.variants["mean_of_percent_changes"],
        comparison.variants["percent_change_of_means"],
    ]])

    change = ("change undefined: baseline accuracy is 0" if math.isnan(comparison.percent_change)
              else f"{comparison.percent_change:+.2f}%")
    print(
        f"round {comparison.round_index}, {comparison.strategy}: "
        f"{comparison.treatment_mode} init {comparison.treatment_mean:.4f} "
        f"+/- {comparison.treatment_std:.4f} vs {comparison.baseline_mode} init "
        f"{comparison.baseline_mean:.4f} +/- {comparison.baseline_std:.4f} "
        f"({change})"
    )
    for result in results:
        for failure in result.failures:
            print(f"error: {result.config.init_mode} init: {failure}", file=sys.stderr)
    return EXIT_RUNTIME_ERROR if any(result.failures for result in results) else EXIT_OK


def _cmd_report(args) -> int:
    paths = regenerate_report(args.in_dir)
    print(f"regenerated {paths['aggregate']} and {len(paths['svg'])} plot(s)")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except DecalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps everything to exit codes
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
