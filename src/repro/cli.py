"""Command-line interface: ``insidejob``.

Subcommands
-----------

``analyze <chart.yaml or manifests.yaml>``
    Run the static analyzer on rendered Kubernetes manifests (YAML files).
    ``--strict`` exits 1 when findings are present; a file that cannot be
    read or parsed is a one-line error on stderr and exit 2.
``catalog``
    Build the synthetic catalogue and print the Table 2 breakdown.
``table2`` / ``table3`` / ``figure3`` / ``figure4a`` / ``figure4b``
    Regenerate the corresponding table or figure of the paper.
``sweep [--store DIR]``
    Run the catalogue sweep, with ``--store`` durably against a
    content-addressed result store: completed charts are loaded instead of
    recomputed and fresh ones persist as they finish, so an interrupted
    sweep resumes by running again.  A ``--store`` sweep first prints what
    moved since the store's journal last recorded the catalogue
    (``delta: epoch P -> E; <counts>``); the epoch holds while the
    catalogue and settings do.  A corrupt or version-skewed store degrades
    to a recompute with a one-line hint -- never a traceback, always exit
    0.
``watch <dir>``
    Continuously re-verify a directory of Helm charts: each round rescans
    the directory, re-evaluates only the charts whose inputs changed
    (byte-identical to from-scratch) and prints one summary line.  The
    rescan reads only files whose stat signature moved or is too recent to
    vouch for them, and the M4* pass re-derives only the applications a
    change touched.  A chart directory that cannot be loaded is counted as
    quarantined, not fatal.  A ``<dir>`` that is missing or not a directory
    at start-up is a one-line error on stderr and exit 2; one that
    disappears later is watched as empty.
``attack concourse|thanos``
    Run one of the Section 2.1 proof-of-concept attacks.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
from pathlib import Path

from .cluster import ClusterError, actionable_message
from .core import (
    AnalyzerSettings,
    MODE_STATIC,
    MisconfigurationAnalyzer,
    format_report_text,
)
from .k8s import KubernetesModelError, load_yaml


def _non_negative(kind):
    """An argparse ``type``: a ``kind`` (int or float) that is not negative.

    A negative ``--sample`` would slice the catalogue from the end and a
    negative ``--interval`` would crash the watch loop after its first
    round, so both are usage errors (exit 2) at parse time instead.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        # The chained comparison is false for NaN and infinity as well.
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be a finite non-negative number, got {text!r}"
            )
        return value

    return parse


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        text = Path(args.path).read_text(encoding="utf-8")
        objects = load_yaml(text)
    except (OSError, UnicodeDecodeError, KubernetesModelError) as exc:
        # Exit 1 means "findings present" under --strict; unreadable input
        # is a usage error, reported on one line.
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else str(exc)
        print(f"insidejob analyze: {args.path}: {' '.join(reason.split())}", file=sys.stderr)
        return 2
    analyzer = MisconfigurationAnalyzer(settings=AnalyzerSettings(mode=MODE_STATIC))
    report = analyzer.analyze_objects(objects, application=Path(args.path).stem)
    print(format_report_text(report))
    return 1 if report.affected and args.strict else 0


def _sampled_applications(args: argparse.Namespace):
    """The catalogue, restricted to its first ``--sample N`` charts (0 = all)."""
    from .datasets import build_catalog

    catalog = build_catalog()
    return catalog[: args.sample] if args.sample else catalog


def _cmd_catalog(args: argparse.Namespace) -> int:
    from .experiments import run_full_evaluation

    result = run_full_evaluation(applications=_sampled_applications(args))
    print(result.summary.table2_text())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    return _cmd_catalog(args)


def _cmd_table3(args: argparse.Namespace) -> int:
    from .experiments import run_comparison

    print(run_comparison().format_text())
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    from .experiments import figure3a, figure3b, format_figure3, run_full_evaluation

    summary = run_full_evaluation(applications=_sampled_applications(args)).summary
    print("Figure 3a - applications with the most misconfigurations")
    print(format_figure3(figure3a(summary), metric="total"))
    print()
    print("Figure 3b - applications with the most misconfiguration types")
    print(format_figure3(figure3b(summary), metric="types"))
    return 0


def _cmd_figure4a(args: argparse.Namespace) -> int:
    from .experiments import figure4a, format_figure4a, run_full_evaluation

    summary = run_full_evaluation(applications=_sampled_applications(args)).summary
    print(format_figure4a(figure4a(summary)))
    return 0


def _cmd_figure4b(args: argparse.Namespace) -> int:
    from .experiments import run_netpol_impact

    print(run_netpol_impact(applications=_sampled_applications(args)).format_text())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import format_delta_counts, journal_plan, run_full_evaluation
    from .store import store_hint

    applications = _sampled_applications(args)
    result = run_full_evaluation(
        applications=applications, workers=args.workers or None, store=args.store or None
    )
    stats = result.store_stats
    if stats is not None:
        # Against the journal generation the sweep found before it wrote.
        plan = journal_plan(stats["journal_prior"], applications)
        counts = {"classified": plan.counts(), "removed": plan.removed}
        print(
            f"delta: epoch {plan.prior_epoch} -> {stats['journal_epoch']}; "
            f"{format_delta_counts(counts)}"
        )
    print(result.summary.table2_text())
    if stats is not None:
        print(
            f"store: {stats['loaded']} loaded, {stats['computed']} computed, "
            f"{stats['failed']} quarantined ({stats['root']})"
        )
        hint = store_hint(stats["store"], stats["root"], rotated=stats["journal_rotated"])
        if hint:
            print(hint, file=sys.stderr)
    if result.failed:
        for failure in result.failed:
            print(f"quarantined: {failure.unique_id} ({failure.stage}: {failure.error_type})")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .experiments import watch_directory

    root = Path(args.directory)
    try:
        if not stat.S_ISDIR(root.stat().st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        # Otherwise every round would scan nothing and report "no charts".
        print(f"insidejob watch: {args.directory}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    watch_directory(root, rounds=args.rounds, interval=args.interval)
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from .datasets import run_concourse_attack, run_thanos_attack

    if args.scenario == "concourse":
        result = run_concourse_attack()
        print(f"reverse-tunnel ports opened by the web node: {sorted(result.tunnel_ports)}")
        print(f"reachable from the attacker pod:             {sorted(result.reachable_tunnel_ports)}")
        for command in result.commands_sent:
            print(f"  attacker command: {command}")
        print("attack succeeded" if result.succeeded else "attack failed")
        return 0 if result.succeeded else 1
    result = run_thanos_attack()
    print(f"legitimate backends:        {sorted(result.legitimate_backends)}")
    print(f"backends receiving traffic: {sorted(result.backends_receiving_traffic)}")
    print(
        "impersonation succeeded"
        if result.impersonation_succeeded
        else "impersonation failed"
    )
    return 0 if result.impersonation_succeeded else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="insidejob",
        description="Detect network misconfigurations in Kubernetes applications",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="statically analyze rendered manifests")
    analyze.add_argument("path", help="path to a multi-document YAML file")
    analyze.add_argument("--strict", action="store_true", help="exit non-zero on findings")
    analyze.set_defaults(handler=_cmd_analyze)

    for name, handler, help_text in (
        ("catalog", _cmd_catalog, "analyze the synthetic catalogue (Table 2)"),
        ("table2", _cmd_table2, "regenerate Table 2"),
        ("table3", _cmd_table3, "regenerate Table 3 (tool comparison)"),
        ("figure3", _cmd_figure3, "regenerate Figure 3 (top applications)"),
        ("figure4a", _cmd_figure4a, "regenerate Figure 4a (distribution)"),
        ("figure4b", _cmd_figure4b, "regenerate Figure 4b (network-policy impact)"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        if name != "table3":
            sub.add_argument(
                "--sample",
                type=_non_negative(int),
                default=0,
                help="restrict the sweep to the first N catalogue charts (0 = all)",
            )
        sub.set_defaults(handler=handler)

    sweep = subparsers.add_parser(
        "sweep", help="run the catalogue sweep, durably with --store"
    )
    sweep.add_argument(
        "--sample",
        type=_non_negative(int),
        default=0,
        help="restrict the sweep to the first N catalogue charts (0 = all)",
    )
    sweep.add_argument(
        "--workers",
        type=_non_negative(int),
        default=0,
        help="parallel workers (0 = serial)",
    )
    sweep.add_argument(
        "--store",
        default="",
        help="result-store directory to read and feed; reports what moved since its last sweep",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    watch = subparsers.add_parser(
        "watch", help="continuously re-verify a directory of Helm charts"
    )
    watch.add_argument("directory", help="directory holding chart directories")
    watch.add_argument(
        "--interval",
        type=_non_negative(float),
        default=2.0,
        help="seconds between rescan rounds (default 2)",
    )
    watch.add_argument(
        "--rounds",
        type=_non_negative(int),
        default=0,
        help="stop after N rounds (0 = watch until interrupted)",
    )
    watch.set_defaults(handler=_cmd_watch)

    attack = subparsers.add_parser("attack", help="run a proof-of-concept attack")
    attack.add_argument("scenario", choices=("concourse", "thanos"))
    attack.set_defaults(handler=_cmd_attack)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ClusterError as exc:
        # Simulator errors (scheduling, IPAM exhaustion, missing pods, ...)
        # are user-fixable: print the actionable guidance, not a traceback.
        print(actionable_message(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
