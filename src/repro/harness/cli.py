"""Command-line interface.

Examples::

    dftmsn list
    dftmsn run fig2a --duration 5000 --replicates 2
    dftmsn run fig2a --workers 4 --checkpoint out/fig2a.ckpt
    dftmsn single --protocol opt --sinks 3 --duration 5000 --seed 7
    python -m repro run fig2b

``--duration`` scales every experiment: the paper's full scale is
25 000 s, which takes a while in pure Python; 3 000-5 000 s already
reproduces the qualitative shape.  ``--workers N`` fans the independent
replicate runs out over N processes (0 = serial, same numbers either
way); ``--checkpoint PATH`` makes an interrupted sweep resumable.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.harness.registry import EXPERIMENTS
from repro.harness.runner import runner_for_workers
from repro.harness.serialize import Checkpoint
from repro.network.config import SimulationConfig
from repro.network.faults import FAULT_KINDS
from repro.network.simulation import run_simulation
from repro.protocols.registry import (
    contact_policy_names,
    names_tagged,
    packet_protocol_names,
)


def _worker_count(text: str) -> int:
    """argparse type for ``--workers``: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            "workers cannot be negative (0 = serial)")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dftmsn",
        description=("Reproduction harness for 'Protocol Design and "
                     "Optimization for Delay/Fault-Tolerant Mobile Sensor "
                     "Networks' (ICDCS 2007)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    run_p = sub.add_parser("run", help="reproduce a paper artifact")
    run_p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_p.add_argument("--duration", type=float, default=25_000.0,
                       help="simulated seconds per run (paper: 25000)")
    run_p.add_argument("--replicates", type=int, default=3,
                       help="runs averaged per data point (default 3)")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress progress lines")
    run_p.add_argument("--save", metavar="PATH", default=None,
                       help="also write the results as JSON to PATH")
    run_p.add_argument("--workers", type=_worker_count, default=0,
                       help="parallel worker processes (0 = serial, "
                            "the default)")
    run_p.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="persist completed runs to PATH (JSONL) and "
                            "resume from it on restart")
    run_p.add_argument("--check-invariants", action="store_true",
                       help="assert the protocol invariants during every "
                            "run (sets REPRO_CHECK_INVARIANTS, so worker "
                            "processes check too)")
    run_p.add_argument("--trace", metavar="DIR", default=None,
                       help="write one telemetry trace file (JSONL) per "
                            "run into DIR; inspect with 'dftmsn report'")

    single_p = sub.add_parser("single", help="run one simulation")
    single_p.add_argument("--protocol",
                          choices=sorted(packet_protocol_names()),
                          default="opt")
    single_p.add_argument("--sinks", type=int, default=3)
    single_p.add_argument("--sensors", type=int, default=100)
    single_p.add_argument("--duration", type=float, default=25_000.0)
    single_p.add_argument("--seed", type=int, default=1)
    single_p.add_argument("--speed-max", type=float, default=5.0)
    single_p.add_argument("--json", action="store_true",
                          help="emit the result as JSON")
    single_p.add_argument("--check-invariants", action="store_true",
                          help="assert the protocol invariants (Eq. 1-3, "
                               "queue order, buffer bounds, conservation) "
                               "during the run")
    single_p.add_argument("--trace", metavar="PATH", default=None,
                          help="stream the telemetry trace to PATH "
                               "(JSONL, or CSV when PATH ends in .csv)")

    report_p = sub.add_parser(
        "report", help="summarize a telemetry trace (per-phase spans, "
                       "frame counts, drop causes)")
    report_p.add_argument("trace",
                          help="a trace file from --trace, or a directory "
                               "of them (all *.jsonl/*.csv are merged)")

    contact_p = sub.add_parser(
        "contact", help="contact-level (ideal-MAC) policy comparison")
    contact_p.add_argument("--duration", type=float, default=25_000.0)
    contact_p.add_argument("--seed", type=int, default=1)
    contact_p.add_argument("--sensors", type=int, default=None,
                           help="sensor count (default: 100, or sized to "
                                "the plan with --plan)")
    contact_p.add_argument("--sinks", type=int, default=None,
                           help="sink count (default: 3, or 1 with --plan)")
    # The default rosters below are derived from the repro.protocols
    # registry, so a newly registered protocol shows up in the CLI
    # without touching this file (docs/PROTOCOLS.md).
    contact_p.add_argument("--policies",
                           default=",".join(contact_policy_names()),
                           help="comma-separated contact-level policies "
                                "(default: every registered policy)")
    contact_p.add_argument("--workers", type=_worker_count, default=0,
                           help="parallel worker processes (0 = serial)")
    contact_p.add_argument("--plan", metavar="PATH", default=None,
                           help="replay an ION-style contact plan instead "
                                "of synthetic mobility (docs/SCENARIOS.md)")

    xval_p = sub.add_parser(
        "crossval", help="packet-level vs contact-level cross-validation")
    xval_p.add_argument("--duration", type=float, default=5_000.0)
    xval_p.add_argument("--seed", type=int, default=1)
    xval_p.add_argument("--workers", type=_worker_count, default=0,
                        help="parallel worker processes (0 = serial)")
    xval_p.add_argument("--plan", metavar="PATH", default=None,
                        help="drive BOTH levels with the same contact plan "
                             "(geometric realization vs direct replay)")

    scenario_p = sub.add_parser(
        "scenario", help="named deployment scenarios (presets + contact "
                         "plans; see docs/SCENARIOS.md)")
    scenario_p.add_argument("action", choices=("list", "run"),
                            help="'list' the registry or 'run' one scenario")
    scenario_p.add_argument("name", nargs="?", default=None,
                            help="scenario name (for 'run')")
    scenario_p.add_argument("--level", choices=("contact", "packet", "both"),
                            default="contact",
                            help="which simulator(s) to run (default: "
                                 "contact; 'both' also prints the gap)")
    scenario_p.add_argument("--policy", default="fad",
                            help="contact-level policy (default: fad)")
    scenario_p.add_argument("--protocol",
                            choices=sorted(packet_protocol_names()),
                            default="opt",
                            help="packet-level protocol (default: opt)")
    scenario_p.add_argument("--duration", type=float, default=None,
                            help="override the scenario's duration (s)")
    scenario_p.add_argument("--seed", type=int, default=1)
    scenario_p.add_argument("--json", action="store_true",
                            help="emit the results as JSON")
    scenario_p.add_argument("--check-invariants", action="store_true",
                            help="assert the protocol invariants during "
                                 "packet-level runs")
    scenario_p.add_argument("--trace", metavar="PATH", default=None,
                            help="stream the telemetry trace to PATH "
                                 "(single-level runs only)")

    faults_p = sub.add_parser(
        "faults", help="fault campaign: protocol degradation curves "
                       "across increasing failure intensities "
                       "(see docs/FAULTS.md)")
    faults_p.add_argument("--kind", choices=sorted(FAULT_KINDS),
                          default="deaths",
                          help="fault model to sweep (default: deaths)")
    faults_p.add_argument("--intensities", default="0.0,0.2,0.4",
                          help="comma-separated fault intensities in "
                               "[0, 1] (default: 0.0,0.2,0.4)")
    faults_p.add_argument("--protocols",
                          default=",".join(names_tagged("fault-campaign")),
                          help="comma-separated protocols to compare "
                               "(default: the registry's fault-campaign "
                               "roster)")
    faults_p.add_argument("--duration", type=float, default=5_000.0)
    faults_p.add_argument("--replicates", type=int, default=3)
    faults_p.add_argument("--sensors", type=int, default=100)
    faults_p.add_argument("--sinks", type=int, default=3)
    faults_p.add_argument("--seed", type=int, default=1)
    faults_p.add_argument("--mean-downtime", type=float, default=600.0,
                          help="mean outage downtime in seconds "
                               "(kind=outages; default 600)")
    faults_p.add_argument("--no-purge", action="store_true",
                          help="rebooting nodes keep their buffered "
                               "messages (kind=outages)")
    faults_p.add_argument("--range-factor", type=float, default=1.0,
                          help="comm-range multiplier while impaired "
                               "(kind=radio; default 1.0)")
    faults_p.add_argument("--quiet", action="store_true",
                          help="suppress progress lines")
    faults_p.add_argument("--save", metavar="PATH", default=None,
                          help="also write the campaign result as JSON "
                               "to PATH")
    faults_p.add_argument("--workers", type=_worker_count, default=0,
                          help="parallel worker processes (0 = serial)")
    faults_p.add_argument("--checkpoint", metavar="PATH", default=None,
                          help="persist completed runs to PATH (JSONL) "
                               "and resume from it on restart")
    faults_p.add_argument("--check-invariants", action="store_true",
                          help="assert the protocol invariants during "
                               "every run (workers inherit the flag)")

    lint_p = sub.add_parser(
        "lint", help="run the per-module static-analysis engine "
                     "(see docs/CHECKS.md)")
    lint_p.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print every rule's documentation and exit")
    lint_p.add_argument("--format", choices=("text", "json"),
                        default="text", dest="format",
                        help="findings output format (default: text)")
    lint_p.add_argument("--output", metavar="PATH", default=None,
                        help="write findings to PATH instead of stdout")
    return parser


def _cmd_list() -> int:
    for exp_id, spec in sorted(EXPERIMENTS.items()):
        print(f"{exp_id:12s} {spec.title}")
        print(f"{'':12s}   paper: {spec.paper_claim}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.checks.engine import describe_rules, lint_paths
    from repro.checks.output import format_json, format_text, write_output

    if args.list_rules:
        print(describe_rules())
        return 0
    findings = lint_paths(args.paths)
    if args.format == "json":
        write_output(format_json(findings), args.output)
    elif findings or args.output:
        write_output(format_text(findings), args.output)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = EXPERIMENTS[args.experiment]
    if args.check_invariants:
        import os

        from repro.checks.invariants import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    runner = runner_for_workers(args.workers)
    if args.trace:
        from repro.harness.runner import TracingRunner

        runner = TracingRunner(runner, args.trace)
    checkpoint = None
    if args.checkpoint:
        import pathlib

        checkpoint = Checkpoint(pathlib.Path(args.checkpoint))
        if len(checkpoint) and not args.quiet:
            print(f"(resuming: {len(checkpoint)} completed runs in "
                  f"{args.checkpoint})", file=sys.stderr)
    print(f"# {spec.title}", file=sys.stderr)
    table = spec.run(duration_s=args.duration, replicates=args.replicates,
                     progress=progress, runner=runner, checkpoint=checkpoint)
    print(spec.format(table))
    if args.save:
        import pathlib

        from repro.harness.report import save_series_table

        path = save_series_table(table, pathlib.Path(args.save),
                                 args.experiment, args.duration)
        print(f"(results saved to {path})", file=sys.stderr)
    return 0


def _cmd_single(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        protocol=args.protocol,
        n_sinks=args.sinks,
        n_sensors=args.sensors,
        duration_s=args.duration,
        seed=args.seed,
        speed_max_mps=args.speed_max,
        check_invariants=args.check_invariants,
        telemetry=args.trace is not None,
        trace_path=args.trace,
    )
    result = run_simulation(config)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        d = result.to_dict()
        print(f"protocol          {d['protocol']}")
        print(f"generated         {d['generated']}")
        print(f"delivered         {d['delivered']}")
        print(f"delivery ratio    {d['delivery_ratio']:.3f}")
        delay = d["average_delay_s"]
        print(f"avg delay (s)     "
              f"{'-' if delay is None else format(delay, '.1f')}")
        print(f"avg power (mW)    {d['average_power_mw']:.3f}")
        print(f"transmissions     {d['transmissions']}")
        print(f"collision frames  {d['frames_corrupted']}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.harness.faults import format_fault_campaign, run_fault_campaign
    from repro.network.faults import FaultSpec

    if args.check_invariants:
        import os

        from repro.checks.invariants import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    try:
        intensities = [float(v) for v in args.intensities.split(",") if v.strip()]
    except ValueError:
        print(f"invalid --intensities: {args.intensities!r}", file=sys.stderr)
        return 2
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    unknown = [p for p in protocols if p not in packet_protocol_names()]
    if unknown:
        print(f"unknown protocols: {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(packet_protocol_names()))})",
              file=sys.stderr)
        return 2
    spec = FaultSpec(kind=args.kind, mean_downtime_s=args.mean_downtime,
                     purge_buffer=not args.no_purge,
                     range_factor=args.range_factor)
    base = SimulationConfig(n_sinks=args.sinks, n_sensors=args.sensors,
                            duration_s=args.duration, seed=args.seed)
    checkpoint = None
    if args.checkpoint:
        import pathlib

        checkpoint = Checkpoint(pathlib.Path(args.checkpoint))
        if len(checkpoint) and not args.quiet:
            print(f"(resuming: {len(checkpoint)} completed runs in "
                  f"{args.checkpoint})", file=sys.stderr)
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    result = run_fault_campaign(
        base, spec, intensities, protocols=protocols,
        replicates=args.replicates, base_seed=args.seed,
        progress=progress, runner=runner_for_workers(args.workers),
        checkpoint=checkpoint)
    print(format_fault_campaign(result))
    if args.save:
        import pathlib

        path = pathlib.Path(args.save)
        path.write_text(json.dumps(result.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
        print(f"(results saved to {path})", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.obs.report import render_report
    from repro.obs.export import read_trace

    root = pathlib.Path(args.trace)
    if root.is_dir():
        files = sorted(p for p in root.iterdir()
                       if p.suffix.lower() in (".jsonl", ".csv"))
        if not files:
            print(f"no trace files (*.jsonl / *.csv) in {root}",
                  file=sys.stderr)
            return 1
    elif root.is_file():
        files = [root]
    else:
        print(f"no such trace file or directory: {root}", file=sys.stderr)
        return 1
    events = []
    for path in files:
        try:
            events.extend(read_trace(path))
        except ValueError as exc:
            print(f"malformed trace: {exc}", file=sys.stderr)
            return 1
    if len(files) > 1:
        print(f"(merged {len(files)} trace files from {root})",
              file=sys.stderr)
    print(render_report(events))
    return 0


def _cmd_contact(args: argparse.Namespace) -> int:
    from repro.harness.contact_experiments import (
        format_policy_comparison,
        policy_comparison,
    )

    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    known = contact_policy_names()
    unknown = [p for p in policies if p not in known]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(known))})", file=sys.stderr)
        return 2
    # Only forward explicit topology flags: with --plan the comparison
    # auto-sizes to the plan's node ids, without it the paper defaults
    # (100 sensors / 3 sinks) come from ContactSimConfig itself.
    topology: Dict[str, object] = {}
    if args.sensors is not None:
        topology["n_sensors"] = args.sensors
    if args.sinks is not None:
        topology["n_sinks"] = args.sinks
    results = policy_comparison(
        duration_s=args.duration, policies=policies, seed=args.seed,
        plan_path=args.plan,
        progress=lambda msg: print(msg, file=sys.stderr),
        runner=runner_for_workers(args.workers),
        **topology,
    )
    print(format_policy_comparison(results))
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    from repro.harness.contact_experiments import (
        cross_validation,
        format_cross_validation,
    )

    table = cross_validation(duration_s=args.duration, seed=args.seed,
                             plan_path=args.plan,
                             progress=lambda msg: print(msg, file=sys.stderr),
                             runner=runner_for_workers(args.workers))
    print(format_cross_validation(table))
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario.registry import (
        SCENARIOS,
        get_scenario,
        scenario_contact_config,
        scenario_packet_config,
    )

    if args.action == "list":
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            print(f"{name:<16} {spec.mobility:<5} {spec.n_sensors:>4} "
                  f"sensors / {spec.n_sinks} sinks  {spec.description}")
        return 0
    if not args.name:
        print("scenario run needs a scenario name (try 'scenario list')",
              file=sys.stderr)
        return 2
    try:
        spec = get_scenario(args.name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.check_invariants:
        import os

        from repro.checks.invariants import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    if args.trace is not None and args.level == "both":
        print("--trace needs a single level (contact or packet)",
              file=sys.stderr)
        return 2
    overrides: dict = {}
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    rows: dict = {}
    if args.level in ("contact", "both"):
        from repro.contact.simulator import run_contact_simulation

        cfg = scenario_contact_config(spec, policy=args.policy,
                                      seed=args.seed, trace_path=args.trace,
                                      **overrides)
        r = run_contact_simulation(cfg)
        rows["contact"] = {
            "label": args.policy, "generated": r.messages_generated,
            "delivered": r.messages_delivered,
            "delivery_ratio": r.delivery_ratio,
            "average_delay_s": r.average_delay_s,
        }
    if args.level in ("packet", "both"):
        cfg = scenario_packet_config(
            spec, protocol=args.protocol, seed=args.seed,
            check_invariants=args.check_invariants,
            telemetry=args.trace is not None, trace_path=args.trace,
            **overrides)
        result = run_simulation(cfg)
        d = result.to_dict()
        rows["packet"] = {
            "label": args.protocol, "generated": d["generated"],
            "delivered": d["delivered"],
            "delivery_ratio": d["delivery_ratio"],
            "average_delay_s": d["average_delay_s"],
        }
    if args.json:
        print(json.dumps({"scenario": spec.name, "levels": rows}, indent=2))
        return 0
    print(f"# scenario {spec.name} ({spec.mobility} mobility)")
    print(f"{'level':<9} {'proto':<9} {'generated':>10} {'delivered':>10} "
          f"{'ratio':>7} {'delay(s)':>9}")
    for level, row in rows.items():
        delay = row["average_delay_s"]
        delay_text = "-" if delay is None else format(delay, ".0f")
        print(f"{level:<9} {row['label']:<9} {row['generated']:>10} "
              f"{row['delivered']:>10} {row['delivery_ratio']:>7.3f} "
              f"{delay_text:>9}")
    if len(rows) == 2:
        gap = (rows["contact"]["delivery_ratio"]
               - rows["packet"]["delivery_ratio"])
        print(f"contact-minus-packet delivery gap: {gap:+.3f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "single":
        return _cmd_single(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "contact":
        return _cmd_contact(args)
    if args.command == "crossval":
        return _cmd_crossval(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
