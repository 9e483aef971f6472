"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Enumerate registered workloads and every component family —
    policies, prefetchers, OCPs, cache designs — with their parameter
    schemas.
``run``
    Simulate one workload under one policy and print the result row: a
    one-off :class:`~repro.api.RunSpec` at warmup 0.2, resolved with
    no result store.
``figures``
    Regenerate one, several or ``--all`` paper figures (the drivers the
    benchmarks run) through the engine, with a result store
    (``--no-store`` for none) and an executed/hit summary.
``sweep``
    Run a workloads × designs × policies cross-product and print the
    speedup matrix.
``exp``
    Execute (``exp run``) or validate (``exp validate``) a declarative
    experiment spec file (TOML or JSON) through the SDK; ``exp run
    --queue PATH`` routes execution through a durable job queue and
    ``exp resume`` restarts a killed queue-backed campaign without
    recomputing finished jobs.
``worker``
    Lease and execute jobs from a durable queue (``--queue PATH``)
    until it drains.  Any number of worker processes can share one
    queue; a worker that dies mid-job loses its lease after
    ``--lease-ttl`` seconds and a surviving worker reclaims the job.
``queue``
    Durable-queue tooling: ``queue status`` prints per-state job
    counts, active leases with ages, and the attempt histogram;
    ``queue dispatch`` lowers a spec file into queued jobs without
    executing them.
``trace``
    Ingest external trace files: ``trace import`` parses a file through
    a registered adapter into the content-addressed trace cache and
    prints the ``trace://`` reference to use in specs; ``trace
    inspect`` prints a stats block for an external file or a registry
    workload.
``classify``
    Split the evaluation workloads into prefetcher-friendly/adverse.
``obs``
    Aggregate a telemetry run journal (written by any engine-backed
    command run with ``--telemetry PATH``): ``obs summary`` breaks a
    run down by phase and worker (several journals — one per worker
    process — merge into one campaign report), ``obs spans`` totals
    span names,
    ``obs validate`` schema-checks every event, ``obs export`` emits
    the final metrics snapshot as Prometheus text or JSON.
``bench``
    Measure simulation throughput; every run is appended (with git
    commit + machine provenance) to ``BENCH_history.jsonl``, and
    ``bench --trend`` charts that cross-run trajectory.

The CLI is a thin shell over :mod:`repro.api`: every command builds the
same typed specs (:class:`~repro.api.RunSpec`,
:class:`~repro.api.SweepSpec`, …) a library consumer would, and resolves
them through a :class:`~repro.api.Session` — so ``figures``, ``sweep``
and the equivalent spec file produce identical engine content-hash keys
and share one result store (``--jobs N`` fans misses across N worker
processes; ``--store PATH`` persists every result so a rerun executes
nothing).

Engine-backed commands (``figures``/``sweep``/``exp run``) also take
resilience flags: ``--max-retries N`` and ``--timeout SECONDS``
(env fallbacks ``REPRO_MAX_RETRIES``/``REPRO_TIMEOUT_S``) bound how
hard the engine fights worker failures, ``--fail-fast`` abandons a
batch on the first terminal failure, and ``--faults SPEC``
(``REPRO_FAULTS``) injects deterministic faults for resilience
testing.  A run whose simulations still fail after retries prints a
failure summary and exits with code 3 (code 2 stays usage errors) —
after persisting every successful sibling result, so the rerun
resumes warm.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import sys
from typing import List, Optional


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Athena (HPCA 2026) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, components, and schemas")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", help="registry name, e.g. ligra.BFS.0")
    run.add_argument("--policy", default="athena",
                     help="none/naive/hpac/mab/tlp/athena")
    run.add_argument("--design", default="cd1", help="cd1/cd2/cd3/cd4")
    run.add_argument("--length", type=int, default=24_000,
                     help="trace length in instructions")
    run.add_argument("--seed", type=int, default=None,
                     help="policy RNG seed (athena only)")
    run.add_argument("--policy-config", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="policy constructor option, repeatable "
                          "(e.g. --policy-config alpha=0.4)")

    figs = sub.add_parser(
        "figures",
        help="regenerate figures via the parallel engine + result store",
    )
    figs.add_argument("figure_ids", nargs="*", metavar="FIG",
                      help="figure ids (e.g. Fig7 Fig12a); see --all")
    figs.add_argument("--all", action="store_true",
                      help="regenerate every registered figure")
    _add_engine_args(figs)

    sweep = sub.add_parser(
        "sweep", help="workloads x designs x policies speedup matrix"
    )
    sweep.add_argument("--workloads", default="pool",
                       help="comma-separated workload names, or pool[:N] "
                            "for the scale's representative subset")
    sweep.add_argument("--designs", default="cd1",
                       help="comma-separated subset of cd1,cd2,cd3,cd4")
    sweep.add_argument("--policies", default="none,athena",
                       help="comma-separated policy registry names")
    _add_engine_args(sweep)

    exp = sub.add_parser(
        "exp", help="declarative experiment specs (TOML/JSON)"
    )
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)
    exp_run = exp_sub.add_parser(
        "run", help="execute a whole experiment from one spec file"
    )
    exp_run.add_argument("spec_path", metavar="SPEC",
                         help="path to a .toml or .json experiment spec")
    _add_engine_args(exp_run)
    exp_resume = exp_sub.add_parser(
        "resume",
        help="resume a queue-backed experiment after a crash: reset "
             "failed jobs, re-dispatch (done keys are no-ops), drain",
    )
    exp_resume.add_argument("spec_path", metavar="SPEC",
                            help="the same spec file the campaign ran")
    _add_engine_args(exp_resume)
    exp_validate = exp_sub.add_parser(
        "validate", help="validate a spec file and print its plan"
    )
    exp_validate.add_argument("spec_path", metavar="SPEC")

    worker = sub.add_parser(
        "worker",
        help="lease and execute jobs from a durable queue until it "
             "drains (spawn any number against one --queue)",
    )
    _add_engine_args(worker)
    worker.add_argument("--max-idle", type=float, default=None,
                        metavar="SECONDS", dest="max_idle",
                        help="exit after this long without obtaining a "
                             "lease (default: wait for the queue to drain)")

    queue_cmd = sub.add_parser(
        "queue", help="inspect or populate durable job queues"
    )
    queue_sub = queue_cmd.add_subparsers(dest="queue_command",
                                         required=True)
    queue_status = queue_sub.add_parser(
        "status",
        help="per-state job counts, active leases, attempt histogram",
    )
    queue_status.add_argument("queue_path", metavar="QUEUE",
                              help="queue database path")
    queue_dispatch = queue_sub.add_parser(
        "dispatch",
        help="lower an experiment spec into queued jobs without "
             "executing (workers drain them)",
    )
    queue_dispatch.add_argument("spec_path", metavar="SPEC",
                                help="a .toml or .json experiment spec")
    _add_engine_args(queue_dispatch)

    trace = sub.add_parser(
        "trace", help="import/inspect external trace files"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_import = trace_sub.add_parser(
        "import",
        help="parse an external trace into the content-addressed cache",
    )
    trace_import.add_argument(
        "source", help="path or trace:// source of the external file"
    )
    trace_import.add_argument(
        "--name", default=None,
        help="workload name (default: the file stem)")
    trace_import.add_argument(
        "--adapter", default=None,
        help="adapter name (default: by file suffix); see `repro list`")
    trace_import.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="adapter option, repeatable (e.g. --param delimiter=,)")
    trace_inspect = trace_sub.add_parser(
        "inspect",
        help="print a stats block for a trace file or registry workload",
    )
    trace_inspect.add_argument(
        "source", help="path, trace:// source, or registry workload name"
    )
    trace_inspect.add_argument(
        "--length", type=int, default=6_000,
        help="build length for registry workloads (default 6000; "
             "external files use their native length)")
    trace_stream = trace_sub.add_parser(
        "stream",
        help="emit a trace block-at-a-time through the trace cache "
             "without materializing it",
    )
    trace_stream.add_argument(
        "source", help="registry workload name or trace:// source"
    )
    trace_stream.add_argument(
        "--length", type=int, default=100_000,
        help="trace length in instructions (default 100000)")
    trace_stream.add_argument(
        "--block", type=int, default=4_096,
        help="block size in instructions (default 4096)")

    obs = sub.add_parser(
        "obs", help="inspect telemetry run journals (--telemetry PATH)"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary",
        help="per-phase time and per-worker request breakdown",
    )
    obs_spans = obs_sub.add_parser(
        "spans", help="per-span-name wall/cpu totals"
    )
    obs_validate = obs_sub.add_parser(
        "validate", help="schema-check every journal event"
    )
    obs_export = obs_sub.add_parser(
        "export", help="export the final metrics snapshot"
    )
    obs_export.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (default: prometheus text exposition)")
    # summary aggregates across files (one journal per worker process);
    # the other subcommands operate on exactly one journal.
    obs_summary.add_argument("journal", metavar="JOURNAL", nargs="+",
                             help="run journal JSONL path(s); several "
                                  "merge into one campaign report")
    for obs_parser in (obs_spans, obs_validate, obs_export):
        obs_parser.add_argument("journal", metavar="JOURNAL",
                                help="run journal JSONL path")

    sub.add_parser("classify",
                   help="friendly/adverse split of the workload pool")

    bench = sub.add_parser(
        "bench",
        help="measure simulated-instructions/second and write "
             "BENCH_sim_throughput.json",
    )
    bench.add_argument("--quick", action="store_true",
                       help="smaller matrix and single repeat (CI smoke)")
    bench.add_argument("--phase", default="all", metavar="PHASES",
                       help="comma-separated subset of sim,traces,"
                            "multicore,store (default: all)")
    bench.add_argument("--output", default="BENCH_sim_throughput.json",
                       metavar="PATH", help="report path (default: "
                       "BENCH_sim_throughput.json)")
    bench.add_argument("--workloads", default=None,
                       help="comma-separated workload names "
                            "(default: representative trio)")
    bench.add_argument("--policies", default=None,
                       help="comma-separated policies (default: none,athena)")
    bench.add_argument("--length", type=int, default=24_000,
                       help="trace length per cell (default 24000)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="cold repeats per cell; best is reported")
    bench.add_argument("--check", default=None, metavar="BASELINE",
                       help="fail if normalized geomean throughput regresses "
                            "vs this baseline JSON")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed fractional regression for --check "
                            "(default 0.30)")
    bench.add_argument("--history", default=None, metavar="PATH",
                       help="cross-run history JSONL (default: "
                            "BENCH_history.jsonl next to --output)")
    bench.add_argument("--no-history", action="store_true",
                       help="do not append this run to the history file")
    bench.add_argument("--trend", action="store_true",
                       help="render the recorded throughput trajectory "
                            "and exit (no benchmarking)")

    check = sub.add_parser(
        "check",
        help="invariant linter: AST-based checks for determinism, "
             "key purity, and transaction discipline",
    )
    check.add_argument("paths", nargs="*", default=["src"],
                       metavar="PATH",
                       help="files or directories to lint (default: src)")
    check.add_argument("--rule", action="append", default=None,
                       metavar="RULE-ID", dest="rules",
                       help="run only this rule (repeatable; default: "
                            "all registered rules)")
    check.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="report format (default: text)")
    check.add_argument("--fix-suppressions", action="store_true",
                       help="append `# repro: allow(<rule>)` to every "
                            "flagged line instead of failing "
                            "(grandfathers violations visibly)")
    return parser


def _add_engine_args(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for simulation misses "
                             "(default 1: in-process)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="result-store path (default: $REPRO_STORE or "
                             "~/.cache/repro/results-<source hash>.sqlite, "
                             "one per source tree)")
    parser.add_argument("--no-store", action="store_true",
                        help="run without a persistent result store")
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="append a JSONL run journal of engine events "
                             "for `repro obs` (default: $REPRO_TELEMETRY)")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="retries per failed simulation before it is "
                             "reported as a failure (default: "
                             "$REPRO_MAX_RETRIES or 2)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-simulation wall-clock budget; a hung "
                             "worker is killed and the request retried "
                             "(default: $REPRO_TIMEOUT_S or no limit; "
                             "needs --jobs > 1)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="on the first terminal failure, cancel "
                             "requests not yet running instead of "
                             "finishing the batch")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault-injection plan for "
                             "resilience testing, e.g. "
                             "'crash=0.2,hang=0.2,corrupt=0.2,seed=7' "
                             "(default: $REPRO_FAULTS)")
    parser.add_argument("--queue", default=None, metavar="PATH",
                        help="durable job-queue database: execution "
                             "misses become leased jobs, shared with any "
                             "`repro worker --queue PATH` processes, and "
                             "a killed run resumes from the queue+store")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="SECONDS", dest="lease_ttl",
                        help="queue lease lifetime; a worker that stops "
                             "heartbeating for this long is presumed "
                             "dead and its jobs are reclaimed "
                             "(default 30)")


#: exit code for runs where simulations failed after retries (2 is
#: usage errors); every successful sibling result is persisted first.
EXIT_EXECUTION_FAILURE = 3


def _make_engine(args, queue=None, progress=None):
    """An Engine wired to the command's engine flags (see
    :func:`_add_engine_args`); ``queue`` is the durable queue it
    dispatches misses to, if any."""
    from .engine.api import Engine
    from .engine.faults import ExecutionPolicy, FaultPlan
    from .engine.store import ResultStore, default_store_path

    resilience = ExecutionPolicy.from_env(
        max_retries=args.max_retries,
        timeout_s=args.timeout,
        fail_fast=args.fail_fast or None,
    )
    faults = (FaultPlan.parse(args.faults) if args.faults
              else FaultPlan.from_env())
    store = None if args.no_store else ResultStore(
        args.store or default_store_path())
    return Engine(store=store, jobs=args.jobs, progress=progress,
                  telemetry=args.telemetry, resilience=resilience,
                  faults=faults, queue=queue, lease_ttl_s=args.lease_ttl)


def _make_session(args):
    """A Session over :func:`_make_engine`, dispatching to ``--queue``."""
    from .api import Session

    return Session(_make_engine(args, queue=args.queue,
                                progress=_progress))


def _fail_execution(session, exc) -> int:
    """Report an ExecutionError and return the failure exit code."""
    from .engine.faults import format_failures

    print(format_failures(exc.failures), file=sys.stderr)
    print(session.counters.summary(), file=sys.stderr)
    return EXIT_EXECUTION_FAILURE


def _progress(done: int, total: int, key: str) -> None:
    print(f"\r  [{done}/{total}] simulations", end="",
          file=sys.stderr, flush=True)
    if done == total:
        print(file=sys.stderr)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _split(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _cmd_list() -> int:
    from .api.registry import registry
    from .workloads.suites import (
        evaluation_workloads,
        extended_workloads,
        google_workloads,
    )

    print("policies:   ", ", ".join(registry.names("policy")))
    print("prefetchers:", ", ".join(registry.names("prefetcher")))
    print("ocps:       ", ", ".join(registry.names("ocp")))
    print("designs:    ", " ".join(registry.names("design")))
    print("adapters:   ", ", ".join(registry.names("trace_adapter")))
    print()
    print("component parameter schemas:")
    for kind in ("policy", "prefetcher", "ocp", "design", "trace_adapter"):
        for component in registry.components(kind):
            params = ", ".join(
                spec.describe() for spec in component.schema.values()
            ) or "(no options)"
            print(f"  {kind + ' ' + component.name:24s} {params}")
    print()
    print(f"evaluation workloads ({len(evaluation_workloads())}):")
    for spec in evaluation_workloads():
        print(f"  {spec.name:32s} {spec.suite:8s} {spec.pattern}")
    print(f"unseen/google workloads ({len(tuple(google_workloads()))}):")
    for spec in google_workloads():
        print(f"  {spec.name:32s} {spec.suite:8s} {spec.pattern}")
    print(f"extended workloads ({len(tuple(extended_workloads()))}):")
    for spec in extended_workloads():
        print(f"  {spec.name:32s} {spec.suite:8s} {spec.pattern}")
    from .analysis import available_rules

    print()
    print("lint rules (repro check):")
    for name, rule in sorted(available_rules().items()):
        print(f"  {name:32s} {rule.description}")
    return 0


def _cmd_run(args) -> int:
    from . import quick_run
    from .api.params import parse_assignments
    from .engine.faults import ExecutionError, format_failures

    try:
        options = parse_assignments(args.policy_config, "--policy-config")
    except ValueError as exc:
        return _fail(str(exc))
    if args.seed is not None:
        options["seed"] = args.seed
    try:
        result = quick_run(args.workload, policy=args.policy,
                           design=args.design, length=args.length,
                           policy_options=options)
    except ValueError as exc:
        return _fail(str(exc))
    except ExecutionError as exc:
        print(format_failures(exc.failures), file=sys.stderr)
        return EXIT_EXECUTION_FAILURE
    stats = result.result.stats
    print(f"workload:  {args.workload}")
    print(f"policy:    {args.policy} on {args.design.upper()}")
    if args.seed is not None:
        print(f"seed:      {args.seed}")
    print(f"ipc:       {result.ipc:.4f}")
    print(f"baseline:  {result.baseline_ipc:.4f}")
    print(f"speedup:   {result.speedup:.4f}")
    print(f"llc mpki:  {1000 * stats.llc_misses / max(1, stats.instructions):.2f}")
    print(f"prefetches:{stats.prefetches_issued}"
          f" (useful {stats.prefetches_useful})")
    print(f"ocp:       {stats.ocp_predictions} predictions,"
          f" {stats.ocp_correct} correct")
    return 0


def _cmd_figures(args) -> int:
    from .api import FigureSpec, SpecError

    if not args.figure_ids and not args.all:
        return _fail("no figures requested (name some or pass --all)")
    try:
        spec = FigureSpec(figures=list(args.figure_ids), all=args.all)
    except SpecError as exc:
        return _fail(str(exc))
    try:
        session = _make_session(args)
    except ValueError as exc:  # e.g. --store pointing at a non-store file
        return _fail(str(exc))
    try:
        from .engine.faults import ExecutionError

        try:
            for outcome in session.figures(spec):
                print(outcome.format_table())
                print()
        except ExecutionError as exc:
            return _fail_execution(session, exc)
        print(session.counters.summary())
    finally:
        session.close()
    return 0


def _cmd_sweep(args) -> int:
    from .api import SweepSpec

    workloads = args.workloads
    if not (workloads == "pool" or workloads.startswith("pool:")):
        workloads = _split(workloads)
    try:
        spec = SweepSpec(
            workloads=workloads,
            designs=_split(args.designs),
            policies=_split(args.policies),
        )
    except ValueError as exc:
        return _fail(str(exc))
    try:
        session = _make_session(args)
    except ValueError as exc:  # e.g. --store pointing at a non-store file
        return _fail(str(exc))
    try:
        from .engine.faults import ExecutionError

        try:
            result = session.sweep(spec)
        except ValueError as exc:
            return _fail(str(exc))
        except ExecutionError as exc:
            return _fail_execution(session, exc)
        print(result.format_table())
        print()
        print(session.counters.summary())
    finally:
        session.close()
    return 0


def _cmd_exp(args) -> int:
    from .api import ExperimentSpec, SpecError

    # SpecError covers spec validation; plain ValueError covers lower
    # layers (param normalization, registry) it may surface through.
    try:
        spec = ExperimentSpec.load(args.spec_path)
    except (SpecError, ValueError) as exc:
        return _fail(str(exc))

    if args.exp_command == "validate":
        print(f"experiment: {spec.name}")
        print(f"content key: {spec.content_key()}")
        if spec.scale is not None:
            print(f"scale: {spec.scale}")
        for kind, section in spec.sections():
            print(f"  {kind}: {section.to_dict()}")
        print("spec OK")
        return 0

    if args.exp_command == "resume" and not args.queue:
        return _fail("exp resume needs --queue PATH (the queue the "
                     "campaign was dispatched to)")
    try:
        session = _make_session(args)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        from .engine.faults import ExecutionError

        if args.exp_command == "resume":
            # A failed job exhausted its budget in the *previous* life
            # of this campaign; resuming grants it a fresh one.
            reset = session.engine.queue.reset_failed()
            if reset:
                print(f"reset {len(reset)} failed job(s) to pending")
        try:
            outcome = session.run_experiment(spec)
        except ValueError as exc:  # run-time-empty cases, e.g. pool:0
            return _fail(str(exc))
        except ExecutionError as exc:
            return _fail_execution(session, exc)
        print(f"experiment: {spec.name} "
              f"(content key {spec.content_key()[:12]})")
        print()
        print(outcome.format_text())
        print()
        print(session.counters.summary())
    finally:
        session.close()
    return 0


def _cmd_worker(args) -> int:
    """Standalone queue worker: drain jobs until the queue settles.

    The engine owns the queue and hands out the worker
    (:meth:`~repro.engine.api.Engine.worker`), so executed jobs reach
    the memo/store/journal exactly as the engine's own jobs do.  The
    engine never dispatches to the queue: this process only drains it.
    """
    if not args.queue:
        return _fail("worker needs --queue PATH")
    try:
        engine = _make_engine(args, queue=args.queue)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        report = engine.worker().run(max_idle_s=args.max_idle)
        print(report.summary())
        print(engine.counters.summary())
        failed = engine.queue.counts()["failed"]
        if failed:
            print(f"{failed} job(s) in state failed "
                  f"(see `repro queue status {args.queue}`)",
                  file=sys.stderr)
            return EXIT_EXECUTION_FAILURE
        return 0
    finally:
        engine.close()


def _cmd_queue(args) -> int:
    from .engine.jobs import lockstep_groups
    from .engine.queue import JOB_STATES, JobQueue

    if args.queue_command == "status":
        import time as _time

        from .engine.backend import require_sqlite_file

        try:
            require_sqlite_file(args.queue_path, what="job queue")
            queue = JobQueue(args.queue_path)
        except ValueError as exc:
            return _fail(str(exc))
        with queue:
            counts = queue.counts()
            print(f"queue: {queue.path} ({len(queue)} jobs)")
            print("  " + "  ".join(f"{state}={counts[state]}"
                                   for state in JOB_STATES))
            leases = queue.leases()
            if leases:
                print("active leases:")
                now = _time.time()
                for job in leases:
                    remaining = ((job.lease_expires or now) - now)
                    print(f"  {job.key[:12]}  owner={job.owner}  "
                          f"age={job.lease_age_s:.1f}s  "
                          f"expires_in={remaining:.1f}s  "
                          f"attempt={job.attempts}")
            histogram = queue.attempt_histogram()
            if histogram:
                print("attempts histogram:")
                for attempts in sorted(histogram):
                    print(f"  {attempts} attempt(s): "
                          f"{histogram[attempts]} job(s)")
            failed = queue.jobs("failed")
            if failed:
                print("failed jobs:")
                for job in failed:
                    error = (job.error or {})
                    print(f"  {job.key[:12]}  {error.get('kind', '?')}: "
                          f"{(error.get('error') or '?')[:80]}")
        return 0

    # dispatch: lower a spec into queued jobs without executing
    from .api import ExperimentSpec, SpecError

    if not args.queue:
        return _fail("queue dispatch needs --queue PATH")
    try:
        spec = ExperimentSpec.load(args.spec_path)
    except (SpecError, ValueError) as exc:
        return _fail(str(exc))
    # A plain session (no queue route): planning must not execute.
    queue_path, args.queue = args.queue, None
    try:
        session = _make_session(args)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        requests = session.plan_experiment(spec)
        try:
            queue = JobQueue(queue_path)
        except ValueError as exc:
            return _fail(str(exc))
        with queue:
            keyed = [(request.key(), request) for request in requests]
            report = queue.dispatch(
                keyed, store=session.engine.store,
                max_retries=session.engine.resilience.max_retries,
                groups=lockstep_groups(keyed))
            session.engine.journal_event(
                "dispatch", queue=str(queue.path),
                enqueued=len(report.enqueued),
                done_from_store=len(report.done_from_store),
                already_done=len(report.already_done),
                already_queued=len(report.already_queued),
                resumed_failed=len(report.resumed_failed))
            print(f"experiment: {spec.name} "
                  f"(content key {spec.content_key()[:12]})")
            print(report.summary())
            print(f"drain with: repro worker --queue {queue_path}")
    finally:
        session.close()
    return 0


def _cmd_trace(args) -> int:
    import pathlib

    from .api.params import parse_assignments
    from .workloads.ingest import (
        TraceImportError,
        describe_trace,
        import_trace,
        is_trace_source,
    )

    if args.trace_command == "import":
        try:
            params = parse_assignments(args.param, "--param")
            outcome = import_trace(args.source, name=args.name,
                                   adapter=args.adapter, params=params)
        except (TraceImportError, ValueError) as exc:
            return _fail(str(exc))
        spec_params = dict(outcome.spec.params)
        print(f"imported:    {outcome.spec.name}"
              f"{' (cached)' if outcome.cached else ''}")
        print(f"adapter:     {spec_params['adapter']}")
        print(f"sha256:      {spec_params['sha256']}")
        print(f"fingerprint: {outcome.fingerprint}")
        print(f"source:      {outcome.source}")
        print(describe_trace(outcome.trace))
        return 0

    if args.trace_command == "stream":
        from .workloads.suites import find_workload, stream_trace
        from .workloads.tracecache import trace_cache

        if args.length <= 0:
            return _fail("--length must be positive")
        if args.block <= 0:
            return _fail("--block must be positive")
        try:
            spec = find_workload(args.source)
        except (KeyError, TraceImportError) as exc:
            return _fail(str(exc.args[0] if exc.args else exc))
        stream = stream_trace(spec, args.length, args.block)
        blocks = rows = 0
        for block in stream:
            blocks += 1
            rows += len(block)
        stats = trace_cache().stats
        print(f"streamed: {spec.name} length={rows} "
              f"block={args.block} blocks={blocks}")
        # greppable warm/cold verdict (CI streaming smoke)
        print(f"trace cache: builds={stats.builds} hits={stats.hits} "
              f"disk_hits={stats.disk_hits}")
        return 0

    # inspect: an external file/source, or a registry workload name
    from .workloads.suites import build_trace, find_workload

    source = args.source
    # import_trace accepts both spellings; a bare path is passed as-is
    # (wrapping it in trace:// would need percent-encoding first).
    external = is_trace_source(source) or pathlib.Path(source).is_file()
    try:
        if external:
            outcome = import_trace(source)
            trace = outcome.trace
            print(f"trace:   {outcome.spec.name} (external, "
                  f"adapter {dict(outcome.spec.params)['adapter']})")
        else:
            spec = find_workload(source)
            trace = build_trace(spec, args.length)
            print(f"trace:   {spec.name} ({spec.suite}/{spec.pattern} "
                  f"@ {args.length})")
    except (KeyError, TraceImportError) as exc:
        return _fail(str(exc.args[0] if exc.args else exc))
    print(describe_trace(trace))
    return 0


def _cmd_classify() -> int:
    from .experiments.configs import CacheDesign
    from .experiments.runner import ExperimentContext

    ctx = ExperimentContext()
    friendly, adverse = ctx.classify_workloads(
        CacheDesign.cd1(), ctx.workload_pool()
    )
    print(f"prefetcher-friendly ({len(friendly)}):")
    for spec in friendly:
        print(f"  {spec.name}")
    print(f"prefetcher-adverse ({len(adverse)}):")
    for spec in adverse:
        print(f"  {spec.name}")
    return 0


def _cmd_obs(args) -> int:
    import json
    import pathlib

    from .obs import journal as obs_journal

    if args.obs_command == "summary":
        paths = [pathlib.Path(p) for p in args.journal]
        for path in paths:
            if not path.exists():
                return _fail(f"journal {path} not found")
        try:
            summary = obs_journal.summarize_journals(paths)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))
        print(obs_journal.format_summary(summary))
        return 0

    path = pathlib.Path(args.journal)
    if not path.exists():
        return _fail(f"journal {path} not found")

    if args.obs_command == "validate":
        errors = obs_journal.validate_journal(path)
        if errors:
            for error in errors:
                print(error, file=sys.stderr)
            print(f"{path}: {len(errors)} schema errors", file=sys.stderr)
            return 1
        events = sum(1 for _ in obs_journal.read_journal(path))
        print(f"{path}: {events} events OK")
        return 0

    try:
        if args.obs_command == "spans":
            print(obs_journal.format_spans(obs_journal.aggregate_spans(path)))
            return 0
        # export: the metrics snapshot from the final summary event
        last = None
        for _, event in obs_journal.read_journal(path):
            if event.get("type") == "summary":
                last = event
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if last is None:
        return _fail(
            f"{path} has no summary event (the run did not close cleanly)"
        )
    snapshot = last.get("metrics") or {}
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        from .obs.metrics import prometheus_text

        print(prometheus_text(snapshot), end="")
    return 0


def _cmd_check(args) -> int:
    """Run the invariant linter (exit 0 clean / 1 findings / 2 usage)."""
    from .analysis import (
        apply_suppressions,
        lint_paths,
        render_json,
        render_text,
    )

    try:
        run = lint_paths(args.paths, rule_ids=args.rules)
    except (FileNotFoundError, ValueError) as exc:
        return _fail(str(exc))
    if args.fix_suppressions and run.findings:
        changed = apply_suppressions(run.findings)
        for path, count in sorted(changed.items()):
            print(f"{path}: suppressed {count} line(s)")
        run = lint_paths(args.paths, rule_ids=args.rules)
    if args.format == "json":
        print(render_json(run), end="")
    else:
        print(render_text(run))
    return 1 if run.findings else 0


def _cmd_bench(args) -> int:
    import json
    import pathlib

    from . import bench as throughput

    history = pathlib.Path(
        args.history if args.history
        else pathlib.Path(args.output).with_name("BENCH_history.jsonl")
    )
    if args.trend:
        entries = throughput.load_history(history)
        if not entries:
            return _fail(f"no bench history at {history} "
                         f"(run `repro bench` first)")
        print(throughput.format_trend(entries))
        return 0

    kwargs = {}
    if args.workloads:
        kwargs["workloads"] = tuple(_split(args.workloads))
    if args.policies:
        kwargs["policies"] = tuple(_split(args.policies))

    if args.phase and args.phase != "all":
        kwargs["phases"] = tuple(_split(args.phase))

    def progress(workload: str, policy: str) -> None:
        print(f"  bench: {workload} x {policy}", file=sys.stderr, flush=True)

    try:
        report = throughput.run_bench(
            trace_length=args.length, repeats=args.repeats,
            quick=args.quick, progress=progress, **kwargs,
        )
    except KeyError as exc:
        return _fail(str(exc.args[0] if exc.args else exc))
    print(throughput.format_report(report))

    out = pathlib.Path(args.output)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if not args.no_history:
        throughput.append_history(report, history)
        print(f"appended run to {history} (view with `repro bench --trend`)")

    if args.check:
        baseline = pathlib.Path(args.check)
        if not baseline.exists():
            return _fail(f"baseline {baseline} not found")
        ok, message = throughput.check_regression(
            report, baseline, args.tolerance
        )
        print(f"regression check: {message}")
        if not ok:
            print("regression check FAILED", file=sys.stderr)
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "exp":
        return _cmd_exp(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "queue":
        return _cmd_queue(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "classify":
        return _cmd_classify()
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "check":
        return _cmd_check(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
