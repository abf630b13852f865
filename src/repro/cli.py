"""Command-line interface mirroring the paper artifact's main.py workflow.

Subcommands (Artifact Appendix A.5-A.6):

* ``train``       — train a GiPH policy on synthetic data and save a run
                    directory with model checkpoints and episodic stats;
* ``test``        — load a checkpoint and evaluate it on fresh test cases
                    against random / HEFT references;
* ``generate``    — sample task graphs and device networks and describe
                    them (the Generate_data.ipynb equivalent);
* ``experiment``  — run one of the paper's table/figure experiments,
                    on a selectable execution backend;
* ``serve``       — long-lived placement daemon answering JSON-lines
                    requests over a local socket (see repro.serve);
* ``load``        — seeded many-tenant load generator against the
                    daemon, reporting p50/p99 latency and req/s;
* ``shard``       — plan/run/merge an experiment split across processes
                    or machines (file-based transport, see repro.shard);
* ``trace``       — render the telemetry span tree of a run's JSONL
                    event log(s) (see repro.telemetry);
* ``lint``        — AST invariant analysis over the source tree: RNG
                    discipline, telemetry purity, canonical JSON,
                    fan-out pickle safety (see repro.analysis).

Status/progress lines go to stderr through the ``REPRO_LOG`` leveled
logger (debug|info|quiet); stdout carries only primary results.

Usage:  python -m repro train --episodes 50 --logdir runs
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from .parallel import make_backend
from .telemetry import log

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GiPH reproduction: train/evaluate placement policies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a GiPH policy on synthetic data")
    train.add_argument("--episodes", type=int, default=50)
    train.add_argument("--num-tasks", type=int, default=12)
    train.add_argument("--num-devices", type=int, default=6)
    train.add_argument("--train-graphs", type=int, default=8)
    train.add_argument("--embedding", default="giph",
                       help="giph | giph-<k> | giph-ne | graphsage-ne | giph-ne-pol")
    train.add_argument("--objective", default="makespan",
                       choices=["makespan", "total-cost", "energy"])
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--logdir", default="runs")
    train.add_argument("--batch-episodes", type=int, default=1, metavar="K",
                       help="episodes per gradient update; K>1 collects them "
                            "against snapshot weights (K=1: serial semantics)")
    train.add_argument("--workers", type=int, default=1,
                       help="processes collecting batched episodes (needs "
                            "--batch-episodes > 1 to fan out; 0 = all CPUs)")

    test = sub.add_parser("test", help="evaluate a saved policy on fresh cases")
    test.add_argument("--run-folder", required=True,
                      help="run directory created by `repro train`")
    test.add_argument("--num-testing-cases", type=int, default=20)
    test.add_argument("--noise", type=float, default=0.0)
    test.add_argument("--seed", type=int, default=1)
    test.add_argument("--workers", type=int, default=1,
                      help="evaluate test cases on this many processes "
                           "(results are worker-count independent; 0 = all CPUs)")

    gen = sub.add_parser("generate", help="sample and describe synthetic data")
    gen.add_argument("--num-tasks", type=int, default=12)
    gen.add_argument("--num-devices", type=int, default=6)
    gen.add_argument("--count", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)

    # Help strings are generated from the experiments registry (ids and
    # which run() signatures accept `backend`), so they cannot go stale
    # the way a hand-maintained list did.
    from .experiments.registry import (
        EXPERIMENT_IDS,
        parallel_experiment_ids,
        serial_experiment_ids,
    )

    exp = sub.add_parser("experiment", help="run a paper table/figure experiment")
    exp.add_argument("id", help="|".join(EXPERIMENT_IDS))
    exp.add_argument("--scale", default=None, choices=["quick", "paper"])
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--workers", type=int, default=None,
                     help="worker processes fanning out the experiment's "
                          f"train/eval grid ({', '.join(parallel_experiment_ids())}; "
                          f"serial by design: {', '.join(serial_experiment_ids())}); "
                          "results are worker-count independent (0 = all CPUs)")
    exp.add_argument("--backend", default=None, choices=["inline", "fork", "shard"],
                     help="execution backend (default: inline at --workers 1, fork "
                          "otherwise); an explicit 'fork' without --workers uses all "
                          "CPUs; 'shard' plans/runs/merges locally in one go — "
                          "reports are backend-independent")
    exp.add_argument("--shards", type=int, default=2,
                     help="shard count for --backend shard")
    exp.add_argument("--out", default=None,
                     help="plan directory for --backend shard "
                          "(default: runs/shards/<id>-seed<seed>-<scale>)")
    exp.add_argument("--json", default=None, metavar="PATH",
                     help="also write the report JSON to PATH: the canonical "
                          "(byte-stable) report plus a 'runtime' key holding "
                          "volatile timings, metrics registry counters, and "
                          "store/trace-cache hit rates")

    shard = sub.add_parser(
        "shard", help="split an experiment across processes/machines (repro.shard)"
    )
    shard_sub = shard.add_subparsers(dest="shard_command", required=True)
    plan = shard_sub.add_parser("plan", help="write N shard manifests for a run")
    plan.add_argument("id", help="|".join(parallel_experiment_ids()))
    plan.add_argument("--shards", type=int, required=True)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--scale", default=None, choices=["quick", "paper"])
    plan.add_argument("--out", default=None,
                      help="plan directory (default: runs/shards/<id>-seed<seed>-<scale>)")
    plan.add_argument("--store", default=None,
                      help="result store directory (default: <out>/store; relative "
                           "paths resolve against the manifest location)")
    srun = shard_sub.add_parser("run", help="execute one shard manifest")
    srun.add_argument("manifest", help="path to a shard-*.json manifest")
    srun.add_argument("--workers", type=int, default=1,
                      help="processes fanning out this shard's own cells (0 = all CPUs)")
    srun.add_argument("--missing", default="compute", choices=["compute", "wait"],
                      help="unowned cells absent from the store: compute them too "
                           "(default, self-healing) or wait for peer shards to "
                           "publish them (strict work partitioning)")
    srun.add_argument("--wait-timeout", type=float, default=3600.0, metavar="SECONDS",
                      help="give up waiting for peer cells after this long")
    merge = shard_sub.add_parser(
        "merge", help="merge a completed shard set into the final report"
    )
    merge.add_argument("manifests", nargs="+",
                       help="manifest file(s) or the plan directory")
    merge.add_argument("--json", default=None, metavar="PATH",
                       help="also write the report's canonical JSON to PATH")

    trace = sub.add_parser(
        "trace", help="render a run's telemetry span tree (see repro.telemetry)"
    )
    trace.add_argument("target", nargs="?", default="runs/trace",
                       help="a telemetry JSONL log, a run/store directory "
                            "(shard logs under telemetry/ are merged), or a "
                            "directory of logs — newest taken (default: runs/trace)")
    trace.add_argument("--top", type=int, default=None, metavar="N",
                       help="also print the N hottest spans by self time")
    trace.add_argument("--export", default=None, choices=["chrome"],
                       help="additionally write a Chrome trace-event JSON "
                            "(load in chrome://tracing or Perfetto)")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="output path for --export (default: next to the target)")

    scen = sub.add_parser(
        "scenario", help="replay a dynamic-cluster scenario (see repro.scenarios)"
    )
    scen.add_argument("action", nargs="?", choices=["list", "run"], default="list",
                      help="'list' registered presets or 'run' one")
    scen.add_argument("name", nargs="?", help="preset name (required for run)")
    scen.add_argument("--list", action="store_true", dest="list_presets",
                      help="list registered scenario presets")
    scen.add_argument("--policy", action="append", dest="policies",
                      choices=["heft", "random", "rnn-placer", "task-eft"],
                      help="policy to replay (repeatable; default: random + task-eft)")
    scen.add_argument("--seed", type=int, default=None,
                      help="override the preset's seed")
    scen.add_argument("--events", action="store_true",
                      help="print the materialized event stream before replaying")
    scen.add_argument("--cold-evaluators", action="store_true",
                      help="disable cross-event evaluator reuse (benchmark mode)")
    scen.add_argument("--workers", type=int, default=1,
                      help="replay policies on this many processes "
                           "(reports are worker-count independent; 0 = all CPUs)")
    scen.add_argument("--max-events", type=int, default=None, metavar="N",
                      help="truncate the materialized event stream to its first "
                           "N events (untruncated prefixes replay identically)")
    scen.add_argument("--no-oracle", action="store_true",
                      help="skip the fresh-search oracle (regret reported as 0; "
                           "pure-throughput replays)")

    serve = sub.add_parser(
        "serve", help="run the placement daemon (see repro.serve)"
    )
    serve.add_argument("--socket", default="runs/serve.sock",
                       help="AF_UNIX socket path to listen on")
    serve.add_argument("--agent", default=None, metavar="AGENT_NPZ",
                       help="trained agent checkpoint to load once and serve "
                            "as policy 'giph'")
    serve.add_argument("--episode-multiplier", type=int, default=2,
                       help="default search budget per re-placement, in units "
                            "of the graph's task count")
    serve.add_argument("--batch-wait-ms", type=float, default=2.0,
                       help="request-batcher coalescing window")
    serve.add_argument("--max-batch", type=int, default=256,
                       help="request-batcher batch size cap")
    serve.add_argument("--oracle", action="store_true",
                       help="sessions compute oracle/regret by default "
                            "(requests may still override per session)")
    serve.add_argument("--trace-log", default=None, metavar="PATH",
                       help="telemetry JSONL written on shutdown "
                            "(default: runs/trace/serve-<stamp>.jsonl; "
                            "inspect with `repro trace`)")
    serve.add_argument("--seed", type=int, default=0,
                       help="root seed for the daemon's derived policy "
                            "streams (sessions re-derive per tenant)")

    load = sub.add_parser(
        "load", help="drive the daemon with seeded many-tenant load (repro.serve.load)"
    )
    load.add_argument("--socket", default="runs/serve.sock",
                      help="daemon socket path (start one with `repro serve`)")
    load.add_argument("--scenario", action="append", dest="scenarios", metavar="NAME",
                      help="scenario preset tenants replay, round-robin "
                           "(repeatable; default: stable-cluster)")
    load.add_argument("--policy", default="task-eft",
                      help="policy every tenant's session runs")
    load.add_argument("--clients", type=int, default=4,
                      help="concurrent tenant sessions")
    load.add_argument("--events", type=int, default=None, metavar="N",
                      help="events per tenant (default: the full stream)")
    load.add_argument("--seed", type=int, default=0,
                      help="base seed; tenant i replays at seed+i")
    load.add_argument("--client-backend", default="thread",
                      choices=["thread", "fork", "inline"],
                      help="how tenants fan out: threads (default), client "
                           "processes, or serially")
    load.add_argument("--compare-cold", action="store_true",
                      help="also time a cold one-event `repro scenario run` "
                           "subprocess and report the warm-p50 speedup")
    load.add_argument("--json", default=None, metavar="PATH",
                      help="also write the full summary JSON to PATH")

    lint = sub.add_parser(
        "lint", help="AST invariant analysis over the source tree (repro.analysis)"
    )
    lint.add_argument("--rule", action="append", dest="rules", metavar="RULE_ID",
                      help="run only this rule (repeatable; default: all)")
    lint.add_argument("--json", default=None, metavar="PATH",
                      help="write the full findings payload to PATH "
                           "(CI uploads this as an artifact)")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="package directory to lint (default: the installed "
                           "repro package)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule portfolio and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also list suppressed findings")

    return parser


def _objective(name: str):
    from .sim import EnergyObjective, MakespanObjective, TotalCostObjective

    return {
        "makespan": MakespanObjective(),
        "total-cost": TotalCostObjective(),
        "energy": EnergyObjective(),
    }[name]


def _problems(num_tasks: int, num_devices: int, count: int, rng: np.random.Generator):
    from .core import PlacementProblem
    from .devices import DeviceNetworkParams, generate_device_network
    from .graphs import TaskGraphParams, generate_task_graph

    out = []
    for _ in range(count):
        graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks), rng)
        network = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
        out.append(PlacementProblem(graph, network))
    return out


def cmd_train(args: argparse.Namespace) -> int:
    from .core import GiPHAgent, ReinforceConfig, ReinforceTrainer
    from .core.serialization import save_agent

    rng = np.random.default_rng(args.seed)
    problems = _problems(args.num_tasks, args.num_devices, args.train_graphs, rng)
    agent = GiPHAgent(rng, embedding=args.embedding)
    config = ReinforceConfig(learning_rate=args.lr, episodes=args.episodes)
    trainer = ReinforceTrainer(agent, _objective(args.objective), config)

    stamp = time.strftime("%Y-%m-%d_%H-%M-%S")
    run_dir = pathlib.Path(args.logdir) / f"{stamp}_{args.embedding}"
    run_dir.mkdir(parents=True, exist_ok=True)

    backend = make_backend(workers=args.workers)
    log.info(f"training {args.embedding} for {args.episodes} episodes "
             f"({args.train_graphs} graphs of {args.num_tasks} tasks on "
             f"{args.num_devices} devices"
             + (f"; batches of {args.batch_episodes} on {backend.workers} workers"
                if args.batch_episodes > 1 else "") + ")")
    trainer.train(problems, rng, callback=lambda s: log.info(
        f"episode {s.episode:4d}: reward {s.total_reward:+9.3f} "
        f"best {s.best_value:9.3f}"
    ) if s.episode % max(args.episodes // 10, 1) == 0 else None,
        batch_size=args.batch_episodes, backend=backend)

    save_agent(agent, run_dir / "agent.npz")
    history = [
        {
            "episode": s.episode,
            "initial": s.initial_value,
            "final": s.final_value,
            "best": s.best_value,
            "reward": s.total_reward,
        }
        for s in trainer.history
    ]
    (run_dir / "train_data.json").write_text(json.dumps(history, indent=1))
    (run_dir / "args.json").write_text(json.dumps(vars(args), indent=1))
    log.info(f"saved run to {run_dir}")
    print(run_dir)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    from .baselines.giph_policy import GiPHSearchPolicy
    from .core.serialization import load_agent
    from .experiments.runner import HeftPolicy, evaluate_policies
    from .sim import cp_min_lower_bound

    run_dir = pathlib.Path(args.run_folder)
    train_args = json.loads((run_dir / "args.json").read_text())
    rng = np.random.default_rng(args.seed)
    agent = load_agent(run_dir / "agent.npz", rng)

    problems = _problems(
        train_args["num_tasks"], train_args["num_devices"], args.num_testing_cases, rng
    )
    # The case loop rides the shared evaluation harness: every case gets
    # a derived seed stream (noise included — a per-(case, policy) noise
    # stream instead of one shared mutable rng), and --workers fans the
    # cases out with worker-count-independent results.
    result = evaluate_policies(
        {"giph": GiPHSearchPolicy(agent), "heft": HeftPolicy()},
        problems,
        rng,
        noise=args.noise,
        backend=make_backend(workers=args.workers),
    )

    rows = []
    for i, problem in enumerate(problems):
        bound = cp_min_lower_bound(problem.cost_model)
        initial = result.traces["giph"][i].values[0] / bound
        rows.append((initial, result.finals["giph"][i], result.finals["heft"][i]))
        print(f"case {i:3d}: initial SLR {rows[-1][0]:6.2f}  "
              f"giph {rows[-1][1]:6.2f}  heft {rows[-1][2]:6.2f}")
    arr = np.array(rows)
    print(f"\nmean over {len(problems)} cases: initial {arr[:,0].mean():.3f}  "
          f"giph {arr[:,1].mean():.3f}  heft {arr[:,2].mean():.3f}")

    test_dir = run_dir / f"test_{time.strftime('%Y-%m-%d_%H-%M-%S')}"
    test_dir.mkdir(exist_ok=True)
    (test_dir / "eval_data.json").write_text(json.dumps(arr.tolist(), indent=1))
    log.info(f"saved evaluation to {test_dir}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    problems = _problems(args.num_tasks, args.num_devices, args.count, rng)
    for i, p in enumerate(problems):
        g, n = p.graph, p.network
        sizes = [len(s) for s in p.feasible_sets]
        print(f"instance {i}: {g!r}")
        print(f"  devices: {n.num_devices}, speeds "
              f"{np.array([d.speed for d in n.devices]).round(2).tolist()}")
        print(f"  action space |A| = {p.num_actions}, "
              f"state space |S| = {p.state_space_size():.0f}")
        print(f"  feasible devices per task: min {min(sizes)}, "
              f"mean {np.mean(sizes):.1f}, max {max(sizes)}")
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from .scenarios import DEFAULT_REGISTRY, ScenarioRunner, describe_events, format_adaptation_table
    from .serve.server import default_policy_factories

    if args.list_presets or args.action == "list":
        print(f"{'name':<24s} {'devices':>7s} {'changes':>7s} {'graphs':>6s}  description")
        for spec in DEFAULT_REGISTRY:
            print(
                f"{spec.name:<24s} {spec.cluster.num_devices:>7d} "
                f"{spec.churn.num_changes:>7d} "
                f"{spec.workload.initial_graphs + spec.workload.total_arrivals:>6d}  "
                f"{spec.description}"
            )
        print("\nrun one with: repro scenario run <name> --policy task-eft")
        return 0

    if not args.name:
        print("error: 'repro scenario run' needs a preset name "
              "(see 'repro scenario --list')")
        return 2
    try:
        spec = DEFAULT_REGISTRY.get(args.name, seed=args.seed)
    except KeyError as error:
        print(f"error: {error.args[0]}")
        return 2
    source = spec
    if args.max_events is not None:
        import dataclasses

        from .scenarios.events import materialize

        if args.max_events < 0:
            print("error: --max-events must be >= 0")
            return 2
        full = materialize(spec)
        source = dataclasses.replace(full, events=full.events[: args.max_events])
    runner = ScenarioRunner(
        source,
        reuse_evaluators=not args.cold_evaluators,
        oracle=not args.no_oracle,
    )
    materialized = runner.materialized
    print(f"scenario {spec.name!r} (seed {spec.seed}, objective {spec.objective}): "
          f"{materialized.num_events} events over {spec.num_steps} steps, "
          f"{materialized.initial_network.num_devices} devices, "
          f"{len(materialized.initial_graphs)} initial graphs")
    if spec.description:
        print(f"  {spec.description}")
    if args.events:
        for line in describe_events(materialized.events):
            print(f"  {line}")

    factories = default_policy_factories()
    names = dict.fromkeys(args.policies or ["random", "task-eft"])
    result = runner.run(
        {name: factories[name]() for name in names},
        backend=make_backend(workers=args.workers),
    )
    for report in result.reports.values():
        print()
        print(format_adaptation_table(report))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve.server import PlacementServer, ServeConfig, install_signal_handlers
    from .telemetry import capture_run, write_run_log

    config = ServeConfig(
        socket_path=args.socket,
        episode_multiplier=args.episode_multiplier,
        batch_wait_ms=args.batch_wait_ms,
        max_batch=args.max_batch,
        oracle=args.oracle,
        agent_path=args.agent,
        seed=args.seed,
    )
    server = PlacementServer(config)
    install_signal_handlers(server)
    meta = {"command": "serve", "socket": args.socket}
    with capture_run(meta) as capture:
        server.serve_forever()
    if capture.delta is not None:
        stamp = time.strftime("%Y-%m-%d_%H-%M-%S")
        path = (pathlib.Path(args.trace_log) if args.trace_log
                else pathlib.Path("runs") / "trace" / f"serve-{stamp}.jsonl")
        write_run_log(path, capture)
        log.info(f"wrote telemetry log to {path} (inspect with: repro trace {path})")
    log.info(f"repro serve: exited after {server.requests_served} request(s)")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    from .serve.load import LoadConfig, format_load_summary, run_load

    config = LoadConfig(
        socket_path=args.socket,
        scenarios=tuple(args.scenarios or ["stable-cluster"]),
        policy=args.policy,
        clients=args.clients,
        events_per_client=args.events,
        seed=args.seed,
        backend=args.client_backend,
        compare_cold=args.compare_cold,
    )
    summary = run_load(config)
    print(format_load_summary(summary))
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
        log.info(f"wrote load summary JSON to {path}")
    return 0


def _shard_dir(experiment: str, seed: int, scale) -> pathlib.Path:
    return pathlib.Path("runs") / "shards" / f"{experiment}-seed{seed}-{scale.name}"


def _write_report_json(path: pathlib.Path, report, trace_path=None) -> None:
    """The ``--json`` payload: canonical report + a ``runtime`` section.

    ``report.to_json()`` stays byte-stable across runs/backends (the
    shard-merge equality); everything run-dependent — volatile report
    fields, the metrics registry (store/trace-cache hit counters,
    evaluator totals, gnn counters), the telemetry log path — rides in
    the separate ``runtime`` key.  Consumers comparing payloads across
    runs should drop that key first.
    """
    from .telemetry import metrics

    payload = json.loads(report.to_json())
    snapshot = metrics().snapshot()
    runtime = {
        "volatile_data": report.volatile_data(),
        "metrics": snapshot.as_dict(),
        "store": {
            name.split(".", 1)[1]: value
            for name, value in snapshot.counters.items()
            if name.startswith("store.")
        },
    }
    if trace_path is not None:
        runtime["telemetry_log"] = str(trace_path)
    payload["runtime"] = runtime
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    log.info(f"wrote report JSON to {path}")


def _write_trace_log(capture, experiment: str, seed: int, scale) -> pathlib.Path | None:
    """Persist a CLI run's telemetry under ``runs/trace`` (None if disabled)."""
    from .telemetry import write_run_log

    if capture.delta is None:
        return None
    stamp = time.strftime("%Y-%m-%d_%H-%M-%S")
    path = (pathlib.Path("runs") / "trace"
            / f"{experiment}-seed{seed}-{scale.name}-{stamp}.jsonl")
    write_run_log(path, capture)
    log.info(f"wrote telemetry log to {path} (inspect with: repro trace {path})")
    return path


def _run_sharded_locally(args: argparse.Namespace, scale) -> int:
    """``--backend shard``: plan, run every shard, merge — one process."""
    from .shard import merge_shards, plan, run_shard

    out = pathlib.Path(args.out) if args.out else _shard_dir(args.id, args.seed, scale)
    manifests = plan(args.id, args.shards, args.seed, scale, out)
    log.info(f"planned {len(manifests)} shard(s) under {out}")
    inner = make_backend(workers=args.workers)
    for path in manifests:
        run_shard(path, backend=inner)
        log.info(f"ran {path.name}")
    report = merge_shards([out])
    print(report.text)
    log.info(f"shard telemetry logs under {out}/store/telemetry "
             f"(inspect with: repro trace {out}/store)")
    if args.json:
        _write_report_json(pathlib.Path(args.json), report)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import PAPER, QUICK, active_scale
    from .experiments.registry import (
        UnknownExperimentError,
        get_module,
        supports_backend,
    )

    try:
        module = get_module(args.id)
    except UnknownExperimentError as error:
        print(f"error: {error.message}")
        return 2
    scale = {"quick": QUICK, "paper": PAPER}.get(args.scale) if args.scale else active_scale()
    serial_by_design = not supports_backend(args.id)
    if args.backend is not None and serial_by_design:
        print(f"error: experiment {args.id!r} runs serially by design; "
              "--backend does not apply")
        return 2
    if args.backend == "shard":
        try:
            return _run_sharded_locally(args, scale)
        except (RuntimeError, ValueError) as error:
            print(f"error: {error}")
            return 2
    # Experiments with an embarrassingly parallel grid accept `backend`;
    # table1 (constants) and table7 (wall-clock timing) are serial by
    # design.
    kwargs = {}
    if not serial_by_design:
        kwargs["backend"] = make_backend(args.backend, args.workers)
    elif args.workers not in (None, 1):
        print(f"note: experiment {args.id!r} runs serially by design; --workers ignored")
    from .telemetry import capture_run, span

    meta = {"experiment": args.id, "seed": args.seed, "scale": scale.name}
    with capture_run(meta) as capture:
        with span(f"experiment.{args.id}"):
            report = module.run(scale, seed=args.seed, **kwargs)
    trace_path = _write_trace_log(capture, args.id, args.seed, scale)
    print(report.text)
    if args.json:
        _write_report_json(pathlib.Path(args.json), report, trace_path)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: merged span tree + hotspots + Chrome export."""
    from .telemetry import (
        collect_run_files,
        export_chrome,
        read_records,
        render_top,
        render_tree,
    )

    target = pathlib.Path(args.target)
    try:
        files = collect_run_files(target)
    except FileNotFoundError as error:
        print(f"error: {error}")
        return 2
    records = read_records(files)
    if not any(r.get("kind") in ("run", "span") for r in records):
        print(f"error: no telemetry records in {', '.join(str(f) for f in files)} "
              "(was the run executed with REPRO_TELEMETRY=off?)")
        return 2
    log.info("merging " + ", ".join(str(f) for f in files))
    print(render_tree(records))
    if args.top:
        print()
        print(render_top(records, args.top))
    if args.export == "chrome":
        if args.out:
            out = pathlib.Path(args.out)
        elif target.is_file():
            out = target.with_suffix(".chrome.json")
        else:
            out = target / "trace.chrome.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(export_chrome(records)) + "\n")
        print(f"wrote Chrome trace to {out}")
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    from .parallel.backends import ExecutionBackendError
    from .shard import StaleManifestError

    try:
        if args.shard_command == "plan":
            return _cmd_shard_plan(args)
        if args.shard_command == "run":
            return _cmd_shard_run(args)
        return _cmd_shard_merge(args)
    except (StaleManifestError, ExecutionBackendError, ValueError) as error:
        print(f"error: {error}")
        return 2


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    from .experiments import PAPER, QUICK, active_scale
    from .experiments.registry import UnknownExperimentError, get_module
    from .shard import plan

    try:
        get_module(args.id)
    except UnknownExperimentError as error:
        print(f"error: {error.message}")
        return 2
    scale = {"quick": QUICK, "paper": PAPER}.get(args.scale) if args.scale else active_scale()
    out = pathlib.Path(args.out) if args.out else _shard_dir(args.id, args.seed, scale)
    manifests = plan(args.id, args.shards, args.seed, scale, out, store=args.store)
    print(f"planned {args.id} (seed {args.seed}, scale {scale.name}) "
          f"into {len(manifests)} shard(s):")
    for path in manifests:
        print(f"  {path}")
    print(f"run each (any order, any machine sharing {manifests[0].parent}/store):")
    print(f"  repro shard run {manifests[0]}")
    print("then merge:")
    print(f"  repro shard merge {manifests[0].parent}")
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    from .shard import load_manifest, run_shard

    # Parsed before running so the completion message reflects the plan
    # as it stood at launch (run_shard re-validates from disk itself).
    manifest = load_manifest(args.manifest)
    run_shard(
        args.manifest,
        backend=make_backend(workers=args.workers),
        missing=args.missing,
        wait_timeout_s=args.wait_timeout,
    )
    store = manifest.store_path(pathlib.Path(args.manifest))
    print(f"shard {manifest.shard_index + 1}/{manifest.num_shards} of "
          f"{manifest.experiment} (seed {manifest.seed}, scale {manifest.scale.name}) "
          f"complete; results published to {store}")
    log.info(f"telemetry + progress logs under {store}/telemetry "
             f"(inspect with: repro trace {store})")
    return 0


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    from .shard import merge_shards

    report = merge_shards(args.manifests)
    print(report.text)
    if args.json:
        _write_report_json(pathlib.Path(args.json), report)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        ALL_RULES,
        findings_payload,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for factory in ALL_RULES.values():
            rule = factory()
            print(f"{rule.id:24s} {rule.title}")
            print(f"{'':24s} protects: {rule.protects}")
        return 0
    try:
        result = run_lint(root=args.root, rule_ids=args.rules)
    except (KeyError, FileNotFoundError) as exc:
        log.warn(f"repro lint: {exc.args[0]}")
        return 2
    except SyntaxError as exc:
        log.warn(f"repro lint: cannot parse {exc.filename}:{exc.lineno}: {exc.msg}")
        return 2
    print(render_text(result, verbose=args.verbose))
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(findings_payload(result), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        log.info(f"wrote findings JSON to {path}")
    return 0 if result.clean else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": cmd_train,
        "test": cmd_test,
        "generate": cmd_generate,
        "experiment": cmd_experiment,
        "scenario": cmd_scenario,
        "serve": cmd_serve,
        "load": cmd_load,
        "shard": cmd_shard,
        "trace": cmd_trace,
        "lint": cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
