"""Command-line interface for the DNN-occu reproduction.

The subcommands:

* ``profile`` — simulate one model configuration on a device and print the
  kernel-level profile summary (the Nsight Compute stand-in);
* ``predict`` — train DNN-occu on a set of models and predict a target
  model's occupancy without profiling it;
* ``schedule`` — run the Table VI packing-strategy comparison on a
  simulated cluster;
* ``chaos`` — the resilience sweep: re-run the packing comparison under
  injected faults (GPU outages, job crashes, occupancy misprediction)
  across a range of crash probabilities, reporting evictions, retries,
  lost jobs, and goodput.  ``--fail-on-lost`` turns it into a CI gate;
* ``trace`` — export one profile's kernel timeline as a Chrome trace;
* ``dataset`` — generate and save a labelled profile dataset;
* ``lint`` — static diagnostics: graph-IR passes over zoo models or
  serialized graphs, cross-registry coverage checks, and an AST
  self-lint (``--self``).  Exit code 0 = clean, 1 = ERROR diagnostics,
  2 = usage error;
* ``bench`` — every benchmark suite and its pass/fail gates
  (:mod:`repro.bench`): perf, serve, obs, fleet and trace groups.
  ``--suite`` narrows the run to groups or single ``group.suite``
  names; ``--check`` exits 1 if any evaluated gate fails.

Observability: ``profile`` / ``schedule`` / ``trace`` accept
``--trace-out PATH`` to record spans + metrics into a Chrome trace-event
file, and ``repro obs PATH`` summarizes a saved trace (top spans by
self-time, metric table; ``--requests N`` regroups the last N traced
requests into span trees and prints the flight-recorder table).
``repro slo`` evaluates the serving SLOs over a deterministic workload
(``--check`` is the CI gate).  ``--log-level`` turns on structured
logging.

Examples::

    python -m repro profile --model resnet-50 --batch 64 --device A100
    python -m repro predict --target resnet-50 --batch 64 --device A100
    python -m repro schedule --gpus 4 --jobs 24 --device P40
    python -m repro chaos --gpus 2 --jobs 8 --fault-rates 0.0 0.2 0.5
    python -m repro profile --model vit-t --trace-out t.json
    python -m repro obs t.json
    python -m repro lint --zoo --registries
    python -m repro lint --self --format json
    python -m repro bench --suite fleet.chaos --check
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, bench, obs
from .core import DNNOccu, DNNOccuConfig, TrainConfig, Trainer
from .data import SEEN_MODELS, generate_dataset
from .gpu import get_device, profile_graph
from .models import ModelConfig, build_model, list_models
from .sched import (NvmlUtilPacking, OccuPacking, SlotPacking,
                    generate_workload, simulate)

__all__ = ["main", "build_parser"]


def _add_trace_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="record spans + metrics to a Chrome trace-event "
                        "JSON file (open in chrome://tracing or Perfetto, "
                        "or summarize with `repro obs PATH`)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DNN-occu: GPU occupancy prediction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--log-level", choices=sorted(obs.LOG_LEVELS),
                        default=None,
                        help="enable structured (key=value) logging at "
                             "this level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="simulate and profile one model")
    p.add_argument("--model", required=True, choices=list_models())
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--device", default="A100")
    p.add_argument("--top", type=int, default=5,
                   help="show the N longest kernels")
    _add_trace_out(p)

    p = sub.add_parser("predict", help="train DNN-occu, predict a target")
    p.add_argument("--target", required=True, choices=list_models())
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--device", default="A100")
    p.add_argument("--train-models", nargs="+", default=None,
                   help="training architectures (default: paper seen set "
                        "minus the target)")
    p.add_argument("--configs-per-model", type=int, default=4)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--hidden", type=int, default=48)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("schedule", help="packing-strategy comparison")
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--jobs", type=int, default=24)
    p.add_argument("--device", default="P40")
    p.add_argument("--seed", type=int, default=0)
    _add_trace_out(p)

    p = sub.add_parser(
        "chaos", help="packing comparison under injected faults")
    p.add_argument("--gpus", type=int, default=2)
    p.add_argument("--jobs", type=int, default=8)
    p.add_argument("--device", default="P40")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-rates", type=float, nargs="+", metavar="P",
                   default=[0.0, 0.1, 0.3],
                   help="per-attempt job crash probabilities to sweep")
    p.add_argument("--gpu-mtbf", type=float, default=None, metavar="S",
                   help="mean time between GPU failures in seconds "
                        "(default: GPUs never fail)")
    p.add_argument("--gpu-mttr", type=float, default=60.0, metavar="S",
                   help="mean GPU repair time in seconds (inf = permanent)")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   metavar="S",
                   help="job checkpoint period; evicted jobs resume from "
                        "the last checkpoint instead of restarting")
    p.add_argument("--max-retries", type=int, default=100,
                   help="retry budget before a job is declared lost")
    p.add_argument("--mispredict-std", type=float, default=0.0,
                   help="lognormal noise sigma on scheduler-visible "
                        "occupancy")
    p.add_argument("--fail-on-lost", action="store_true",
                   help="exit 1 if any job exhausts its retry budget "
                        "(CI gate)")
    _add_trace_out(p)

    p = sub.add_parser("trace", help="export a Chrome kernel timeline")
    p.add_argument("--model", required=True, choices=list_models())
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--device", default="A100")
    p.add_argument("--out", required=True,
                   help="output .json path (open in chrome://tracing)")
    _add_trace_out(p)

    p = sub.add_parser("obs", help="summarize a saved trace file")
    p.add_argument("trace", help="Chrome trace-event .json (from "
                                 "--trace-out or the trace subcommand)")
    p.add_argument("--top", type=int, default=15,
                   help="show the N spans with the most self-time")
    p.add_argument("--requests", type=int, default=0, metavar="N",
                   help="also render the last N traced requests as span "
                        "trees, plus the flight-recorder table when the "
                        "trace carries one")

    p = sub.add_parser(
        "slo", help="evaluate serving SLOs over a deterministic workload")
    p.add_argument("--requests", type=int, default=60,
                   help="serve requests to issue before evaluating")
    p.add_argument("--device", default="A100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--window", type=float, default=30.0, metavar="S",
                   help="synthetic evaluation timestamp (SLO windows are "
                        "measured against snapshot deltas, not wall time)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the run's Chrome trace (spans + "
                        "metrics + flight records + SLO statuses) here")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if any SLO objective is violated (CI "
                        "gate)")

    p = sub.add_parser(
        "lint", help="static diagnostics: graph IR, registries, sources")
    p.add_argument("--model", action="append", choices=list_models(),
                   metavar="NAME", help="lint one zoo model's graph "
                   "(repeatable)")
    p.add_argument("--zoo", action="store_true",
                   help="lint every registered zoo model")
    p.add_argument("--graph", action="append", metavar="PATH",
                   help="lint a ComputationGraph JSON file (repeatable)")
    p.add_argument("--registries", action="store_true",
                   help="cross-registry coverage checks (builder / FLOPs / "
                        "lowering / feature encoder)")
    p.add_argument("--self", dest="self_lint", action="store_true",
                   help="AST self-lint over the source tree")
    p.add_argument("--concurrency", action="store_true",
                   help="whole-program concurrency passes (C001-C005): "
                        "thread roles, shared-state lock discipline, "
                        "lock ordering")
    p.add_argument("--path", action="append", metavar="PATH",
                   help="file or directory for --self/--concurrency "
                        "(repeatable; default: the repro package plus "
                        "the repo's scripts/ and benchmarks/ trees)")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--device", default="A100",
                   help="device context for feature-finiteness checks")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text report or SARIF-flavoured JSON")

    p = sub.add_parser("dataset", help="generate and save a profile dataset")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--devices", nargs="+", default=["A100"])
    p.add_argument("--configs-per-model", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel evaluation workers (bit-identical to "
                        "serial for any value)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed profile/encoding cache directory")
    p.add_argument("--out", required=True, help="output .npz path")

    p = sub.add_parser("bench", help="run the benchmark suites and gates")
    p.add_argument("--suite", action="extend", nargs="+", metavar="NAME",
                   choices=[*bench.GROUPS, *bench.SUITES],
                   help="run one group (perf, serve, obs, fleet, trace) or "
                        "one group.suite (e.g. fleet.chaos); repeatable; "
                        "default: every suite")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the BENCH_perf.json document here")
    p.add_argument("--scale", type=float, default=1.0,
                   help="workload multiplier (CI uses small scales)")
    p.add_argument("--check", action="store_true",
                   help="exit 1 if any evaluated gate fails")
    return parser


def _config(args: argparse.Namespace) -> ModelConfig:
    return ModelConfig(batch_size=args.batch, in_channels=args.channels,
                       seq_len=args.seq_len)


def _cmd_profile(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    graph = build_model(args.model, _config(args))
    prof = profile_graph(graph, device)
    print(f"{args.model} (batch {args.batch}) on {device.name}")
    print(f"  nodes/edges      : {graph.num_nodes}/{graph.num_edges}")
    print(f"  GFLOPs           : {graph.total_flops() / 1e9:.2f}")
    print(f"  kernels          : {prof.num_kernels}")
    print(f"  wall time        : {prof.wall_time_s * 1e3:.2f} ms/iter")
    print(f"  GPU occupancy    : {prof.occupancy:.2%}")
    print(f"  NVML utilization : {prof.nvml_utilization:.2%}")
    longest = sorted(prof.records, key=lambda r: r.duration_s,
                     reverse=True)[:args.top]
    print(f"  top {len(longest)} kernels by duration:")
    for rec in longest:
        print(f"    {rec.name:<34s} {rec.duration_s * 1e6:9.1f} us  "
              f"occ {rec.occupancy:6.2%}  limiter {rec.limiter}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    train_models = args.train_models or [
        m for m in SEEN_MODELS if m != args.target.lower()]
    print(f"training on {train_models} ({device.name}) ...",
          file=sys.stderr)
    train = generate_dataset(train_models, [device],
                             configs_per_model=args.configs_per_model,
                             seed=args.seed)
    model = DNNOccu(DNNOccuConfig(hidden=args.hidden, num_heads=4),
                    seed=args.seed)
    Trainer(model, TrainConfig(epochs=args.epochs, lr=1e-3,
                               seed=args.seed)).fit(train)

    graph = build_model(args.target, _config(args))
    # Through the serving facade: a lone request runs the eager batch of
    # one, bit-identical to calling model.predict directly.
    from .serve import PredictorService
    with PredictorService(model, device) as service:
        predicted = service.predict(graph)
    prof = profile_graph(graph, device)
    rel = abs(predicted - prof.occupancy) / prof.occupancy
    print(f"{args.target} (batch {args.batch}) on {device.name}")
    print(f"  predicted occupancy : {predicted:.2%}")
    print(f"  measured  occupancy : {prof.occupancy:.2%}")
    print(f"  relative error      : {rel:.2%}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    mix = ("lenet", "alexnet", "rnn", "lstm", "vgg-11", "resnet-18",
           "resnet-34", "vit-t")
    jobs = generate_workload(mix, device, args.jobs, seed=args.seed,
                             iterations_range=(100, 600))
    print(f"{args.jobs} jobs on {args.gpus}x {device.name}")
    print(f"{'strategy':>20s} {'makespan':>10s} {'nvml util':>10s} "
          f"{'stretch':>8s}")
    for policy in (SlotPacking(), NvmlUtilPacking(), OccuPacking()):
        res = simulate(jobs, args.gpus, policy)
        print(f"{policy.name:>20s} {res.makespan_s:9.1f}s "
              f"{res.avg_nvml_utilization:10.1%} {res.avg_stretch:8.3f}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .resilience import FaultConfig, FaultInjector
    device = get_device(args.device)
    mix = ("lenet", "alexnet", "rnn", "lstm", "vgg-11", "resnet-18",
           "resnet-34", "vit-t")
    jobs = generate_workload(mix, device, args.jobs, seed=args.seed,
                             iterations_range=(100, 600))
    ckpt = (f"{args.checkpoint_interval:g}s"
            if args.checkpoint_interval is not None else "none")
    print(f"{args.jobs} jobs on {args.gpus}x {device.name} | "
          f"gpu mtbf {args.gpu_mtbf or 'inf'} | checkpoint {ckpt} | "
          f"retry budget {args.max_retries}")
    print(f"{'crash p':>8s} {'strategy':>20s} {'makespan':>10s} "
          f"{'evict':>6s} {'retry':>6s} {'lost':>5s} {'goodput':>8s} "
          f"{'wasted':>9s}")
    lost = 0
    for rate in args.fault_rates:
        cfg = FaultConfig(gpu_mtbf_s=args.gpu_mtbf,
                          gpu_mttr_s=args.gpu_mttr,
                          crash_prob=rate,
                          mispredict_std=args.mispredict_std,
                          checkpoint_interval_s=args.checkpoint_interval,
                          max_retries=args.max_retries)
        for policy in (SlotPacking(), NvmlUtilPacking(), OccuPacking()):
            res = simulate(jobs, args.gpus, policy,
                           faults=FaultInjector(cfg, args.seed))
            lost += res.failed_jobs
            print(f"{rate:8.2f} {policy.name:>20s} {res.makespan_s:9.1f}s "
                  f"{res.evictions:6d} {res.retries:6d} "
                  f"{res.failed_jobs:5d} {res.goodput_fraction:8.1%} "
                  f"{res.wasted_s:8.1f}s")
    if args.fail_on_lost and lost:
        print(f"error: {lost} job(s) lost across the sweep "
              f"(retry budget exhausted)", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .gpu import to_chrome_trace
    device = get_device(args.device)
    graph = build_model(args.model, _config(args))
    prof = profile_graph(graph, device)
    with open(args.out, "w") as fh:
        fh.write(to_chrome_trace(prof))
    print(f"wrote {prof.num_kernels} kernel events to {args.out} "
          f"(open in chrome://tracing)")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json
    try:
        trace = obs.load_trace_file(args.trace)
    except FileNotFoundError:
        print(f"error: no such trace file: {args.trace}", file=sys.stderr)
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(obs.summarize_trace(trace, top=args.top))
    if args.requests > 0:
        print()
        print(obs.format_request_summary(trace, limit=args.requests))
        flight = trace.get("otherData", {}).get("flight")
        if flight:
            print()
            print(f"flight recorder (last {min(args.requests, len(flight))}"
                  f" of {len(flight)} records):")
            print(obs.format_flight_table(flight, limit=args.requests))
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from .core import DNNOccu, DNNOccuConfig
    from .serve import PredictorService

    device = get_device(args.device)
    model = DNNOccu(DNNOccuConfig(hidden=32, num_heads=4), seed=args.seed)
    graphs = [build_model(n, ModelConfig(batch_size=bs))
              for n in ("lenet", "alexnet", "rnn") for bs in (4, 8)]
    obs.reset_ids()
    tracer, registry = obs.enable()
    try:
        engine = obs.SLOEngine(registry)
        engine.snapshot(now=0.0)
        with PredictorService(model, device) as svc:
            for i in range(args.requests):
                svc.predict(graphs[i % len(graphs)])
        engine.snapshot(now=args.window)
        ok, statuses = engine.check(now=args.window)
        payload = obs.export_chrome_trace(
            tracer, registry, command="slo",
            flight=svc.flight.to_dicts() if svc.flight else [],
            slo=[s.to_dict() for s in statuses]) if args.out else None
    finally:
        obs.disable()
    print(f"{args.requests} requests on {device.name}; "
          f"{len(statuses)} objectives:")
    print(obs.format_slo_report(statuses))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote trace + SLO statuses to {args.out} "
              f"(summarize with `repro obs {args.out} --requests 10`)")
    if args.check and not ok:
        violated = [s.spec.name for s in statuses if not s.ok]
        print(f"SLO check FAILED: {', '.join(violated)}", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .graph import ComputationGraph
    from .lint import (LintReport, default_source_roots,
                       lint_concurrency, lint_graph, lint_model,
                       lint_paths, lint_registries, lint_zoo)

    if not (args.model or args.zoo or args.graph or args.registries
            or args.self_lint or args.concurrency):
        print("error: nothing to lint; pass --model/--zoo/--graph/"
              "--registries/--self/--concurrency", file=sys.stderr)
        return 2

    device = get_device(args.device)
    report = LintReport()
    if args.zoo:
        report.merge(lint_zoo(device=device, config=_config(args)))
    for name in args.model or ():
        report.merge(lint_model(name, config=_config(args), device=device))
    for path in args.graph or ():
        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read graph file: {exc}", file=sys.stderr)
            return 2
        report.merge(lint_graph(ComputationGraph.from_json(text),
                                device=device))
    if args.registries:
        report.merge(lint_registries())
    if args.self_lint:
        report.merge(lint_paths(args.path or default_source_roots()))
    if args.concurrency:
        report.merge(lint_concurrency(args.path or None))

    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code()


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .data import save_dataset
    devices = [get_device(d) for d in args.devices]
    ds = generate_dataset(args.models, devices,
                          configs_per_model=args.configs_per_model,
                          seed=args.seed, workers=args.workers,
                          cache_dir=args.cache_dir)
    save_dataset(ds, args.out)
    print(f"saved {len(ds)} labelled graphs to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    results = bench.run(args.suite or (), scale=args.scale)
    print(bench.format_summary(results))
    if args.out:
        bench.save(results, args.out)
        print(f"wrote {args.out}")
    failed = [k for k, v in results["gates"].items() if not v]
    if args.check and failed:
        print(f"gates FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        obs.configure_logging(args.log_level)
    handler = {"profile": _cmd_profile, "predict": _cmd_predict,
               "schedule": _cmd_schedule, "chaos": _cmd_chaos,
               "trace": _cmd_trace, "obs": _cmd_obs, "slo": _cmd_slo,
               "dataset": _cmd_dataset, "lint": _cmd_lint,
               "bench": _cmd_bench}[args.command]
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        return handler(args)
    tracer, registry = obs.enable()
    try:
        rc = handler(args)
    finally:
        payload = obs.export_chrome_trace(tracer, registry,
                                          command=args.command)
        obs.disable()
    with open(trace_out, "w") as fh:
        fh.write(payload)
    print(f"wrote {len(tracer.events)} span events + "
          f"{len(registry)} metrics to {trace_out} "
          f"(summarize with `repro obs {trace_out}`)")
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
