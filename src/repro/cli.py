"""Command-line interface: query and generate uncertain tables.

Usage (also available as ``python -m repro``)::

    # generate datasets
    python -m repro generate panda --out panda.json
    python -m repro generate synthetic --tuples 5000 --rules 500 --out s.json
    python -m repro generate iceberg --out ice.json

    # inspect a table
    python -m repro info panda.json
    python -m repro worlds panda.json          # small tables only

    # run queries
    python -m repro query panda.json -k 2 -p 0.35
    python -m repro query panda.json -k 2 --semantics utopk
    python -m repro query panda.json -k 2 --semantics ukranks
    python -m repro query s.json -k 50 -p 0.3 --sample 2000

    # observability: metrics snapshots and per-phase timing
    python -m repro query panda.json -k 2 -p 0.35 --emit-metrics m.json
    python -m repro stats panda.json -k 2 -p 0.35
    python -m repro stats panda.json -k 2 -p 0.35 --format prom

    # serve a directory of tables over HTTP (see docs/serving.md)
    python -m repro serve tables/ --port 8080 --window-ms 2

    # durable serving and storage operations (see docs/persistence.md)
    python -m repro serve tables/ --data-dir state/
    python -m repro durable snapshot state/
    python -m repro durable recover state/
    python -m repro durable verify state/

    # WAL-shipping replication (see docs/replication.md)
    python -m repro replicate primary state/ --tables tables/ --port 8080
    python -m repro replicate follow state-r1/ --primary 127.0.0.1:8080 --port 8081
    python -m repro replicate promote state-r1/
    python -m repro replicate status --primary 127.0.0.1:8080

Tables are JSON documents (see :mod:`repro.io.jsonio`) or CSV pairs
(pass the stem; see :mod:`repro.io.csvio`) — the format is inferred
from the extension.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.exact import ExactVariant, exact_ptk_query
from repro.core.explain import explain_tuple, format_explanation
from repro.core.sampling import SamplingConfig, sampled_ptk_query
from repro.datagen.iceberg import IcebergConfig, generate_iceberg_table
from repro.datagen.sensors import panda_table
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic_table
from repro.exceptions import ReproError
from repro.io.csvio import read_table_csv, write_table_csv
from repro.io.jsonio import read_table_json, write_table_json
from repro.model.table import UncertainTable
from repro.model.worlds import count_possible_worlds, enumerate_possible_worlds
from repro import obs
from repro.obs import export as obs_export
from repro.query.parser import parse_predicate
from repro.query.topk import TopKQuery
from repro.semantics.extras import global_topk
from repro.semantics.ukranks import ukranks_query
from repro.semantics.utopk import utopk_query


def load_table(path: str) -> UncertainTable:
    """Read a table from JSON (``.json``) or a CSV pair (stem or either file)."""
    p = Path(path)
    if p.suffix == ".json":
        return read_table_json(p)
    stem = str(p)
    for suffix in (".tuples.csv", ".rules.csv"):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
            break
    return read_table_csv(stem)


def save_table(table: UncertainTable, path: str) -> None:
    """Write a table as JSON (``.json``) or a CSV pair (any other path)."""
    p = Path(path)
    if p.suffix == ".json":
        write_table_json(table, p)
    else:
        write_table_csv(table, p.with_suffix("") if p.suffix else p)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "panda":
        table = panda_table()
    elif args.dataset == "synthetic":
        table = generate_synthetic_table(
            SyntheticConfig(
                n_tuples=args.tuples,
                n_rules=args.rules,
                rule_size_mean=args.rule_size,
                independent_prob_mean=args.prob_mean,
                seed=args.seed,
            )
        )
    else:  # iceberg
        table = generate_iceberg_table(
            IcebergConfig(n_tuples=args.tuples, n_rules=args.rules, seed=args.seed)
        )
    save_table(table, args.out)
    print(
        f"wrote {len(table)} tuples, {len(table.multi_rules())} rules "
        f"to {args.out}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    rules = table.multi_rules()
    print(f"table:           {table.name}")
    print(f"tuples:          {len(table)}")
    print(f"multi-tuple rules: {len(rules)}")
    if rules:
        sizes = [r.length for r in rules]
        print(f"rule sizes:      min {min(sizes)}, max {max(sizes)}")
    print(f"expected world size: {table.expected_size():.2f}")
    count = count_possible_worlds(table)
    shown = f"{count:,}" if count < 10**15 else f"~10^{len(str(count)) - 1}"
    print(f"possible worlds: {shown}")
    return 0


def _cmd_worlds(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    worlds = sorted(
        enumerate_possible_worlds(table, limit=args.limit),
        key=lambda w: -w.probability,
    )
    for world in worlds:
        members = ", ".join(sorted(str(t) for t in world.tuple_ids))
        print(f"Pr={world.probability:.6f}  {{{members}}}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    emit_metrics = getattr(args, "emit_metrics", None)
    if emit_metrics:
        obs.enable(fresh=True)
    table = load_table(args.table)
    if args.where:
        query = TopKQuery(k=args.k, predicate=parse_predicate(args.where))
    else:
        query = TopKQuery(k=args.k)
    semantics = args.semantics
    if semantics == "ptk" and args.sample:
        semantics = "ptk-sampled"
    with obs.query_scope(
        semantics, table=table.name, k=args.k, threshold=args.threshold
    ):
        code = _run_query(args, table, query)
    if emit_metrics and code == 0:
        path = obs_export.write_json(emit_metrics)
        print(f"# metrics written to {path}", file=sys.stderr)
    return code


def _run_query(args: argparse.Namespace, table, query) -> int:
    if args.semantics == "ptk":
        if args.threshold is None:
            print("error: PT-k queries require --threshold/-p", file=sys.stderr)
            return 2
        if args.sample:
            answer = sampled_ptk_query(
                table,
                query,
                args.threshold,
                config=SamplingConfig(
                    sample_size=args.sample,
                    progressive=False,
                    seed=args.seed,
                    batch_size=args.sample_batch_size,
                    n_workers=args.workers,
                ),
            )
        else:
            answer = exact_ptk_query(
                table, query, args.threshold, variant=ExactVariant(args.variant)
            )
        print(f"# PT-{args.k} answers with Pr >= {args.threshold} ({answer.method})")
        for pair in answer.ranked_answers():
            print(f"{pair.tid}\t{pair.probability:.6f}")
        print(
            f"# scanned {answer.stats.scan_depth} tuples; "
            f"stopped by {answer.stats.stopped_by}",
            file=sys.stderr,
        )
    elif args.semantics == "utopk":
        answer = utopk_query(table, query)
        print(f"# most probable top-{args.k} vector, Pr={answer.probability:.6g}")
        for tid in answer.vector:
            print(tid)
    elif args.semantics == "ukranks":
        answer = ukranks_query(table, query)
        print(f"# most probable tuple per rank (1..{args.k})")
        for rank, (tid, probability) in enumerate(answer.winners, 1):
            print(f"{rank}\t{tid}\t{probability:.6f}")
    else:  # global-topk
        print(f"# {args.k} tuples of highest top-{args.k} probability")
        for tid, probability in global_topk(table, query):
            print(f"{tid}\t{probability:.6f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one query under full observability and report the metrics."""
    obs.enable(fresh=True)
    table = load_table(args.table)
    query = TopKQuery(k=args.k)
    with obs.query_scope(
        "ptk-sampled" if args.sample else "ptk",
        table=table.name,
        k=args.k,
        threshold=args.threshold,
    ):
        if args.sample:
            sampled_ptk_query(
                table,
                query,
                args.threshold,
                config=SamplingConfig(
                    sample_size=args.sample,
                    progressive=False,
                    seed=args.seed,
                    batch_size=args.sample_batch_size,
                    n_workers=args.workers,
                ),
            )
        else:
            exact_ptk_query(
                table, query, args.threshold, variant=ExactVariant(args.variant)
            )
    if args.format == "json":
        print(obs_export.to_json())
    elif args.format == "prom":
        print(obs_export.to_prometheus(), end="")
    else:
        print(obs_export.render_text(), end="")
    if args.emit_metrics:
        path = obs_export.write_json(args.emit_metrics)
        print(f"# metrics written to {path}", file=sys.stderr)
    return 0


def load_table_directory(directory: Path):
    """Load every table under ``directory`` for serving.

    Accepts ``*.json`` documents and ``*.tuples.csv``/``*.rules.csv``
    pairs (each pair counted once).  Tables are registered under their
    own names; when two files carry the same table name the file stem
    disambiguates the later one.

    :returns: a ready :class:`~repro.query.engine.UncertainDB`.
    :raises ReproError: when the directory holds no loadable tables.
    """
    from repro.query.engine import UncertainDB

    db = UncertainDB()
    paths = sorted(
        list(directory.glob("*.json"))
        + list(directory.glob("*.tuples.csv"))
    )
    for path in paths:
        table = load_table(str(path))
        name = table.name
        if name in db.tables():
            name = path.name.split(".")[0]
        db.register(table, name=name)
    if not db.tables():
        raise ReproError(
            f"no tables found in {directory} "
            f"(expected *.json or *.tuples.csv/*.rules.csv)"
        )
    return db


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeApp, ServeConfig, run

    if args.data_dir is None and args.tables is None:
        print(
            "error: pass a table directory and/or --data-dir", file=sys.stderr
        )
        return 2
    if args.data_dir is not None:
        from repro.durable import DurableDB, load_tables_into

        db = DurableDB(
            args.data_dir,
            fsync=args.fsync,
            max_segment_bytes=args.max_segment_bytes,
        )
        report = db.last_recovery
        if report.tables:
            print(
                f"recovered {len(report.tables)} table(s) from "
                f"{args.data_dir} ({report.snapshots_loaded} snapshot(s), "
                f"{report.replayed} WAL record(s) replayed)",
                flush=True,
            )
        if args.tables is not None:
            directory = Path(args.tables)
            if not directory.is_dir():
                print(f"error: {directory} is not a directory", file=sys.stderr)
                return 2
            loaded = load_tables_into(db, directory)
            if loaded:
                print(f"registered and journalled: {', '.join(loaded)}")
        if not db.tables():
            print(
                f"error: no tables recovered from {args.data_dir} and none "
                f"loaded; pass a table directory to seed it",
                file=sys.stderr,
            )
            return 2
    else:
        directory = Path(args.tables)
        if not directory.is_dir():
            print(f"error: {directory} is not a directory", file=sys.stderr)
            return 2
        db = load_table_directory(directory)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
        seed=args.seed,
        flight_dir=args.flight_dir,
        slow_ms=args.slow_ms,
        metrics_flush_s=args.metrics_flush_s,
        dynamic=args.dynamic,
    )
    names = ", ".join(sorted(db.tables()))
    print(f"loaded tables: {names}", flush=True)
    try:
        run(ServeApp(db, config))
    finally:
        if args.data_dir is not None:
            db.close()
    return 0


def _cmd_durable(args: argparse.Namespace) -> int:
    from repro.durable import DurableDB, recover_state, verify_data_dir

    data_dir = Path(args.data_dir)
    if args.action == "verify":
        report = verify_data_dir(data_dir)
        print(
            f"snapshots: {report.snapshots} "
            f"({len(report.snapshot_errors)} corrupt)"
        )
        print(
            f"wal: {report.wal_segments} segment(s), "
            f"{report.wal_records} record(s), "
            f"{report.torn_bytes} torn byte(s)"
        )
        for note in report.notes:
            print(f"note: {note}")
        for error in report.snapshot_errors + report.wal_errors:
            print(f"error: {error}", file=sys.stderr)
        return 0 if report.ok else 1
    if args.action == "recover":
        tables, report = recover_state(data_dir)
        print(
            f"recovered {len(tables)} table(s) in "
            f"{report.duration_seconds:.3f}s: "
            f"{report.snapshots_loaded} snapshot(s), "
            f"{report.replayed} record(s) replayed, "
            f"{report.skipped} skipped, {report.torn_bytes} torn byte(s)"
        )
        for name in sorted(tables):
            table = tables[name]
            print(
                f"  {name}: {len(table)} tuples, "
                f"{len(table.multi_rules())} rules, "
                f"version {table.version}"
            )
        for problem in report.problems:
            print(f"note: {problem}", file=sys.stderr)
        return 0
    # snapshot: open (runs recovery), checkpoint everything, compact.
    db = DurableDB(data_dir, fsync="always", warm_start=False)
    try:
        if not db.tables():
            print(f"error: no tables in {data_dir}", file=sys.stderr)
            return 1
        paths = db.snapshot(compact=not args.no_compact)
        for path in paths:
            print(f"wrote {path} ({path.stat().st_size} bytes)")
        print(f"snapshotted {len(paths)} table(s); WAL rotated")
    finally:
        db.close()
    return 0


def _serve_config_for_replication(args: argparse.Namespace):
    from repro.serve.server import ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port,
        window_ms=args.window_ms,
        dynamic=getattr(args, "dynamic", False),
    )


def _cmd_replicate_primary(args: argparse.Namespace) -> int:
    """Serve a durable directory as a replication primary."""
    from repro.durable import DurableDB, load_tables_into
    from repro.replication import ReplicationServer
    from repro.serve.server import ServeApp, run

    db = DurableDB(
        args.data_dir,
        fsync=args.fsync,
        max_segment_bytes=args.max_segment_bytes,
    )
    try:
        if args.tables is not None:
            directory = Path(args.tables)
            if not directory.is_dir():
                print(f"error: {directory} is not a directory", file=sys.stderr)
                return 2
            loaded = load_tables_into(db, directory)
            if loaded:
                print(f"registered and journalled: {', '.join(loaded)}")
        if not db.tables():
            print(
                f"error: no tables in {args.data_dir}; pass --tables to "
                f"seed it",
                file=sys.stderr,
            )
            return 2
        replication = ReplicationServer(
            db, retention_ttl=args.retention_ttl
        )
        print(
            f"replication primary on {args.host}:{args.port} "
            f"(data {args.data_dir}, wal end {replication.end_cursor().encode()})",
            flush=True,
        )
        run(ServeApp(db, _serve_config_for_replication(args), replication=replication))
    finally:
        db.close()
    return 0


def _cmd_replicate_follow(args: argparse.Namespace) -> int:
    """Run a read replica following a primary."""
    from repro.replication import ReplicaApplier, ReplicationFollower
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeApp, run

    host, _, port = args.primary.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --primary must be HOST:PORT, got {args.primary!r}",
            file=sys.stderr,
        )
        return 2
    applier = ReplicaApplier(
        args.data_dir, replica_id=args.replica_id, fsync=args.fsync
    )
    follower = ReplicationFollower(
        applier,
        ServeClient.connect(host, int(port)),
        poll_interval=args.poll_ms / 1000.0,
        advertise=f"{args.host}:{args.port}",
    )
    follower.start()
    print(
        f"replica {applier.replica_id} on {args.host}:{args.port} "
        f"following {args.primary} (cursor {applier.cursor.encode()})",
        flush=True,
    )
    try:
        run(ServeApp(applier.db, _serve_config_for_replication(args), replication=applier))
    finally:
        follower.stop()
        applier.close()
    return 0


def _cmd_replicate_promote(args: argparse.Namespace) -> int:
    """Promote a stopped replica's data directory to primary lineage."""
    from repro.replication import promote_data_dir

    report = promote_data_dir(args.data_dir, snapshot=not args.no_snapshot)
    for name in sorted(report.new_epochs):
        print(
            f"  {name}: epoch {report.old_epochs.get(name, 0)} -> "
            f"{report.new_epochs[name]}"
        )
    print(
        f"promoted {len(report.tables)} table(s) in {args.data_dir}; "
        f"{len(report.snapshots)} snapshot(s) written"
    )
    print(
        f"serve it as the new primary: "
        f"repro replicate primary {args.data_dir}"
    )
    return 0


def _cmd_replicate_status(args: argparse.Namespace) -> int:
    """Print a node's replication status as JSON."""
    import json as _json

    from repro.serve.client import ServeClient

    host, _, port = args.primary.rpartition(":")
    if not host or not port.isdigit():
        print(
            f"error: --primary must be HOST:PORT, got {args.primary!r}",
            file=sys.stderr,
        )
        return 2
    client = ServeClient.connect(host, int(port))
    try:
        print(_json.dumps(client.replicate_status(), indent=2, sort_keys=True))
    finally:
        client.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    table = load_table(args.table)
    explanation = explain_tuple(table, TopKQuery(k=args.k), args.tid)
    print(format_explanation(explanation, limit=args.limit))
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    """Inspect a flight-recorder JSONL log offline."""
    import json as _json

    from repro.obs.flight import (
        calibration_report,
        read_jsonl,
        summarize_profiles,
    )

    path = Path(args.path)
    if path.is_dir():
        path = path / "slow.jsonl"
    scan = read_jsonl(path)
    if scan.problem == "missing":
        print(f"error: {path} does not exist", file=sys.stderr)
        return 1
    if scan.problem is not None:
        print(
            f"note: stopped at byte {scan.good_bytes} of "
            f"{scan.total_bytes} ({scan.problem}); "
            f"{scan.torn_bytes} torn byte(s) ignored",
            file=sys.stderr,
        )
    if args.action == "tail":
        for record in scan.records[-args.n:]:
            print(_json.dumps(record, sort_keys=True))
    elif args.action == "summary":
        print(_json.dumps(summarize_profiles(scan.records), indent=2))
    else:  # calibration
        print(_json.dumps(calibration_report(scan.records), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Probabilistic threshold top-k queries on uncertain data",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a dataset")
    generate.add_argument(
        "dataset", choices=["panda", "synthetic", "iceberg"]
    )
    generate.add_argument("--out", required=True, help="output path (.json or CSV stem)")
    generate.add_argument("--tuples", type=int, default=20_000)
    generate.add_argument("--rules", type=int, default=2_000)
    generate.add_argument("--rule-size", type=float, default=5.0)
    generate.add_argument("--prob-mean", type=float, default=0.5)
    generate.add_argument("--seed", type=int, default=7)
    generate.set_defaults(fn=_cmd_generate)

    info = commands.add_parser("info", help="summarise a table")
    info.add_argument("table")
    info.set_defaults(fn=_cmd_info)

    worlds = commands.add_parser(
        "worlds", help="enumerate possible worlds (small tables)"
    )
    worlds.add_argument("table")
    worlds.add_argument("--limit", type=int, default=10_000)
    worlds.set_defaults(fn=_cmd_worlds)

    query = commands.add_parser("query", help="answer a top-k query")
    query.add_argument("table")
    query.add_argument("-k", type=int, required=True)
    query.add_argument(
        "-p", "--threshold", type=float, default=None, help="PT-k threshold"
    )
    query.add_argument(
        "--semantics",
        choices=["ptk", "utopk", "ukranks", "global-topk"],
        default="ptk",
    )
    query.add_argument(
        "--variant",
        choices=[v.value for v in ExactVariant],
        default=ExactVariant.RC_LR.value,
        help="exact algorithm variant",
    )
    query.add_argument(
        "--sample",
        type=int,
        default=None,
        help="use the sampling algorithm with this many units",
    )
    query.add_argument(
        "--sample-batch-size",
        type=int,
        default=None,
        metavar="N",
        help="units per vectorised sampler batch (default: auto); "
        "estimates are deterministic for a fixed seed and batch size",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sampled queries (1 = single-process, "
        "0 = one per CPU); the unit budget is sharded deterministically "
        "for a fixed seed, batch size, and worker count",
    )
    query.add_argument("--seed", type=int, default=7)
    query.add_argument(
        "--where",
        default=None,
        help="predicate expression, e.g. \"score > 10 and location = 'B'\"",
    )
    query.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help="enable observability and write a JSON metrics snapshot here",
    )
    query.set_defaults(fn=_cmd_query)

    stats = commands.add_parser(
        "stats",
        help="run one PT-k query under full observability and report metrics",
    )
    stats.add_argument("table")
    stats.add_argument("-k", type=int, required=True)
    stats.add_argument(
        "-p", "--threshold", type=float, required=True, help="PT-k threshold"
    )
    stats.add_argument(
        "--variant",
        choices=[v.value for v in ExactVariant],
        default=ExactVariant.RC_LR.value,
    )
    stats.add_argument(
        "--sample",
        type=int,
        default=None,
        help="use the sampling algorithm with this many units",
    )
    stats.add_argument(
        "--sample-batch-size",
        type=int,
        default=None,
        metavar="N",
        help="units per vectorised sampler batch (default: auto)",
    )
    stats.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sampled queries (1 = single-process, "
        "0 = one per CPU)",
    )
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--format",
        choices=["text", "json", "prom"],
        default="text",
        help="report format: human-readable, JSON snapshot, or Prometheus",
    )
    stats.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help="also write the JSON metrics snapshot here",
    )
    stats.set_defaults(fn=_cmd_stats)

    serve = commands.add_parser(
        "serve",
        help="serve a directory of tables over HTTP (PT-k query service)",
    )
    serve.add_argument(
        "tables",
        nargs="?",
        default=None,
        help="directory of *.json documents and/or *.tuples.csv pairs "
        "(optional when --data-dir holds recovered tables)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable state directory (repro.durable): tables recover "
        "from it on startup, and registrations are journalled so they "
        "survive restarts; combine with a table directory to seed it",
    )
    serve.add_argument(
        "--fsync",
        choices=["always", "interval", "off"],
        default="interval",
        help="WAL fsync policy when --data-dir is set (default: interval)",
    )
    serve.add_argument(
        "--max-segment-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate the WAL to a fresh segment once the active one "
        "reaches this size (default: rotate on snapshot only)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="micro-batch coalescing window per table (0 disables)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="dispatch a micro-batch early at this size",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        metavar="N",
        help="micro-batches executing concurrently",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="waiting requests beyond the inflight ones; more are "
        "rejected with 429 + Retry-After",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request deadline; requests may override. "
        "When the planner predicts an exact-scan miss, the request is "
        "degraded to the sampler with a budget sized from the "
        "remaining deadline",
    )
    serve.add_argument(
        "--seed", type=int, default=7, help="seed for degraded sampling runs"
    )
    serve.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory for flight-recorder artefacts (slow.jsonl, "
        "metrics.json, spans.jsonl); omit to keep profiles in memory "
        "only (inspect via /debug/queries)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="queries at least this slow land in the slow-query log "
        "(0 logs every query)",
    )
    serve.add_argument(
        "--metrics-flush-s",
        type=float,
        default=30.0,
        metavar="S",
        help="period of the background metrics/span flusher into "
        "--flight-dir (0 disables)",
    )
    serve.add_argument(
        "--dynamic",
        action="store_true",
        help="serve default-shape reads through the dynamic route, "
        "straight from the warm scans each write hands on "
        "(see docs/dynamic.md)",
    )
    serve.set_defaults(fn=_cmd_serve)

    durable = commands.add_parser(
        "durable",
        help="durable storage operations: snapshot, recover, verify "
        "(see docs/persistence.md)",
    )
    durable.add_argument(
        "action",
        choices=["snapshot", "recover", "verify"],
        help="snapshot: checkpoint all tables and compact the WAL; "
        "recover: rebuild tables and report; verify: check every "
        "checksum read-only",
    )
    durable.add_argument(
        "data_dir", help="durable state directory (as used by serve --data-dir)"
    )
    durable.add_argument(
        "--no-compact",
        action="store_true",
        help="snapshot only: keep sealed WAL segments and old snapshot "
        "generations instead of deleting them",
    )
    durable.set_defaults(fn=_cmd_durable)

    replicate = commands.add_parser(
        "replicate",
        help="WAL-shipping replication: primary, follow, promote, status "
        "(see docs/replication.md)",
    )
    replicate_commands = replicate.add_subparsers(
        dest="replicate_command", required=True
    )

    primary = replicate_commands.add_parser(
        "primary", help="serve a durable directory as a replication primary"
    )
    primary.add_argument(
        "data_dir", help="durable state directory (owns all writes)"
    )
    primary.add_argument(
        "--tables",
        default=None,
        metavar="DIR",
        help="table directory to seed the data dir from on first start",
    )
    primary.add_argument("--host", default="127.0.0.1")
    primary.add_argument(
        "--port", type=int, default=8080, help="0 picks an ephemeral port"
    )
    primary.add_argument(
        "--window-ms", type=float, default=2.0, metavar="MS",
        help="query coalescing window (as in repro serve)",
    )
    primary.add_argument(
        "--fsync",
        choices=["always", "interval", "off"],
        default="interval",
        help="WAL fsync policy (default: interval)",
    )
    primary.add_argument(
        "--max-segment-bytes",
        type=int,
        default=4 * 1024 * 1024,
        metavar="BYTES",
        help="WAL auto-rotation threshold; small segments bound how "
        "much history one replica pin retains (default: 4 MiB)",
    )
    primary.add_argument(
        "--retention-ttl",
        type=float,
        default=600.0,
        metavar="S",
        help="drop a silent replica's retention pin after this many "
        "seconds (default: 600)",
    )
    primary.add_argument(
        "--dynamic",
        action="store_true",
        help="serve default-shape reads through the dynamic route "
        "(see docs/dynamic.md)",
    )
    primary.set_defaults(fn=_cmd_replicate_primary)

    follow = replicate_commands.add_parser(
        "follow", help="run a read replica following a primary"
    )
    follow.add_argument(
        "data_dir",
        help="local replica state directory (cursor marker + local WAL; "
        "promotable on failover)",
    )
    follow.add_argument(
        "--primary", required=True, metavar="HOST:PORT",
        help="address of the primary's serve endpoint",
    )
    follow.add_argument("--host", default="127.0.0.1")
    follow.add_argument(
        "--port", type=int, default=8081, help="0 picks an ephemeral port"
    )
    follow.add_argument(
        "--window-ms", type=float, default=2.0, metavar="MS",
        help="query coalescing window (as in repro serve)",
    )
    follow.add_argument(
        "--poll-ms", type=float, default=100.0, metavar="MS",
        help="WAL poll interval once caught up (default: 100)",
    )
    follow.add_argument(
        "--replica-id",
        default=None,
        help="stable replica identity (default: persisted in the data "
        "dir, generated on first start)",
    )
    follow.add_argument(
        "--fsync",
        choices=["always", "interval", "off"],
        default="off",
        help="fsync policy of the replica's local WAL (default: off — "
        "a lost replica re-bootstraps from the primary)",
    )
    follow.add_argument(
        "--dynamic",
        action="store_true",
        help="serve default-shape reads through the dynamic route "
        "(see docs/dynamic.md)",
    )
    follow.set_defaults(fn=_cmd_replicate_follow)

    promote = replicate_commands.add_parser(
        "promote",
        help="promote a stopped replica's data directory: bump every "
        "table's epoch so the old primary's lineage is fenced out",
    )
    promote.add_argument("data_dir", help="the replica's state directory")
    promote.add_argument(
        "--no-snapshot",
        action="store_true",
        help="skip the post-promotion snapshot (faster, but recovery "
        "replays the whole WAL)",
    )
    promote.set_defaults(fn=_cmd_replicate_promote)

    status = replicate_commands.add_parser(
        "status", help="print a node's /replicate/status as JSON"
    )
    status.add_argument(
        "--primary", required=True, metavar="HOST:PORT",
        help="address of the node to inspect (primary or replica)",
    )
    status.set_defaults(fn=_cmd_replicate_status)

    explain = commands.add_parser(
        "explain", help="explain one tuple's top-k probability"
    )
    explain.add_argument("table")
    explain.add_argument("tid", help="tuple id to explain")
    explain.add_argument("-k", type=int, required=True)
    explain.add_argument(
        "--limit", type=int, default=5, help="suppressors to show"
    )
    explain.set_defaults(fn=_cmd_explain)

    flight = commands.add_parser(
        "flight",
        help="inspect flight-recorder logs: tail, summary, calibration "
        "(see docs/observability.md)",
    )
    flight.add_argument(
        "action",
        choices=["tail", "summary", "calibration"],
        help="tail: print the newest records; summary: aggregate "
        "latency/engine/slow counts; calibration: planner "
        "estimate-vs-actual residuals per engine",
    )
    flight.add_argument(
        "path",
        help="a flight JSONL file (e.g. slow.jsonl) or a --flight-dir "
        "directory containing one",
    )
    flight.add_argument(
        "-n", type=int, default=20, help="records shown by tail"
    )
    flight.set_defaults(fn=_cmd_flight)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
