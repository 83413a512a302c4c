"""Command-line interface — the reproduction of the BonXai tool [19].

Subcommands::

    bonxai validate  <schema> <document>... validate XML (schema may be
                                            .bonxai, .xsd, or .dtd); with
                                            several documents, runs a
                                            fault-isolated batch
                                            (--keep-going default,
                                            --fail-fast to stop at the
                                            first errored document) and
                                            prints a summary line;
                                            --deadline/--retries/--limits-*
                                            thread per-document resilience
                                            knobs into the batch machinery
    bonxai serve     [--host H --port P]    long-running validation service:
                                            HTTP POST /validate|/explain|
                                            /patch with admission control,
                                            per-schema circuit breaker,
                                            and SIGTERM graceful drain
                                            (GET /healthz /readyz /metrics
                                            /debug/traces); --access-log /
                                            --trace-log / --trace-requests
                                            turn on request correlation
                                            (traceparent propagation,
                                            JSONL access logs, tail-
                                            sampled traces, exemplars)
    bonxai traces    <url-or-file>          pretty-print tail-sampled
                                            request traces from a running
                                            daemon or a --trace-log ring
    bonxai top       <url> [--once]         live text dashboard over a
                                            daemon's /metrics (rps, shed
                                            rate, p50/p95/p99, breaker
                                            state, top tenants)
    bonxai highlight <schema> <document>    per-node matched rules
    bonxai explain   <document> --schema S  per-element provenance: winning
                                            rule index, assigned type, and
                                            a first-divergence reason for
                                            every invalid element
    bonxai patch     <document> <patch>...  apply RFC 5261-style patch
                     --schema S             files (child-index sel paths)
                                            and revalidate; --incremental
                                            (default) revalidates only each
                                            edit's footprint, --full re-runs
                                            the tree validator; -o OUT
                                            writes the patched document
    bonxai convert   <input> [-o OUT]       convert between BonXai and XSD
                                            (direction from extensions)
    bonxai analyze   <schema>               k-suffix analysis + lint
                                            (--coverage DOC... adds
                                            dynamically-dead-rule checks)
    bonxai study     [--size N] [--seed S]  run the synthetic corpus study
    bonxai conformance [--seed S --cases N] cross-formalism conformance
                                            sweep: differential validator
                                            checks + translation round-trips
                                            on seeded cases, delta-debugged
                                            repros, optional corpus pinning
                                            (--save-failures); --inject
                                            SITE=RATE runs the fault-
                                            injection fire drill

Every subcommand also accepts the observability flags::

    --metrics                dump a metrics snapshot to stderr on exit
    --metrics-format FMT     snapshot format: json (default) or prometheus
    --trace FILE             stream a JSONL span trace of the whole command
                             to FILE (one span object per line; the file is
                             a size-capped ring, rotating to FILE.1)
    --budget-states N        cap automaton states created by translations
    --budget-seconds S       wall-clock deadline for the command's
                             constructions and validation

Budget violations surface as ``error: ...`` with exit status 2 (the
schema was refused, not proven invalid); the metrics snapshot is still
emitted.

Exit status: 0 on success/valid, 1 on invalid documents or diagnostics,
2 on usage errors.  A malformed or over-limit *document* is not a usage
error: ``validate`` prints a structured one-line report
(``<path>: ERROR [kind] message``) and exits 1 — no traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from repro.bonxai import (
    bxsd_to_schema,
    compile_schema,
    lint_bxsd,
    parse_bonxai,
    print_schema,
)
from repro.errors import ReproError
from repro.translation import (
    bxsd_core,
    bxsd_to_dfa_based,
    detect_k_suffix,
    detect_semantic_locality,
    formal_xsd,
    xsd_to_dfa_based,
)
from repro.xmlmodel import parse_document, parse_dtd
from repro.xsd import XSDValidationReport, read_xsd, validate_xsd, write_xsd


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    budget = None
    # serve interprets --budget-states/--budget-seconds as the *per-
    # request* compile allowance, not an ambient whole-command budget.
    if args.command != "serve" and (
        getattr(args, "budget_states", None) is not None
        or getattr(args, "budget_seconds", None) is not None
    ):
        from repro.observability import ResourceBudget

        budget = ResourceBudget(
            max_states=args.budget_states,
            max_seconds=args.budget_seconds,
        )
    try:
        with contextlib.ExitStack() as stack:
            trace_path = getattr(args, "trace", None)
            if trace_path is not None:
                stack.enter_context(_traced(trace_path))
            if budget is not None:
                stack.enter_context(budget)
            return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if getattr(args, "metrics", False):
            from repro.observability import default_registry, render_metrics

            fmt = getattr(args, "metrics_format", "json")
            print(
                render_metrics(default_registry(), fmt), file=sys.stderr
            )


@contextlib.contextmanager
def _traced(path, max_bytes=None):
    """Install an ambient tracer streaming JSONL spans to ``path``.

    The sink writes each span as it finishes, so the file is complete
    even when the command records more spans than the tracer's ring
    buffer retains.  The file is a size-capped ring
    (:class:`~repro.observability.ringfile.RingFileWriter`): a long
    conformance sweep rotates ``path`` → ``path.1`` instead of growing
    without bound.
    """
    from repro.observability import RingFileWriter, Tracer
    from repro.observability.ringfile import DEFAULT_MAX_BYTES

    with RingFileWriter(
        path, max_bytes=max_bytes or DEFAULT_MAX_BYTES
    ) as ring:
        def sink(span):
            ring.write(json.dumps(span.to_dict(), sort_keys=True))

        with Tracer(sink=sink):
            yield


def _positive(cast):
    def convert(text):
        value = cast(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(
                f"must be a positive {cast.__name__}: {text!r}"
            )
        return value

    return convert


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bonxai",
        description="BonXai schema tooling (PODS 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command")

    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--metrics",
        action="store_true",
        help="dump a metrics snapshot to stderr after the command",
    )
    common.add_argument(
        "--metrics-format",
        choices=("json", "prometheus"),
        default="json",
        help="format of the --metrics snapshot (default: json)",
    )
    common.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="stream a JSONL span trace of the command to FILE",
    )
    common.add_argument(
        "--budget-states",
        type=_positive(int),
        default=None,
        metavar="N",
        help="refuse translations that create more than N automaton states",
    )
    common.add_argument(
        "--budget-seconds",
        type=_positive(float),
        default=None,
        metavar="S",
        help="wall-clock deadline for the command's constructions and "
        "validation",
    )

    # Parser-limit overrides shared by validate and serve: each maps to
    # the matching ParserLimits field; absent flags keep the defaults.
    limits_flags = argparse.ArgumentParser(add_help=False)
    limits_flags.add_argument(
        "--limits-input-bytes", type=_positive(int), default=None,
        metavar="N", help="largest accepted document, in UTF-8 bytes",
    )
    limits_flags.add_argument(
        "--limits-depth", type=_positive(int), default=None,
        metavar="N", help="deepest accepted element nesting",
    )
    limits_flags.add_argument(
        "--limits-attributes", type=_positive(int), default=None,
        metavar="N", help="most attributes accepted on one start tag",
    )
    limits_flags.add_argument(
        "--limits-name-length", type=_positive(int), default=None,
        metavar="N", help="longest accepted element/attribute name",
    )
    limits_flags.add_argument(
        "--limits-text-length", type=_positive(int), default=None,
        metavar="N", help="longest accepted text/CDATA/attribute run",
    )

    validate = subparsers.add_parser(
        "validate",
        help="validate an XML document against a schema",
        parents=[common, limits_flags],
    )
    validate.add_argument("schema")
    validate.add_argument("documents", nargs="+", metavar="document")
    validate.add_argument(
        "--deadline", type=_positive(float), default=None, metavar="S",
        help="per-document wall-clock allowance in seconds (covers fetch "
        "+ parse + validate; an over-deadline document errors instead of "
        "holding the batch)",
    )
    validate.add_argument(
        "--retries", type=_positive(int), default=None, metavar="N",
        help="retry transient document-read failures up to N times with "
        "full-jitter backoff (default: no retry)",
    )
    validate.add_argument(
        "--engine",
        choices=("tree", "streaming"),
        default="tree",
        help="tree: reference validators on a parsed document (default); "
        "streaming: compiled DFA tables driven by a SAX event stream "
        "(structural validation only for BonXai/DTD schemas)",
    )
    batch_policy = validate.add_mutually_exclusive_group()
    batch_policy.add_argument(
        "--keep-going",
        dest="fail_fast",
        action="store_false",
        help="batch mode: report every document even when some fail "
        "(FailurePolicy 'isolate'; the default)",
    )
    batch_policy.add_argument(
        "--fail-fast",
        dest="fail_fast",
        action="store_true",
        help="batch mode: stop at the first errored document and mark "
        "the rest SKIPPED (FailurePolicy 'fail_fast')",
    )
    validate.set_defaults(handler=_cmd_validate, fail_fast=False)

    highlight = subparsers.add_parser(
        "highlight",
        help="show the matching rule for every element",
        parents=[common],
    )
    highlight.add_argument("schema")
    highlight.add_argument("document")
    highlight.set_defaults(handler=_cmd_highlight)

    explain = subparsers.add_parser(
        "explain",
        help="per-element provenance: winning rule, type, divergence",
        parents=[common],
    )
    explain.add_argument("document")
    explain.add_argument("--schema", required=True)
    explain.set_defaults(handler=_cmd_explain)

    patch = subparsers.add_parser(
        "patch",
        help="apply XML patch files and revalidate (incremental engine)",
        parents=[common],
    )
    patch.add_argument("document")
    patch.add_argument("patches", nargs="+", metavar="patch")
    patch.add_argument("--schema", required=True)
    patch.add_argument(
        "-o", "--output", default=None,
        help="write the patched document to this file",
    )
    mode = patch.add_mutually_exclusive_group()
    mode.add_argument(
        "--incremental", dest="incremental", action="store_true",
        help="revalidate only each edit's footprint (default)",
    )
    mode.add_argument(
        "--full", dest="incremental", action="store_false",
        help="revalidate the whole document from scratch after patching",
    )
    patch.set_defaults(handler=_cmd_patch, incremental=True)

    convert = subparsers.add_parser(
        "convert",
        help="convert between BonXai and XML Schema",
        parents=[common],
    )
    convert.add_argument("input")
    convert.add_argument("-o", "--output", default=None)
    convert.add_argument(
        "--to",
        choices=("bonxai", "xsd"),
        default=None,
        help="target language (default: the other one)",
    )
    convert.set_defaults(handler=_cmd_convert)

    diff = subparsers.add_parser(
        "diff",
        help="diff two schemas: per-element-type difference certificates",
        parents=[common],
        description=(
            "Compare two schemas (any pair of XSD / BonXai / DTD) at the "
            "document-language level and print one certificate per "
            "diverging element type: a k-piecewise-testable separator "
            "when a small one exists, otherwise a shortest counterexample "
            "child-word, each with a concrete witness document. Exit "
            "codes: 0 equivalent, 1 differ, 2 error or budget exceeded."
        ),
    )
    diff.add_argument("left", help="first schema file (.xsd/.dtd/bonxai)")
    diff.add_argument("right", help="second schema file")
    diff.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable certificates on stdout",
    )
    diff.add_argument(
        "--max-k", type=_positive(int), default=3,
        help="separator search bound: atom length / piecewise depth "
        "(default 3)",
    )
    diff.add_argument(
        "--max-certificates", type=_positive(int), default=8,
        help="most diverging element types reported (default 8)",
    )
    diff.add_argument(
        "--no-witness", action="store_true",
        help="skip witness-document construction",
    )
    diff.set_defaults(handler=_cmd_diff)

    analyze = subparsers.add_parser(
        "analyze",
        help="k-suffix analysis and schema lint",
        parents=[common],
    )
    analyze.add_argument("schema")
    analyze.add_argument("--max-k", type=int, default=6)
    analyze.add_argument(
        "--coverage",
        nargs="+",
        default=None,
        metavar="DOC",
        help="sample documents for rule-coverage lint: rules that decide "
        "no element in any DOC are reported as dynamically dead",
    )
    analyze.set_defaults(handler=_cmd_analyze)

    study = subparsers.add_parser(
        "study",
        help="run the synthetic web-XSD k-locality study",
        parents=[common],
    )
    study.add_argument("--size", type=int, default=225)
    study.add_argument("--seed", type=int, default=2015)
    study.set_defaults(handler=_cmd_study)

    conformance = subparsers.add_parser(
        "conformance",
        help="run the cross-formalism conformance sweep",
        parents=[common],
        description="Differential + metamorphic conformance sweep: every "
        "validator corner and translation round-trip is checked on seeded "
        "random cases; disagreements are delta-debugged to minimal repros. "
        "Exit 0 when clean, 1 on disagreements, 2 when a resource budget "
        "stopped the sweep early.",
    )
    conformance.add_argument("--seed", type=int, default=0)
    conformance.add_argument(
        "--cases", type=_positive(int), default=500,
        help="number of generated cases to sweep (default: 500)",
    )
    conformance.add_argument(
        "--docs-per-case", type=_positive(int), default=2, metavar="N",
        help="valid documents sampled per case (default: 2)",
    )
    conformance.add_argument(
        "--mutants", type=int, default=2, metavar="N",
        help="mutant documents derived per valid document (default: 2)",
    )
    conformance.add_argument(
        "--max-states", type=_positive(int), default=4, metavar="N",
        help="state bound for randomly generated schemas (default: 4)",
    )
    conformance.add_argument(
        "--no-shrink", dest="shrink", action="store_false",
        help="report failures without delta-debugging them first",
    )
    conformance.add_argument(
        "--no-roundtrips", dest="roundtrips", action="store_false",
        help="skip the metamorphic translation round-trip oracles",
    )
    conformance.add_argument(
        "--save-failures", action="store_true",
        help="pin each shrunk failure into the regression corpus",
    )
    conformance.add_argument(
        "--corpus-dir", default="tests/conformance_corpus", metavar="DIR",
        help="regression corpus directory (default: tests/conformance_corpus)",
    )
    conformance.add_argument(
        "--max-failures", type=_positive(int), default=25, metavar="N",
        help="stop the sweep after N distinct failures (default: 25)",
    )
    conformance.add_argument(
        "--progress-every", type=int, default=0, metavar="N",
        help="print a progress line every N cases (default: off)",
    )
    conformance.add_argument(
        "--inject", action="append", default=[], metavar="SITE=RATE",
        help="fire drill: install a fault injector at SITE (parse/compile/"
        "validate/source) with probability RATE; repeatable",
    )
    conformance.add_argument(
        "--inject-seed", type=int, default=0, metavar="S",
        help="seed for the --inject fault injector (default: 0)",
    )
    conformance.set_defaults(
        handler=_cmd_conformance, shrink=True, roundtrips=True
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived validation service (HTTP/1.1)",
        parents=[common, limits_flags],
        description="Validation-as-a-service: POST /validate, /explain, "
        "and /patch take JSON bodies ({schema, schema_kind, document, "
        "tenant?, deadline?, patches?}); GET /healthz, /readyz, and "
        "/metrics expose liveness, readiness (503 while draining or "
        "globally tripped), and the Prometheus snapshot.  Overload is "
        "shed with 429 + Retry-After; schemas that repeatedly exhaust "
        "the compile budget are quarantined by a per-schema circuit "
        "breaker; SIGTERM drains gracefully.  --budget-states / "
        "--budget-seconds set the per-request compile allowance.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks a free one; announced on stdout)",
    )
    serve.add_argument(
        "--workers", type=_positive(int), default=4,
        help="worker threads executing requests (default: 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=16, metavar="N",
        help="admitted requests allowed to wait for a worker; beyond "
        "workers + N the service sheds with 429 (default: 16)",
    )
    serve.add_argument(
        "--tenant-inflight", type=_positive(int), default=8, metavar="N",
        help="most admitted requests one tenant may hold (default: 8)",
    )
    serve.add_argument(
        "--deadline", type=_positive(float), default=5.0, metavar="S",
        help="default end-to-end seconds per request (default: 5)",
    )
    serve.add_argument(
        "--max-deadline", type=_positive(float), default=30.0, metavar="S",
        help="ceiling on a client-requested deadline (default: 30)",
    )
    serve.add_argument(
        "--drain-deadline", type=_positive(float), default=5.0, metavar="S",
        help="seconds SIGTERM waits for inflight requests (default: 5)",
    )
    serve.add_argument(
        "--breaker-threshold", type=_positive(int), default=3, metavar="N",
        help="consecutive budget exhaustions that quarantine a schema "
        "(default: 3)",
    )
    serve.add_argument(
        "--breaker-cooldown", type=_positive(float), default=30.0,
        metavar="S",
        help="seconds a quarantined schema blocks before one probe "
        "recompile is allowed (default: 30)",
    )
    serve.add_argument(
        "--breaker-global-limit", type=_positive(int), default=8,
        metavar="N",
        help="simultaneously open circuits that flip /readyz to 503 "
        "(default: 8)",
    )
    serve.add_argument(
        "--retry-after", type=_positive(float), default=1.0, metavar="S",
        help="Retry-After hint on shed responses (default: 1)",
    )
    serve.add_argument(
        "--metrics-file", default=None, metavar="FILE",
        help="write a final Prometheus metrics snapshot here on drain",
    )
    serve.add_argument(
        "--access-log", default=None, metavar="FILE",
        help="write one JSONL access-log line per request to FILE "
        "(a size-capped ring; implies request tracing)",
    )
    serve.add_argument(
        "--trace-log", default=None, metavar="FILE",
        help="write tail-sampled request traces to FILE as JSONL "
        "(a size-capped ring; implies request tracing)",
    )
    serve.add_argument(
        "--log-max-bytes", type=_positive(int), default=None, metavar="N",
        help="rotation cap for --access-log / --trace-log files "
        "(default: 16 MiB per generation)",
    )
    serve.add_argument(
        "--trace-requests", action="store_true",
        help="trace requests even with no log file (retained traces "
        "served by GET /debug/traces)",
    )
    serve.add_argument(
        "--tail-latency-ms", type=_positive(float), default=500.0,
        metavar="MS",
        help="requests slower than MS are always retained by the tail "
        "sampler (default: 500)",
    )
    serve.add_argument(
        "--tail-reservoir", type=int, default=4, metavar="N",
        help="reservoir slots for fast traces (0 retains only errored/"
        "slow traces; default: 4)",
    )
    serve.add_argument(
        "--tail-retain", type=_positive(int), default=256, metavar="N",
        help="retained traces kept in memory for GET /debug/traces "
        "(default: 256)",
    )
    serve.set_defaults(handler=_cmd_serve)

    traces = subparsers.add_parser(
        "traces",
        help="pretty-print tail-sampled request traces",
        description="Read retained traces from a running daemon "
        "(http://host:port) or a --trace-log JSONL ring file and print "
        "one line per trace, newest first (--verbose adds the span "
        "tree).",
    )
    traces.add_argument(
        "target",
        help="daemon base URL (http://host:port) or trace-log file path",
    )
    traces.add_argument(
        "--limit", type=_positive(int), default=20, metavar="N",
        help="most traces shown (default: 20)",
    )
    traces.add_argument(
        "--reason", choices=("error", "slow", "reservoir"), default=None,
        help="only traces retained for this reason",
    )
    traces.add_argument(
        "--tenant", default=None,
        help="only traces whose root span carries this tenant",
    )
    traces.add_argument(
        "-v", "--verbose", action="store_true",
        help="print each trace's span tree, not just the summary line",
    )
    traces.add_argument(
        "--json", action="store_true",
        help="emit the raw trace records as JSONL instead of text",
    )
    traces.set_defaults(handler=_cmd_traces)

    top = subparsers.add_parser(
        "top",
        help="live text dashboard over a daemon's /metrics",
        description="Poll GET /metrics and render request rate, shed "
        "rate, latency percentiles, breaker state, tail-sampler "
        "counts, and top tenants.  Plain text with ANSI redraws — no "
        "curses; --once prints a single frame and exits (pipelines, "
        "smoke tests).",
    )
    top.add_argument(
        "url",
        help="daemon base URL or /metrics URL (http://host:port)",
    )
    top.add_argument(
        "--interval", type=_positive(float), default=2.0, metavar="S",
        help="seconds between scrapes (default: 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit",
    )
    top.add_argument(
        "--frames", type=_positive(int), default=None, metavar="N",
        help="exit after N frames (default: run until interrupted)",
    )
    top.set_defaults(handler=_cmd_top)

    return parser


def _load_text(path):
    """A file's text; a UTF-8 byte-order mark in front is dropped, so
    DTD and BonXai files saved with one load too."""
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read()


def _schema_kind(path):
    lowered = path.lower()
    if lowered.endswith(".xsd"):
        return "xsd"
    if lowered.endswith(".dtd"):
        return "dtd"
    return "bonxai"


def _load_schema(path):
    """Load any schema file; returns ``(kind, compiled-or-model)``."""
    text = _load_text(path)
    kind = _schema_kind(path)
    if kind == "xsd":
        return kind, read_xsd(text)
    if kind == "dtd":
        return kind, parse_dtd(text)
    return kind, compile_schema(parse_bonxai(text))


def _error_line(path, error):
    """The structured one-line report for one failed document."""
    return f"{path}: ERROR [{error.kind}] {error.message}"


def _limits_from(args):
    """A :class:`ParserLimits` from the ``--limits-*`` flags, or ``None``.

    Absent flags keep the :data:`~repro.resilience.DEFAULT_LIMITS`
    value for that dimension (overrides compose with the defaults, not
    with unlimited).
    """
    overrides = {
        "max_input_bytes": args.limits_input_bytes,
        "max_depth": args.limits_depth,
        "max_attributes": args.limits_attributes,
        "max_name_length": args.limits_name_length,
        "max_text_length": args.limits_text_length,
    }
    if all(value is None for value in overrides.values()):
        return None
    from repro.resilience import ParserLimits

    return ParserLimits(
        **{name: value for name, value in overrides.items()
           if value is not None}
    )


def _resilience_from(args):
    """The ``validate_many`` keyword overrides the new flags map onto."""
    options = {}
    limits = _limits_from(args)
    if limits is not None:
        options["limits"] = limits
    if args.deadline is not None:
        options["deadline"] = args.deadline
    if args.retries is not None:
        from repro.resilience import RetryPolicy

        options["retry"] = RetryPolicy(
            max_attempts=args.retries + 1, jitter=True
        )
    return options


def _cmd_validate(args):
    kind, schema = _load_schema(args.schema)
    resilience = _resilience_from(args)
    if len(args.documents) == 1 and not resilience:
        return _validate_single(args, kind, schema, args.documents[0])
    return _validate_batch(args, kind, schema, resilience)


def _validate_single(args, kind, schema, path):
    """The classic one-document flow (plus structured parse failures)."""
    from repro.errors import ParseError
    from repro.resilience import DocumentError

    text = _load_text(path)
    try:
        if getattr(args, "engine", "tree") == "streaming":
            from repro.engine import validate_streaming

            # BonXai and DTD schemas: their structural language only.
            report = validate_streaming(formal_xsd(kind, schema), text)
        else:
            report = _tree_check(kind, schema)(parse_document(text))
    except ParseError as error:
        # A malformed (or over-limit) document is a *data* failure, not
        # a usage error: one structured line, exit 1, no traceback.
        print(_error_line(path, DocumentError.from_exception(error)))
        return 1
    violations = report.violations
    if violations:
        for violation in violations:
            print(violation)
        print(f"INVALID ({len(violations)} violation(s))")
        return 1
    print("VALID")
    return 0


def _validate_batch(args, kind, schema, resilience=None):
    """Fault-isolated multi-document validation with a summary line.

    The tree engine runs the schema kind's own check on every document,
    as single-document mode does; the streaming engine rides the
    translation square to one compiled formal XSD (structural
    validation for BonXai/DTD) shared by the whole batch.  Documents are
    fetched lazily as source callables; a file that fails to read is an
    isolated ``io`` error, not a batch abort.  ``resilience`` carries
    the ``--deadline`` / ``--retries`` / ``--limits-*`` overrides
    straight into :func:`validate_many` (a single document given any of
    those flags comes through here too, so the knobs always ride the
    isolation machinery).
    """
    from repro.engine import validate_many
    from repro.resilience import FailurePolicy

    engine = getattr(args, "engine", "tree")
    if engine == "streaming":
        target = formal_xsd(kind, schema)
    else:
        target = _tree_check(kind, schema)
    policy = (
        FailurePolicy.FAIL_FAST if args.fail_fast else FailurePolicy.ISOLATE
    )
    sources = [lambda path=path: _load_text(path) for path in args.documents]
    outcomes = validate_many(
        target, sources, engine=engine, policy=policy, **(resilience or {})
    )

    ok = invalid = errored = skipped = 0
    for path, outcome in zip(args.documents, outcomes):
        if outcome.ok:
            if outcome.valid:
                ok += 1
                print(f"{path}: VALID")
            else:
                invalid += 1
                count = len(outcome.report.violations)
                print(f"{path}: INVALID ({count} violation(s))")
        elif outcome.error.kind == "skipped":
            skipped += 1
            print(f"{path}: SKIPPED")
        else:
            errored += 1
            print(_error_line(path, outcome.error))
    summary = f"{ok} ok / {invalid} invalid / {errored} errored"
    if skipped:
        summary += f" / {skipped} skipped"
    print(summary)
    return 0 if ok == len(outcomes) else 1


def _tree_check(kind, schema):
    """The schema kind's own validator, as ``document -> report``.

    A DTD also checks attribute enumerations, and a BonXai schema its
    typed attributes and integrity constraints: checks the formal XSD
    of the streaming engine does not carry.
    """
    if kind == "xsd":
        return lambda document: validate_xsd(schema, document)
    if kind == "bonxai":
        return schema.validate

    def check(document):
        report = XSDValidationReport()
        report.violations = schema.validate(document)
        return report

    return check


def _as_dfa_based(kind, schema):
    """Ride the translation square to the DFA-based pivot (Definition 3)."""
    bxsd = bxsd_core(kind, schema)
    if bxsd is None:
        return xsd_to_dfa_based(schema)
    return bxsd_to_dfa_based(bxsd)


def _cmd_diff(args):
    from repro.diff import schema_diff

    left = _as_dfa_based(*_load_schema(args.left))
    right = _as_dfa_based(*_load_schema(args.right))
    diff = schema_diff(
        left,
        right,
        max_k=args.max_k,
        max_certificates=args.max_certificates,
        witnesses=not args.no_witness,
    )
    if args.as_json:
        print(json.dumps(diff.to_json(), indent=2, sort_keys=True))
    else:
        for line in diff.render():
            print(line)
    return 0 if diff.equivalent else 1


def _cmd_highlight(args):
    kind, schema = _load_schema(args.schema)
    if kind != "bonxai":
        print("highlight requires a BonXai schema", file=sys.stderr)
        return 2
    document = parse_document(_load_text(args.document))
    report = schema.validate(document)
    for line in report.highlighted(document, schema.source):
        print(line)
    return 0 if report.valid else 1


def _cmd_patch(args):
    """Apply RFC 5261-style patch files, revalidate, report the verdict.

    ``--incremental`` (default) drives the edits through a
    :class:`ValidatedDocument` so only each edit's footprint is
    revalidated; ``--full`` mutates the raw tree and re-runs the tree
    validator from scratch.  Both modes print identical reports (the
    conformance harness's ``incremental`` leg enforces this).
    """
    from repro.xmlmodel import parse_patch, write_document

    kind, schema = _load_schema(args.schema)
    xsd = formal_xsd(kind, schema)
    document = parse_document(_load_text(args.document))
    patches = [parse_patch(_load_text(path)) for path in args.patches]
    applied = sum(len(patch) for patch in patches)
    if args.incremental:
        from repro.engine import ValidatedDocument, compile_cached

        handle = ValidatedDocument(document, compile_cached(xsd))
        for patch in patches:
            patch.apply_incremental(handle)
        report = handle.report()
        document = handle.document
    else:
        for patch in patches:
            patch.apply_full(document)
        report = validate_xsd(xsd, document)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.write(write_document(document))
    mode = "incremental" if args.incremental else "full"
    for violation in report.violations:
        print(violation)
    if report.violations:
        print(
            f"INVALID after {applied} op(s) [{mode}] "
            f"({len(report.violations)} violation(s))"
        )
        return 1
    print(f"VALID after {applied} op(s) [{mode}]")
    return 0


def _cmd_explain(args):
    """Per-element provenance: who decided what, and why it failed."""
    from repro.observability import explain_document

    kind, schema = _load_schema(args.schema)
    document = parse_document(_load_text(args.document))
    explanation = explain_document(kind, schema, document)

    for entry in explanation.elements:
        parts = [f"type={entry.type_name}"]
        if entry.rule_index is not None:
            parts.append(f"rule=#{entry.rule_index}")
        parts.append(entry.verdict)
        print(f"{entry.typed_path}: {' '.join(parts)}")
        if entry.reason is not None:
            print(f"  why: {entry.reason}")

    if explanation.rules is not None and explanation.elements:
        decided = {
            entry.rule_index
            for entry in explanation.elements
            if entry.rule_index is not None
        }
        for index in sorted(decided):
            print(f"rule #{index}: {explanation.rules[index]}")

    if explanation.coverage is not None:
        dead = explanation.coverage.never_fired()
        fired = explanation.coverage.rule_count - len(dead)
        print(
            f"rule coverage: {fired}/{explanation.coverage.rule_count} "
            f"rules fired over {explanation.coverage.nodes()} element(s)"
        )

    for violation in explanation.violations:
        print(violation)
    if explanation.valid:
        print("CONFORMING")
        return 0
    print(f"NOT CONFORMING ({len(explanation.violations)} violation(s))")
    return 1


def _cmd_convert(args):
    kind, schema = _load_schema(args.input)
    target = args.to
    if target is None:
        target = "bonxai" if kind in ("xsd", "dtd") else "xsd"

    if kind == "xsd" and target == "bonxai":
        from repro.translation.hybrid import hybrid_dfa_based_to_bxsd
        from repro.xsd import minimize_dfa_based

        dfa_based = minimize_dfa_based(xsd_to_dfa_based(schema))
        # Hybrid Algorithm 2: suffix rules for context-local states,
        # state elimination only for the genuinely context-dependent rest.
        bxsd = hybrid_dfa_based_to_bxsd(dfa_based)
        output = print_schema(bxsd_to_schema(bxsd))
    elif kind == "dtd" and target == "bonxai":
        output = print_schema(bxsd_to_schema(bxsd_core(kind, schema)))
    elif kind == "bonxai" and target == "xsd":
        output = write_xsd(
            formal_xsd(kind, schema),
            target_namespace=schema.source.target_namespace,
        )
    elif kind == target:
        output = _load_text(args.input)
    else:
        print(f"cannot convert {kind} to {target}", file=sys.stderr)
        return 2

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(output)
    return 0


def _cmd_analyze(args):
    kind, schema = _load_schema(args.schema)
    if kind == "xsd":
        dfa_based = xsd_to_dfa_based(schema)
        bxsd = None
    else:
        bxsd = bxsd_core(kind, schema)
        # Prefer the Theorem-12 construction for suffix-based schemas: it
        # yields the automaton whose structural k-suffix width matches the
        # schema's intent (the generic product does not).
        from repro.errors import NotKSuffixError
        from repro.translation import ksuffix_bxsd_to_dfa_based

        try:
            dfa_based = ksuffix_bxsd_to_dfa_based(bxsd)
        except NotKSuffixError:
            dfa_based = bxsd_to_dfa_based(bxsd)

    k = detect_k_suffix(dfa_based, max_k=args.max_k)
    semantic = detect_semantic_locality(dfa_based, max_k=args.max_k)
    print(f"states (DFA-based): {len(dfa_based.states)}")
    print(f"structural k-suffix: {k if k is not None else f'> {args.max_k} or unbounded'}")
    print(f"semantic k-locality: {semantic if semantic is not None else f'> {args.max_k} or unbounded'}")

    if args.coverage is not None and bxsd is None:
        print("--coverage requires a BonXai or DTD schema", file=sys.stderr)
        return 2

    exit_code = 0
    if bxsd is not None:
        coverage = None
        if args.coverage is not None:
            from repro.observability import RuleCoverage

            coverage = RuleCoverage(len(bxsd.rules))
            for path in args.coverage:
                coverage.add_report(
                    bxsd.match(parse_document(_load_text(path)))
                )
        diagnostics = lint_bxsd(bxsd, coverage=coverage)
        for diagnostic in diagnostics:
            print(diagnostic)
        if any(d.level == "error" for d in diagnostics):
            exit_code = 1
    return exit_code


def _cmd_conformance(args):
    """The conformance sweep (exit 0 clean / 1 disagreed / 2 budget)."""
    import contextlib as _contextlib

    from repro.conformance import SweepConfig, run_sweep

    config = SweepConfig(
        seed=args.seed,
        cases=args.cases,
        docs_per_case=args.docs_per_case,
        mutants_per_doc=args.mutants,
        max_states=args.max_states,
        roundtrips=args.roundtrips,
        shrink=args.shrink,
        save_failures=args.save_failures,
        corpus_dir=args.corpus_dir,
        progress_every=args.progress_every,
        max_failures=args.max_failures,
    )
    with _contextlib.ExitStack() as stack:
        if args.inject:
            from repro.resilience.faults import (
                FaultInjector,
                installed_injector,
            )

            rates = {}
            for spec in args.inject:
                site, __, rate = spec.partition("=")
                rates[site] = float(rate) if rate else 1.0
            stack.enter_context(
                installed_injector(
                    FaultInjector(seed=args.inject_seed, rates=rates)
                )
            )
        result = run_sweep(config, progress=print)

    print(result.summary())
    for failure in result.failures:
        print(failure.describe())
    if result.failures:
        return 1
    if result.stopped_early:
        return 2
    return 0


def _cmd_serve(args):
    """Run the validation service until SIGTERM/SIGINT drains it."""
    from repro.serve import ServeConfig, run_server

    if args.queue_depth < 0:
        print("error: --queue-depth must be >= 0", file=sys.stderr)
        return 2
    if args.tail_reservoir < 0:
        print("error: --tail-reservoir must be >= 0", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_inflight=args.tenant_inflight,
        deadline=args.deadline,
        max_deadline=args.max_deadline,
        drain_deadline=args.drain_deadline,
        budget_states=args.budget_states or 20_000,
        budget_seconds=args.budget_seconds or 2.0,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        breaker_global_limit=args.breaker_global_limit,
        retry_after=args.retry_after,
        limits=_limits_from(args),
        access_log=args.access_log,
        trace_log=args.trace_log,
        log_max_bytes=args.log_max_bytes,
        trace_requests=args.trace_requests,
        tail_latency=args.tail_latency_ms / 1000.0,
        tail_reservoir=args.tail_reservoir,
        tail_retain=args.tail_retain,
    )
    return run_server(config, metrics_path=args.metrics_file)


def _cmd_traces(args):
    """Pretty-print tail-sampled traces from a daemon or a ring file."""
    from repro.serve.top import fetch_traces, format_trace

    try:
        records = fetch_traces(
            args.target, limit=args.limit, reason=args.reason
        )
    except OSError as exc:
        print(f"error: cannot read traces from {args.target}: {exc}",
              file=sys.stderr)
        return 2
    if args.tenant is not None:
        records = [
            record for record in records
            if record.get("root", {}).get("attributes", {}).get("tenant")
            == args.tenant
        ]
    if args.json:
        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0
    if not records:
        print("no retained traces")
        return 0
    for record in records:
        for line in format_trace(record, verbose=args.verbose):
            print(line)
    return 0


def _cmd_top(args):
    """Live dashboard over ``GET /metrics`` (``--once``: one frame)."""
    from repro.serve.top import run_top

    iterations = 1 if args.once else args.frames
    return run_top(args.url, interval=args.interval, iterations=iterations)


def _cmd_study(args):
    import random

    from repro.corpus import format_study, generate_corpus, run_study

    rng = random.Random(args.seed)
    corpus = generate_corpus(rng, size=args.size)
    result = run_study(corpus)
    print(format_study(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
