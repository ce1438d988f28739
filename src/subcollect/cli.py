"""Command-line surface for the iterative workflow:
index -> extract -> evaluate -> refine (plus stats and single lookups).

Exit codes: 0 success, 1 validation error, 2 I/O, corruption or output
write error, 3 valid-but-empty result. Payload goes to stdout,
diagnostics to stderr, so scripted refinement loops can branch on the
code and parse the output without filtering. Output files are written
through ``store.atomic_open``, so a failed write leaves no partial file.

Each command runs as a fresh process, so only what ``index`` and ``get``
run is imported at the top: ``store``, and ``urls``, where ``SpecError``
lives. ``extract``, ``evaluate`` and ``stats`` import their own modules.
"""

from __future__ import annotations

import argparse
import os
import sys

from .store import (
    Archive,
    ArchiveIndex,
    CorruptSnapshotError,
    IngestStats,
    SnapshotNotFound,
    atomic_open,
    ingest_warc,
    is_valid_timestamp14,
    nearest,
    read_url_rows,
)
from .urls import CanonicalizationError, SpecError, canonicalize_url

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_EMPTY = 3

# Exit code of an error that ends a command, by the nearest class in the
# exception's MRO: SpecError and CanonicalizationError (both defined in
# ``urls``) are ValueErrors, SnapshotNotFound is a LookupError, and
# WarcFormatError (ValueError) and ArchiveIOError (OSError) give EXIT_IO.
EXIT_CODES = {
    SpecError: EXIT_VALIDATION,
    CanonicalizationError: EXIT_VALIDATION,
    SnapshotNotFound: EXIT_EMPTY,
    CorruptSnapshotError: EXIT_IO,
    OSError: EXIT_IO,
    ValueError: EXIT_IO,
}


def _log(message):
    print(message, file=sys.stderr)


def cmd_index(args):
    if not args.warcs:
        _log("error: no input WARC files given")
        return EXIT_VALIDATION
    # An entry names its WARC by base name, so one name must mean one file.
    paths = {}
    for path in args.warcs:
        name = os.path.basename(path)
        if name in paths:
            _log("error: %s and %s share the file name %r" % (paths[name], path, name))
            return EXIT_VALIDATION
        paths[name] = path
    entries = []
    totals = IngestStats()
    for path in args.warcs:
        entries.extend(ingest_warc(path, stats=totals))
    ArchiveIndex(entries).save(args.output)
    line = "indexed records=%d responses=%d skipped=%d bytes=%d" % (
        totals.records, totals.responses, totals.skipped, totals.bytes
    )
    _log(line + "".join(" %s=%d" % kv for kv in totals.passed_over.items() if kv[1]))
    return EXIT_OK


# This command, evaluate and stats import in their bodies for start-up time
# only, so that index and get never compile those modules; no cycle is dodged.
def cmd_extract(args):
    from . import extraction
    from .spec import parse_spec_file
    spec = parse_spec_file(args.spec)
    index = ArchiveIndex.load(args.index)
    with Archive(directory=args.archive_dir) as archive:
        coll = extraction.extract(archive, index, spec)
        # The manifest is renamed after the export, so a failed export leaves neither.
        with atomic_open(args.output, "w", encoding="utf-8") as f:
            coll.write_manifest(f)
            if args.export_warc:
                extraction.export_warc(coll, archive, args.export_warc)
    for key, value in coll.counters.items():
        print("%s=%d" % (key, value))
    return EXIT_OK if coll.members else EXIT_EMPTY


def cmd_evaluate(args):
    import csv
    from . import evaluation, extraction
    from .spec import parse_spec_file
    index = ArchiveIndex.load(args.index)
    coll = extraction.SubCollection.read_manifest(args.manifest, index)
    truth = evaluation.load_truth(args.truth) if args.truth else None
    spec = parse_spec_file(args.spec) if args.spec else None
    with Archive(directory=args.archive_dir) as archive:
        report = evaluation.evaluate(coll, archive, index, truth=truth, spec=spec)
    for line in report.as_key_values():
        print(line)
    if args.output:
        with atomic_open(args.output, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["metric", "facet", "value"])
            w.writerows(report.as_csv_rows())
    return EXIT_OK


def cmd_stats(args):
    from . import stats
    if args.sample_n <= 0:
        _log("error: --sample-n must be positive")
        return EXIT_VALIDATION
    index = ArchiveIndex.load(args.index)
    with Archive(directory=args.archive_dir) as archive:
        report = stats.build_report(index, archive, args.sample_n, args.seed)
    base, ext = os.path.splitext(args.output)
    long_path = base + "_long" + (ext or ".csv")
    # The wide CSV is renamed after the long one, so a failed write leaves neither.
    with atomic_open(args.output, "w", encoding="utf-8", newline="") as wide:
        with atomic_open(long_path, "w", encoding="utf-8", newline="") as long:
            report.write_wide_csv(wide)
            report.write_long_csv(long)
    _log("sampled_pages=%d wide=%s long=%s" % (report.sample_size, args.output, long_path))
    return EXIT_OK


def cmd_get(args):
    if not is_valid_timestamp14(args.at):
        _log("error: --at must be a valid 14-digit UTC timestamp")
        return EXIT_VALIDATION
    # Only the URL's own lines of the index are read.
    captures = read_url_rows(args.index, canonicalize_url(args.url))
    if not captures:
        _log("not found: %s" % args.url)
        return EXIT_EMPTY
    ref = nearest(captures, args.at)
    with Archive(directory=args.archive_dir) as archive:
        snap = archive.fetch(ref)
    _log("%s %s %s" % (ref.canonical_url, ref.timestamp14, ref.digest))
    sys.stdout.buffer.write(snap.body)
    sys.stdout.buffer.flush()
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subcollect",
        description="Extract and evaluate topic/event focused sub-collections "
        "from WARC web archives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="build a sorted lookup index from WARC files")
    p.add_argument("warcs", nargs="*", help="input WARC files")
    p.add_argument("--output", required=True, help="index file to write")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("extract", help="run a sub-collection specification")
    p.add_argument("--spec", required=True, help="JSON specification file")
    p.add_argument("--index", required=True, help="index file")
    p.add_argument("--archive-dir", required=True, help="directory holding the WARC files")
    p.add_argument("--output", required=True, help="manifest file to write")
    p.add_argument("--export-warc", help="also copy member records into this WARC file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="compute the metric suite over a manifest")
    p.add_argument("manifest", help="manifest file from 'extract'")
    p.add_argument("--index", required=True)
    p.add_argument("--archive-dir", required=True)
    p.add_argument("--truth", help="labeled truth set (enables precision/recall)")
    p.add_argument("--spec", help="spec file; scopes the link-completeness oracle")
    p.add_argument("--output", help="also write the report as CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="archive statistics from a seeded sample")
    p.add_argument("--index", required=True)
    p.add_argument("--archive-dir", required=True)
    p.add_argument("--sample-n", type=int, default=40000, help="sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="wide CSV path (long CSV written beside it)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("get", help="print the capture nearest to a timestamp")
    p.add_argument("--index", required=True)
    p.add_argument("--archive-dir", required=True)
    p.add_argument("--url", required=True)
    p.add_argument("--at", required=True, help="14-digit UTC target timestamp")
    p.set_defaults(func=cmd_get)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        _log("error: %s" % exc)
        return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
