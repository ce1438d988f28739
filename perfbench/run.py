"""subcollect benchmark: seeded synthetic archives, real CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. The workload's archive is generated from the seed (and kept
under .perfbench_work/ for later runs with the same seed), indexed
several times (setup), then passes of extract, evaluate, stats, cold
``get`` processes and one library query loop repeat until S seconds are
used, each command a fresh process run one at a time. A fixed reference
job (calib.py) runs between the commands, and every timing is scaled to
the speed at which that job takes REFERENCE_S. Every output is
checked against the generator's ground truth and against the first
pass. The last stdout line is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of one traced
in-process pass. Exit status 1 when any check failed, 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import gen

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 5
MIN_PASSES = 3
# Nominal wall seconds of calib.py. Timings are reported at the speed at
# which the reference job takes this long; see speed_scale.
REFERENCE_S = 0.25
P50_WINDOW = 500  # consecutive loop queries per get_p50_ms sample
STATS_SEED = "1"
RATE_TOLERANCE = 0.03  # planted link-in-archive rate vs the stats estimate, > 4 sd

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("extract_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
    ("stats_s", "s", "lower"),
    ("get_cold_s", "s", "lower"),
    ("get_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("fetches", "count", "lower"),
    ("ok_frac", "ratio", "higher"),
]

ALL = frozenset(gen.WORKLOADS)
SC, CS = frozenset(["scan-content"]), frozenset(["closure-snapshot"])
NONE = frozenset()

# name, unit, better, workloads on which the value must be non-zero.
PER_LAYER = [
    ("warc.iter_records.s", "s", "lower", ALL),
    ("warc.iter_records.records", "count", "lower", ALL),
    ("warc.iter_records.bytes", "B", "lower", ALL),
    ("warc.read_record.calls", "count", "lower", ALL),
    ("warc.read_record.s", "s", "lower", ALL),
    ("warc.read_record.bytes", "B", "lower", ALL),
    ("store.ingest_warc.s", "s", "lower", ALL),
    ("store.ingest_warc.self_s", "s", "lower", ALL),
    ("store.ingest_warc.responses", "count", "higher", ALL),
    ("store.ingest_warc.skipped", "count", "lower", ALL),
    ("store.ArchiveIndex.save.s", "s", "lower", ALL),
    ("store.index_bytes_per_capture", "B", "lower", ALL),
    ("store.ArchiveIndex.load.s", "s", "lower", ALL),
    ("store.ArchiveIndex.load.entries", "count", "lower", ALL),
    ("store.index_rss_bytes_per_capture", "B", "lower", ALL),
    ("store.Archive.fetch.calls", "count", "lower", ALL),
    ("store.Archive.fetch.s", "s", "lower", ALL),
    ("store.Archive.fetch.self_s", "s", "lower", ALL),
    ("store.Archive.fetch.bytes", "B", "lower", ALL),
    ("store.Archive.fetch.errors", "count", "lower", SC),
    ("store.ArchiveIndex.lookup_nearest.calls", "count", "lower", ALL),
    ("store.ArchiveIndex.lookup_nearest.s", "s", "lower", ALL),
    ("store.ArchiveIndex.lookup_nearest.not_found", "count", "lower", ALL),
    ("store.ArchiveIndex.entries_for.calls", "count", "lower", ALL),
    ("store.ArchiveIndex.entries_for.s", "s", "lower", ALL),
    ("store.query_p99_ms", "ms", "lower", ALL),
    ("urls.canonicalize_url.calls", "count", "lower", ALL),
    ("urls.canonicalize_url.s", "s", "lower", ALL),
    ("urls.host_of.calls", "count", "lower", ALL),
    ("spec.in_scope_metadata.calls", "count", "lower", ALL),
    ("spec.in_scope_metadata.s", "s", "lower", ALL),
    ("spec.in_scope_metadata.pass_frac", "ratio", "higher", ALL),
    ("htmldoc.parse_html.calls", "count", "lower", ALL),
    ("htmldoc.parse_html.s", "s", "lower", ALL),
    ("htmldoc.parse_html.self_s", "s", "lower", ALL),
    ("htmldoc.parse_html.bytes", "B", "lower", ALL),
    ("htmldoc.parse_html.outlinks", "count", "lower", ALL),
    ("htmldoc.parse_html.tokens", "count", "lower", ALL),
    ("relevance.is_relevant.calls", "count", "lower", ALL),
    ("relevance.is_relevant.s", "s", "lower", ALL),
    ("relevance.is_relevant.relevant_frac", "ratio", "higher", ALL),
    ("extraction.index_prefilter.calls", "count", "lower", ALL),
    ("extraction.index_prefilter.s", "s", "lower", ALL),
    ("extraction.index_prefilter.kept", "count", "lower", ALL),
    ("extraction.scan_extract.s", "s", "lower", ALL),
    ("extraction.scan_extract.self_s", "s", "lower", ALL),
    ("extraction.scan_extract.kept_frac", "ratio", "higher", ALL),
    ("extraction.select_versions.s", "s", "lower", ALL),
    ("extraction.select_versions.in", "count", "lower", ALL),
    ("extraction.select_versions.out", "count", "lower", ALL),
    ("extraction.connect_closure.s", "s", "lower", ALL),
    ("extraction.connect_closure.self_s", "s", "lower", ALL),
    ("extraction.connect_closure.added", "count", "lower", CS),
    ("extraction.connect_closure.fetches", "count", "lower", CS),
    ("extraction.enforce_size.s", "s", "lower", ALL),
    ("extraction.enforce_size.in", "count", "lower", ALL),
    ("extraction.enforce_size.out", "count", "lower", ALL),
    ("extraction.export_warc.s", "s", "lower", ALL),
    ("extraction.export_warc.bytes", "B", "lower", ALL),
    ("extraction.SubCollection.write_manifest.s", "s", "lower", ALL),
    ("evaluation.evaluate.s", "s", "lower", ALL),
    ("evaluation.evaluate.self_s", "s", "lower", ALL),
    ("evaluation.evaluate.fetches", "count", "lower", ALL),
    ("evaluation.link_completeness.s", "s", "lower", ALL),
    ("evaluation.representativeness.s", "s", "lower", ALL),
    ("stats.build_report.s", "s", "lower", ALL),
    ("stats.analyze_sample.s", "s", "lower", ALL),
    ("stats.analyze_sample.dropped", "count", "lower", NONE),
    ("stats.link_in_archive_rate.s", "s", "lower", ALL),
] + [
    ("cli.%s.%s" % (cmd, q), "s", "lower", ALL)
    for cmd in ("index", "extract", "evaluate", "stats", "get")
    for q in ("s", "self_s")
] + [
    ("cli.process_overhead_s", "s", "lower", ALL),
    ("trace.overhead_ratio", "ratio", "lower", ALL),
]

_COUNTER_RE = re.compile(r"\b([a-z_]+)=(\d+)\b")
# Files each command writes into its output directory.
OUTPUT_FILES = {
    "index": ["index.cdx"],
    "extract": ["manifest.txt", "export.warc"],
    "evaluate": ["evaluate.csv"],
    "stats": ["stats.csv", "stats_long.csv"],
}


# -- processes ------------------------------------------------------------------


def program_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


TIMELINE = []  # (output prefix, wall) of every process, in run order


def run_process(argv, out_prefix):
    """Run one process to completion, through spawn.py; stdout and stderr
    go to files.

    Returns (exit code, wall seconds from start to exit, the process's
    peak RSS in KiB from wait4).
    """
    done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "spawn.py"), out_prefix]
                          + argv, stdout=subprocess.PIPE, env=program_env(), cwd=ROOT, check=True)
    r = json.loads(done.stdout)
    TIMELINE.append((os.path.basename(out_prefix), r["wall"]))
    return r["code"], r["wall"], r["maxrss_kib"]


def cli_argv(args):
    return [sys.executable, "-m", "subcollect.cli"] + [str(a) for a in args]


def child_argv(*args):
    return [sys.executable, os.path.join(BENCH_DIR, "child.py")] + [str(a) for a in args]


def calib_argv():
    return [sys.executable, os.path.join(BENCH_DIR, "calib.py")]


def read(path, mode="r"):
    with open(path, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as f:
        return f.read()


def counters(text):
    return {k: int(v) for k, v in _COUNTER_RE.findall(text)}


def key_values(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


# -- statistics ---------------------------------------------------------------------


def percentile(samples, q, min_beyond=10):
    """Nearest-rank q-quantile, or None unless at least ``min_beyond``
    samples lie above it."""
    n = len(samples)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def speed_scale(reference_walls):
    """Factor that brings this run's wall times to the nominal speed.

    The machine's speed switches between levels about 1.6 times apart, in
    phases from a fraction of a second to minutes (shared host), so the
    share of a run spent at each level varies from run to run. Each run
    therefore also times calib.py, a fixed job of the same kinds of work,
    between its commands, and scales every timing by REFERENCE_S over the
    mean time of that job. A change to the program does not change the job,
    so the scaled times still move with the program.
    """
    return REFERENCE_S / statistics.fmean(reference_walls)


# -- inputs -----------------------------------------------------------------------


def generator_key():
    return hashlib.sha256(read(os.path.join(BENCH_DIR, "gen.py"), "rb")).hexdigest()[:12]


def prepare(workload, seed):
    """Generated inputs for (workload, seed), made once and then reused.

    Only the latest seed of each workload is kept on disk.
    """
    base = os.path.join(WORK, "data", workload)
    dest = os.path.join(base, "%d-%s" % (seed, generator_key()))
    if not os.path.exists(os.path.join(dest, "done")):
        shutil.rmtree(base, ignore_errors=True)
        gen.generate(workload, seed, dest)
        with open(os.path.join(dest, "done"), "w") as f:
            f.write("")
    with open(os.path.join(dest, "truth.json"), encoding="utf-8") as f:
        return dest, json.load(f)


class Workload:
    """One workload's generated inputs, its commands and their checks."""

    def __init__(self, name, data, truth):
        self.name = name
        self.data = data
        self.truth = truth
        self.warc_dir = os.path.join(data, truth["warc_dir"])
        self.served = os.path.join(data, truth["served_dir"])
        self.captures = {(c[0], c[1]): c for c in truth["captures"]}
        self.corrupt = {tuple(c) for c in truth["corrupt"]}

    def index_argv(self, index_path):
        warcs = [os.path.join(self.warc_dir, f) for f in self.truth["warc_files"]]
        return ["index"] + warcs + ["--output", index_path]

    def commands(self, index, out):
        """(key, argv) of one pass, writing its files under ``out``."""
        served = self.served
        spec = os.path.join(self.data, "spec.json")
        manifest = os.path.join(out, "manifest.txt")
        cmds = [
            ("extract", ["extract", "--spec", spec, "--index", index, "--archive-dir", served,
                         "--output", manifest, "--export-warc", os.path.join(out, "export.warc")]),
        ]
        judge = (["--truth", os.path.join(self.data, "truth.txt")]
                 if self.truth.get("topic") else ["--spec", spec])
        cmds.append(("evaluate", ["evaluate", manifest, "--index", index, "--archive-dir", served,
                                  "--output", os.path.join(out, "evaluate.csv")] + judge))
        cmds.append(("stats", ["stats", "--index", index, "--archive-dir", served,
                               "--sample-n", self.truth["stats_sample"], "--seed", STATS_SEED,
                               "--output", os.path.join(out, "stats.csv")]))
        for i, q in enumerate(self.truth["gets"]):
            cmds.append(("get-%d" % i, ["get", "--index", index, "--archive-dir", served,
                                        "--url", q["url"], "--at", q["at"]]))
        return cmds

    # -- checks: each returns a list of problems --------------------------------

    def check(self, key, code, out_prefix, out_dir):
        stdout = read(out_prefix + ".stdout", "rb")
        stderr = read(out_prefix + ".stderr", "rb").decode("utf-8", "replace")
        if "Traceback" in stderr:
            return ["traceback: %s" % stderr.strip().splitlines()[-1]]
        kind = key.split("-")[0]
        if kind == "get":
            return self.check_get(self.truth["gets"][int(key.split("-")[1])], code, stdout)
        if code != 0:
            return ["exit code %d: %s" % (code, stderr.strip()[-300:])]
        return getattr(self, "check_" + kind)(stdout.decode("utf-8"), stderr, out_dir)

    def check_index(self, stdout, stderr, out_dir):
        """The printed counters; the index contents are checked through
        every lookup, get and extract that uses it, not by its format."""
        got = counters(stderr)
        want = {"records": self.truth["records"], "responses": len(self.captures),
                "skipped": self.truth["skipped"]}
        return ["%s=%s, planted %d" % (k, got.get(k), v)
                for k, v in want.items() if got.get(k) != v]

    def read_manifest(self, out_dir):
        lines = read(os.path.join(out_dir, "manifest.txt")).splitlines()
        return [tuple(line.split(" ")) for line in lines[2:] if line]

    def check_extract(self, stdout, stderr, out_dir):
        problems = []
        expect = self.truth["expect"]
        got = counters(stdout)
        for k, name in (("candidates", "candidates_scanned"), ("errors", "errors"),
                        ("members", "members"), ("closure_added", "closure_added")):
            if k in expect and got.get(name) != expect[k]:
                problems.append("%s=%s, expected %d" % (name, got.get(name), expect[k]))
        members = self.read_manifest(out_dir)
        for url, ts, digest, origin in members:
            cap = self.captures.get((url, ts))
            if cap is None or cap[2] != digest:
                problems.append("manifest member %s %s is not a planted capture" % (url, ts))
                break
        urls = [m[0] for m in members]
        if "members_exact" in expect:
            want = {tuple(m) for m in expect["members_exact"]}
            if {(m[0], m[1]) for m in members} != want or len(members) != len(want):
                problems.append("members differ from the planted truth set")
        else:
            if len(members) != expect["members"]:
                problems.append("%d members, size budget %d" % (len(members), expect["members"]))
            if len(set(urls)) != len(urls):
                problems.append("snapshot mode kept a URL twice")
            for url, ts, _, origin in members:
                host = url.split("/")[2]
                if origin == "scan" and (host not in expect["scope_hosts"]
                                         or ts[:4] != expect["scope_year"]):
                    problems.append("scan member %s %s outside the metadata scopes" % (url, ts))
                    break
        # The exported WARC is the members' on-disk records, verbatim, in order.
        want = hashlib.sha256()
        handles = {}
        try:
            for url, ts, _, _ in members:
                cap = self.captures[(url, ts)]
                f = handles.get(cap[3])
                if f is None:
                    f = handles[cap[3]] = open(os.path.join(self.served, cap[3]), "rb")
                f.seek(cap[4])
                want.update(f.read(cap[5]))
        except KeyError:
            return problems
        finally:
            for f in handles.values():
                f.close()
        if hashlib.sha256(read(os.path.join(out_dir, "export.warc"), "rb")).digest() != want.digest():
            problems.append("exported WARC differs from the members' records")
        return problems

    def check_evaluate(self, stdout, stderr, out_dir):
        problems = []
        kv = key_values(stdout)
        members = self.read_manifest(out_dir)
        fetches = kv.get("fetches")
        if fetches is None or int(fetches) > len(members):
            problems.append("evaluate fetches=%s for %d members" % (fetches, len(members)))
        if self.truth.get("topic"):
            for k in ("precision", "recall"):
                if kv.get(k) != "1":
                    problems.append("%s=%s, planted truth gives 1" % (k, kv.get(k)))
        for facet in ("host", "year", "mime"):
            v = float(kv.get("representativeness.%s" % facet, "nan"))
            if not 0.0 <= v <= 1.0:
                problems.append("representativeness.%s=%s" % (facet, v))
        if not read(os.path.join(out_dir, "evaluate.csv")).startswith("metric,facet,value"):
            problems.append("evaluate CSV has no header")
        return problems

    def check_stats(self, stdout, stderr, out_dir):
        problems = []
        want_sampled = min(int(self.truth["stats_sample"]), self.truth["html_count"])
        if counters(stderr).get("sampled_pages") != want_sampled:
            problems.append("sampled_pages=%s, expected %d"
                            % (counters(stderr).get("sampled_pages"), want_sampled))
        rows = [line.split(",") for line in read(os.path.join(out_dir, "stats.csv")).splitlines()]
        header, rows = rows[0], rows[1:]
        col = {name: i for i, name in enumerate(header)}
        years = {r[col["year"]]: int(r[col["snapshot_count"]]) for r in rows}
        if years != self.truth["years"]:
            problems.append("snapshot_count per year differs from the planted captures")
        planted = self.truth.get("planted_rate")
        if planted is not None:
            for kind in ("internal_link_rate", "external_link_rate"):
                rates = [float(r[col[kind]]) for r in rows if r[col[kind]]]
                measured = sum(rates) / len(rates) if rates else float("nan")
                if not abs(measured - planted) <= RATE_TOLERANCE:
                    problems.append("%s %.4f, planted %.4f (tolerance %.2f)"
                                    % (kind, measured, planted, RATE_TOLERANCE))
        return problems

    def check_get(self, query, code, stdout):
        answer = query["answer"]
        if answer is None:
            return [] if code == 3 else ["absent URL gave exit %d, expected 3" % code]
        if code != 0:
            return ["get %s %s: exit %d" % (query["url"], query["at"], code)]
        if hashlib.sha256(stdout).hexdigest() != answer[2]:
            return ["get %s %s: body is not the nearest capture %s" % (query["url"], query["at"], answer[1])]
        return []

    def check_loop(self, results_path):
        """(latencies in ns, problems, result lines without latencies)."""
        problems, latencies, lines = [], [], []
        rows = read(results_path).splitlines()
        queries = self.truth["queries"]
        if len(rows) != len(queries):
            return latencies, ["%d answers to %d queries" % (len(rows), len(queries))], lines
        for q, row in zip(queries, rows):
            status, url, ts, digest, ns = row.split(" ")
            latencies.append(int(ns))
            lines.append(row.rsplit(" ", 1)[0])
            a = q["answer"]
            if a is None:
                ok = status == "notfound"
            elif (a[0], a[1]) in self.corrupt:
                ok = status == "corrupt" and (url, ts) == (a[0], a[1])
            else:
                ok = status == "found" and [url, ts, digest] == a
            if not ok:
                problems.append("query %s %s answered %s %s %s, oracle %s"
                                % (q["url"], q["at"], status, url, ts, a))
        return latencies, problems, lines


METRIC_TOLERANCE = 1e-9  # the acceptance suite's tolerance on metric values
_FIELD_RE = re.compile(r"[^,=\r\n]+")


def outputs(key, out_prefix, out_dir):
    """What a command printed (stdout, counters on stderr) and the files
    it wrote, as {part: bytes}."""
    err = read(out_prefix + ".stderr", "rb").decode("utf-8", "replace")
    parts = {
        "stdout": read(out_prefix + ".stdout", "rb"),
        "counters": json.dumps(sorted(counters(err).items())).encode(),
    }
    for name in OUTPUT_FILES.get(key.split("-")[0], ()):
        parts[name] = read(os.path.join(out_dir, name), "rb")
    return parts


def _close_enough(a, b):
    """Same fields; numbers may differ by the metric tolerance."""
    fa, fb = _FIELD_RE.findall(a.decode()), _FIELD_RE.findall(b.decode())
    if len(fa) != len(fb):
        return False
    for x, y in zip(fa, fb):
        if x == y:
            continue
        try:
            u, v = float(x), float(y)
        except ValueError:
            return False
        if abs(u - v) > METRIC_TOLERANCE * max(1.0, abs(u)):
            return False
    return True


def compare(key, want, got):
    """(problems, parts that differ only in float digits below tolerance).

    Evaluation metrics are compared to the acceptance suite's tolerance:
    the program sums some of them in hash order, so their last digits
    vary between processes. Everything else must be byte-identical.
    """
    problems, digits = [], []
    for part in want:
        if got.get(part) == want[part]:
            continue
        if key == "evaluate" and part in ("stdout", "evaluate.csv") and _close_enough(want[part], got.get(part, b"")):
            digits.append(part)
        else:
            problems.append("%s differs" % part)
    return problems, digits


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digit_diffs = set()  # outputs whose float digits varied

    def op(self, what, problems):
        self.ops(what, 1, 1 if problems else 0, problems)

    def ops(self, what, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend("%s: %s" % (what, p) for p in problems)


# -- runs ---------------------------------------------------------------------------


def timed_run(wl, seconds):
    out = os.path.join(WORK, "run", wl.name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    led = Ledger()
    rss = []
    index = os.path.join(out, "index.cdx")
    reference, ref_digests = [], set()

    def calibrate():
        prefix = os.path.join(out, "calib")
        code, wall, _ = run_process(calib_argv(), prefix)
        reference.append(wall)
        ref_digests.add(read(prefix + ".stdout"))
        led.op("calib#%d" % len(reference), [] if code == 0 else ["exit code %d" % code])

    setup, first = [], None
    for rep in range(SETUP_REPS):
        calibrate()
        prefix = os.path.join(out, "index")
        code, wall, peak = run_process(cli_argv(wl.index_argv(index)), prefix)
        setup.append(wall)
        rss.append(peak)
        problems = wl.check("index", code, prefix, out)
        got = outputs("index", prefix, out)
        first = first or got
        problems += ["setup run differs from the first: " + p
                     for p in compare("index", first, got)[0]]
        led.op("index#%d" % rep, problems)

    walls = {"extract": [], "evaluate": [], "stats": [], "get": []}
    p50s, fetches = [], []
    queries = 0
    baseline = {}
    passes = 0
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        pass_fetches = 0
        for key, args in wl.commands(index, out):
            if not key.startswith("get"):
                calibrate()
            prefix = os.path.join(out, key)
            code, wall, peak = run_process(cli_argv(args), prefix)
            rss.append(peak)
            problems = wl.check(key, code, prefix, out)
            got = outputs(key, prefix, out)
            diff, digits = compare(key, baseline.setdefault(key, got), got)
            problems += ["differs from pass 1: " + p for p in diff]
            led.digit_diffs.update(digits)
            led.op("%s#%d" % (key, passes), problems)
            kind = key.split("-")[0]
            if kind == "get":
                if code == 0:
                    walls["get"].append(wall)
                    pass_fetches += 1
            else:
                walls[kind].append(wall)
                text = read(prefix + ".stdout", "rb").decode() + read(prefix + ".stderr", "rb").decode()
                c = counters(text)
                pass_fetches += c.get("sampled_pages", 0) if kind == "stats" else c.get("fetches", 0)
        fetches.append(pass_fetches)

        calibrate()
        results = os.path.join(out, "loop.txt")
        code, wall, peak = run_process(
            child_argv("loop", index, wl.served,
                       os.path.join(wl.data, "queries.txt"), results),
            os.path.join(out, "loop"))
        rss.append(peak)
        if code != 0:
            led.op("loop#%d" % passes, ["exit code %d" % code])
        else:
            lat, problems, lines = wl.check_loop(results)
            p50s.extend(percentile(lat[i:i + P50_WINDOW], 0.50)
                        for i in range(0, len(lat), P50_WINDOW))
            queries += len(lat)
            baseline.setdefault("loop", lines)
            changed = sum(a != b for a, b in zip(lines, baseline["loop"]))
            if changed:
                problems.append("%d answers differ from pass 1" % changed)
            led.ops("query#%d" % passes, len(wl.truth["queries"]),
                    min(len(wl.truth["queries"]), len(problems)), problems)
        passes += 1
        elapsed = time.perf_counter() - t_start
        pass_time = time.perf_counter() - t_pass
        if passes >= MIN_PASSES and elapsed + pass_time > seconds:
            break

    if len(ref_digests) != 1:
        led.op("calib", ["the reference job's results differ between runs"])
    if len(set(fetches)) != 1:
        led.op("fetch counters", ["fetch counts differ across passes: %s" % fetches])
    # Each window of P50_WINDOW queries gives a p50; report their mean. The
    # machine's speed switches between levels every fraction of a second, so
    # a p50 over a long stretch sits near one level or another, and jumps
    # between them from run to run; a mean over short windows moves smoothly.
    p50 = None if None in p50s or not p50s else statistics.fmean(p50s)
    scale = speed_scale(reference)
    with open(os.path.join(out, "samples.json"), "w", encoding="utf-8") as f:
        json.dump({"timeline": TIMELINE, "window_p50_ns": p50s}, f)
    print("reference job: mean %.4f s over %d runs; timings scaled by %.4f"
          % (statistics.fmean(reference), len(reference), scale))
    samples = {
        "setup_s": len(setup), "extract_s": passes, "evaluate_s": passes, "stats_s": passes,
        "get_cold_s": len(walls["get"]), "get_p50_ms": queries,
        "peak_rss_mb": len(rss), "fetches": passes,
        "ok_frac": led.attempted,
    }
    # Means, not medians: with two speed levels, a median over a few
    # samples jumps to one level or the other from run to run.
    values = {
        "setup_s": statistics.fmean(setup) * scale,
        "extract_s": statistics.fmean(walls["extract"]) * scale,
        "evaluate_s": statistics.fmean(walls["evaluate"]) * scale,
        "stats_s": statistics.fmean(walls["stats"]) * scale,
        "get_cold_s": statistics.fmean(walls["get"]) * scale if walls["get"] else None,
        "get_p50_ms": p50 / 1e6 * scale if p50 is not None else None,
        "peak_rss_mb": max(rss) / 1024.0,
        "fetches": fetches[0],
        "ok_frac": 1.0 - led.failed / led.attempted,
    }
    for name, value in values.items():
        if value is None:
            led.op(name, ["no value (too few samples)"])
    return led, values, samples


def traced_run(wl):
    out = os.path.join(WORK, "run", wl.name)
    shutil.rmtree(out, ignore_errors=True)
    dirs = {k: os.path.join(out, k) for k in ("sub", "inproc", "traced")}
    for d in dirs.values():
        os.makedirs(d)
    led = Ledger()
    index = os.path.join(dirs["sub"], "index.cdx")

    # Untraced reference pass, one process per command.
    sub_walls = {}
    cmds = [("index", wl.index_argv(index))] + wl.commands(index, dirs["sub"])
    for key, args in cmds:
        prefix = os.path.join(dirs["sub"], key)
        code, wall, _ = run_process(cli_argv(args), prefix)
        sub_walls[key] = wall
        led.op(key, wl.check(key, code, prefix, dirs["sub"]))
    sub_loop = os.path.join(dirs["sub"], "loop.txt")
    code, _, _ = run_process(
        child_argv("loop", index, wl.served, os.path.join(wl.data, "queries.txt"),
                   sub_loop), os.path.join(dirs["sub"], "loop"))
    sub_latencies, problems, sub_lines = (
        wl.check_loop(sub_loop) if code == 0 else ([], ["loop failed"], None))
    led.op("loop", problems)

    # The same pass in-process, untraced and then traced.
    def in_process(d):
        return [("index", wl.index_argv(os.path.join(d, "index.cdx")))] + wl.commands(index, d)

    plan = {
        "index": index,
        "commands": [
            {"key": k, "argv": [str(a) for a in a1], "traced_argv": [str(a) for a in a2]}
            for (k, a1), (_, a2) in zip(in_process(dirs["inproc"]), in_process(dirs["traced"]))
        ],
        "untraced_dir": dirs["inproc"],
        "traced_dir": dirs["traced"],
        "loop": {"index": index, "archive_dir": wl.served,
                 "queries": os.path.join(wl.data, "queries.txt"),
                 "results": os.path.join(dirs["traced"], "loop.txt")},
        "spans": os.path.join(out, "spans.jsonl"),
        "summary": os.path.join(out, "trace_summary.json"),
    }
    with open(os.path.join(out, "plan.json"), "w", encoding="utf-8") as f:
        json.dump(plan, f)
    code, _, _ = run_process(child_argv("trace", os.path.join(out, "plan.json")),
                             os.path.join(out, "trace"))
    if code != 0:
        led.op("trace", ["traced run exit %d: %s" % (code, read(os.path.join(out, "trace.stderr"))[-500:])])
        return led, {}
    with open(plan["summary"], encoding="utf-8") as f:
        summary = json.load(f)

    # Traced and in-process outputs must equal the untraced processes' outputs.
    for key, _ in cmds:
        want = outputs(key, os.path.join(dirs["sub"], key), dirs["sub"])
        problems = []
        for d in ("inproc", "traced"):
            diff, digits = compare(key, want, outputs(key, os.path.join(dirs[d], key), dirs[d]))
            problems += ["%s run vs untraced process: %s" % (d, p) for p in diff]
            led.digit_diffs.update(digits)
        led.op("%s (traced)" % key, problems)
    _, problems, traced_lines = wl.check_loop(plan["loop"]["results"])
    if traced_lines != sub_lines:
        problems.append("traced loop answers differ from the untraced loop")
    led.op("loop (traced)", problems)

    values = layer_metrics(summary, index, sub_walls)
    p99 = percentile(sub_latencies, 0.99)
    values["store.query_p99_ms"] = p99 / 1e6 if p99 is not None else None
    problems = ["%s is 0" % name for name, _, _, loaded in PER_LAYER
                if wl.name in loaded and not values.get(name)]
    led.op("per-layer metrics", problems)
    return led, values


def layer_metrics(summary, index, sub_walls):
    layers = summary["layers"]

    def get(name, q):
        return layers.get(name, {}).get(q, 0)

    values = {}
    for name, _, _, _ in PER_LAYER:
        span, _, q = name.rpartition(".")
        values[name] = get(span, q)
    captures = get("store.ArchiveIndex.load", "entries") / max(1, get("store.ArchiveIndex.load", "calls"))
    values.update({
        "store.Archive.fetch.errors": sum(v for k, v in layers.get("store.Archive.fetch", {}).items()
                                          if k.startswith("raised.")),
        "store.ArchiveIndex.lookup_nearest.not_found":
            get("store.ArchiveIndex.lookup_nearest", "raised.SnapshotNotFound"),
        "store.index_bytes_per_capture": os.path.getsize(index) / captures,
        "store.index_rss_bytes_per_capture": summary["rss_bytes_per_capture"],
        "spec.in_scope_metadata.pass_frac":
            get("spec.in_scope_metadata", "passed") / max(1, get("spec.in_scope_metadata", "calls")),
        "relevance.is_relevant.relevant_frac":
            get("relevance.is_relevant", "relevant") / max(1, get("relevance.is_relevant", "calls")),
        "extraction.scan_extract.kept_frac":
            get("extraction.scan_extract", "kept") / max(1, summary["scan_candidates"]),
        "stats.analyze_sample.dropped":
            get("stats.analyze_sample", "sampled") - get("stats.analyze_sample", "out"),
    })
    untraced = summary["untraced"]
    overheads = [sub_walls[k] - untraced[k]["wall"] for k in untraced]
    values["cli.process_overhead_s"] = statistics.median(overheads)
    values["trace.overhead_ratio"] = (sum(v["wall"] for v in summary["traced"].values())
                                      / sum(v["wall"] for v in untraced.values()))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subcollect", "cli.py")):
        print("error: program source not found under %s" % SRC, file=sys.stderr)
        return 2
    data, truth = prepare(args.workload, args.seed)
    wl = Workload(args.workload, data, truth)

    if args.trace:
        led, values = traced_run(wl)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        samples = {}
    else:
        led, values, samples = timed_run(wl, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}

    for p in led.problems[:50]:
        print("CHECK FAILED %s" % p, file=sys.stderr)
    if led.digit_diffs:
        print("NOTE evaluate %s not byte-identical across runs; equal within %g"
              % (", ".join(sorted(led.digit_diffs)), METRIC_TOLERANCE), file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            continue
        metrics[name] = {"value": value, "unit": unit}
        n = samples.get(name)
        print("%-45s %16.6f %-6s%s" % (name, value, unit, "  n=%d" % n if n else ""))
    correct = led.failed == 0 and len(metrics) == len(units)
    print("attempted=%d failed=%d" % (led.attempted, led.failed))
    print(json.dumps({"correct": correct, "attempted": led.attempted, "failed": led.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
