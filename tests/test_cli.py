import ast
import builtins
import glob
import gzip
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import subcollect
from subcollect.cli import EXIT_CODES, main
from subcollect.evaluation import load_truth
from subcollect.extraction import SubCollection
from subcollect.spec import SpecError
from subcollect.store import ArchiveIndex, CorruptSnapshotError
from subcollect.urls import CanonicalizationError

from conftest import damage_warc, iso_of, page
import warcwriter


@pytest.fixture
def workspace(tmp_path):
    """Archive dir with one WARC, plus an index built via the CLI."""
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    captures = [
        ("http://a.de/", "20000101120000", page("a", links=["/x"], text="web archive")),
        ("http://a.de/x", "20000102120000", page("ax", text="more web archive text")),
        ("http://a.de/", "20010101120000", page("a2", text="web archive still")),
        ("http://b.de/", "20000601120000", page("b", text="cooking")),
    ]
    blobs = [
        warcwriter.make_response_record(u, iso_of(t), b) for u, t, b in captures
    ]
    warc_path = archive_dir / "f.warc"
    warcwriter.write_warc(str(warc_path), blobs)
    index_path = tmp_path / "index.cdx"
    assert main(["index", str(warc_path), "--output", str(index_path)]) == 0
    return {
        "tmp": tmp_path,
        "archive_dir": str(archive_dir),
        "index": str(index_path),
        "warc": str(warc_path),
    }


def write_spec(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


URL_TIME_SPEC = {
    "name": "a-2000",
    "scopes": {
        "urls": ["http://a.de/"],
        "time": {"from": "20000101000000", "to": "20001231235959"},
    },
}


# index ---------------------------------------------------------------------


def test_index_line_count(workspace):
    with open(workspace["index"]) as f:
        lines = f.read().splitlines()
    assert lines[0] == "SUBCOLLECT-CDX 1"
    assert len(lines) == 1 + 4


def test_index_no_inputs_is_validation_error(tmp_path):
    assert main(["index", "--output", str(tmp_path / "idx")]) == 1


def test_index_rerun_byte_identical(workspace, tmp_path):
    second = tmp_path / "index2.cdx"
    assert main(["index", workspace["warc"], "--output", str(second)]) == 0
    with open(workspace["index"], "rb") as f1, open(str(second), "rb") as f2:
        assert f1.read() == f2.read()


def test_index_reports_passed_over_records_after_the_counts(tmp_path, capsys):
    date = iso_of("20000101120000")
    blobs = [
        warcwriter.make_record("warcinfo", None, date, b"software: x"),
        warcwriter.make_response_record("http://a.de/", date, page("a")),
        warcwriter.make_record("revisit", "http://a.de/", date, b""),
        warcwriter.make_record("revisit", "http://a.de/", date, b""),
        warcwriter.make_record("x-custom", "http://a.de/", date, b""),
    ]
    path = tmp_path / "kinds.warc"
    warcwriter.write_warc(str(path), blobs)
    assert main(["index", str(path), "--output", str(tmp_path / "idx")]) == 0
    assert capsys.readouterr().err == (
        "indexed records=5 responses=1 skipped=0 bytes=%d warcinfo=1 revisit=2 other=1\n"
        % path.stat().st_size
    )


def test_index_unreadable_input_is_io_error(tmp_path):
    assert main(["index", str(tmp_path / "missing.warc"), "--output", str(tmp_path / "i")]) == 2


def test_index_whole_file_gzip_is_io_error(tmp_path):
    blobs = [
        warcwriter.make_response_record("http://a.de/%d" % i, iso_of("20000101120000"), page("p"))
        for i in range(5)
    ]
    path = tmp_path / "whole.warc.gz"
    path.write_bytes(gzip.compress(b"".join(blobs)))
    index_path = tmp_path / "idx"
    assert main(["index", str(path), "--output", str(index_path)]) == 2
    assert not index_path.exists()


def _warc_copy(ws, directory):
    """The workspace WARC copied into ``directory`` under its own base name."""
    folder = ws["tmp"] / directory
    folder.mkdir(exist_ok=True)
    copy = folder / "f.warc"
    copy.write_bytes(pathlib.Path(ws["warc"]).read_bytes())
    return str(copy)


@pytest.mark.parametrize("twice", [False, True])
def test_index_refuses_two_warcs_with_one_base_name(workspace, capsys, twice):
    # The file id is the base name, so an archive directory could serve
    # only one of the two files.
    first = workspace["warc"]
    second = first if twice else _warc_copy(workspace, "other")
    index_path = workspace["tmp"] / "dup.cdx"
    assert main(["index", first, second, "--output", str(index_path)]) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and err == errors[0] + "\n"
    assert first in errors[0] and second in errors[0] and "'f.warc'" in errors[0]
    assert not index_path.exists()


# extract -------------------------------------------------------------------


def run_extract(workspace, spec_doc, out_name="manifest", extra=()):
    spec_path = write_spec(workspace["tmp"], spec_doc)
    out = workspace["tmp"] / out_name
    code = main(
        [
            "extract",
            "--spec",
            spec_path,
            "--index",
            workspace["index"],
            "--archive-dir",
            workspace["archive_dir"],
            "--output",
            str(out),
            *extra,
        ]
    )
    return code, out


def test_extract_url_time(workspace, capsys):
    code, out = run_extract(workspace, URL_TIME_SPEC)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "SUBCOLLECT-MANIFEST 1"
    member_lines = lines[2:]
    assert len(member_lines) == 1
    assert member_lines[0].startswith("http://a.de/ 20000101120000 ")
    counters = dict(
        l.split("=") for l in capsys.readouterr().out.strip().splitlines()
    )
    assert counters["candidates_scanned"] == "1"
    assert counters["fetches"] == "1"


def test_extract_empty_result_code_3(workspace):
    spec = {"name": "none", "scopes": {"urls": ["http://zzz.de/"]}}
    code, out = run_extract(workspace, spec)
    assert code == 3
    assert len(out.read_text().splitlines()) == 2  # header + digest only


def test_extract_invalid_spec_code_1(workspace):
    code, _ = run_extract(workspace, {"name": "bad", "scopes": {}})
    assert code == 1


def test_extract_counts_non_ascii_content_length_as_one_error(workspace, capsys):
    entry = ArchiveIndex.load(workspace["index"]).lookup_nearest("http://b.de/", "20000601120000")
    damage_warc(workspace["tmp"] / "archive" / "f.warc", entry, "content-length")
    code, _ = run_extract(workspace, {"name": "all", "scopes": {"domains": ["de"]}})
    counters = dict(l.split("=") for l in capsys.readouterr().out.split())
    assert (code, counters["errors"], counters["members"]) == (0, "1", "3")


@pytest.mark.parametrize("command", ["extract", "stats"])
@pytest.mark.parametrize("charset", ["undefined", "idna", "punycode"])
def test_undecodable_meta_charset_is_an_unknown_charset(workspace, capsys, command, charset):
    # Python knows these codecs, yet each raises UnicodeError on this body
    # even with errors="replace".
    body = ('<meta charset="%s"><p>web archive école</p>' % charset).encode("latin-1")
    extra = pathlib.Path(workspace["archive_dir"]) / "g.warc"
    warcwriter.write_warc(
        str(extra), [warcwriter.make_response_record("http://c.de/", iso_of("20000701120000"), body)]
    )
    assert main(["index", workspace["warc"], str(extra), "--output", workspace["index"]]) == 0
    capsys.readouterr()
    if command == "extract":
        code, _ = run_extract(workspace, {"name": "all", "scopes": {"domains": ["de"]}})
        printed = capsys.readouterr().out
    else:
        code = main(["stats", "--index", workspace["index"], "--archive-dir",
                     workspace["archive_dir"], "--output", str(workspace["tmp"] / "s.csv")])
        printed = capsys.readouterr().err
    assert code == 0
    counters = dict(l.split("=") for l in printed.split())
    if command == "extract":
        assert (counters["errors"], counters["members"]) == ("0", "5")
    else:
        assert counters["sampled_pages"] == "5"


def test_extract_deterministic_bytes(workspace):
    spec = {
        "name": "d",
        "scopes": {"domains": ["de"]},
        "link_mode": "connected",
        "seed": 5,
    }
    _, out1 = run_extract(workspace, spec, "m1")
    _, out2 = run_extract(workspace, spec, "m2")
    _, out3 = run_extract(workspace, spec, "m3")
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()


def test_extract_export_warc(workspace):
    export = workspace["tmp"] / "export.warc"
    code, _ = run_extract(
        workspace, URL_TIME_SPEC, "m-exp", extra=["--export-warc", str(export)]
    )
    assert code == 0
    data = export.read_bytes()
    assert data.startswith(b"WARC/1.0\r\n")
    assert b"WARC-Target-URI: http://a.de/" in data


# evaluate ------------------------------------------------------------------


def test_evaluate_manifest_equals_truth(workspace, capsys):
    code, manifest = run_extract(workspace, URL_TIME_SPEC)
    assert code == 0
    capsys.readouterr()
    truth = workspace["tmp"] / "truth"
    truth.write_text("SUBCOLLECT-TRUTH 1\nhttp://a.de/ 20000101120000\n")
    csv_out = workspace["tmp"] / "report.csv"
    code = main(
        [
            "evaluate",
            str(manifest),
            "--index",
            workspace["index"],
            "--archive-dir",
            workspace["archive_dir"],
            "--truth",
            str(truth),
            "--output",
            str(csv_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    keys = dict(l.split("=", 1) for l in out.strip().splitlines())
    assert float(keys["precision"]) == 1.0
    assert float(keys["recall"]) == 1.0
    assert csv_out.read_text().startswith("metric,facet,value")


def test_evaluate_without_truth_lacks_precision(workspace, capsys):
    code, manifest = run_extract(workspace, URL_TIME_SPEC)
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            str(manifest),
            "--index",
            workspace["index"],
            "--archive-dir",
            workspace["archive_dir"],
        ]
    )
    assert code == 0
    keys = [l.split("=", 1)[0] for l in capsys.readouterr().out.strip().splitlines()]
    assert "precision" not in keys
    assert "recall" not in keys


def evaluate_with_truth(workspace, capsys, truth_text):
    """(exit code, stdout keys, stderr, CSV path) of `evaluate --truth`
    over the URL_TIME_SPEC manifest, whose one member is
    http://a.de/ 20000101120000."""
    manifest = _manifest(workspace)
    capsys.readouterr()
    truth = workspace["tmp"] / "truth"
    truth.write_text(truth_text)
    csv_out = workspace["tmp"] / "report.csv"
    code = main([
        "evaluate", manifest, "--index", workspace["index"],
        "--archive-dir", workspace["archive_dir"], "--truth", str(truth),
        "--output", str(csv_out),
    ])
    out, err = capsys.readouterr()
    keys = dict(l.split("=", 1) for l in out.splitlines())
    return code, keys, err, csv_out


def test_evaluate_canonicalizes_truth_urls(workspace, capsys):
    code, keys, _, _ = evaluate_with_truth(
        workspace, capsys, "SUBCOLLECT-TRUTH 1\nhttp://A.DE:80/#frag 20000101120000\n"
    )
    assert code == 0
    assert float(keys["precision"]) == float(keys["recall"]) == 1.0


# tests/test_evaluation.py checks every kind of bad line; here, that one
# ends `evaluate` with exit 2 even when it is a bad URL, whose own error
# class gives exit 1.
@pytest.mark.parametrize("line", [
    "http://a.de/ 2000",  # a timestamp of 4 digits
    "http://[::1/ 20000101120000",  # a URL that cannot be canonicalized
])
def test_evaluate_malformed_truth_line_code_2_and_no_csv(workspace, capsys, line):
    code, keys, err, csv_out = evaluate_with_truth(
        workspace, capsys, "SUBCOLLECT-TRUTH 1\nhttp://a.de/ 20000101120000\n%s\n" % line
    )
    assert code == 2
    assert keys == {}
    assert err.startswith("error: %s:3: " % (workspace["tmp"] / "truth")), err
    assert not csv_out.exists()


def test_evaluate_unresolvable_member_code_2(workspace):
    bogus = workspace["tmp"] / "bogus.manifest"
    bogus.write_text(
        "SUBCOLLECT-MANIFEST 1\nspec-digest 00\nhttp://zzz.de/ 20000101120000 ab scan\n"
    )
    code = main(
        [
            "evaluate",
            str(bogus),
            "--index",
            workspace["index"],
            "--archive-dir",
            workspace["archive_dir"],
        ]
    )
    assert code == 2


def test_evaluate_spec_scopes_link_completeness(tmp_path, capsys):
    # http://a.de/ links to two captured pages; only http://a.de/x lies in
    # the spec's domain scope, and only it is a member.
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    captures = [
        ("http://a.de/", page("a", links=["/x", "http://b.de/"])),
        ("http://a.de/x", page("ax")),
        ("http://b.de/", page("b")),
    ]
    warc_path = archive_dir / "f.warc"
    warcwriter.write_warc(str(warc_path), [
        warcwriter.make_response_record(u, iso_of("20000101120000"), b) for u, b in captures
    ])
    index = str(tmp_path / "index.cdx")
    assert main(["index", str(warc_path), "--output", index]) == 0
    spec = write_spec(tmp_path, {"name": "a", "scopes": {"domains": ["a.de"]}})
    manifest = str(tmp_path / "m")
    assert main(["extract", "--spec", spec, "--index", index, "--archive-dir",
                 str(archive_dir), "--output", manifest]) == 0
    lc_mean = {}
    for extra in ((), ("--spec", spec)):
        capsys.readouterr()
        assert main(["evaluate", manifest, "--index", index, "--archive-dir",
                     str(archive_dir), *extra]) == 0
        keys = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
        lc_mean[extra] = keys["lc_mean"]
    assert lc_mean == {(): "0.5", ("--spec", spec): "1"}


# stats ---------------------------------------------------------------------


def test_stats_deterministic_csv(workspace):
    out1 = workspace["tmp"] / "s1.csv"
    out2 = workspace["tmp"] / "s2.csv"
    for out in (out1, out2):
        code = main(
            [
                "stats",
                "--index",
                workspace["index"],
                "--archive-dir",
                workspace["archive_dir"],
                "--sample-n",
                "3",
                "--seed",
                "11",
                "--output",
                str(out),
            ]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (workspace["tmp"] / "s1_long.csv").exists()


def test_stats_n_larger_than_archive(workspace, capsys):
    out = workspace["tmp"] / "s.csv"
    code = main(
        [
            "stats",
            "--index",
            workspace["index"],
            "--archive-dir",
            workspace["archive_dir"],
            "--sample-n",
            "1000",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert "sampled_pages=4" in capsys.readouterr().err


# get -----------------------------------------------------------------------


def get_args(workspace, url, at):
    return [
        "get",
        "--index",
        workspace["index"],
        "--archive-dir",
        workspace["archive_dir"],
        "--url",
        url,
        "--at",
        at,
    ]


def test_get_exact_hit(workspace, capsys):
    code = main(get_args(workspace, "http://b.de/", "20000601120000"))
    assert code == 0
    captured = capsys.readouterr()
    assert "http://b.de/ 20000601120000" in captured.err


def test_get_between_captures_picks_nearer(workspace, capsys):
    code = main(get_args(workspace, "http://a.de/", "20001220000000"))
    assert code == 0
    assert "http://a.de/ 20010101120000" in capsys.readouterr().err


def test_get_unknown_url_code_3(workspace):
    assert main(get_args(workspace, "http://nope.de/", "20000101000000")) == 3


def test_get_bad_timestamp_code_1(workspace):
    assert main(get_args(workspace, "http://a.de/", "not-a-time")) == 1


@pytest.mark.parametrize("at", ["٢٠٠٠0601000000", "２０００0601000000", "20000631000000"])
def test_get_rejects_non_ascii_digits_and_impossible_dates(workspace, capsys, at):
    # Non-ASCII digits used to pass the check and then compare as text,
    # after every ASCII timestamp, so the latest capture came back.
    assert main(get_args(workspace, "http://a.de/", at)) == 1
    assert "--at must be a valid 14-digit UTC timestamp" in capsys.readouterr().err


# get reads only its URL's lines ------------------------------------------------


@pytest.fixture
def five_urls(tmp_path):
    """An archive of 5 URLs x 3 captures, indexed, and a manifest of all of it."""
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    warc_path = archive_dir / "f.warc"
    warcwriter.write_warc(str(warc_path), [
        warcwriter.make_response_record("http://h%d.de/p" % h, iso_of("200%d0101120000" % y),
                                        page("h%d-%d" % (h, y), links=["http://h0.de/p"]))
        for h in range(5) for y in range(3)
    ])
    ws = {"tmp": tmp_path, "archive_dir": str(archive_dir), "index": str(tmp_path / "index.cdx")}
    assert main(["index", str(warc_path), "--output", ws["index"]]) == 0
    ws["spec"] = write_spec(tmp_path, {"name": "all", "scopes": {"domains": ["de"]}})
    ws["manifest"] = str(tmp_path / "all.manifest")
    assert main(["extract", "--spec", ws["spec"], "--index", ws["index"],
                 "--archive-dir", ws["archive_dir"], "--output", ws["manifest"]]) == 0
    return ws


def _garbage(kind, run):
    """One URL's run of index lines made garbage of ``kind``."""
    if kind == "fields":
        return [line.split(" ")[0] + " 2000 only-three" for line in run]
    if kind == "utf8":  # "\\udcff" is written as the byte 0xff
        return [line.replace(" text/html ", " text/\udcffhtml ") for line in run]
    return run[::-1]  # "order": latest capture first


def _index_damaged_but(ws, kind, url):
    """A copy of the index in which every line of a URL other than ``url``
    is garbage of ``kind``."""
    lines = pathlib.Path(ws["index"]).read_text().splitlines()
    runs = {}
    for line in lines[1:]:
        runs.setdefault(line.split(" ")[0], []).append(line)
    out = lines[:1]
    for key, run in runs.items():
        out += run if key == url else _garbage(kind, run)
    path = ws["tmp"] / "damaged.cdx"
    path.write_bytes("\n".join(out + [""]).encode("utf-8", "surrogateescape"))
    return str(path)


def _run(capsysbinary, args):
    capsysbinary.readouterr()
    code = main(args)
    out, err = capsysbinary.readouterr()
    return code, out, err


@pytest.mark.parametrize("kind", ["fields", "utf8", "order"])
def test_get_reads_only_its_urls_lines(five_urls, capsysbinary, kind):
    ws = five_urls
    for url in ("http://h0.de/p", "http://h2.de/p", "http://h4.de/p", "http://h9.de/p"):
        damaged = _index_damaged_but(ws, kind, url)
        for at in ("19990101000000", "20010601000000", "20300101000000"):
            query = ["--archive-dir", ws["archive_dir"], "--url", url, "--at", at]
            want = _run(capsysbinary, ["get", "--index", ws["index"]] + query)
            assert want[0] == (3 if url == "http://h9.de/p" else 0)
            assert _run(capsysbinary, ["get", "--index", damaged] + query) == want

    # The commands that iterate the whole index fail on the first garbage
    # line, the first of http://h0.de/p (line 2), or, out of order, the next.
    damaged = _index_damaged_but(ws, kind, "http://h2.de/p")
    expected = {
        "fields": "%s:2: expected 8 fields, got 3" % damaged,
        "utf8": "%s:2: 'utf-8' codec can't decode byte 0xff" % damaged,
        "order": "%s:3: entry out of order" % damaged,
    }[kind]
    common = ["--index", damaged, "--archive-dir", ws["archive_dir"]]
    for args in (
        ["extract", "--spec", ws["spec"], "--output", str(ws["tmp"] / "m")] + common,
        ["evaluate", ws["manifest"]] + common,
        ["stats", "--sample-n", "2", "--output", str(ws["tmp"] / "s.csv")] + common,
    ):
        code, out, err = _run(capsysbinary, args)
        assert (code, out) == (2, b"")
        assert err.decode().startswith("error: " + expected), err


def test_get_names_a_damaged_line_of_its_url(five_urls, capsys):
    ws = five_urls
    lines = pathlib.Path(ws["index"]).read_text().splitlines()
    lines[5] = "http://h1.de/p 2000 only-three"  # the second capture of h1
    path = ws["tmp"] / "edited.cdx"
    path.write_text("\n".join(lines) + "\n")
    args = ["get", "--index", str(path), "--archive-dir", ws["archive_dir"],
            "--url", "http://h1.de/p", "--at", "20000101120000"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: %s:6: expected 8 fields, got 3\n" % path
    args[6] = "http://h0.de/p"
    assert main(args) == 0


def test_evaluate_csv_independent_of_hash_seed(tmp_path):
    # Many hosts with uneven shares, so a hash-ordered float sum would
    # differ in its last digits between interpreter processes.
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    captures = [
        ("http://h%02d.de/p%d" % (h, k), "20%02d0101120000" % (k % 10), page("p"))
        for h in range(40)
        for k in range(1 + h % 7)
    ]
    warc_path = archive_dir / "f.warc"
    warcwriter.write_warc(
        str(warc_path), [warcwriter.make_response_record(u, iso_of(t), b) for u, t, b in captures]
    )
    index = tmp_path / "index.cdx"
    assert main(["index", str(warc_path), "--output", str(index)]) == 0
    manifest = tmp_path / "m"
    lines = ["SUBCOLLECT-MANIFEST 1", "spec-digest x"]
    with open(index) as f:
        rows = [line.split(" ") for line in f.read().splitlines()[1:]]
    lines += ["%s %s %s scan" % (r[0], r[1], r[4]) for r in rows[::3]]
    manifest.write_text("\n".join(lines) + "\n")

    src = os.path.dirname(os.path.dirname(subcollect.__file__))
    outputs = []
    for seed in ("1", "2", "3"):
        csv_out = tmp_path / ("report%s.csv" % seed)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        argv = [sys.executable, "-m", "subcollect.cli", "evaluate", str(manifest),
                "--index", str(index), "--archive-dir", str(archive_dir),
                "--output", str(csv_out)]
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        outputs.append(csv_out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# exit codes ----------------------------------------------------------------


def run_cli(args):
    """The real entry point in a fresh interpreter: (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(subcollect.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "subcollect.cli", *args]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    return done.returncode, done.stderr


def _extract_args(ws, spec, output, *extra):
    return ["extract", "--spec", spec, "--index", ws["index"],
            "--archive-dir", ws["archive_dir"], "--output", output, *extra]


def _manifest(ws):
    path = str(ws["tmp"] / "good.manifest")
    assert main(_extract_args(ws, write_spec(ws["tmp"], URL_TIME_SPEC), path)) == 0
    return path


def _bogus_manifest(ws, url):
    path = ws["tmp"] / "bogus.manifest"
    path.write_text("SUBCOLLECT-MANIFEST 1\nspec-digest 00\n%s 20000101120000 ab scan\n" % url)
    return str(path)


def _damaged_member_manifest(ws):
    """A manifest of every capture; its member http://b.de/, the WARC's
    last record, is damaged after extract wrote it."""
    path = str(ws["tmp"] / "all.manifest")
    spec = write_spec(ws["tmp"], {"name": "all", "scopes": {"domains": ["de"]}})
    assert main(_extract_args(ws, spec, path)) == 0
    entry = ArchiveIndex.load(ws["index"]).lookup_nearest("http://b.de/", "20000601120000")
    damage_warc(ws["tmp"] / "archive" / "f.warc", entry, "digest")
    return path


def _corrupt_index(ws):
    path = ws["tmp"] / "corrupt.cdx"
    path.write_text("SUBCOLLECT-CDX 1\nhttp://a.de/ 2000 only-three-fields\n")
    return str(path)


def _directory(ws, name):
    """An existing directory where a command expects to write a file."""
    path = ws["tmp"] / name
    path.mkdir()
    return str(path)


def _get(ws, url, at):
    return ["get", "--index", ws["index"], "--archive-dir", ws["archive_dir"],
            "--url", url, "--at", at]


def _damaged_get(ws, kind):
    """A get of the WARC's last record, damaged after indexing."""
    entry = ArchiveIndex.load(ws["index"]).lookup_nearest("http://b.de/", "20000601120000")
    damage_warc(ws["tmp"] / "archive" / "f.warc", entry, kind)
    return _get(ws, "http://b.de/", "20000601120000")


def _edited_index(ws, **fields):
    """An index whose entry of http://b.de/, on line 5, has ``fields``."""
    index = ArchiveIndex.load(ws["index"])
    entry = index.lookup_nearest("http://b.de/", "20000601120000")
    lines = [" ".join(e.fields()) for e in index]
    lines[index.entries.index(entry)] = " ".join(entry._replace(**fields).fields())
    path = ws["tmp"] / "edited.cdx"
    path.write_text("SUBCOLLECT-CDX 1\n%s\n" % "\n".join(lines))
    return str(path)


def _get_with_edited_entry(ws, **fields):
    """A get of http://b.de/ through an index whose entry has ``fields``."""
    return ["get", "--index", _edited_index(ws, **fields), "--archive-dir", ws["archive_dir"],
            "--url", "http://b.de/", "--at", "20000601120000"]


def _stats_args(ws, output, index=None):
    return ["stats", "--index", index or ws["index"], "--archive-dir", ws["archive_dir"],
            "--sample-n", "2", "--output", output]


def _get_blank_digest(ws):
    """A get of http://b.de/, damaged after indexing, through an index
    whose entry for it has a blank digest."""
    _damaged_get(ws, "digest")
    return _get_with_edited_entry(ws, digest="")


def _get_from_outside(ws):
    """A get of http://b.de/ through an index whose file id leads out of
    the archive directory, to a copy of its WARC."""
    _warc_copy(ws, "other")
    return _get_with_edited_entry(ws, file_id="../other/f.warc")


# (row id, argv builder, exit code, text the message must contain)
EXIT_ROWS = [
    ("bad-spec", lambda ws: _extract_args(
        ws, write_spec(ws["tmp"], {"name": "bad", "scopes": {}}), str(ws["tmp"] / "m")), 1,
     "scopes"),
    ("keyword-without-term", lambda ws: _extract_args(
        ws, write_spec(ws["tmp"], {"name": "k", "scopes": {"keywords": ["!!!"]},
                                   "relevance": {"threshold": 0.1}}),
        str(ws["tmp"] / "m")), 1, "scopes.keywords[0]"),
    ("entity-alias-not-string", lambda ws: _extract_args(
        ws, write_spec(ws["tmp"], {"name": "e", "scopes": {"entities": [
            {"id": "e", "label": "L", "aliases": [5]}]}}),
        str(ws["tmp"] / "m")), 1, "scopes.entities[0].aliases[0]"),
    ("missing-spec", lambda ws: _extract_args(
        ws, str(ws["tmp"] / "nospec.json"), str(ws["tmp"] / "m")), 2, "nospec.json"),
    ("corrupt-index", lambda ws: ["evaluate", _manifest(ws), "--index", _corrupt_index(ws),
                                  "--archive-dir", ws["archive_dir"]], 2, "corrupt.cdx:2"),
    ("member-not-in-index", lambda ws: ["evaluate", _bogus_manifest(ws, "http://zzz.de/"), "--index",
                                        ws["index"], "--archive-dir", ws["archive_dir"]], 2,
     "bogus.manifest:3: manifest member not in index: http://zzz.de/ 20000101120000"),
    ("manifest-bad-url", lambda ws: ["evaluate", _bogus_manifest(ws, "http://[bad/"), "--index",
                                     ws["index"], "--archive-dir", ws["archive_dir"]], 2,
     "bogus.manifest:3: 'http://[bad/': Invalid IPv6 URL"),
    ("evaluate-damaged-member", lambda ws: ["evaluate", _damaged_member_manifest(ws), "--index",
                                            ws["index"], "--archive-dir", ws["archive_dir"]], 2,
     "digest mismatch for http://b.de/@20000601120000"),
    ("bad-at", lambda ws: _get(ws, "http://a.de/", "2000-01-01"), 1, "--at"),
    ("bad-url", lambda ws: _get(ws, "http://[::1/", "20000101000000"), 1,
     "'http://[::1/': Invalid IPv6 URL"),
    ("absent-url", lambda ws: _get(ws, "http://nope.de/", "20000101000000"), 3, None),
    # --url is canonicalized before the index is opened (this was exit 2).
    ("bad-url-missing-index", lambda ws: ["get", "--index", str(ws["tmp"] / "none.cdx"),
                                          "--archive-dir", ws["archive_dir"], "--url",
                                          "http://[::1/", "--at", "20000101000000"], 1,
     "'http://[::1/': Invalid IPv6 URL"),
    ("get-missing-warc", lambda ws: _damaged_get(ws, "missing"), 2, "f.warc"),
    ("get-truncated-warc", lambda ws: _damaged_get(ws, "truncated"), 2, "exceeds size of"),
    ("get-oversized-length", lambda ws: _get_with_edited_entry(ws, length=10**12), 2,
     "+1000000000000 exceeds size of"),
    ("get-length-past-int64", lambda ws: _get_with_edited_entry(ws, length=2**64), 2,
     "exceeds size of"),
    ("get-negative-offset", lambda ws: _get_with_edited_entry(ws, offset=-5), 2,
     "offset and length must not be negative"),
    ("get-damaged-header", lambda ws: _damaged_get(ws, "header"), 2, "malformed header line"),
    ("get-digest-mismatch", lambda ws: _damaged_get(ws, "digest"), 2,
     "digest mismatch for http://b.de/@20000601120000"),
    ("get-blank-digest", _get_blank_digest, 2,
     "digest mismatch for http://b.de/@20000601120000"),
    ("index-output", lambda ws: ["index", ws["warc"], "--output", _directory(ws, "idx")], 2,
     "idx"),
    ("index-same-base-name", lambda ws: ["index", ws["warc"], _warc_copy(ws, "other"),
                                         "--output", str(ws["tmp"] / "dup.cdx")], 1,
     "other/f.warc"),
    ("get-file-id-outside-archive-dir", _get_from_outside, 2, "edited.cdx:"),
    ("extract-output", lambda ws: _extract_args(
        ws, write_spec(ws["tmp"], URL_TIME_SPEC), _directory(ws, "man")), 2, "man"),
    ("export-warc", lambda ws: _extract_args(
        ws, write_spec(ws["tmp"], URL_TIME_SPEC), str(ws["tmp"] / "m"),
        "--export-warc", _directory(ws, "exp.warc")), 2, "exp.warc"),
    ("evaluate-output", lambda ws: ["evaluate", _manifest(ws), "--index", ws["index"],
                                    "--archive-dir", ws["archive_dir"],
                                    "--output", _directory(ws, "rep.csv")], 2, "rep.csv"),
    ("stats-output", lambda ws: _stats_args(ws, _directory(ws, "st.csv")), 2, "st.csv"),
    # An index timestamp was not checked: get ended without PATH:N, and
    # stats exited 0 and counted the capture under the year 2000.
    ("get-short-timestamp", lambda ws: _get_with_edited_entry(ws, timestamp14="2000"), 2,
     "edited.cdx:5: bad timestamp14: '2000'"),
    ("get-month-13", lambda ws: _get_with_edited_entry(ws, timestamp14="20001301000000"), 2,
     "edited.cdx:5: bad timestamp14: '20001301000000'"),
    ("stats-short-timestamp", lambda ws: _stats_args(
        ws, str(ws["tmp"] / "st.csv"), _edited_index(ws, timestamp14="2000")), 2,
     "edited.cdx:5: bad timestamp14: '2000'"),
    ("stats-month-13", lambda ws: _stats_args(
        ws, str(ws["tmp"] / "st.csv"), _edited_index(ws, timestamp14="20001301000000")), 2,
     "edited.cdx:5: bad timestamp14: '20001301000000'"),
    ("stats-url-not-canonical", lambda ws: _stats_args(
        ws, str(ws["tmp"] / "st.csv"), _edited_index(ws, canonical_url="http://b.de:80/")), 2,
     "edited.cdx:5: URL not in canonical form: 'http://b.de:80/'"),
    # A JSON boolean was read as the number 1 or 0.
    *[("spec-%s-true" % name, lambda ws, doc=doc: _extract_args(
        ws, write_spec(ws["tmp"], doc), str(ws["tmp"] / "m")), 1, message)
      for name, doc, message in [
          ("size", {"scopes": {"size": True}}, "scopes.size: must be a positive integer"),
          ("seed", {"scopes": {"size": 1}, "seed": True}, "seed: must be a 64-bit unsigned integer"),
          ("max-depth", {"scopes": {"size": 1}, "closure": {"max_depth": True}},
           "closure.max_depth: must be a positive integer"),
          ("threshold", {"scopes": {"keywords": ["web"]}, "relevance": {"threshold": True}},
           "relevance.threshold: must be a number in [0, 1]"),
      ]],
    # A JSON null was read as the field's absence.
    *[("spec-%s-null" % name, lambda ws, doc=doc: _extract_args(
        ws, write_spec(ws["tmp"], doc), str(ws["tmp"] / "m")), 1, message)
      for name, doc, message in [
          ("max-depth", {"scopes": {"size": 1}, "closure": {"max_depth": None}},
           "closure.max_depth: must be a positive integer"),
          ("threshold", {"scopes": {"size": 1}, "relevance": {"threshold": None}},
           "relevance.threshold: must be a number in [0, 1]"),
      ]],
]


@pytest.mark.parametrize(
    "build, code, names", [row[1:] for row in EXIT_ROWS], ids=[row[0] for row in EXIT_ROWS]
)
def test_exit_code_table(workspace, build, code, names):
    got, err = run_cli(build(workspace))
    assert got == code, err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if code == 3:
        assert errors == [] and err.startswith("not found: ")
    else:
        assert len(errors) == 1, err
    if names is not None:
        assert names in errors[0]
    # A failed write leaves no temporary file beside its target.
    assert not [p for p in os.listdir(workspace["tmp"]) if p.endswith(".tmp")]


def test_stats_writes_both_csvs_or_neither(workspace):
    # The wide CSV was renamed into place before the long one was written.
    wide = workspace["tmp"] / "s.csv"
    _directory(workspace, "s_long.csv")
    got, err = run_cli(_stats_args(workspace, str(wide)))
    assert got == 2 and "s_long.csv" in err
    assert sorted(os.listdir(workspace["tmp"])) == ["archive", "index.cdx", "s_long.csv"]


def test_a_content_type_that_is_no_media_type_is_indexed_as_no_mime(tmp_path, capsys):
    # index kept the mime "text/html charset=utf-8" and wrote a line of 9
    # fields, which every later command rejected with exit 2.
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    warc_path = archive_dir / "f.warc"
    warcwriter.write_warc(str(warc_path), [
        warcwriter.make_response_record("http://a.de/", iso_of("20000101120000"), page("a"),
                                        content_type="text/html charset=utf-8"),
    ])
    index = str(tmp_path / "index.cdx")
    assert main(["index", str(warc_path), "--output", index]) == 0
    assert " - 200 " in pathlib.Path(index).read_text().splitlines()[1]
    ws = {"tmp": tmp_path, "index": index, "archive_dir": str(archive_dir)}
    manifest = str(tmp_path / "m")
    spec = write_spec(tmp_path, {"name": "a", "scopes": {"domains": ["a.de"]}})
    assert main(_extract_args(ws, spec, manifest)) == 0
    assert main(_evaluate_args(ws, index, manifest)) == 0
    assert main(_stats_args(ws, str(tmp_path / "s.csv"))) == 0
    assert main(_get(ws, "http://a.de/", "20000101120000")) == 0
    assert "error" not in capsys.readouterr().err


# The exit code that README gives each error class that src raises: 1 for a
# validation error, 3 for an empty result, 2 for any other I/O or data error.
README_EXIT_CODES = {"SpecError": 1, "CanonicalizationError": 1, "SnapshotNotFound": 3}


def _raised_classes(paths):
    """The class of each ``raise X(...)`` in the modules ``paths``, as
    ``X`` resolves in its module: {class: "file:line"}."""
    found = {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        module = "subcollect" if name == "__init__" else "subcollect." + name
        namespace = vars(importlib.import_module(module))
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                cls = namespace.get(node.exc.func.id) or getattr(builtins, node.exc.func.id)
                found.setdefault(cls, "%s:%d" % (os.path.basename(path), node.lineno))
    return found


def _exit_code_faults(classes):
    """Each class whose exit code, by the nearest class of its MRO in
    ``EXIT_CODES``, is missing or not the one README gives."""
    faults = []
    for cls in classes:
        code = next((EXIT_CODES[c] for c in cls.__mro__ if c in EXIT_CODES), None)
        if code != README_EXIT_CODES.get(cls.__name__, 2):
            faults.append("%s gives exit %s" % (cls.__name__, code))
    return faults


def test_every_raised_class_has_its_readme_exit_code():
    src = os.path.dirname(subcollect.__file__)
    raised = _raised_classes(sorted(glob.glob(os.path.join(src, "*.py"))))
    assert {SpecError, CanonicalizationError, CorruptSnapshotError, ValueError} <= set(raised)
    assert _exit_code_faults(raised) == [], raised


def test_exit_code_faults_catch_what_they_name():
    class Unmapped(LookupError):
        pass

    class SnapshotNotFound(ValueError):  # README gives 3, the MRO gives 2
        pass

    assert _exit_code_faults([Unmapped, SnapshotNotFound, KeyError, SpecError]) == [
        "Unmapped gives exit None", "SnapshotNotFound gives exit 2", "KeyError gives exit None",
    ]


def test_failed_export_leaves_no_partial_warc(workspace, monkeypatch):
    spec = write_spec(workspace["tmp"], {"name": "all", "scopes": {"domains": ["de"]}})
    export = workspace["tmp"] / "export.warc"
    served = []

    def raw_record(self, ref):
        if served:
            raise OSError("disk gone")
        served.append(ref)
        with open(os.path.join(self.directory, ref.file_id), "rb") as f:
            f.seek(ref.offset)
            return f.read(ref.length)

    monkeypatch.setattr(subcollect.store.Archive, "raw_record", raw_record)
    args = _extract_args(workspace, spec, str(workspace["tmp"] / "m"),
                         "--export-warc", str(export))
    assert main(args) == 2
    assert served  # one record was written before the failure
    assert not export.exists()
    assert not [p for p in os.listdir(workspace["tmp"]) if p.endswith(".tmp")]


def test_failed_export_writes_no_manifest(workspace):
    spec = write_spec(workspace["tmp"], URL_TIME_SPEC)
    fresh = workspace["tmp"] / "fresh.manifest"
    kept = workspace["tmp"] / "kept.manifest"
    kept.write_text("earlier run\n")
    export = str(workspace["tmp"] / "missing" / "export.warc")
    for manifest in (fresh, kept):
        assert main(_extract_args(workspace, spec, str(manifest), "--export-warc", export)) == 2
    assert not fresh.exists()
    assert kept.read_text() == "earlier run\n"
    assert not [p for p in os.listdir(workspace["tmp"]) if p.endswith(".tmp")]


def test_failed_long_csv_leaves_no_partial_file(workspace, capsys):
    out = workspace["tmp"] / "s.csv"
    (workspace["tmp"] / "s_long.csv").mkdir()
    args = ["stats", "--index", workspace["index"], "--archive-dir",
            workspace["archive_dir"], "--sample-n", "2", "--output", str(out)]
    assert main(args) == 2
    assert "s_long.csv" in capsys.readouterr().err
    assert (workspace["tmp"] / "s_long.csv").is_dir()
    assert not [p for p in os.listdir(workspace["tmp"]) if p.endswith(".tmp")]


# line files ----------------------------------------------------------------

# (id, file, its text, line number, message): for each line file a wrong
# header, a wrong field count and a value that fails; every row after the
# header comes after a blank line, which is skipped.
LINE_FILE_ROWS = [
    ("index-header", "index", "SUBCOLLECT-CDX 2\n", 1, "not a SUBCOLLECT-CDX 1 file"),
    ("index-fields", "index", "SUBCOLLECT-CDX 1\n\nhttp://a.de/ 2000 only-three-fields\n", 3,
     "expected 8 fields, got 3"),
    ("index-offset", "index",
     "SUBCOLLECT-CDX 1\n\nhttp://a.de/ 20000101120000 text/html 200 d f.warc -5 1\n", 3,
     "offset and length must not be negative"),
    ("manifest-header", "manifest", "SUBCOLLECT-MANIFEST 2\nspec-digest 00\n", 1,
     "not a SUBCOLLECT-MANIFEST 1 file"),
    ("manifest-spec-digest", "manifest", "SUBCOLLECT-MANIFEST 1\n\n", 2, "missing spec-digest line"),
    ("manifest-fields", "manifest",
     "SUBCOLLECT-MANIFEST 1\nspec-digest 00\n\nhttp://a.de/ 20000101120000 ab\n", 4,
     "expected 4 fields, got 3"),
    ("manifest-url", "manifest",
     "SUBCOLLECT-MANIFEST 1\nspec-digest 00\n\nhttp://[bad/ 20000101120000 ab scan\n", 4,
     "'http://[bad/': Invalid IPv6 URL"),
    ("truth-header", "truth", "SUBCOLLECT-TRUTH 2\n", 1, "not a SUBCOLLECT-TRUTH 1 file"),
    ("truth-fields", "truth", "SUBCOLLECT-TRUTH 1\n\nhttp://a.de/\n", 3, "expected 2 fields, got 1"),
    ("truth-timestamp", "truth", "SUBCOLLECT-TRUTH 1\n\nhttp://a.de/ 2000\n", 3,
     "bad timestamp14: '2000'"),
    # A byte that is not UTF-8 ("\\udcff" is written as 0xff); it used to
    # give the decoder's message, with a position in the block read ahead.
    ("index-utf8", "index",
     "SUBCOLLECT-CDX 1\n\nhttp://a.de/ 20000101120000 text/\udcffhtml 200 d f.warc 0 1\n", 3,
     "'utf-8' codec can't decode byte 0xff in position 33: invalid start byte"),
    ("manifest-utf8", "manifest",
     "SUBCOLLECT-MANIFEST 1\nspec-digest 00\n\nhttp://a.de/ 2000\udcff0101120000 ab scan\n", 4,
     "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
    ("truth-utf8", "truth", "SUBCOLLECT-TRUTH 1\n\nhttp://a.de/\udcff 20000101120000\n", 3,
     "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    # An index timestamp was not checked; the truth file's was.
    ("index-timestamp", "index",
     "SUBCOLLECT-CDX 1\n\nhttp://a.de/ 2000 text/html 200 d f.warc 0 1\n", 3,
     "bad timestamp14: '2000'"),
    # A lone CR ended a line, so each of these read as two good lines.
    ("index-lone-cr", "index",
     "SUBCOLLECT-CDX 1\nhttp://a.de/ 20000101120000 text/html 200 d f.warc 0 1"
     "\rhttp://b.de/ 20000101120000 text/html 200 d f.warc 0 1\n", 2,
     "expected 8 fields, got 15"),
    ("manifest-lone-cr", "manifest",
     "SUBCOLLECT-MANIFEST 1\nspec-digest 00\nhttp://a.de/ 20000101120000 ab scan"
     "\rhttp://a.de/ 20010101120000 ab scan\n", 3, "expected 4 fields, got 7"),
    ("truth-lone-cr", "truth",
     "SUBCOLLECT-TRUTH 1\nhttp://a.de/ 20000101120000\rhttp://b.de/ 20000101120000\n", 2,
     "expected 2 fields, got 3"),
    # An index out of order used to be sorted silently.
    ("index-order", "index",
     "SUBCOLLECT-CDX 1\nhttp://b.de/ 20000101120000 text/html 200 d f.warc 0 1\n\n"
     "http://a.de/ 20000101120000 text/html 200 d f.warc 0 1\n", 4, "entry out of order"),
    # Status, offset and length were read by int(), which also takes a
    # sign, digit group underscores, surrounding whitespace and non-ASCII
    # digits; like the timestamp, they must be ASCII digits.
    *[("index-" + name, "index",
       "SUBCOLLECT-CDX 1\n\nhttp://a.de/ 20000101120000 text/html %s %s\n" % fields, 3,
       "status, offset and length must be ASCII digits")
      for name, fields in [
          ("status-plus", ("+5", "d f.warc 0 1")),
          ("status-minus", ("-5", "d f.warc 0 1")),
          ("status-arabic-digits", ("\u0662\u0660\u0660", "d f.warc 0 1")),
          ("offset-underscore", ("200", "d f.warc 1_0 1")),
          ("length-tab", ("200", "d f.warc 0 \t7")),
      ]],
    # A URL that is not its own canonical form loaded, but no lookup of a
    # canonical URL could reach it.
    ("index-url-not-canonical", "index",
     "SUBCOLLECT-CDX 1\n\nHTTP://A.DE:80/ 20000101000000 - 200 d f.warc 0 5\n", 3,
     "URL not in canonical form: 'HTTP://A.DE:80/'"),
]

LOADERS = {
    "index": ArchiveIndex.load,
    "manifest": lambda path: SubCollection.read_manifest(path, ArchiveIndex([])),
    "truth": load_truth,
}


def _evaluate_args(ws, index, manifest, truth=None):
    args = ["evaluate", manifest, "--index", index, "--archive-dir", ws["archive_dir"]]
    return args + ["--truth", truth] if truth else args


@pytest.mark.parametrize(
    "kind, text, lineno, message", [row[1:] for row in LINE_FILE_ROWS],
    ids=[row[0] for row in LINE_FILE_ROWS],
)
def test_line_file_errors_name_path_line_and_exit_2(workspace, capsys, kind, text, lineno, message):
    path = workspace["tmp"] / ("bad." + kind)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    expected = "%s:%d: %s" % (path, lineno, message)
    with pytest.raises(ValueError) as info:
        LOADERS[kind](str(path))
    assert type(info.value) is ValueError  # not a CanonicalizationError: exit 2
    assert str(info.value).startswith(expected)

    files = {"index": workspace["index"], "manifest": _manifest(workspace), "truth": None}
    files[kind] = str(path)
    capsys.readouterr()
    assert main(_evaluate_args(workspace, **files)) == 2
    assert capsys.readouterr().err.startswith("error: " + expected)


def test_line_files_skip_blank_lines(workspace, capsys):
    tmp = workspace["tmp"]
    truth = tmp / "truth"
    truth.write_text("SUBCOLLECT-TRUTH 1\nhttp://a.de/ 20000101120000\n")
    files = {"index": workspace["index"], "manifest": _manifest(workspace), "truth": str(truth)}
    capsys.readouterr()
    assert main(_evaluate_args(workspace, **files)) == 0
    report = capsys.readouterr().out
    for kind, path in list(files.items()):
        lines = pathlib.Path(path).read_text().splitlines()
        head = 2 if kind == "manifest" else 1  # the manifest's spec-digest line is line 2
        blank = tmp / ("blank." + kind)
        # A blank line after the head, one after the first row and two at the end.
        rows = [""] + lines[head : head + 1] + [""] + lines[head + 1 :] + ["", ""]
        blank.write_text("\n".join(lines[:head] + rows))
        files[kind] = str(blank)
    assert main(_evaluate_args(workspace, **files)) == 0
    assert capsys.readouterr().out == report


def test_evaluate_reads_every_member_of_a_closure_over_a_damaged_capture(tmp_path, capsys):
    # a.de links to b.de, whose body is altered after indexing.
    archive_dir = tmp_path / "archive"
    archive_dir.mkdir()
    warc_path = archive_dir / "f.warc"
    warcwriter.write_warc(str(warc_path), [
        warcwriter.make_response_record(url, iso_of(ts14), body) for url, ts14, body in [
            ("http://a.de/", "20000101120000", page("a", links=["http://b.de/"])),
            ("http://b.de/", "20000601120000", page("b")),
        ]
    ])
    index = str(tmp_path / "index.cdx")
    assert main(["index", str(warc_path), "--output", index]) == 0
    damage_warc(warc_path, ArchiveIndex.load(index).entries_for("http://b.de/")[0], "digest")
    ws = {"tmp": tmp_path, "index": index, "archive_dir": str(archive_dir)}
    spec = write_spec(tmp_path, {"name": "a", "scopes": {"domains": ["a.de"]},
                                 "link_mode": "connected"})
    manifest = str(tmp_path / "m")
    capsys.readouterr()
    assert main(_extract_args(ws, spec, manifest, "--export-warc", str(tmp_path / "m.warc"))) == 0
    assert capsys.readouterr().out.split() == [
        "candidates_scanned=1", "fetches=2", "closure_added=0", "errors=1", "members=1",
    ]
    assert main(_evaluate_args(ws, index, manifest)) == 0
