import gzip
import json
import os
import subprocess
import sys

import pytest

import subcollect
from subcollect import warc
from subcollect.cli import main

from conftest import iso_of, page


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
        warc.make_response_record(u, iso_of(t), b) for u, t, b in captures
    ]
    warc_path = archive_dir / "f.warc"
    warc.write_warc(str(warc_path), blobs)
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


def test_index_unreadable_input_is_io_error(tmp_path):
    assert main(["index", str(tmp_path / "missing.warc"), "--output", str(tmp_path / "i")]) == 2


def test_index_whole_file_gzip_is_io_error(tmp_path):
    blobs = [
        warc.make_response_record("http://a.de/%d" % i, iso_of("20000101120000"), page("p"))
        for i in range(5)
    ]
    path = tmp_path / "whole.warc.gz"
    path.write_bytes(gzip.compress(b"".join(blobs)))
    index_path = tmp_path / "idx"
    assert main(["index", str(path), "--output", str(index_path)]) == 2
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


def test_extract_deterministic_bytes(workspace):
    spec = {
        "name": "d",
        "scopes": {"domains": ["de"]},
        "link_mode": "connected",
        "seed": 5,
    }
    _, out1 = run_extract(workspace, spec, "m1")
    _, out2 = run_extract(workspace, spec, "m2")
    _, out3 = run_extract(workspace, spec, "m3", extra=["--workers", "4"])
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
    warc.write_warc(
        str(warc_path), [warc.make_response_record(u, iso_of(t), b) for u, t, b in captures]
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
