import math

import pytest

from subcollect import evaluation
from subcollect.evaluation import (
    TruthSet,
    default_link_oracle,
    evaluate,
    facet_entropy,
    link_completeness,
    precision,
    recall,
    representativeness,
    temporal_width,
)
from subcollect.extraction import Member, SubCollection
from subcollect.spec import SubCollectionSpec, in_scope_metadata
from subcollect.store import ArchiveIndex, IndexEntry, timestamp14_to_epoch

from conftest import build_archive, page


def entry(url, ts14, mime="text/html"):
    return IndexEntry(canonical_url=url, timestamp14=ts14, mime=mime, original_url=url)


def coll_of(*pairs):
    return SubCollection(
        members=[Member(entry=entry(u, t), origin="scan") for u, t in pairs]
    )


def truth_of(*pairs):
    return TruthSet(relevant_refs=set(pairs))


A1 = ("http://a.de/", "20000101000000")
A2 = ("http://a.de/x", "20000201000000")
B1 = ("http://b.de/", "20010101000000")
B2 = ("http://b.de/y", "20010601000000")


# precision / recall --------------------------------------------------------


def test_precision_subset_of_truth():
    assert precision(coll_of(A1, A2), truth_of(A1, A2, B1)) == 1.0


def test_precision_three_of_four():
    c = coll_of(A1, A2, B1, B2)
    assert precision(c, truth_of(A1, A2, B1)) == 0.75


def test_precision_disjoint():
    assert precision(coll_of(A1), truth_of(B1)) == 0.0


def test_precision_empty_result_not_applicable():
    assert precision(SubCollection(), truth_of(A1)) is None


def test_recall_superset():
    assert recall(coll_of(A1, A2, B1), truth_of(A1, B1)) == 1.0


def test_recall_two_of_eight():
    pairs = [("http://t.de/%d" % i, "20000101000000") for i in range(8)]
    c = coll_of(pairs[0], pairs[1])
    assert recall(c, truth_of(*pairs)) == 0.25


def test_recall_empty_truth_not_applicable():
    assert recall(coll_of(A1), TruthSet()) is None


def test_precision_recall_order_invariant():
    t = truth_of(A1, B1)
    assert precision(coll_of(A1, B1, A2), t) == precision(coll_of(A2, B1, A1), t)
    assert recall(coll_of(A1, B1, A2), t) == recall(coll_of(A2, B1, A1), t)


# truth set file ------------------------------------------------------------


def test_truth_set_roundtrip(tmp_path):
    t = truth_of(A1, B1)
    path = tmp_path / "truth"
    t.save(str(path))
    assert path.read_text().startswith("SUBCOLLECT-TRUTH 1\n")
    assert TruthSet.load(str(path)).relevant_refs == t.relevant_refs


# link completeness ---------------------------------------------------------


def lc_fixture(tmp_path):
    # s1 links to two indexed targets, one of which is in the collection;
    # s2 links to one indexed target that is in the collection.
    captures = [
        ("http://s1.de/", "20000101000000", page(links=["http://in.de/", "http://out.de/"])),
        ("http://s2.de/", "20000102000000", page(links=["http://in.de/"])),
        ("http://in.de/", "20000103000000", page("in")),
        ("http://out.de/", "20000104000000", page("out")),
    ]
    return build_archive(tmp_path, captures)


def members_from(fx, urls):
    members = []
    for url in urls:
        e = fx.index.entries_for(url)[0]
        members.append(Member(entry=e, origin="scan"))
    return SubCollection(members=members)


def test_lc_hand_computed(tmp_path):
    fx = lc_fixture(tmp_path)
    c = members_from(fx, ["http://s1.de/", "http://s2.de/", "http://in.de/"])
    lc_sum, lc_mean = link_completeness(c, fx.archive, fx.index)
    assert lc_sum == pytest.approx(1.5, abs=1e-12)
    assert lc_mean == pytest.approx(0.75, abs=1e-12)


def test_lc_all_retrieved(tmp_path):
    fx = lc_fixture(tmp_path)
    c = members_from(fx, ["http://s1.de/", "http://s2.de/", "http://in.de/", "http://out.de/"])
    _, lc_mean = link_completeness(c, fx.archive, fx.index)
    assert lc_mean == pytest.approx(1.0)


def test_lc_no_outlinks_not_applicable(tmp_path):
    fx = lc_fixture(tmp_path)
    c = members_from(fx, ["http://in.de/", "http://out.de/"])
    lc_sum, lc_mean = link_completeness(c, fx.archive, fx.index)
    assert lc_sum == 0.0
    assert lc_mean is None


def test_lc_adding_missing_target_never_decreases_mean(tmp_path):
    fx = lc_fixture(tmp_path)
    before = members_from(fx, ["http://s1.de/", "http://s2.de/", "http://in.de/"])
    after = members_from(
        fx, ["http://s1.de/", "http://s2.de/", "http://in.de/", "http://out.de/"]
    )
    _, mean_before = link_completeness(before, fx.archive, fx.index)
    _, mean_after = link_completeness(after, fx.archive, fx.index)
    assert mean_after >= mean_before


# temporal width ------------------------------------------------------------


def test_temporal_width_single_member():
    assert temporal_width(coll_of(A1)) == 0


def test_temporal_width_sixty_seconds():
    c = coll_of(("http://a.de/", "20000101000000"), ("http://b.de/", "20000101000100"))
    assert temporal_width(c) == 60


def test_temporal_width_equals_max_pairwise():
    pairs = [
        ("http://h%d.de/" % i, t)
        for i, t in enumerate(
            ["20000101000000", "20000301000000", "20000501000000", "20000107000000", "20000214000000"]
        )
    ]
    c = coll_of(*pairs)
    epochs = [timestamp14_to_epoch(t) for _, t in pairs]
    oracle = max(abs(a - b) for a in epochs for b in epochs)
    assert temporal_width(c) == oracle


# representativeness / entropy ----------------------------------------------


def two_host_index(tmp_path):
    captures = [
        ("http://a.de/1", "20000101000000", page("a1")),
        ("http://a.de/2", "20000102000000", page("a2")),
        ("http://b.de/1", "20000103000000", page("b1")),
        ("http://b.de/2", "20000104000000", page("b2")),
    ]
    return build_archive(tmp_path, captures)


def test_representativeness_identical_distribution(tmp_path):
    fx = two_host_index(tmp_path)
    c = SubCollection(members=[Member(entry=e, origin="scan") for e in fx.index])
    assert representativeness(c, fx.index, "host") == pytest.approx(1.0, abs=1e-12)


def test_representativeness_one_host_vs_uniform_two(tmp_path):
    fx = two_host_index(tmp_path)
    members = [
        Member(entry=e, origin="scan")
        for e in fx.index
        if e.host == "a.de"
    ]
    c = SubCollection(members=members)
    # Closed form: 1 - JSD({1,0} || {1/2,1/2}) = 1 - (H(3/4,1/4) - 1/2).
    expected = 1.0 - ((-0.75 * math.log2(0.75) - 0.25 * math.log2(0.25)) - 0.5)
    got = representativeness(c, fx.index, "host")
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.6887218755408672, abs=1e-9)


def test_representativeness_disjoint_supports():
    index_entries = [entry("http://x.de/", "20000101000000")]

    class FakeIndex(list):
        pass

    c = coll_of(("http://y.de/", "20000101000000"))
    assert representativeness(c, FakeIndex(index_entries), "host") == pytest.approx(
        0.0, abs=1e-12
    )


def test_entropy_uniform_four_hosts():
    c = coll_of(*[("http://h%d.de/" % i, "20000101000000") for i in range(4)])
    assert facet_entropy(c, "host") == pytest.approx(1.0, abs=1e-12)


def test_entropy_single_host():
    c = coll_of(A1, A2)
    assert facet_entropy(c, "host") == 0.0


def test_entropy_half_quarter_quarter():
    c = coll_of(
        ("http://a.de/1", "20000101000000"),
        ("http://a.de/2", "20000101000001"),
        ("http://b.de/", "20000101000002"),
        ("http://c.de/", "20000101000003"),
    )
    assert facet_entropy(c, "host") == pytest.approx(1.5 / math.log2(3), abs=1e-12)


# evaluate ------------------------------------------------------------------


def test_evaluate_full_report(tmp_path):
    fx = lc_fixture(tmp_path)
    c = members_from(fx, ["http://s1.de/", "http://s2.de/", "http://in.de/"])
    truth = truth_of(
        ("http://s1.de/", "20000101000000"), ("http://s2.de/", "20000102000000")
    )
    before = fx.archive.counter.fetches
    report = evaluate(c, fx.archive, fx.index, truth=truth)
    assert report.precision == pytest.approx(2 / 3)
    assert report.recall == pytest.approx(1.0)
    assert report.lc_sum == pytest.approx(1.5)
    assert report.lc_mean == pytest.approx(0.75)
    assert report.fetches == fx.archive.counter.fetches - before
    keys = dict(line.split("=", 1) for line in report.as_key_values())
    assert "precision" in keys and "lc_mean" in keys
    rows = report.as_csv_rows()
    assert ("lc_sum", "", report.lc_sum) in rows


def test_evaluate_without_truth_omits_precision_recall(tmp_path):
    fx = lc_fixture(tmp_path)
    c = members_from(fx, ["http://in.de/"])
    report = evaluate(c, fx.archive, fx.index)
    keys = [line.split("=", 1)[0] for line in report.as_key_values()]
    assert "precision" not in keys
    assert "recall" not in keys


def test_evaluate_whole_archive_fully_representative(tmp_path):
    fx = two_host_index(tmp_path)
    c = SubCollection(members=[Member(entry=e, origin="scan") for e in fx.index])
    report = evaluate(c, fx.archive, fx.index)
    for facet, value in report.representativeness.items():
        assert value == pytest.approx(1.0, abs=1e-12), facet


def test_stratified_recall(tmp_path):
    from subcollect.evaluation import stratified_recall

    truth = truth_of(A1, A2, B1)
    c = coll_of(A1, B1)
    per = stratified_recall(c, truth)
    assert per[("a.de", "2000")] == pytest.approx(0.5)
    assert per[("b.de", "2001")] == pytest.approx(1.0)


def test_default_link_oracle_judges_each_url_once(monkeypatch):
    calls = []

    def counting(spec, entry):
        calls.append(entry)
        return in_scope_metadata(spec, entry)

    monkeypatch.setattr(evaluation, "in_scope_metadata", counting)
    index = ArchiveIndex(
        [IndexEntry("http://a.de/x", "2001010100000%d" % i) for i in range(3)]
        + [IndexEntry("http://b.de/y", "20050101000000")]
    )
    spec = SubCollectionSpec(time_scope=("20050101000000", "20051231235959"))
    oracle = default_link_oracle(index, spec)
    verdicts = [oracle(u) for u in ("http://a.de/x", "http://b.de/y") * 3]
    assert verdicts == [False, True] * 3
    assert len(calls) == 4  # every capture of each URL, once
