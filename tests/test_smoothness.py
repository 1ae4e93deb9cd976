import dataclasses
import hashlib
import logging

import numpy as np
import pytest

from flagorbits.bruhat import essential_entries, interval, rank
from flagorbits.errors import MalformedInput, TooLarge
from flagorbits.orbit_graph import class_graph, conjugate_degrees, neighbors, w0_degree
from flagorbits.patterns import SINGULAR, SPECS, occurrences, pattern_masks
from flagorbits.perms import enumerate_involutions, format_perm, identity, parse_perm
from flagorbits.perms import involution_rows, w0, w0_class
from flagorbits.smoothness import (
    NOT_APPLICABLE,
    RATIONALLY_SINGULAR,
    RATIONALLY_SMOOTH,
    SWEEP_PHASES,
    ClassificationReport,
    classify,
    report_record,
    report_text,
    sweep,
    sweep_records,
    sweep_text,
    verify_known_cases,
)


def test_classify_3412():
    rep = classify((3, 4, 1, 2))
    assert rep.rank == 1 and rep.w0_degree == 1
    assert rep.degree_verdict == RATIONALLY_SMOOTH
    assert rep.conjugates_pass and rep.conjugate_witness is None
    assert not rep.pattern_singular


def test_classify_2143():
    rep = classify((2, 1, 4, 3))
    assert rep.rank == 2 and rep.w0_degree == 3
    assert rep.degree_verdict == RATIONALLY_SINGULAR
    assert not rep.conjugates_pass
    assert rep.conjugate_witness == ((4, 3, 2, 1), 3)
    assert conjugate_degrees(rep.perm) == {
        (4, 3, 2, 1): 3,
        (3, 4, 1, 2): 2,
        (2, 1, 4, 3): 2,
    }
    assert rep.pattern_singular


def test_classify_21435():
    rep = classify(parse_perm("21435"))
    assert rep.rank == 4 and rep.w0_degree == 4
    assert rep.degree_verdict == NOT_APPLICABLE
    assert not rep.conjugates_pass
    assert rep.conjugate_witness == (parse_perm("43215"), 5)
    assert rep.pattern_singular  # qualified 2143 at {1,2,3,4}
    oracle = [(spec, hits[0]) for spec in SPECS[:SINGULAR] if (hits := occurrences(rep.perm, spec))]
    assert rep.certificates == oracle


def test_report_stores_five_facts():
    names = [f.name for f in dataclasses.fields(ClassificationReport)]
    assert names == ["perm", "rank", "w0_degree", "conjugates_pass", "mask"]


def test_report_derived_fields_follow_their_rules():
    for m in range(1, 9):
        for rep in sweep(m).rows:
            assert rep.m == m == len(rep.perm)
            assert rep.codim == m * m // 4 - rep.rank
            if m % 2:
                assert rep.degree_verdict == NOT_APPLICABLE
            elif rep.w0_degree == rep.rank:
                assert rep.degree_verdict == RATIONALLY_SMOOTH
            else:
                assert rep.degree_verdict == RATIONALLY_SINGULAR
            held = tuple(spec for k, spec in enumerate(SPECS[:SINGULAR]) if rep.mask >> k & 1)
            assert rep.patterns == held
            assert rep.pattern_singular == (rep.mask % (1 << SINGULAR) != 0)
            assert rep.conjectured_rationally_smooth == (rep.mask % (1 << SINGULAR) == 0)
            assert rep.conjectured_smooth == (rep.mask == 0)


def test_sweep_m2():
    rep = sweep(2)
    assert len(rep.rows) == 2
    assert all(r.degree_verdict == RATIONALLY_SMOOTH for r in rep.rows)


def test_sweep_m4():
    rep = sweep(4)
    assert len(rep.rows) == 10
    singular = [r.perm for r in rep.rows if r.degree_verdict == RATIONALLY_SINGULAR]
    assert singular == [(2, 1, 4, 3)]
    assert rep.pattern_singular_degree_smooth == []
    assert rep.pattern_avoiding_degree_singular == []
    assert [r.perm for r in rep.rows] == sorted(r.perm for r in rep.rows)
    assert rep.counts[RATIONALLY_SINGULAR] == 1


def test_sweep_conjugates_pass_matches_classify():
    # a sweep row is the classify report of its involution, field for field;
    # at m <= 3 the candidates fill less than one mask word, and w0's mask,
    # with no essential entry, is all ones past them: the sweep drops those bits
    for m in range(1, 9):
        rows = sweep(m).rows
        full = [classify(p) for p in enumerate_involutions(m)]
        assert rows == full
        if m in (5, 6):
            assert [r.certificates for r in rows] == [f.certificates for f in full]
            assert [r.conjugate_witness for r in rows] == [f.conjugate_witness for f in full]


def test_sweep_finds_no_witness(monkeypatch):
    # the sweep decides pass or fail alone; a witness is found on first access
    import flagorbits.smoothness as sm

    records = sweep_records(sweep(6))

    def no_witness(pi):
        raise AssertionError("the sweep looked for a witness")

    monkeypatch.setattr(sm, "conjugate_degrees", no_witness)
    assert sweep_records(sweep(6)) == records


def test_sweep_has_no_scalar_rank(monkeypatch):
    # the sweep grades its rows as one column
    import flagorbits.smoothness as sm

    def no_rank(pi):
        raise AssertionError("the sweep called the scalar rank")

    monkeypatch.setattr(sm, "rank", no_rank)
    text = "\n".join(sweep_records(sweep(8))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_8_SHA256


def test_spec_lookup_matches_specs_filter():
    from flagorbits.smoothness import _specs

    for mask in set(pattern_masks(involution_rows(10)).tolist()):
        assert _specs(mask) == tuple(s for k, s in enumerate(SPECS[:SINGULAR]) if mask >> k & 1)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_sweep_summary_matches_rows(monkeypatch, m):
    # flipping the first pattern bit makes both coherence lists non-empty at even m
    import flagorbits.smoothness as sm

    monkeypatch.setattr(sm, "pattern_masks", lambda rows: pattern_masks(rows) ^ 1)
    rep = sweep(m)
    verdicts = [row.degree_verdict for row in rep.rows]
    assert rep.counts == {v: verdicts.count(v) for v in rep.counts}
    smooth = [row.degree_verdict == RATIONALLY_SMOOTH for row in rep.rows]
    singular = [row.degree_verdict == RATIONALLY_SINGULAR for row in rep.rows]
    assert rep.pattern_singular_degree_smooth == [
        row.perm for row, ok in zip(rep.rows, smooth) if ok and row.pattern_singular
    ]
    assert rep.pattern_avoiding_degree_singular == [
        row.perm for row, bad in zip(rep.rows, singular) if bad and not row.pattern_singular
    ]
    lists = rep.pattern_singular_degree_smooth, rep.pattern_avoiding_degree_singular
    assert all(bool(found) == (m % 2 == 0) for found in lists)


def test_sweep_smooth_implies_conjugates_pass():
    for m in (2, 4, 6):
        for row in sweep(m).rows:
            if row.degree_verdict == RATIONALLY_SMOOTH:
                assert row.conjugates_pass, format_perm(row.perm)


SWEEP_8_SHA256 = "82143da9e1231c23ff8218c12d5df251659734552be7109467381b4d68401beb"


def test_sweep_m8_golden_hash():
    text = "\n".join(sweep_records(sweep(8))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_8_SHA256


SWEEP_11_SHA256 = "86ddc620d1e7daa8a6cd6a51410fbdcb054c92ef66bec68e33a43f33a6036373"


def test_sweep_m11_golden_hash():
    # odd m: every neighbour is a class member, and most rows fail the
    # all-conjugates test, so this pins the witness order of the kernel
    text = "\n".join(sweep_records(sweep(11))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_11_SHA256


def test_sweep_phases():
    rep = sweep(6)
    assert tuple(rep.phases) == SWEEP_PHASES
    assert all(sec >= 0 for sec in rep.phases.values())
    assert sum(rep.phases.values()) == pytest.approx(rep.elapsed)
    phase_lines = [line for line in sweep_text(rep).splitlines() if "# phase " in line]
    assert [line.split()[2] for line in phase_lines] == list(SWEEP_PHASES)


def test_sweep_counters():
    rep = sweep(9)
    # first one mask per distinct neighbour of w0, (81 - 1) / 4 = 20 of them,
    # over all 2620 rows (41 64-bit words); they are dropped before the class
    # masks: one per member, 945 of them (odd m: conjugation keeps the cycle
    # type, so no neighbour leaves the class), each over the 670 candidates
    # with deg_w0 == rank (11 words), all held at once
    invs = enumerate_involutions(9)
    assert sum(w0_degree(p) == rank(p) for p in invs) == 670
    vertices = sorted(neighbors(w0(9)).neighbors) + w0_class(9)
    entries = int(essential_entries(np.array(vertices, dtype=np.int8)).sum())
    assert rep.counters == {
        "masks": 20 + 945,
        "mask_bytes": max(20 * 41, 945 * 11) * 8,
        "mask_entries": entries,
        "candidates": 670,
    }
    lines = sweep_text(rep).splitlines()
    assert lines[-4:] == [
        "# counter masks 965",
        f"# counter mask_bytes {945 * 88}",
        f"# counter mask_entries {entries}",
        "# counter candidates 670",
    ]
    assert lines[-5].startswith("# phase assemble ")
    # even m: masks are N_w0 + C + C*H, the neighbours outside the class built
    # once each, per chunk: (10/2)^2 + 945 + 945 * 5; the candidates are the
    # rationally smooth rows
    rep = sweep(10)
    assert rep.counters["masks"] == 25 + 945 + 945 * 5 == 5695
    assert rep.counters["candidates"] == rep.counts[RATIONALLY_SMOOTH] == 1030


def test_sweep_logs_progress_per_chunk(caplog):
    with caplog.at_level(logging.INFO, logger="flagorbits.smoothness"):
        sweep(6)
    lines = [r.getMessage() for r in caplog.records if r.name == "flagorbits.smoothness"]
    # (6/2)^2 = 9 masks for w0's neighbours, then 15 members and 15 * 3 outside
    assert lines == ["sweep m=6: 15 of 15 class members, 69 masks"]


def test_degree_paths_make_no_scalar_calls(monkeypatch):
    # classify and sweep read degrees from the vectorized kernel only
    import flagorbits.orbit_graph as og
    import flagorbits.smoothness as sm

    def scalar(*args):
        raise AssertionError("scalar degree path used")

    for mod, name in ((og, "neighbors"), (og, "bruhat_leq")):
        monkeypatch.setattr(mod, name, scalar)
    assert classify(parse_perm("21435")).conjugate_witness == (parse_perm("43215"), 5)
    assert classify(identity(8)).w0_degree == 16
    assert sweep(6).counts[RATIONALLY_SINGULAR] == 30


def test_sweep_guard():
    with pytest.raises(TooLarge):
        sweep(13)
    for m in (-1, 0, True, 2.5, "4"):
        with pytest.raises(MalformedInput):
            sweep(m)


def test_empty_involution_refused_at_validation():
    # one m >= 1 rule: every Perm-taking name refuses () before any work
    for fn in (rank, interval, neighbors, classify, w0_degree, conjugate_degrees):
        with pytest.raises(MalformedInput, match="not an involution of m >= 1"):
            fn(())


def test_sweep_builds_no_reports_and_records_hold_one_chunk(monkeypatch):
    # a sweep keeps columns only; sweep_records builds one report per row,
    # and at most CHUNK_ROWS of them are alive at once
    import flagorbits.smoothness as sm

    live = dict(built=0, now=0, peak=0)

    class Counted(ClassificationReport):
        def __init__(self, *args):
            super().__init__(*args)
            live["built"] += 1
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])

        def __del__(self):
            live["now"] -= 1

    monkeypatch.setattr(sm, "ClassificationReport", Counted)
    rep = sweep(8)
    assert live["built"] == 0
    records = sweep_records(rep)
    assert live["built"] == len(records) == 764 and live["now"] == 0
    monkeypatch.setattr(sm, "CHUNK_ROWS", 7)
    live.update(built=0, peak=0)
    assert sweep_records(rep) == records
    assert live["built"] == 764 and live["peak"] == 7 and live["now"] == 0


def test_classify_guard_fires_before_work(monkeypatch):
    import flagorbits.smoothness as sm

    def no_work(*args):
        raise AssertionError("classify started work")

    for name in ("ranks", "w0_degree", "conjugate_degrees", "pattern_masks"):
        monkeypatch.setattr(sm, name, no_work)
    with pytest.raises(TooLarge):
        classify(identity(13))
    with pytest.raises(AssertionError):
        classify(identity(12))  # the guard admits m = 12


def test_validation_comes_before_the_size_guard():
    # malformed input is refused as such, whatever its length; then the guard fires
    for fn in (classify, w0_degree, interval):
        for bad in (None, 5, (2.9, 1.1), (2, 3, 1) + tuple(range(4, 14))):
            with pytest.raises(MalformedInput):
                fn(bad)
        with pytest.raises(TooLarge):
            fn(w0(13))


def test_classify_reads_conjugates_only_where_w0_degree_is_rank(monkeypatch):
    # w0 is a w0-conjugate above every pi, so deg_w0 != rank already fails
    import flagorbits.smoothness as sm

    def no_conjugates(pi):
        raise AssertionError("classify read the conjugate degrees")

    monkeypatch.setattr(sm, "conjugate_degrees", no_conjugates)
    rep = classify((2, 1, 4, 3))
    assert (rep.w0_degree, rep.rank, rep.conjugates_pass) == (3, 2, False)
    with pytest.raises(AssertionError):
        classify((3, 4, 1, 2))  # deg_w0 == rank == 1: the conjugates decide


def test_failing_classify_builds_no_class_graph():
    class_graph.cache_clear()
    rep = classify((2, 1, 4, 3) + tuple(range(5, 13)))
    assert rep.w0_degree != rep.rank and not rep.conjugates_pass
    assert class_graph.cache_info().currsize == 0


def test_classify_rejects_non_involutions():
    for bad in ((1, 1), (3, 1, 2, 4), (5,)):
        with pytest.raises(MalformedInput):
            classify(bad)


def test_verify_known_cases_all_pass():
    results = verify_known_cases()
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    items = {r.item for r in results}
    assert items == {"a", "b", "c", "d", "e"}


def test_report_record_format():
    rec = report_record(classify(parse_perm("21435")))
    assert rec == (
        "perm=21435 m=5 r=4 codim=2 deg_w0=4 "
        "verdict=not_applicable conjugates=fail patterns=2143q"
    )
    rec = report_record(classify((3, 4, 1, 2)))
    assert rec.startswith("perm=3412 m=4 r=1 codim=3 deg_w0=1 ")
    assert rec.endswith("verdict=rationally_smooth conjugates=pass patterns=-")


def test_report_text_mentions_witness():
    text = report_text(classify(parse_perm("21435")))
    assert "43215" in text and "2143q" in text


def test_sweep_text_deterministic():
    text = sweep_text(sweep(4))
    assert text.splitlines()[:4] == sweep_text(sweep(4)).splitlines()[:4]
    assert "1 rationally singular" in text.splitlines()


def test_odd_sweep_reports_conjugate_failures():
    rep = sweep(5)
    fails = {format_perm(r.perm) for r in rep.rows if not r.conjugates_pass}
    assert "21435" in fails
    text = sweep_text(rep)
    assert "all-conjugates" in text
