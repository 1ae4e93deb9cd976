import hashlib

import pytest

from flagorbits.errors import MalformedInput, TooLarge
from flagorbits.patterns import pattern_singular
from flagorbits.perms import format_perm, identity, parse_perm, w0
from flagorbits.smoothness import (
    NOT_APPLICABLE,
    RATIONALLY_SINGULAR,
    RATIONALLY_SMOOTH,
    SWEEP_PHASES,
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
    assert rep.conjugate_degrees == {
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
    assert rep.certificates == pattern_singular(rep.perm)[1]


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
    # also: the sweep's one-pass pattern masks agree with classify's scans
    for m in (5, 6):
        for row in sweep(m).rows:
            full = classify(row.perm)
            assert row.conjugates_pass == full.conjugates_pass
            assert row.w0_degree == full.w0_degree
            assert row.rank == full.rank
            assert row.patterns == full.patterns
            assert row.conjectured_smooth == full.conjectured_smooth
            assert row.certificates == full.certificates


def test_sweep_smooth_implies_conjugates_pass():
    for m in (2, 4, 6):
        for row in sweep(m).rows:
            if row.degree_verdict == RATIONALLY_SMOOTH:
                assert row.conjugates_pass, format_perm(row.perm)


SWEEP_8_SHA256 = "82143da9e1231c23ff8218c12d5df251659734552be7109467381b4d68401beb"


def test_sweep_m8_golden_hash():
    text = "\n".join(sweep_records(sweep(8))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_8_SHA256


def test_sweep_phases():
    rep = sweep(6)
    assert tuple(rep.phases) == SWEEP_PHASES
    assert all(sec >= 0 for sec in rep.phases.values())
    assert sum(rep.phases.values()) == pytest.approx(rep.elapsed)
    phase_lines = [line for line in sweep_text(rep).splitlines() if "# phase " in line]
    assert [line.split()[2] for line in phase_lines] == list(SWEEP_PHASES)


def test_sweep_guard():
    with pytest.raises(TooLarge):
        sweep(13)
    for m in (-1, 0):
        with pytest.raises(MalformedInput):
            sweep(m)


def test_classify_guard_fires_before_work(monkeypatch):
    import flagorbits.smoothness as sm

    def no_work(*args):
        raise AssertionError("classify started work")

    for name in ("rank", "conjugate_degrees", "w0_degree", "pattern_mask"):
        monkeypatch.setattr(sm, name, no_work)
    with pytest.raises(TooLarge):
        classify(identity(13))
    with pytest.raises(AssertionError):
        classify(identity(12))  # the guard admits m = 12


def test_verify_known_cases_all_pass():
    checklist = verify_known_cases()
    failures = [r for r in checklist.results if not r.passed]
    assert checklist.all_passed, failures
    items = {r.item for r in checklist.results}
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
    assert "1 rationally singular: 2143" in text


def test_odd_sweep_reports_conjugate_failures():
    rep = sweep(5)
    fails = {format_perm(r.perm) for r in rep.rows if not r.conjugates_pass}
    assert "21435" in fails
    text = sweep_text(rep)
    assert "all-conjugates" in text
