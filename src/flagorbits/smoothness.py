"""Verdict assembly: degree tests, pattern cross-validation, and sweeps.

For even m the bottom-vertex degree test decides rational smoothness and is
treated as ground truth; pattern containment is cross-validation.  For odd m
no verdict is issued, but the all-conjugates degree test and the pattern
classifier are reported side by side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedInput, TooLarge
from .perms import (
    Perm,
    enumerate_involutions,
    format_perm,
    insert_fixed_point,
    parse_perm,
    w0,
    w0_class,
)
from .bruhat import dominance, max_rank, rank
from .orbit_graph import conjugate_degrees, neighbors, w0_degree
from .patterns import (
    EVEN_FIXED_BETWEEN,
    PATTERN_2143,
    SINGULAR,
    SPECS,
    PatternHit,
    PatternSpec,
    bad_patterns,
    occurrences,
    pattern_mask,
    pattern_masks,
    pattern_singular,
)

SWEEP_SIZE_GUARD = 12
SWEEP_PHASES = ("enumerate", "dominance+rank", "degree-masks", "patterns", "assemble")

RATIONALLY_SMOOTH = "rationally_smooth"
RATIONALLY_SINGULAR = "rationally_singular"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ClassificationReport:
    perm: Perm
    m: int
    rank: int
    codim: int
    w0_degree: int
    degree_verdict: str
    conjugates_pass: bool
    conjugate_witness: tuple[Perm, int] | None
    # Full degree map of every w0-conjugate in the interval; omitted (None)
    # in bulk sweeps where materializing it per row is prohibitive.
    conjugate_degrees: dict[Perm, int] | None
    pattern_singular: bool
    # The singularity-forcing specs pi contains, in SPECS order.
    patterns: tuple[PatternSpec, ...]
    conjectured_rationally_smooth: bool
    conjectured_smooth: bool

    @cached_property
    def certificates(self) -> list[tuple[PatternSpec, PatternHit]]:
        """One witness per matching pattern, found on first access."""
        return [(spec, occurrences(self.perm, spec)[0]) for spec in self.patterns]


@dataclass(frozen=True)
class SweepReport:
    m: int
    rows: list[ClassificationReport]
    # Even m: must be empty (degree test is ground truth, patterns necessary).
    pattern_singular_degree_smooth: list[Perm]
    # Conjecture direction: expected empty, reported as a warning only.
    pattern_avoiding_degree_singular: list[Perm]
    counts: dict[str, int]
    elapsed: float
    phases: dict[str, float]  # seconds per SWEEP_PHASES entry


def _report(
    pi: Perm,
    r: int,
    deg: int,
    witness: tuple[Perm, int] | None,
    mask: int,
    cd: dict[Perm, int] | None = None,
) -> ClassificationReport:
    """One report row from the rank, w0 degree, first failing conjugate and
    containment mask; every derived field is computed here."""
    m = len(pi)
    if m % 2:
        verdict = NOT_APPLICABLE
    else:
        verdict = RATIONALLY_SMOOTH if deg == r else RATIONALLY_SINGULAR
    specs = tuple(spec for k, spec in enumerate(SPECS[:SINGULAR]) if mask >> k & 1)
    return ClassificationReport(
        perm=pi,
        m=m,
        rank=r,
        codim=max_rank(m) - r,
        w0_degree=deg,
        degree_verdict=verdict,
        conjugates_pass=witness is None,
        conjugate_witness=witness,
        conjugate_degrees=cd,
        pattern_singular=bool(specs),
        patterns=specs,
        conjectured_rationally_smooth=not specs,
        conjectured_smooth=not mask,
    )


def classify(pi: Perm) -> ClassificationReport:
    """Full report for a single involution."""
    if len(pi) > SWEEP_SIZE_GUARD:
        raise TooLarge(f"classify guard is m <= {SWEEP_SIZE_GUARD}, got {len(pi)}")
    r = rank(pi)
    cd = conjugate_degrees(pi)
    witness = next(((c, d) for c, d in sorted(cd.items()) if d != r), None)
    return _report(pi, r, w0_degree(pi), witness, pattern_mask(pi), cd)


def sweep(m: int) -> SweepReport:
    """Classify every involution of S_m; deterministic lexicographic rows.

    Degree data is computed with vectorized dominance-table comparisons;
    pattern containment in one orbit-deletion pass over all sizes up to m.
    """
    if m < 1:
        raise MalformedInput(f"sweep needs m >= 1, got {m}")
    if m > SWEEP_SIZE_GUARD:
        raise TooLarge(f"sweep guard is m <= {SWEEP_SIZE_GUARD}, got {m}")
    import numpy as np

    stamps = [time.perf_counter()]
    invs = enumerate_involutions(m)
    n_inv = len(invs)
    index = {p: i for i, p in enumerate(invs)}
    stamps.append(time.perf_counter())
    dom = np.array([dominance(p) for p in invs], dtype=np.int8)
    ranks = np.array([rank(p) for p in invs], dtype=np.int32)
    stamps.append(time.perf_counter())

    def leq_mask(v: Perm):
        # mask[i] = invs[i] <= v in Bruhat order
        return (dom >= dom[index[v]]).all(axis=1)

    bottom = w0(m)
    deg_w0 = np.zeros(n_inv, dtype=np.int32)
    for u in sorted(neighbors(bottom).neighbors):
        deg_w0 += leq_mask(u)

    cls = w0_class(m)
    nbr_map = {c: sorted(neighbors(c).neighbors) for c in cls}
    mask_cache: dict[Perm, object] = {}

    def cached_mask(u: Perm):
        got = mask_cache.get(u)
        if got is None:
            got = mask_cache[u] = leq_mask(u)
        return got

    conj_ok = np.ones(n_inv, dtype=bool)
    witnesses: dict[int, tuple[Perm, int]] = {}
    for c in cls:
        member = cached_mask(c)
        deg_c = np.zeros(n_inv, dtype=np.int32)
        for u in nbr_map[c]:
            deg_c += cached_mask(u)
        viol = member & (deg_c != ranks)
        fresh = viol & conj_ok
        for i in np.nonzero(fresh)[0]:
            witnesses[int(i)] = (c, int(deg_c[i]))
        conj_ok &= ~viol
    mask_cache.clear()
    stamps.append(time.perf_counter())
    pattern_bits = pattern_masks(invs)
    stamps.append(time.perf_counter())

    rows: list[ClassificationReport] = []
    singular_smooth: list[Perm] = []
    avoiding_singular: list[Perm] = []
    counts = {RATIONALLY_SMOOTH: 0, RATIONALLY_SINGULAR: 0, NOT_APPLICABLE: 0}
    for i, pi in enumerate(invs):
        row = _report(pi, int(ranks[i]), int(deg_w0[i]), witnesses.get(i), pattern_bits[i])
        counts[row.degree_verdict] += 1
        if row.pattern_singular and row.degree_verdict == RATIONALLY_SMOOTH:
            singular_smooth.append(pi)
        if not row.pattern_singular and row.degree_verdict == RATIONALLY_SINGULAR:
            avoiding_singular.append(pi)
        rows.append(row)
    stamps.append(time.perf_counter())
    return SweepReport(
        m=m,
        rows=rows,
        pattern_singular_degree_smooth=singular_smooth,
        pattern_avoiding_degree_singular=avoiding_singular,
        counts=counts,
        elapsed=stamps[-1] - stamps[0],
        phases={name: b - a for name, a, b in zip(SWEEP_PHASES, stamps, stamps[1:])},
    )


# ---------------------------------------------------------------------------
# Case-regression checklist
# ---------------------------------------------------------------------------

# Bad patterns whose bottom degree equals the rank; singularity is witnessed
# by a w0-conjugate of excess degree instead.
DEGREE_EXCEPTION_PATTERNS = (parse_perm("2137654"), parse_perm("4321576"))

# Single-fixed-point insertions of 213654 / 321465 where the bottom degree
# again equals the rank and a conjugate carries the excess.
DEGREE_EXCEPTION_INSERTIONS = (
    parse_perm("2134765"),
    parse_perm("3214576"),
    parse_perm("2137564"),
    parse_perm("4231576"),
)

INSERTION_SIZE_CAP = 10


@dataclass(frozen=True)
class CaseResult:
    item: str
    label: str
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class CaseChecklist:
    results: list[CaseResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _conjugate_excess(pi: Perm, r: int) -> list[tuple[Perm, int]]:
    return sorted((c, d) for c, d in conjugate_degrees(pi).items() if d > r)


def verify_known_cases() -> CaseChecklist:
    """Run the regression checks that pin down the known boundary cases.

    Failures are returned as data, never raised.
    """
    results: list[CaseResult] = []

    # (a) every bad pattern has bottom-degree excess, except the two where a
    # conjugate carries the excess instead.
    for spec in bad_patterns():
        p = spec.pattern
        r, deg = rank(p), w0_degree(p)
        label = format_perm(p)
        if p in DEGREE_EXCEPTION_PATTERNS:
            excess = _conjugate_excess(p, r)
            ok = deg == r and bool(excess)
            wit = tuple(f"{format_perm(c)}:deg={d}>r={r}" for c, d in excess[:1])
            results.append(CaseResult("a", f"{label} conjugate excess", ok, wit))
        else:
            results.append(
                CaseResult("a", f"{label} bottom excess", deg > r, (f"deg={deg} r={r}",))
            )

    # (b) the four insertion exceptions: bottom degree matches, conjugate excess.
    for p in DEGREE_EXCEPTION_INSERTIONS:
        r, deg = rank(p), w0_degree(p)
        excess = _conjugate_excess(p, r)
        ok = deg == r and bool(excess)
        wit = (f"deg={deg} r={r}",) + tuple(
            f"{format_perm(c)}:deg={d}" for c, d in excess[:1]
        )
        results.append(CaseResult("b", f"{format_perm(p)} conjugate excess", ok, wit))

    # (c) single-fixed-point insertions into bad patterns other than 2143 keep
    # bottom-degree excess, apart from the four insertions handled in (b).
    bad_inserts: list[str] = []
    checked = 0
    for spec in bad_patterns():
        p = spec.pattern
        if p == PATTERN_2143 or len(p) + 1 > INSERTION_SIZE_CAP:
            continue
        for pos in range(1, len(p) + 2):
            s = insert_fixed_point(p, pos)
            if s in DEGREE_EXCEPTION_INSERTIONS:
                continue
            checked += 1
            if w0_degree(s) <= rank(s):
                bad_inserts.append(f"{format_perm(p)}+fix@{pos}={format_perm(s)}")
    results.append(
        CaseResult(
            "c",
            "bad-pattern insertions keep bottom excess",
            not bad_inserts,
            tuple(bad_inserts) or (f"{checked} insertions checked",),
        )
    )
    # ... and one more fixed point on top of the four exceptions restores it.
    bad_inserts = []
    for p in DEGREE_EXCEPTION_INSERTIONS:
        for pos in range(1, len(p) + 2):
            s = insert_fixed_point(p, pos)
            if w0_degree(s) <= rank(s):
                bad_inserts.append(f"{format_perm(p)}+fix@{pos}={format_perm(s)}")
    results.append(
        CaseResult(
            "c",
            "exception insertions restore bottom excess",
            not bad_inserts,
            tuple(bad_inserts),
        )
    )

    # (d) 2143 plus one fixed point not between the pairs: among the
    # w0-conjugates in the interval fixing that point, exactly one has excess
    # degree.
    for pos in (1, 2, 4, 5):
        s = insert_fixed_point(PATTERN_2143, pos)
        r = rank(s)
        excess = [
            (c, d)
            for c, d in conjugate_degrees(s).items()
            if c[pos - 1] == pos and d > r
        ]
        ok = len(excess) == 1
        wit = tuple(f"{format_perm(c)}:deg={d}>r={r}" for c, d in excess)
        results.append(
            CaseResult("d", f"{format_perm(s)} unique fixing-conjugate excess", ok, wit)
        )

    # (e) 21435: bottom degree matches the rank yet the all-conjugates test
    # fails, and the parity-qualified 2143 containment flags it.
    s = parse_perm("21435")
    r, deg = rank(s), w0_degree(s)
    excess = _conjugate_excess(s, r)
    has_43215 = any(c == parse_perm("43215") for c, _ in excess)
    singular, _ = pattern_singular(s)
    ok = deg == r == 4 and has_43215 and singular
    results.append(
        CaseResult(
            "e",
            "21435 degree condition holds at bottom yet singular",
            ok,
            (f"deg={deg} r={r}",)
            + tuple(f"{format_perm(c)}:deg={d}" for c, d in excess),
        )
    )
    return CaseChecklist(results)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def _pattern_tokens(report: ClassificationReport) -> str:
    toks = []
    for spec in report.patterns:
        suffix = "q" if spec.qualifier == EVEN_FIXED_BETWEEN else ""
        toks.append(format_perm(spec.pattern) + suffix)
    return ",".join(toks) if toks else "-"


def report_record(report: ClassificationReport) -> str:
    """Machine-readable one-line record with fixed field order."""
    fields = [
        f"perm={format_perm(report.perm)}",
        f"m={report.m}",
        f"r={report.rank}",
        f"codim={report.codim}",
        f"deg_w0={report.w0_degree}",
        f"verdict={report.degree_verdict}",
        f"conjugates={'pass' if report.conjugates_pass else 'fail'}",
        f"patterns={_pattern_tokens(report)}",
    ]
    return " ".join(fields)


def report_text(report: ClassificationReport) -> str:
    """Human-readable multi-line report."""
    lines = [
        f"involution      {format_perm(report.perm)}  (m={report.m})",
        f"rank            {report.rank}",
        f"codim           {report.codim}",
        f"w0 degree       {report.w0_degree}",
        f"degree verdict  {report.degree_verdict}",
        f"conjugate test  {'pass' if report.conjugates_pass else 'fail'}",
    ]
    if report.conjugate_witness is not None:
        c, d = report.conjugate_witness
        lines.append(f"  witness       {format_perm(c)} degree {d} != {report.rank}")
    lines.append(f"patterns        {_pattern_tokens(report)}")
    lines.append(
        "conjectured     "
        f"rationally_smooth={str(report.conjectured_rationally_smooth).lower()} "
        f"smooth={str(report.conjectured_smooth).lower()}"
    )
    return "\n".join(lines) + "\n"


def sweep_records(report: SweepReport) -> list[str]:
    return [report_record(row) for row in report.rows]


def sweep_text(report: SweepReport) -> str:
    singular = [
        format_perm(r.perm)
        for r in report.rows
        if r.degree_verdict == RATIONALLY_SINGULAR
    ]
    lines = [f"m={report.m} involutions={len(report.rows)}"]
    if report.m % 2 == 0:
        head = f"{len(singular)} rationally singular"
        lines.append(head + (": " + " ".join(singular) if singular else ""))
        lines.append(
            "pattern-singular-degree-smooth="
            + (
                " ".join(format_perm(p) for p in report.pattern_singular_degree_smooth)
                or "none"
            )
        )
        lines.append(
            "pattern-avoiding-degree-singular="
            + (
                " ".join(format_perm(p) for p in report.pattern_avoiding_degree_singular)
                or "none"
            )
        )
    else:
        fails = [format_perm(r.perm) for r in report.rows if not r.conjugates_pass]
        lines.append(f"{len(fails)} fail the all-conjugates degree test")
    lines.append(f"# elapsed {report.elapsed:.3f}s")
    lines += [f"# phase {name} {sec:.3f}s" for name, sec in report.phases.items()]
    return "\n".join(lines) + "\n"
