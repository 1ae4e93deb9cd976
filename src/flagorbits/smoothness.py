"""Verdict assembly: degree tests, pattern cross-validation, and sweeps.

For even m the bottom-vertex degree test decides rational smoothness and is
treated as ground truth; pattern containment is cross-validation.  For odd m
no verdict is issued, but the all-conjugates degree test and the pattern
classifier are reported side by side.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import MalformedInput
from .perms import (
    CHUNK_ROWS,
    Perm,
    format_perm,
    guard_size,
    insert_fixed_point,
    involution_rows,
    parse_perm,
    validate_involution,
)
from .bruhat import below_masks, max_rank, rank, ranks, threshold_bits
from .orbit_graph import class_graph, conjugate_degrees, w0_degree, w0_neighbors
from .patterns import (
    BAD_PATTERNS,
    PATTERN_2143,
    SINGULAR,
    SPECS,
    PatternHit,
    PatternSpec,
    occurrences,
    pattern_masks,
)

log = logging.getLogger(__name__)

SWEEP_PHASES = ("enumerate", "dominance+rank", "degree-masks", "patterns", "assemble")

RATIONALLY_SMOOTH = "rationally_smooth"
RATIONALLY_SINGULAR = "rationally_singular"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class ClassificationReport:
    """The five facts that decide pi's orbit closure; the other fields derive from them.

    >>> rep = classify((3, 4, 1, 2))
    >>> rep.codim, rep.degree_verdict, rep.patterns
    (3, 'rationally_smooth', ())
    >>> rep = classify(parse_perm("21435"))
    >>> rep.codim, rep.degree_verdict, rep.patterns
    (2, 'not_applicable', (PatternSpec(pattern=(2, 1, 4, 3), qualifier='even-fixed-between'),))
    """

    perm: Perm
    rank: int
    w0_degree: int
    conjugates_pass: bool
    # Bit k says that perm contains patterns.SPECS[k].
    mask: int

    @property
    def m(self) -> int:
        return len(self.perm)

    @property
    def codim(self) -> int:
        return max_rank(len(self.perm)) - self.rank

    @property
    def degree_verdict(self) -> str:
        """Even m: rationally smooth exactly when the w0 degree is the rank."""
        if len(self.perm) % 2:
            return NOT_APPLICABLE
        return RATIONALLY_SMOOTH if self.w0_degree == self.rank else RATIONALLY_SINGULAR

    @property
    def patterns(self) -> tuple[PatternSpec, ...]:
        return _specs(self.mask)

    @property
    def pattern_singular(self) -> bool:
        return bool(self.patterns)

    @property
    def conjectured_rationally_smooth(self) -> bool:
        return not self.pattern_singular

    @property
    def conjectured_smooth(self) -> bool:
        return not self.mask

    @cached_property
    def conjugate_witness(self) -> tuple[Perm, int] | None:
        """The first w0-conjugate (lexicographic) and its degree != rank, found on first access."""
        cd = conjugate_degrees(self.perm)
        return next(((c, d) for c, d in cd.items() if d != self.rank), None)

    @cached_property
    def certificates(self) -> list[tuple[PatternSpec, PatternHit]]:
        """One witness per matching pattern, found on first access."""
        return [(spec, occurrences(self.perm, spec)[0]) for spec in self.patterns]


@dataclass(frozen=True, eq=False)
class SweepReport:
    m: int
    # Per involution of S_m, in order: its int8 row, then ClassificationReport's fields.
    perm: np.ndarray
    rank: np.ndarray
    w0_degree: np.ndarray
    conjugates_pass: np.ndarray
    mask: np.ndarray
    # Even m: must be empty (degree test is ground truth, patterns necessary).
    pattern_singular_degree_smooth: list[Perm]
    # Conjecture direction: expected empty, reported as a warning only.
    pattern_avoiding_degree_singular: list[Perm]
    counts: dict[str, int]
    elapsed: float
    phases: dict[str, float]  # seconds per SWEEP_PHASES entry
    # masks: packed <=-masks built, one per vertex (`sweep`); mask_bytes: peak bytes of them
    # held at once; mask_entries: essential entries they compared; candidates: deg_w0 == rank rows.
    counters: dict[str, int]

    def _reports(self, part: slice = slice(None)) -> list[ClassificationReport]:
        cols = (c[part].tolist() for c in (self.rank, self.w0_degree, self.conjugates_pass, self.mask))
        return list(map(ClassificationReport, map(tuple, self.perm[part].tolist()), *cols))

    rows = property(_reports, doc="Each row's report, equal to its `classify`, built on access.")


@cache
def _specs(mask: int) -> tuple[PatternSpec, ...]:
    """The singularity-forcing specs a containment mask holds, in SPECS order."""
    return tuple(spec for k, spec in enumerate(SPECS[:SINGULAR]) if mask >> k & 1)


def classify(pi: Perm) -> ClassificationReport:
    """Full report for a single involution; the same value as its `sweep` row.
    w0 is a w0-conjugate above pi: `conjugate_degrees` runs only if deg_w0 == rank."""
    guard_size(len(pi), "classify")
    pi = validate_involution(pi)
    row = np.array([pi], dtype=np.int8)
    r, deg = int(ranks(row)[0]), w0_degree(pi)
    passes = deg == r and all(d == r for d in conjugate_degrees(pi).values())
    return ClassificationReport(pi, r, deg, passes, int(pattern_masks(row)[0]))


def sweep(m: int) -> SweepReport:
    """Classify every involution of S_m; deterministic lexicographic rows.

    Degrees come from bit-packed <=-masks (`bruhat.below_masks`): deg_w0 of
    every row from those of the `w0_neighbors`; the all-conjugates test, which
    w0 fails unless deg_w0 == rank, from one per `class_graph` vertex on those
    candidate rows only, its `outer` rows' per chunk of members.  Patterns
    come from one orbit-deletion pass, reading the tables of smaller sizes.
    """
    if type(m) is not int or m < 1:
        raise MalformedInput(f"sweep needs m >= 1, got {m!r}")
    guard_size(m, "sweep")

    stamps = [time.perf_counter()]
    inv_rows = involution_rows(m)
    stamps.append(time.perf_counter())
    bits = threshold_bits(inv_rows)
    rank_col = ranks(inv_rows)
    stamps.append(time.perf_counter())

    w0_masks, compared = below_masks(bits, w0_neighbors(m))
    built, held = len(w0_masks), w0_masks.nbytes
    deg_w0 = np.unpackbits(w0_masks.view(np.uint8), axis=1)[:, : len(inv_rows)].sum(axis=0)
    del bits, w0_masks  # the candidates' bits replace them
    cand = np.flatnonzero(deg_w0 == rank_col)
    bits = threshold_bits(inv_rows[cand])
    cand_rank = np.pad(rank_col[cand], (0, -len(cand) % 64))  # one per mask bit
    cls_rows, inner, outer = class_graph(m)
    cls_masks, n = below_masks(bits, cls_rows)
    built, compared = built + len(cls_rows), compared + n
    h = outer.shape[1]
    conj_ok = np.full(bits.shape[2], ~np.uint64(0))  # packed like the masks
    for s in range(0, len(cls_rows), CHUNK_ROWS):
        # Neighbours outside the class are built for this chunk only: each
        # has exactly one class neighbour, so each is built once.
        new, n = below_masks(bits, outer[s : s + CHUNK_ROWS].reshape(-1, m))
        built, compared = built + len(new), compared + n
        held = max(held, cls_masks.nbytes + new.nbytes)
        for k, mask in enumerate(cls_masks[s : s + CHUNK_ROWS]):
            live = mask & conj_ok  # a failed row stays failed
            words = np.flatnonzero(live)  # those holding some live candidate <= the member
            nbr_masks = np.concatenate((cls_masks[inner[s + k]], new[k * h : (k + 1) * h]))
            nbr_masks = np.take(nbr_masks, words, axis=1).view(np.uint8)
            deg_c = np.unpackbits(nbr_masks, axis=1).sum(axis=0, dtype=np.uint8)
            viol = np.packbits(deg_c != cand_rank.reshape(-1, 64)[words].ravel()).view(np.uint64)
            conj_ok[words] &= ~(viol & live[words])
        log.info("sweep m=%d: %d of %d class members, %d masks", m, s + k + 1, len(cls_rows), built)
    passes = np.zeros(len(inv_rows), dtype=bool)
    passes[cand] = np.unpackbits(conj_ok.view(np.uint8))[: len(cand)]
    stamps.append(time.perf_counter())
    pattern_bits = pattern_masks(inv_rows)
    stamps.append(time.perf_counter())

    # The column form of `degree_verdict` and `pattern_singular`.
    smooth, singular = (deg_w0 == rank_col) & (m % 2 == 0), (deg_w0 != rank_col) & (m % 2 == 0)
    flagged = (pattern_bits & ((1 << SINGULAR) - 1)) != 0
    counts = {RATIONALLY_SMOOTH: int(smooth.sum()), RATIONALLY_SINGULAR: int(singular.sum())}
    counts[NOT_APPLICABLE] = len(inv_rows) - sum(counts.values())
    singular_smooth = list(map(tuple, inv_rows[smooth & flagged].tolist()))
    avoiding_singular = list(map(tuple, inv_rows[singular & ~flagged].tolist()))
    stamps.append(time.perf_counter())
    return SweepReport(
        m, inv_rows, rank_col, deg_w0, passes, pattern_bits,
        pattern_singular_degree_smooth=singular_smooth,
        pattern_avoiding_degree_singular=avoiding_singular,
        counts=counts,
        elapsed=stamps[-1] - stamps[0],
        phases={name: b - a for name, a, b in zip(SWEEP_PHASES, stamps, stamps[1:])},
        counters=dict(masks=built, mask_bytes=held, mask_entries=compared, candidates=len(cand)),
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


@dataclass(frozen=True)
class CaseResult:
    item: str
    label: str
    passed: bool
    witnesses: tuple[str, ...] = ()


def _conjugate_excess(degrees: dict[Perm, int], r: int) -> list[tuple[Perm, int]]:
    return sorted((c, d) for c, d in degrees.items() if d > r)


def verify_known_cases() -> list[CaseResult]:
    """Run the regression checks that pin down the known boundary cases.

    Failures are returned as data, never raised.
    """
    results: list[CaseResult] = []
    patterns = [spec.pattern for spec in BAD_PATTERNS]
    exceptions = DEGREE_EXCEPTION_INSERTIONS
    inserts = [
        (p, pos, insert_fixed_point(p, pos))
        for p in patterns + list(exceptions)
        for pos in range(1, len(p) + 2)
    ]
    # (a) every bad pattern has bottom-degree excess, except the two where a
    # conjugate carries the excess instead.
    for p in patterns:
        r, deg = rank(p), w0_degree(p)
        label = format_perm(p)
        if p in DEGREE_EXCEPTION_PATTERNS:
            excess = _conjugate_excess(conjugate_degrees(p), r)
            ok = deg == r and bool(excess)
            wit = tuple(f"{format_perm(c)}:deg={d}>r={r}" for c, d in excess[:1])
            results.append(CaseResult("a", f"{label} conjugate excess", ok, wit))
        else:
            results.append(
                CaseResult("a", f"{label} bottom excess", deg > r, (f"deg={deg} r={r}",))
            )

    # (b) the four insertion exceptions: bottom degree matches, conjugate excess.
    for p in exceptions:
        r, deg = rank(p), w0_degree(p)
        excess = _conjugate_excess(conjugate_degrees(p), r)
        ok = deg == r and bool(excess)
        wit = (f"deg={deg} r={r}",) + tuple(
            f"{format_perm(c)}:deg={d}" for c, d in excess[:1]
        )
        results.append(CaseResult("b", f"{format_perm(p)} conjugate excess", ok, wit))

    # (c) single-fixed-point insertions into the 24 bad patterns keep
    # bottom-degree excess, apart from the four insertions handled in (b); one
    # more fixed point on top of those four restores it.
    kept = [x for x in inserts if x[0] not in exceptions and x[2] not in exceptions]
    on_exceptions = [x for x in inserts if x[0] in exceptions]
    for label, group, note in (
        ("bad-pattern insertions keep bottom excess", kept, (f"{len(kept)} insertions checked",)),
        ("exception insertions restore bottom excess", on_exceptions, ()),
    ):
        bad = tuple(
            f"{format_perm(p)}+fix@{pos}={format_perm(s)}"
            for p, pos, s in group
            if w0_degree(s) <= rank(s)
        )
        results.append(CaseResult("c", label, not bad, bad or note))

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
    rep = classify(parse_perm("21435"))
    r, deg = rep.rank, rep.w0_degree
    excess = _conjugate_excess(conjugate_degrees(rep.perm), r)
    has_43215 = any(c == parse_perm("43215") for c, _ in excess)
    ok = deg == r == 4 and has_43215 and rep.pattern_singular
    results.append(
        CaseResult(
            "e",
            "21435 degree condition holds at bottom yet singular",
            ok,
            (f"deg={deg} r={r}",)
            + tuple(f"{format_perm(c)}:deg={d}" for c, d in excess),
        )
    )
    return results


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


@cache
def _pattern_tokens(mask: int) -> str:
    """The patterns field of a report: one token per spec in `_specs(mask)`, "-" for none."""
    toks = (format_perm(spec.pattern) + ("q" if spec.qualifier else "") for spec in _specs(mask))
    return ",".join(toks) or "-"


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
        f"patterns={_pattern_tokens(report.mask)}",
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
    lines.append(f"patterns        {_pattern_tokens(report.mask)}")
    lines.append(
        "conjectured     "
        f"rationally_smooth={str(report.conjectured_rationally_smooth).lower()} "
        f"smooth={str(report.conjectured_smooth).lower()}"
    )
    return "\n".join(lines) + "\n"


def sweep_records(report: SweepReport) -> list[str]:
    """One `report_record` per row, from reports built CHUNK_ROWS rows at a time."""
    parts = (slice(s, s + CHUNK_ROWS) for s in range(0, len(report.perm), CHUNK_ROWS))
    return [rec for part in parts for rec in map(report_record, report._reports(part))]


def sweep_text(report: SweepReport) -> str:
    """The summary `flagorbits sweep` prints: counts and the coherence lists;
    the per-involution verdicts are in `sweep_records`."""
    lines = [f"m={report.m} involutions={len(report.perm)}"]
    if report.m % 2 == 0:
        lines.append(f"{report.counts[RATIONALLY_SINGULAR]} rationally singular")
        for name, found in (
            ("pattern-singular-degree-smooth", report.pattern_singular_degree_smooth),
            ("pattern-avoiding-degree-singular", report.pattern_avoiding_degree_singular),
        ):
            lines.append(f"{name}=" + (" ".join(map(format_perm, found)) or "none"))
    else:
        fails = len(report.perm) - int(report.conjugates_pass.sum())
        lines.append(f"{fails} fail the all-conjugates degree test")
    lines.append(f"# elapsed {report.elapsed:.3f}s")
    lines += [f"# phase {name} {sec:.3f}s" for name, sec in report.phases.items()]
    lines += [f"# counter {name} {value}" for name, value in report.counters.items()]
    return "\n".join(lines) + "\n"
