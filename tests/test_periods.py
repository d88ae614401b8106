"""Period detection and certification, the alternation identity, scans."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scoreplay import periods
from scoreplay.games import RenderSizeError, format_score
from scoreplay.octal import (
    BudgetExceededError,
    GrundySolver,
    OctalRules,
    Position,
    SweepTable,
    rules_from_name,
    subtraction_rules,
)
from scoreplay.periods import (
    PeriodReport,
    ScanInstance,
    ScanSpec,
    certified_start,
    certify_period,
    check_lemma,
    detect_certified_period,
    detect_period,
    parse_scan_spec,
    render_scaled,
    run_scan,
    scan_instance,
    sequence_digest,
    verify_period,
)
from support import INT_DIGIT_LIMIT, NINES, awards, first_repeated_window, non_splitting_rules


def frac(values):
    return [Fraction(v) for v in values]


O3333P2 = rules_from_name("o3333p2")
SUB3 = subtraction_rules((3,))
SUB45 = subtraction_rules((4, 5))


# ---------------------------------------------------------------------------
# Digest and verification


def test_sequence_digest_is_stable_and_sensitive():
    a = sequence_digest(frac([0, 2, 2]))
    assert a == sequence_digest(frac([0, 2, 2]))
    assert len(a) == 16
    assert a != sequence_digest(frac([0, 2, 3]))
    assert sequence_digest([Fraction(1, 2)]) != sequence_digest([Fraction(1, 3)])


def test_sequence_digest_of_scaled_ints_matches_their_values():
    values = [Fraction(-5, 3), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(7)]
    scaled = [v.numerator * 6 // v.denominator for v in values]
    assert render_scaled(scaled, 6) == ["-5/3", "1/2", "0", "1/2", "7"]
    assert render_scaled(values) == render_scaled(scaled, 6)
    assert sequence_digest(scaled, 6) == sequence_digest(values)
    assert sequence_digest(scaled) != sequence_digest(values)


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="str() converts any number of digits")
@pytest.mark.parametrize("scale", [1, 3])
def test_render_scaled_names_the_digit_limit_for_a_whole_value(scale):
    """A whole value skips the Fraction but not the limit's typed error."""
    assert render_scaled([-6, 3, 0], scale) == [format_score(Fraction(x, scale)) for x in (-6, 3, 0)]
    with pytest.raises(RenderSizeError, match=f"more than {INT_DIGIT_LIMIT} digits"):
        render_scaled([10**INT_DIGIT_LIMIT * scale], scale)


def test_verify_period_checks_every_index():
    values = frac([7, 0, 1, 0, 1, 0, 1])
    assert verify_period(values, 1, 2)
    assert not verify_period(values, 0, 2)
    assert not verify_period(values, 1, 3)


@pytest.mark.parametrize("period", [0, -10])
def test_verify_period_refuses_a_period_below_1(period):
    """A period of 0 compares each value with itself, and a negative one
    no pair at all, so either would hold of any sequence."""
    with pytest.raises(ValueError, match="period must be at least 1"):
        verify_period(sweep(SUB45, 100), 5, period)


@pytest.mark.parametrize(
    "preperiod, period, error",
    [(0, 0, ValueError), (27, -10, ValueError), (-1, 10, ValueError), (27, 10.0, TypeError), ("27", 10, TypeError)],
    ids=["period-0", "negative-period", "negative-preperiod", "float-period", "str-preperiod"],
)
def test_a_period_report_refuses_what_no_sequence_has(preperiod, period, error):
    """Before these were refused, certify_period passed sub45's sweep with
    the reports (0, 0) and (27, -10)."""
    with pytest.raises(error):
        PeriodReport(preperiod, period)
    assert certify_period(SUB45, PeriodReport(27, 10), sweep(SUB45, 100))
    assert PeriodReport(True, 10) == PeriodReport(1, 10)


# ---------------------------------------------------------------------------
# Detection


def test_detect_all_zero_sequence():
    report = detect_period(frac([0] * 8))
    assert (report.preperiod, report.period) == (0, 1)
    assert not report.certified


def test_detect_prefers_smallest_period_then_smallest_preperiod():
    report = detect_period(frac([0, 1, 0, 1, 0, 1]))
    assert (report.preperiod, report.period) == (0, 2)
    report = detect_period(frac([9, 1, 0, 1, 0, 1, 0, 1]), min_window=2)
    assert (report.preperiod, report.period) == (1, 2)


def test_detect_eleven_value_period_five_needs_window_two():
    values = frac([0, 2, 2, 2, 2, 0, 2, 2, 2, 2, 0])
    report = detect_period(values, min_window=2)
    assert (report.preperiod, report.period) == (0, 5)
    assert detect_period(values, min_window=3) is None


def test_detect_trailing_constant_run_is_reported_empirically():
    """A constant tail of min_window values legitimately detects period 1."""
    report = detect_period(frac([1, 2, 3, 0, 0, 0]))
    assert (report.preperiod, report.period) == (3, 1)


# ints and Fractions compare equal across types, so both may stand for one value
_entries = st.sampled_from([0, 1, -1, Fraction(1), Fraction(1, 2)])
_sequences = st.one_of(
    st.lists(_entries, min_size=1, max_size=12),
    st.builds(
        lambda head, block, copies: head + block * copies,
        st.lists(_entries, max_size=5),
        st.lists(_entries, min_size=1, max_size=4),
        st.integers(1, 6),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_sequences, st.integers(1, 4))
def test_detection_matches_a_brute_force_search(values, min_window):
    """The reported period verifies, its preperiod is minimal, and no
    smaller period has ``min_window`` copies after its own minimal preperiod."""
    assume(len(values) >= min_window)

    def minimal_preperiod(period):
        return next(start for start in range(len(values) + 1) if verify_period(values, start, period))

    qualifying = [
        (minimal_preperiod(period), period)
        for period in range(1, len(values) + 1)
        if len(values) - minimal_preperiod(period) >= min_window * period
    ]
    report = detect_period(values, min_window)
    if not qualifying:
        assert report is None
        return
    assert (report.preperiod, report.period) == qualifying[0]
    assert verify_period(values, report.preperiod, report.period)


def test_detect_returns_none_when_nothing_qualifies():
    assert detect_period(frac([1, 2, 3, 4, 5, 6])) is None


def test_detect_validates_inputs():
    with pytest.raises(ValueError):
        detect_period(frac([0, 0, 0]), min_window=0)
    with pytest.raises(ValueError):
        detect_period(frac([0, 0]), min_window=3)


# ---------------------------------------------------------------------------
# Certification


def sweep(rules, max_n):
    return GrundySolver(rules).sweep(max_n)


def test_certify_period_five_from_sweep_to_sixty():
    values = sweep(O3333P2, 60)
    report = detect_period(values)
    assert (report.preperiod, report.period) == (0, 5)
    assert certified_start(O3333P2, report) == 5  # past the four digits
    assert certify_period(O3333P2, report, values) is True


def test_certify_rejects_wrong_period():
    values = sweep(O3333P2, 60)
    wrong = PeriodReport(0, 3)
    assert certify_period(O3333P2, wrong, values) is False


def test_certify_needs_a_full_window():
    values = sweep(O3333P2, 10)
    report = detect_period(values, min_window=2)
    with pytest.raises(ValueError, match="certification window"):
        certify_period(O3333P2, report, values)


def test_certify_refuses_splitting_rules():
    o26 = rules_from_name("o26")
    values = GrundySolver(o26).sweep(40)
    report = detect_period(values)
    assert report is not None
    assert certify_period(o26, report, values) is False


def diverging_sequence(rules, preperiod, period, matches):
    """Values for a certify window that repeat with ``period`` for exactly
    ``matches`` indices from the certified start, then differ once.

    Not a sweep of ``rules``: the head is arbitrary, so only the window
    check stands between this sequence and a certificate.
    """
    report = PeriodReport(preperiod, period)
    start = certified_start(rules, report)
    length = start + 2 * period + len(rules.digits)
    values = [Fraction(n * n % 5, 1 + n % 2) for n in range(start + period)]
    for m in range(start + period, length):
        values.append(values[m - period] + (1 if m - period == start + matches else 0))
    return PeriodReport(preperiod, period), values


@pytest.mark.parametrize("rules", [SUB3, O3333P2, rules_from_name("sub45")], ids=lambda r: r.name)
@pytest.mark.parametrize("preperiod, period", [(0, 1), (0, 2), (9, 5), (14, 3)])
def test_certify_rejects_any_divergence_inside_the_window(rules, preperiod, period):
    lookback = len(rules.digits)
    for matches in range(period + lookback):
        report, values = diverging_sequence(rules, preperiod, period, matches)
        assert certify_period(rules, report, values) is False, matches
    report, values = diverging_sequence(rules, preperiod, period, period + lookback)
    assert certify_period(rules, report, values) is True  # the mismatch falls past the window


def test_certify_window_length_is_exact():
    values = sweep(O3333P2, 60)
    report = detect_period(values)
    needed = certified_start(O3333P2, report) + 2 * report.period + len(O3333P2.digits)
    assert certify_period(O3333P2, report, values[:needed]) is True
    with pytest.raises(ValueError, match="certification window"):
        certify_period(O3333P2, report, values[: needed - 1])


# ---------------------------------------------------------------------------
# Certification-preferring detection


def test_certified_search_skips_spurious_trailing_run():
    """The sweep to 500 ends in three equal values; the plain detection
    reports that run, while the certifying search proves the real period."""
    values = sweep(SUB3, 500)
    plain = detect_period(values)
    assert (plain.preperiod, plain.period) == (498, 1)
    best = detect_certified_period(SUB3, values)
    assert (best.preperiod, best.period, best.certified) == (0, 6, True)


def test_certified_search_falls_back_when_data_runs_short():
    """Swept to 8, sub3's period 6 needs one more value to certify."""
    values = sweep(SUB3, 8)
    plain = detect_period(values)
    best = detect_certified_period(SUB3, values)
    assert (best.preperiod, best.period) == (plain.preperiod, plain.period) == (6, 1)
    assert not best.certified
    assert detect_certified_period(SUB3, sweep(SUB3, 9)) == PeriodReport(0, 6, certified=True)


def test_certified_search_none_when_no_candidate():
    assert sweep(SUB3, 4) == [0, 0, 0, 3, 3]
    assert detect_certified_period(SUB3, sweep(SUB3, 4)) is None


def test_certified_search_validates_min_window_it_does_not_apply():
    """sub3 to 9 certifies with ten values, fewer than two copies of its
    period past the preperiod; min_window is checked all the same."""
    values = sweep(SUB3, 9)
    assert detect_certified_period(SUB3, values, min_window=10) == PeriodReport(0, 6, certified=True)
    for min_window in (0, 11):
        with pytest.raises(ValueError):
            detect_certified_period(SUB3, values, min_window)


def test_certified_search_keeps_splitting_rules_empirical():
    o26 = rules_from_name("o26")
    values = GrundySolver(o26).sweep(40)
    plain = detect_period(values)
    best = detect_certified_period(o26, values)
    assert (best.preperiod, best.period) == (plain.preperiod, plain.period)
    assert not best.certified


def test_certified_search_is_stable_under_longer_sweeps():
    """A proven period re-detects identically from a doubled sweep."""
    short = detect_certified_period(SUB3, sweep(SUB3, 60))
    long = detect_certified_period(SUB3, sweep(SUB3, 120))
    assert short.certified and long.certified
    assert (short.preperiod, short.period) == (long.preperiod, long.period)


@settings(max_examples=80, deadline=None)
@given(non_splitting_rules, st.integers(3, 150), st.integers(1, 4))
def test_detection_over_scaled_ints_matches_fractions(rules, max_n, min_window):
    """The solver's ints are equal exactly when the values they stand for
    are, so detection and certification find the same report; under the
    solver's scale the digest renders the same text."""
    solver = GrundySolver(rules)
    scaled = solver.sweep(max_n)
    reference = GrundySolver(rules)
    values = [reference.value(Position((("h", n),))) for n in range(max_n + 1)]
    assert all(type(x) is int for x in scaled)
    assert scaled == [v * solver.scale for v in values]
    assert detect_certified_period(rules, scaled, min_window) == (
        detect_certified_period(rules, values, min_window)
    )
    assert detect_period(scaled, min_window) == detect_period(values, min_window)
    assert sequence_digest(scaled, solver.scale) == sequence_digest(values)


def window_end(rules, report):
    """Values certify_period reads for ``report``, by its docstring."""
    return certified_start(rules, report) + 2 * report.period + len(rules.digits)


def certificate_end(rules, report):
    """Values the certified search needs for ``report``: f matches from
    max(preperiod, 1) and the f values one period later."""
    return max(report.preperiod, 1) + report.period + len(rules.digits)


# a head of arbitrary ints, then a block repeated to a length of up to 120
eventually_periodic = st.builds(
    lambda head, block, length: (head + block * length)[: len(head) + length],
    st.lists(st.integers(-3, 3), max_size=20),
    st.lists(st.integers(-3, 3), min_size=1, max_size=8),
    st.integers(0, 120),
)
# Rulesets named "h" with any digits, splitting ones included.
any_rules = st.lists(st.tuples(st.integers(0, 7), awards), min_size=1, max_size=6).filter(
    lambda moves: any(d for d, _ in moves)
).map(lambda moves: OctalRules("h", [d for d, _ in moves], [p for _, p in moves]))


@settings(max_examples=200, deadline=None)
@given(non_splitting_rules, eventually_periodic)
def test_every_candidate_whose_window_fits_certifies(rules, values):
    """Each candidate's preperiod is the least, and the candidate scan
    compares every pair from it to the end, so a window that fits holds
    nothing it has not compared."""
    candidates = list(periods._period_candidates(values, len(values)))
    assert [period for _, period in candidates] == list(range(1, len(values) + 1))
    for preperiod, period in candidates:
        assert verify_period(values, preperiod, period)
        assert preperiod == 0 or not verify_period(values, preperiod - 1, period)
        candidate = PeriodReport(preperiod, period)
        if window_end(rules, candidate) <= len(values):
            assert certify_period(rules, candidate, values) is True
        else:
            with pytest.raises(ValueError, match="certification window"):
                certify_period(rules, candidate, values)


def certify_each_candidate(rules, values, min_window=3, base=Position()):
    """The search by its definition, the reference: the first period whose
    f values from max(P, 1), with P its least preperiod found by brute
    force, recur one period later inside ``values``, certified; else the
    detect_period answer."""
    if base or rules.splits_heaps:
        return detect_period(values, min_window)
    lookback = len(rules.digits)
    for period in range(1, len(values)):
        preperiod = next(n for n in range(len(values)) if verify_period(values, n, period))
        start = max(preperiod, 1)
        later = values[start + period : start + period + lookback]
        if len(later) == lookback and values[start : start + lookback] == later:
            return PeriodReport(preperiod, period, certified=True)
    return detect_period(values, min_window)


def first_repeat_report(rules, values, min_window=3, base=Position()):
    """The reference for a sweep: the report its first repeated window of f
    values past index 0 proves, with the preperiod walked down from that
    window; the detect_period answer when no window repeats, the base is
    nonempty or the rules split heaps."""
    lookback = len(rules.digits)
    end = None if base or rules.splits_heaps else first_repeated_window(values, lookback, lookback + 1)
    if end is None:
        return detect_period(values, min_window)
    window = values[end - lookback : end]
    earlier = next(m for m in range(lookback + 1, end) if values[m - lookback : m] == window)
    period = end - earlier
    preperiod = earlier - lookback
    while preperiod and values[preperiod - 1] == values[preperiod - 1 + period]:
        preperiod -= 1
    return PeriodReport(preperiod, period, certified=True)


@settings(max_examples=200, deadline=None)
@given(any_rules, eventually_periodic, st.integers(1, 4), st.sampled_from([Position(), Position((("h", 3),))]))
def test_certified_search_matches_certifying_each_candidate(rules, values, min_window, base):
    assume(len(values) >= min_window)
    assert detect_certified_period(rules, values, min_window, base) == (
        certify_each_candidate(rules, values, min_window, base)
    )


@pytest.mark.parametrize(
    "rules, base, max_n",
    [
        (SUB3, Position(), 80),
        (rules_from_name("sub45"), Position(), 80),
        (O3333P2, Position(), 80),
        (OctalRules("h", (3, 2, 1), (1, -2, 5)), Position(), 80),
        (SUB3, Position((("sub3", 4),)), 80),
        (rules_from_name("o26"), Position(), 30),
    ],
    ids=["sub3", "sub45", "o3333p2", "lookback-past-take", "base", "splitting"],
)
def test_certified_search_matches_certifying_each_candidate_on_sweeps(rules, base, max_n):
    """Every prefix of a sweep, so short sweeps that cannot certify yet are
    among them; on a sweep both references agree."""
    values = GrundySolver(rules).sweep(max_n, base=base)
    for length in range(1, len(values) + 1):
        head = values[:length]
        for min_window in range(1, min(length, 4) + 1):
            found = detect_certified_period(rules, head, min_window, base)
            assert found == certify_each_candidate(rules, head, min_window, base), (length, min_window)
            assert found == first_repeat_report(rules, head, min_window, base), (length, min_window)


@pytest.mark.parametrize(
    "rules",
    [O3333P2, subtraction_rules((1, 2)), subtraction_rules((1, 2, 3)), OctalRules("h", (3, 2, 1), (1, -2, 5))],
    ids=lambda r: r.name if r.name != "h" else "lookback-past-take",
)
def test_a_period_certifies_exactly_when_the_sweep_reaches_its_window_end(rules):
    """The certificate's window ends at max(P, 1) + p + f: every shorter
    prefix of the sweep gets the empirical answer, and every prefix from
    there on the report of its first repeated window."""
    values = GrundySolver(rules).sweep(200)
    proven = detect_certified_period(rules, values)
    assert proven.certified
    end = certificate_end(rules, proven)
    for length in range(1, len(values) + 1):
        head = values[:length]
        found = detect_certified_period(rules, head, 1)
        assert found == (proven if length >= end else detect_period(head, 1)), length
        assert found == first_repeat_report(rules, head, 1), length


def test_the_longest_certificate_of_the_1_to_16_family_needs_a_sweep_to_481():
    """sub-15-16: P = 434, p = 32 and f = 16, so 482 values."""
    rules = subtraction_rules((15, 16))
    values = sweep(rules, 481)
    assert detect_certified_period(rules, values) == PeriodReport(434, 32, certified=True)
    assert detect_certified_period(rules, values[:-1]) is None


@pytest.mark.parametrize("amounts, preperiod, period", [((3,), 0, 6), ((4, 7), 11, 14)])
def test_a_certified_search_past_a_trailing_run_passes_certify_period(amounts, preperiod, period):
    """Swept to 500, these sets end in a run that detects period 1 first,
    too short to certify: the search skips it, and its report holds under
    certify_period's longer window over the sweep."""
    rules = subtraction_rules(amounts)
    values = sweep(rules, 500)
    assert detect_period(values).period == 1
    report = detect_certified_period(rules, values)
    assert (report.preperiod, report.period, report.certified) == (preperiod, period, True)
    assert certify_period(rules, report, values) is True


# Hand-built sequences, not sweeps: a head of fresh values, then a block of
# distinct values repeated, so no period but the block's can qualify.
def periodic_from(start, period, length):
    return [-1 - n if n < start else 10 + (n - start) % period for n in range(length)]


@pytest.mark.parametrize("rules", [SUB3, O3333P2, rules_from_name("sub45")], ids=lambda r: r.name)
@pytest.mark.parametrize("period", [1, 2, 5, 7])
def test_f_matches_from_index_0_alone_do_not_certify(rules, period):
    """v(f) is not the recurrence of the f values before it (a take may
    empty the heap), so the f matches must start at index 1 or later."""
    lookback = len(rules.digits)
    values = periodic_from(0, period, period + lookback)
    assert verify_period(values, 0, period)
    assert not detect_certified_period(rules, values, 1).certified
    longer = periodic_from(0, period, period + lookback + 1)
    assert detect_certified_period(rules, longer, 1) == PeriodReport(0, period, certified=True)


@pytest.mark.parametrize("rules", [SUB3, O3333P2, rules_from_name("sub45")], ids=lambda r: r.name)
@pytest.mark.parametrize("start, period", [(1, 1), (1, 3), (4, 2), (9, 5)])
def test_f_minus_1_matches_do_not_certify(rules, start, period):
    lookback = len(rules.digits)
    values = periodic_from(start, period, start + period + lookback - 1)
    assert verify_period(values, start, period)
    assert not detect_certified_period(rules, values, 1).certified
    longer = periodic_from(start, period, start + period + lookback)
    assert detect_certified_period(rules, longer, 1) == PeriodReport(start, period, certified=True)


@pytest.mark.parametrize("rules", [SUB3, O3333P2, rules_from_name("sub45")], ids=lambda r: r.name)
@pytest.mark.parametrize("start, period", [(1, 1), (1, 3), (4, 2), (9, 5)])
def test_a_divergence_after_p_plus_f_minus_1_matches_does_not_certify(rules, start, period):
    """The block matches one period later for p + f - 1 indices from
    ``start``, then one entry differs, and the block goes on repeating
    with that entry changed.  No prefix that holds the difference
    certifies the period from before it; it certifies from just past it
    once f more matches are in."""
    lookback = len(rules.digits)
    changed = start + 2 * period + lookback - 1  # its partner changed - period is the (p + f)th index
    values = periodic_from(start, period, changed + 3 * period + 2 * lookback)
    for n in range(changed, len(values), period):
        values[n] = 99
    after = PeriodReport(changed - period + 1, period, certified=True)
    for length in range(changed + 1, len(values) + 1):
        found = detect_certified_period(rules, values[:length], 1)
        assert found.certified == (length >= certificate_end(rules, after)), length
        assert not found.certified or found == after, length


@settings(max_examples=60, deadline=None)
@given(non_splitting_rules, st.lists(st.integers(0, 250), min_size=1, max_size=12), st.integers(1, 4))
def test_certified_reports_hold_under_certify_period_and_keep_the_window_search(rules, lengths, min_window):
    """At many sweep lengths, every certified report passes certify_period
    over a sweep long enough for its window; and wherever the search by
    certify_period's longer window certifies a report, this search gives
    the same one."""
    solver = GrundySolver(rules)
    for max_n in lengths:
        values = solver.sweep(max_n)
        if len(values) < min_window:
            continue
        report = detect_certified_period(rules, values, min_window)
        if report is not None and report.certified:
            assert certify_period(rules, report, solver.sweep(window_end(rules, report))) is True
        windowed = next(
            (
                PeriodReport(preperiod, period, certified=True)
                for preperiod, period in periods._period_candidates(values, len(values) // min_window)
                if len(values) - preperiod >= min_window * period
                and window_end(rules, PeriodReport(preperiod, period)) <= len(values)
            ),
            None,
        )
        if windowed is not None:
            assert report == windowed
            assert certify_period(rules, windowed, values) is True


# ---------------------------------------------------------------------------
# Alternation identity


def test_lemma_passes_for_take_four_five():
    report = check_lemma((4, 5), i_max=6)
    assert report.k == 5
    assert report.passed
    assert report.identity_failures == ()
    assert report.bound_failures == ()


@pytest.mark.parametrize(
    "entry, value, identity_failures, bound_failures",
    [
        (14, 7, ((4, 1, 7, 4),), ((4, 1, 7, 4, "even-block value above residue"),)),
        (9, 0, ((4, 1, 4, 5),), ((4, 0, 0, 1, "odd-block value below k-r"),)),
    ],
    ids=["even-block", "odd-block"],
)
def test_lemma_reports_each_failure_of_a_changed_sweep(monkeypatch, entry, value, identity_failures, bound_failures):
    """The real take-4-or-5 sweep with one entry changed.  Heap 14 (value 4)
    is residue 4 of even block 1 and the identity's left side for s=4, i=1;
    heap 9 (value 1) is residue 4 of odd block 0 and that identity's right
    side.  No one entry can break both bounds, so each case breaks one."""

    class ChangedSweep(GrundySolver):
        def sweep(self, *args, **kwargs):
            seq = super().sweep(*args, **kwargs)
            seq[entry] = value
            return seq

    monkeypatch.setattr(periods, "GrundySolver", ChangedSweep)
    report = check_lemma((4, 5), i_max=2)
    assert report.identity_failures == identity_failures
    assert report.bound_failures == bound_failures
    assert all(type(x) is Fraction for row in report.identity_failures + report.bound_failures for x in row[2:4])
    assert report.passed is False


def test_lemma_passes_for_singleton():
    assert check_lemma((3,), i_max=4).passed


def test_lemma_input_validation():
    with pytest.raises(ValueError):
        check_lemma((), i_max=3)
    with pytest.raises(ValueError):
        check_lemma((0, 2), i_max=3)
    with pytest.raises(ValueError):
        check_lemma((2,), i_max=0)


# ---------------------------------------------------------------------------
# Scan specs


FAMILY_SPEC = """# three-element ground set
seed: 9
max-n: 40
subtraction-family: 1-3
"""


def test_parse_scan_spec_family():
    spec = parse_scan_spec(FAMILY_SPEC)
    assert spec.seed == 9
    assert len(spec.instances) == 7  # nonempty subsets of {1,2,3}
    assert {inst.rules.name for inst in spec.instances} == {
        "sub1", "sub2", "sub3", "sub12", "sub13", "sub23", "sub123",
    }
    assert all(inst.max_n == 40 for inst in spec.instances)
    assert len(spec.digest) == 16


def test_parse_scan_spec_names_every_subset_of_a_wide_family_apart():
    spec = parse_scan_spec("subtraction-family: 1-12\n")
    assert len(spec.instances) == len({inst.rules.name for inst in spec.instances}) == 4095
    assert {"sub12", "sub-12", "sub-1-2-10"} <= {inst.rules.name for inst in spec.instances}


def test_parse_scan_spec_instance_settings():
    spec = parse_scan_spec(
        "instance: o3333p2 max-n=25 min-window=2 budget=none\n"
        "instance: sub45 fixed=3@sub45\n"
    )
    first, second = spec.instances
    assert (first.rules.name, first.max_n, first.min_window, first.budget) == ("o3333p2", 25, 2, None)
    assert second.fixed == Position((("sub45", 3),))
    assert second.extra_rules == ()
    (inst,) = parse_scan_spec("budget: none\nmax-n: 30\nmin-window: 4\ninstance: sub45\n").instances
    assert (inst.max_n, inst.min_window, inst.budget) == (30, 4, None)


def test_a_scan_instance_name_is_not_read_as_a_file(tmp_path, monkeypatch):
    (tmp_path / "sub45").write_text("name: sub45; digits: 3 3; points: 1 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (inst,) = parse_scan_spec("instance: sub45\n").instances
    assert inst.rules == subtraction_rules((4, 5))


def test_parse_scan_spec_fixed_base_pulls_extra_rules():
    spec = parse_scan_spec("instance: o3333p2 fixed=9@sub45\n")
    (inst,) = spec.instances
    assert [extra.name for extra in inst.extra_rules] == ["sub45"]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "no instances"),
        ("subtraction-family: 1\nsubtraction-family: 1\n", "line 2"),
        ("speed: 3\n", "line 1"),
        ("seed 3\n", "line 1"),
        ("instance: sub45 window=2\n", "line 1"),
        ("frobnicate: 1\n", "unknown directive"),
        ("instance: sub45 window=2\n", "unknown instance setting"),
        ("subtraction-family: 0-2\n", "line 1"),
        ("instance: sub45 fixed=3@mystery\n", "unknown ruleset"),
        ("instance:\n", "^scan spec line 1: instance directive needs a rules reference$"),
        ("instance: sub45 max-n\n", "^scan spec line 1: bad instance setting 'max-n'$"),
        ("subtraction-family: 1-x\n", "^scan spec line 1: bad ground set element '1-x'$"),
        ("subtraction-family: 2 -3\n", "^scan spec line 1: bad ground set element '-3'$"),
    ],
)
def test_parse_scan_spec_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_scan_spec(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("max-n: x\n", "bad max-n value 'x'"),
        ("instance: sub45 max-n=x\n", "bad max-n value 'x'"),
        ("seed: x\n", "bad seed value 'x'"),
        ("instance: sub45 budget=1.5\n", "bad budget value '1.5'"),
        ("min-window: none\n", "bad min-window value 'none'"),
        ("max-n: " + NINES + "\n", f"bad max-n value: more than {INT_DIGIT_LIMIT} digits"),
        ("instance: sub45 max-n=" + NINES + "\n", f"bad max-n value: more than {INT_DIGIT_LIMIT} digits"),
        ("seed: -" + NINES + "\n", f"bad seed value: more than {INT_DIGIT_LIMIT} digits"),
        ("subtraction-family: " + NINES + "\n", f"bad ground set element: more than {INT_DIGIT_LIMIT} digits"),
        ("subtraction-family: 1-" + NINES + "\n", f"bad ground set element: more than {INT_DIGIT_LIMIT} digits"),
        ("instance: sub45 fixed=3@nim0\n", "fixed position references unknown ruleset 'nim0'"),
    ],
    ids=[
        "max-n", "instance-max-n", "seed", "budget", "min-window", "over-long", "instance-over-long",
        "seed-over-long", "ground-over-long", "ground-range-over-long", "fixed-nim0",
    ],
)
def test_scan_spec_errors_name_the_bad_value(text, message):
    with pytest.raises(ValueError) as caught:
        parse_scan_spec(text)
    assert str(caught.value) == f"scan spec line 1: {message}"


def test_family_instances_take_each_setting_by_name():
    instances = parse_scan_spec("max-n: 7\nmin-window: 2\nbudget: 9\nsubtraction-family: 1-2\n").instances
    assert {(i.max_n, i.min_window, i.budget, i.extra_rules, i.fixed) for i in instances} == {
        (7, 2, 9, (), Position())
    }


@pytest.mark.parametrize("ground", ["1-17", "1-8 9-17", "1-100000000000"])
def test_a_family_over_sixteen_elements_is_refused_before_enumerating(monkeypatch, ground):
    def enumerate_subsets(ground):
        raise AssertionError(f"enumerated the subsets of {len(ground)} elements")

    monkeypatch.setattr(periods, "_nonempty_subsets", enumerate_subsets)
    with pytest.raises(ValueError, match="^scan spec line 2: ground set has more than 16 elements$"):
        parse_scan_spec(f"max-n: 10\nsubtraction-family: {ground}\n")


def test_a_family_of_sixteen_elements_is_accepted():
    assert periods._parse_ground_set("1-16 3 8-12") == list(range(1, 17))


@pytest.mark.parametrize("ground", ["[1-3]", "[1, 2, 3]", "1 2,3"])
def test_a_ground_set_takes_the_list_grammar_of_sub(ground):
    """Commas or spaces, and optional brackets, as in ``sub:[1,2,3]``."""
    spec = parse_scan_spec(f"subtraction-family: {ground}\n")
    assert spec.instances == parse_scan_spec("subtraction-family: 1-3\n").instances


BAD_SETTING_SPECS = [
    ("instance: sub45\nmax-n: -1\ninstance: sub:3\n", 3),
    ("instance: sub45\nmin-window: 0\nsubtraction-family: 1-2\n", 3),
    ("instance: sub:3 max-n=5 min-window=10\n", 1),
    ("budget: -1\ninstance: sub45\n", 2),
    ("instance: sub45 budget=-1\n", 1),
]


@pytest.mark.parametrize("text, lineno", BAD_SETTING_SPECS)
def test_parse_scan_spec_checks_instance_settings(text, lineno):
    """A negative max-n or budget, a min-window below 1, or one longer
    than the sweep is an error of the spec line that makes the instance."""
    with pytest.raises(ValueError, match=f"^scan spec line {lineno}: scan instance needs"):
        parse_scan_spec(text)


def test_scan_instance_budget_may_be_zero():
    assert ScanInstance(SUB3, budget=0).budget == 0
    (inst,) = parse_scan_spec("budget: 0\ninstance: sub45\n").instances
    assert inst.budget == 0


def test_scan_instance_accepts_the_tightest_window():
    assert ScanInstance(SUB3, max_n=0, min_window=1).max_n == 0
    assert ScanInstance(SUB3, max_n=5, min_window=6).min_window == 6


# ---------------------------------------------------------------------------
# Scan execution


def test_scan_instance_certified_row():
    row = scan_instance(ScanInstance(rules_from_name("sub45"), max_n=60))
    assert row.status == "ok"
    assert (row.preperiod, row.period) == (27, 10)
    assert row.certified and row.certified_from == 27
    assert (row.conjectured_2k, row.divides_2k) == (10, True)
    assert row.in_hypothesis and not row.counterexample


def test_scan_instance_certified_nondivisor_outside_hypothesis_not_flagged():
    """Points that differ from take sizes leave the divisor conjecture out of
    scope, so a certified non-divisor period must not raise the flag."""
    row = scan_instance(ScanInstance(O3333P2, max_n=60))
    assert row.certified
    assert (row.conjectured_2k, row.divides_2k) == (8, False)
    assert not row.in_hypothesis
    assert not row.counterexample


@pytest.mark.parametrize("certified", [False, True])
def test_scan_row_flags_only_a_certified_nondivisor_in_the_hypothesis(certified):
    """A hand-built report: sub3 lies in the hypothesis with 2k = 6, and
    period 4 does not divide it.  Only a proven period is a counterexample."""
    row = periods._scan_row(ScanInstance(SUB3), PeriodReport(0, 4, certified), "d")
    assert (row.status, row.conjectured_2k, row.divides_2k, row.in_hypothesis) == ("ok", 6, False, True)
    assert row.certified is row.counterexample is certified
    assert row.certified_from == (4 if certified else None)


def test_scan_instance_points_on_a_zero_digit_leave_the_hypothesis():
    row = scan_instance(ScanInstance(OctalRules("z", (0, 3), (1, 2)), max_n=60))
    assert row.certified and not row.in_hypothesis and not row.counterexample


# The three helpers that decided the hypothesis before ``_conjecture_2k``,
# kept as its reference.
def ref_respects_take_equals_score(rules):
    for take, (digit, points) in enumerate(zip(rules.digits, rules.points), start=1):
        if digit == 0:
            if points != 0:
                return False
        elif digit <= 3:
            if points != take:
                return False
        else:
            return False
    return True


def ref_largest_remainder_take(rules):
    best = None
    for take, digit in enumerate(rules.digits, start=1):
        if digit not in (0, 1):
            best = take
    return best


def ref_in_hypothesis(instance):
    rulesets = (instance.rules,) + instance.extra_rules
    if any(not ref_respects_take_equals_score(r) for r in rulesets):
        return False
    return ref_largest_remainder_take(instance.rules) is not None


@st.composite
def near_hypothesis_rules(draw, name):
    """Digits 0-7, mostly 0-3; awards that score each take's size, or any
    awards, fractional ones and nonzero awards on digit-0 takes among them."""
    digits = draw(st.lists(st.integers(0, 3) | st.integers(0, 7), min_size=1, max_size=6).filter(any))
    if draw(st.booleans()):
        points = [take if digit else 0 for take, digit in enumerate(digits, start=1)]
    else:
        choices = draw(st.lists(st.none() | awards, min_size=len(digits), max_size=len(digits)))
        points = [take if award is None else award for take, award in enumerate(choices, start=1)]
    return OctalRules(name, digits, points)


@settings(max_examples=500)
@given(
    near_hypothesis_rules("h"),
    st.integers(0, 2).flatmap(lambda count: st.tuples(*map(near_hypothesis_rules, ["e1", "e2"][:count]))),
)
def test_conjecture_2k_matches_the_helpers_it_replaced(rules, extra_rules):
    instance = ScanInstance(rules, extra_rules)
    k = ref_largest_remainder_take(rules)
    assert periods._conjecture_2k(instance) == (None if k is None else 2 * k, ref_in_hypothesis(instance))


def test_scan_instance_not_found_row():
    row = scan_instance(ScanInstance(SUB3, max_n=4))
    assert row.status == "not-found"
    assert row.preperiod is None and row.period is None
    assert not row.certified and not row.counterexample


def test_scan_instance_raises_over_its_budget():
    with pytest.raises(BudgetExceededError, match=r"^position budget exceeded \(5 positions\) evaluating 5@sub3$"):
        scan_instance(ScanInstance(SUB3, max_n=500, budget=5))


def test_run_scan_reports_a_budget_exceeded_row():
    """An instance over its budget gets a row, and the scan goes on."""
    over, within = ScanInstance(SUB3, max_n=500, budget=5), ScanInstance(O3333P2, max_n=60)
    first, second = run_scan(ScanSpec(0, (within, over), "")).rows
    assert (first.instance, first.status) == ("o3333p2", "ok")
    assert (second.instance, second.status, second.values_digest) == ("sub3", "budget-exceeded", "")
    assert second.preperiod is second.period is second.certified_from is None
    assert not second.certified and not second.counterexample


def test_scan_instance_hashes_each_sweep_once(monkeypatch):
    hashed = []

    def counting_digest(values, scale=1):
        hashed.append(len(values))
        return sequence_digest(values, scale)

    monkeypatch.setattr(periods, "sequence_digest", counting_digest)
    for max_n, status in [(60, "ok"), (4, "not-found")]:
        hashed.clear()
        row = scan_instance(ScanInstance(SUB3, max_n=max_n))
        assert row.status == status
        assert row.values_digest == sequence_digest(sweep(SUB3, max_n))
        assert hashed == [max_n + 1]


def test_scan_instance_fixed_base_stays_empirical():
    """The sweep's repeat proves the period of single heaps alone, and a
    sweep from a base never runs the fill, so its table proves nothing."""
    instance = ScanInstance(rules_from_name("sub45"), fixed=Position((("sub45", 4),)), max_n=60)
    row = scan_instance(instance)
    assert row.status == "ok"
    assert not row.certified and row.certified_from is None
    solver = GrundySolver(instance.rules)
    assert solver.sweep(instance.max_n, base=instance.fixed).proved is None
    assert solver.sweep(instance.max_n).proved == (27, 10)


@pytest.mark.parametrize("max_n, searched", [(20, 113), (60, 6), (500, 0)])
def test_family_rows_are_the_same_through_the_fallback(monkeypatch, max_n, searched):
    """Rows from the sweeps' repeats equal the rows the certified search
    gives when no sweep reports one; ``searched`` rows found no repeat."""
    spec = parse_scan_spec(f"max-n: {max_n}\nsubtraction-family: 1-7\n")
    calls = []

    def counting_search(*args):
        calls.append(args)
        return detect_certified_period(*args)

    monkeypatch.setattr(periods, "detect_certified_period", counting_search)
    proved = run_scan(spec)
    assert len(calls) == searched
    sweep = GrundySolver.sweep
    monkeypatch.setattr(GrundySolver, "sweep", lambda solver, *args: SweepTable(sweep(solver, *args)))
    assert run_scan(spec) == proved
    assert len(calls) == searched + 127


def test_run_scan_sorts_rows_and_renders_reports():
    report = run_scan(parse_scan_spec(FAMILY_SPEC))
    names = [row.instance for row in report.rows]
    assert names == sorted(names)
    assert report.seed == 9
    csv = report.to_csv()
    header, *rows = csv.strip().splitlines()
    assert header == (
        "instance,status,preperiod,period,certified,certified_from,conjectured_2k,"
        "divides_2k,in_hypothesis,counterexample,max_n,values_digest,rules_digest"
    )
    assert len(rows) == 7
    detail = report.to_detail()
    assert detail.startswith("scan-report\n")
    assert detail.count("instance: ") == 7


def test_run_scan_is_reproducible():
    first = run_scan(parse_scan_spec(FAMILY_SPEC)).to_csv()
    second = run_scan(parse_scan_spec(FAMILY_SPEC)).to_csv()
    assert first == second


PINNED_SPEC = """\
seed: 4
budget: none
max-n: 60
instance: sub45
instance: o3333p2 min-window=2
instance: sub14 fixed=5@sub14,2@sub45
instance: o26 max-n=40
instance: sub:3 max-n=4
instance: sub12 budget=5
"""

PINNED_CSV = """\
instance,status,preperiod,period,certified,certified_from,conjectured_2k,divides_2k,in_hypothesis,counterexample,max_n,values_digest,rules_digest
o26,ok,12,2,false,,4,true,false,false,40,41824981d42aecd5,5d68aaa65077
o3333p2,ok,0,5,true,5,8,false,false,false,60,389769b12a1972ca,675442638214
sub12,budget-exceeded,,,false,,4,,true,false,60,,d9900c21e37f
sub14,ok,0,8,false,,8,true,true,false,60,fd9f6eacb5333255,492fe40433e0
sub3,not-found,,,false,,6,,true,false,4,2efd832992dab7af,0aff4e971f01
sub45,ok,27,10,true,27,10,true,true,false,60,28944eddfa7a7560,8b88373f9c34
"""


PINNED_DETAIL = """\
scan-report
spec-digest: 75b8d5c4b9579275
seed: 4
instances: 6

instance: o26
status: ok
max-n: 40
preperiod: 12
period: 2
certified: false
certified-from: -
conjectured-2k: 4
divides-2k: true
in-hypothesis: false
counterexample: false
values-digest: 41824981d42aecd5
rules-digest: 5d68aaa65077

instance: o3333p2
status: ok
max-n: 60
preperiod: 0
period: 5
certified: true
certified-from: 5
conjectured-2k: 8
divides-2k: false
in-hypothesis: false
counterexample: false
values-digest: 389769b12a1972ca
rules-digest: 675442638214

instance: sub12
status: budget-exceeded
max-n: 60
preperiod: -
period: -
certified: false
certified-from: -
conjectured-2k: 4
divides-2k: -
in-hypothesis: true
counterexample: false
values-digest: 
rules-digest: d9900c21e37f

instance: sub14
status: ok
max-n: 60
preperiod: 0
period: 8
certified: false
certified-from: -
conjectured-2k: 8
divides-2k: true
in-hypothesis: true
counterexample: false
values-digest: fd9f6eacb5333255
rules-digest: 492fe40433e0

instance: sub3
status: not-found
max-n: 4
preperiod: -
period: -
certified: false
certified-from: -
conjectured-2k: 6
divides-2k: -
in-hypothesis: true
counterexample: false
values-digest: 2efd832992dab7af
rules-digest: 0aff4e971f01

instance: sub45
status: ok
max-n: 60
preperiod: 27
period: 10
certified: true
certified-from: 27
conjectured-2k: 10
divides-2k: true
in-hypothesis: true
counterexample: false
values-digest: 28944eddfa7a7560
rules-digest: 8b88373f9c34
"""


def test_scan_report_bytes_are_pinned():
    """Every row kind: certified, splitting and fixed-base ``ok``,
    ``not-found`` and ``budget-exceeded``.  ``None`` renders as an empty CSV
    cell and as ``-`` in the detail report; the budget-exceeded row's empty
    values digest stays empty, so its detail line ends in a space."""
    report = run_scan(parse_scan_spec(PINNED_SPEC))
    assert report.to_csv() == PINNED_CSV
    assert report.to_detail() == PINNED_DETAIL


SCALED_SPEC = """\
seed: 8
max-n: 300
instance: name:h;digits:3,3,0,3;points:1/2,3/2,0,-5/3
instance: name:hshort;digits:3,3,0,3;points:1/2,3/2,0,-5/3 max-n=6
instance: name:hbudget;digits:3,3,0,3;points:1/2,3/2,0,-5/3 budget=7
instance: name:hfixed;digits:3,3,0,3;points:1/2,3/2,0,-5/3 fixed=3@hfixed max-n=40
instance: name:neg;digits:3,0,2;points:-2/3,0,5/4
"""

SCALED_CSV = """\
instance,status,preperiod,period,certified,certified_from,conjectured_2k,divides_2k,in_hypothesis,counterexample,max_n,values_digest,rules_digest
h,ok,0,4,true,5,8,true,false,false,300,4c39359bf37a80f7,7b409bcae88d
hbudget,budget-exceeded,,,false,,8,,false,false,300,,1d672d9e5fe1
hfixed,ok,0,4,false,,8,true,false,false,40,4e37779d7dd42b95,f439b5014e15
hshort,not-found,,,false,,8,,false,false,6,72c5b190069738ef,2b3061501df2
neg,ok,1,6,true,4,6,true,false,false,300,3d744dc6e51f3a77,b0d32b773b17
"""


def test_scan_bytes_with_scale_above_one_are_pinned():
    """Fractional and negative awards (solver scales 6 and 12) in every row
    kind; ``neg`` has negative values and a nonzero preperiod."""
    report = run_scan(parse_scan_spec(SCALED_SPEC))
    assert report.to_csv() == SCALED_CSV
    assert report.spec_digest == "6e0006cd7c87ae1f"
    detail_rows = report.to_detail().split("\n\n")[1:]
    assert [block.splitlines()[-2] for block in detail_rows] == [
        "values-digest: 4c39359bf37a80f7",
        "values-digest: ",
        "values-digest: 4e37779d7dd42b95",
        "values-digest: 72c5b190069738ef",
        "values-digest: 3d744dc6e51f3a77",
    ]
