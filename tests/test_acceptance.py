"""Acceptance suite: every closed form against its independent oracle.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them on success) and asserts both the numeric check and its runtime
budget.
"""

import time
from math import gcd

import numpy as np

from coprimearray import (
    CoprimeCorrelogram,
    CoprimePair,
    FrequencyGrid,
    RangeKind,
    Scheme,
    SetKind,
    SignalModel,
    autocorrelation,
    bias_biased,
    bias_unbiased,
    complexity,
    correlogram,
    detect_peaks,
    difference_set,
    dof,
    generate_signal,
    main_peak,
    relative_amplitude,
    tones,
    unbiased_window,
    weight_closed_form,
    weight_oracle,
)
from coprimearray.errors import NotEnoughPeaksError

from reference import dtft_of_window

TABLE_ONE_KINDS = [
    SetKind.SELF_M_POS, SetKind.SELF_M_NEG, SetKind.SELF_N_POS, SetKind.SELF_N_NEG,
    SetKind.SELF_POS, SetKind.SELF_NEG, SetKind.SELF_UNION,
    SetKind.CROSS_POS, SetKind.CROSS_NEG, SetKind.CROSS_UNION,
]

#: Reference relative amplitudes: (M, N) -> (full, continuous, prototype).
ORIENTATION_TABLE = {
    (4, 3): (0.508, 0.521, 0.565), (3, 4): (0.683, 0.712, 0.762),
    (5, 3): (0.436, 0.461, 0.481), (3, 5): (0.737, 0.764, 0.774),
    (7, 3): (0.339, 0.349, 0.367), (3, 7): (0.701, 0.664, 0.665),
    (8, 3): (0.305, 0.320, 0.328), (3, 8): (0.667, 0.626, 0.626),
    (5, 4): (0.516, 0.529, 0.564), (4, 5): (0.651, 0.685, 0.714),
    (7, 4): (0.413, 0.430, 0.446), (4, 7): (0.735, 0.737, 0.744),
}

CHOICE_TABLE = {
    (14, 13): (0.537, 0.553, 0.566), (14, 5): (0.287, 0.297, 0.302),
    (7, 13): (0.734, 0.708, 0.710), (13, 14): (0.580, 0.610, 0.614),
    (5, 14): (0.641, 0.597, 0.597), (13, 7): (0.387, 0.403, 0.408),
}

RANGES = (RangeKind.FULL, RangeKind.CONTINUOUS, RangeKind.PROTOTYPE)


def coprime_pairs(limit):
    for M in range(2, limit + 1):
        for N in range(2, limit + 1):
            if gcd(M, N) == 1:
                yield CoprimePair(M, N)


def report(number, description, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status} {description} ({detail})")
    assert passed, f"criterion {number}: {description} ({detail})"


def test_criterion_01_cardinality_closed_forms():
    start = time.perf_counter()
    failures = []
    for pair in coprime_pairs(25):
        for kind in TABLE_ONE_KINDS:
            if dof(pair, kind) != len(difference_set(pair, kind)):
                failures.append((pair, kind))
    elapsed = time.perf_counter() - start
    report(
        1, "set cardinalities equal closed forms for 2 <= M, N <= 25",
        not failures and elapsed < 5.0,
        f"{len(failures)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_02_contiguity_and_first_hole():
    start = time.perf_counter()
    failures = []
    for pair in coprime_pairs(25):
        members = difference_set(pair, SetKind.CROSS_UNION).multiplicity
        run = pair.continuous_lag_limit
        covered = all(lag in members for lag in range(-run, run + 1))
        hole_absent = (run + 1) not in members and -(run + 1) not in members
        if not (covered and hole_absent):
            failures.append(pair)
    elapsed = time.perf_counter() - start
    report(
        2, "cross union set is hole-free to MN+M-1 with first hole at MN+M",
        not failures and elapsed < 5.0,
        f"{len(failures)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_03_weight_closed_form_equals_oracle():
    start = time.perf_counter()
    failures = []
    for pair in coprime_pairs(25):
        for range_kind in RANGES:
            if weight_closed_form(pair, range_kind).counts != weight_oracle(pair, range_kind).counts:
                failures.append((pair, range_kind))
    elapsed = time.perf_counter() - start
    report(
        3, "closed-form weights equal the pair-enumeration oracle at every lag",
        not failures and elapsed < 30.0,
        f"{len(failures)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_04_weight_identities():
    failures = []
    for pair in coprime_pairs(25):
        full = weight_closed_form(pair, RangeKind.FULL)
        if full.total() != pair.sample_count ** 2 or full[0] != pair.sample_count:
            failures.append(pair)
    report(
        4, "sum of full weights is (2M+N-1)^2 and the zero-lag weight is 2M+N-1",
        not failures, f"{len(failures)} mismatches",
    )


def test_criterion_05_bias_closed_forms_match_transform_oracle():
    start = time.perf_counter()
    grid = FrequencyGrid(4096)
    worst = 0.0
    for pair in coprime_pairs(15):
        unbiased_closed = bias_unbiased(pair, RangeKind.FULL, grid)
        oracle = dtft_of_window(unbiased_window(pair, RangeKind.FULL).indicator, grid)
        worst = max(worst, float(np.max(np.abs(unbiased_closed.values - oracle.values))))
        for range_kind in RANGES:
            closed = bias_biased(pair, range_kind, grid, s_b=1.0)
            oracle = dtft_of_window(weight_oracle(pair, range_kind).counts, grid)
            worst = max(worst, float(np.max(np.abs(closed.values - oracle.values))))
    elapsed = time.perf_counter() - start
    report(
        5, "bias window closed forms match the transform oracle (sup norm < 1e-9)",
        worst < 1e-9 and elapsed < 60.0,
        f"worst {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_peak_formulas_equal_weight_sums():
    failures = []
    for pair in coprime_pairs(25):
        for range_kind in RANGES:
            if main_peak(pair, range_kind) != weight_oracle(pair, range_kind).total():
                failures.append((pair, range_kind))
    example = CoprimePair(4, 3)
    values = tuple(main_peak(example, range_kind) for range_kind in RANGES)
    report(
        6, "zero-frequency peak formulas equal weight sums; (4,3) gives 100/92/74",
        not failures and values == (100, 92, 74),
        f"{len(failures)} mismatches, (4,3) -> {values}",
    )


def _amplitude_check(table, grid):
    worst = 0.0
    computed = {}
    for (M, N), expected in table.items():
        pair = CoprimePair(M, N)
        got = tuple(
            relative_amplitude(pair, range_kind, grid).relative_amplitude
            for range_kind in RANGES
        )
        computed[(M, N)] = got
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
    return worst, computed


def test_criterion_07_orientation_table_reproduced():
    start = time.perf_counter()
    worst, _ = _amplitude_check(ORIENTATION_TABLE, FrequencyGrid(16384))
    elapsed = time.perf_counter() - start
    report(
        7, "relative amplitudes match the reference orientation table within 0.01",
        worst <= 0.01 and elapsed < 60.0,
        f"worst deviation {worst:.4f}, {elapsed:.1f}s",
    )


def test_criterion_08_choice_table_reproduced():
    worst, computed = _amplitude_check(CHOICE_TABLE, FrequencyGrid(16384))
    # The half-ratio configuration beats both same-scale alternatives in
    # every column.
    ranked = all(
        computed[(7, 13)][col] > computed[(14, 13)][col]
        and computed[(7, 13)][col] > computed[(14, 5)][col]
        for col in range(3)
    )
    report(
        8, "relative amplitudes match the reference choice table within 0.01, (7,13) on top",
        worst <= 0.01 and ranked,
        f"worst deviation {worst:.4f}, ranking {'holds' if ranked else 'broken'}",
    )


def test_criterion_09_complexity_closed_forms():
    failures = []
    for pair in coprime_pairs(20):
        schemes = [Scheme.EXTENDED_FULL, Scheme.EXTENDED_CONTINUOUS, Scheme.EXTENDED_PROTOTYPE]
        if pair.M > pair.N:
            schemes.append(Scheme.PROTOTYPE_CONTINUOUS)
        for scheme in schemes:
            try:
                complexity(pair, scheme)  # raises ConsistencyError on mismatch
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                failures.append((pair, scheme, exc))
    example = complexity(CoprimePair(4, 3), Scheme.EXTENDED_FULL)
    values = (example.multiplications, example.additions)
    report(
        9, "cost formulas equal weight-sum oracles; (4,3) full gives 55/36",
        not failures and values == (55, 36),
        f"{len(failures)} mismatches, (4,3) -> {values}",
    )


def test_criterion_10_white_noise_variance():
    start = time.perf_counter()
    pair = CoprimePair(4, 3)
    grid = FrequencyGrid(1024)
    snapshots = 10_000
    stream = generate_signal(SignalModel(noise_power=1.0, seed=0), pair.period * snapshots)
    curves = np.empty((snapshots, grid.size))
    for index in range(snapshots):
        snapshot = stream[index * pair.period:(index + 1) * pair.period]
        curves[index] = correlogram(autocorrelation(snapshot, pair, RangeKind.FULL), grid).values
    mean = curves.mean(axis=0)
    variance = curves.var(axis=0, ddof=1)
    standard_error = np.sqrt(variance / snapshots)
    variance_dev = float(np.max(np.abs(variance - 1.0)))
    mean_dev = float(np.max(np.abs(mean - 1.0) / standard_error))
    elapsed = time.perf_counter() - start
    report(
        10, "white-noise correlogram: variance within 10% of sigma^4, mean within 5 SE",
        variance_dev <= 0.10 and mean_dev <= 5.0 and elapsed < 120.0,
        f"max|var-1| {variance_dev:.3f}, max mean dev {mean_dev:.2f} SE, {elapsed:.1f}s",
    )


def test_criterion_11_peak_location_trials():
    start = time.perf_counter()
    pair = CoprimePair(3, 7)
    grid = FrequencyGrid(1024)
    tolerance = grid.step + 1e-12
    estimator = CoprimeCorrelogram(3, 7, snapshots=10, lag_range="full", grid_size=grid.size)

    single = SignalModel(tones(0.4 * np.pi), noise_power=0.1)
    single_hits = 0
    for trial in range(100):
        curve = estimator.fit(generate_signal(single, pair.period * 10, trial)).curve_
        peak_omega = curve.omega[np.argmax(curve.values)]
        if abs(peak_omega - 0.4 * np.pi) <= tolerance:
            single_hits += 1

    targets = (0.3 * np.pi, 0.5 * np.pi, 0.7 * np.pi)
    triple = SignalModel(tones(*targets), noise_power=0.1)
    triple_hits = 0
    for trial in range(100):
        curve = estimator.fit(generate_signal(triple, pair.period * 10, trial)).curve_
        try:
            found = sorted(omega for omega, _ in detect_peaks(curve, 3))
        except NotEnoughPeaksError:
            continue
        if all(abs(f - t) <= tolerance for f, t in zip(found, targets)):
            triple_hits += 1

    elapsed = time.perf_counter() - start
    report(
        11, "peak location: single tone >= 95/100 and three tones >= 90/100 within one bin",
        single_hits >= 95 and triple_hits >= 90 and elapsed < 120.0,
        f"single {single_hits}/100, triple {triple_hits}/100, {elapsed:.1f}s",
    )
