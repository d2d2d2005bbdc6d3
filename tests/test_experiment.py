from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from extpoincare import experiment
from extpoincare.experiment import (
    ExperimentConfig,
    TrialTally,
    born_probabilities,
    category_probabilities,
    correlation_from_probabilities,
    estimate_exx,
    expected_correlation,
    point_seed,
    prepare_state,
    run_trials,
    sweep_phase,
)
from extpoincare.qubit import O_XX


def test_prepare_state_examples():
    plus = prepare_state(0.0)
    assert np.max(np.abs(plus.amplitudes - np.array([1, 0, 0, 1]) / np.sqrt(2))) < 1e-12
    minus = prepare_state(np.pi)
    assert np.max(np.abs(minus.amplitudes - np.array([1, 0, 0, -1]) / np.sqrt(2))) < 1e-12
    quarter = prepare_state(np.pi / 2)
    assert np.max(np.abs(quarter.amplitudes - np.array([1, 0, 0, 1j]) / np.sqrt(2))) < 1e-12


def test_prepare_state_mixed_is_a_density_matrix():
    rho = prepare_state(0.7, visibility=0.6)
    assert rho.shape == (4, 4)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    evals = np.linalg.eigvalsh(rho)
    assert np.min(evals) > -1e-12


def test_born_probabilities_on_eigenstates():
    probs = born_probabilities(prepare_state(0.0))
    assert probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(-1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert probs[(-1, 1)] == pytest.approx(0.0, abs=1e-12)
    probs = born_probabilities(prepare_state(np.pi))
    assert probs[(1, -1)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(-1, 1)] == pytest.approx(0.5, abs=1e-12)


def test_detector_dictionary_covers_the_four_ports():
    assert experiment.DETECTORS == {
        "D1": (1, 1), "D2": (1, -1), "D3": (-1, 1), "D4": (-1, -1)}
    assert tuple(experiment.DETECTORS.values()) == experiment.OUTCOMES


def test_born_probabilities_quarter_phase_uniform():
    probs = born_probabilities(prepare_state(np.pi / 2))
    for p in probs.values():
        assert p == pytest.approx(0.25, abs=1e-12)


@given(st.floats(0, 2 * np.pi), st.floats(0, 1))
def test_born_probabilities_sum_to_one_with_uniform_marginals(phi, v):
    probs = born_probabilities(prepare_state(phi, v))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    p_dir_plus = probs[(1, 1)] + probs[(1, -1)]
    p_pol_plus = probs[(1, 1)] + probs[(-1, 1)]
    assert p_dir_plus == pytest.approx(0.5, abs=1e-12)
    assert p_pol_plus == pytest.approx(0.5, abs=1e-12)


def test_expectation_two_ways_equals_the_swap_eigenvalue():
    for eps, phi in ((1, 0.0), (-1, np.pi)):
        state = prepare_state(phi)
        dense = np.vdot(state.amplitudes, O_XX.matrix() @ state.amplitudes).real
        from_counts = correlation_from_probabilities(born_probabilities(state))
        assert dense == pytest.approx(eps, abs=1e-12)
        assert from_counts == pytest.approx(eps, abs=1e-12)
        assert abs(dense - from_counts) < 1e-12


def test_visibility_closed_form_matches_the_dense_chain():
    # oracle for the v*cos(phi) factor in expected_correlation
    for phi in np.linspace(0, 2 * np.pi, 9):
        for v in (0.0, 0.3, 0.8, 1.0):
            probs = born_probabilities(prepare_state(phi, v))
            assert correlation_from_probabilities(probs) == pytest.approx(
                v * np.cos(phi), abs=1e-12)
            assert expected_correlation(phi, v, 0.0) == pytest.approx(
                v * np.cos(phi), abs=1e-12)


def test_phase_noise_factor_matches_gaussian_quadrature():
    # oracle for exp(-sigma^2/2): average cos(phi + delta) over delta ~ N(0, sigma)
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    for sigma in (0.1, 0.5, 1.0):
        for phi in (0.0, 0.9, np.pi / 2, 2.5):
            averaged = np.sum(weights * np.cos(phi + np.sqrt(2) * sigma * nodes)) / np.sqrt(np.pi)
            assert expected_correlation(phi, 1.0, sigma) == pytest.approx(
                averaged, abs=1e-12)


def test_config_validation_names_the_offending_field():
    with pytest.raises(ValueError, match="visibility"):
        ExperimentConfig(0.0, visibility=1.5)
    with pytest.raises(ValueError, match="eta"):
        ExperimentConfig(0.0, eta=-0.1)
    with pytest.raises(ValueError, match="dark"):
        ExperimentConfig(0.0, dark=1.0)
    with pytest.raises(ValueError, match="sigma"):
        ExperimentConfig(0.0, sigma=-1.0)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(0.0, trials=0)
    for name in ("phi", "visibility", "eta", "dark", "sigma"):
        for bad in (float("nan"), float("inf"), float("-inf"), True, "0.5"):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{"phi": 0.0, name: bad})
    for name in ("trials", "seed"):
        for bad in (True, False, 10.0, "10"):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(0.0, **{name: bad})
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(0.0, trials=2 ** 63)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(0.0, seed=seed)
    ExperimentConfig(0.0, trials=2 ** 63 - 1, seed=2 ** 64 - 1)


def test_same_seed_same_tally():
    config = ExperimentConfig(0.9, visibility=0.8, eta=0.7, dark=0.01,
                              sigma=0.2, trials=50_000, seed=42)
    t1 = run_trials(config)
    t2 = run_trials(config)
    assert t1.counts == t2.counts
    assert t1.discarded == t2.discarded


def test_zero_efficiency_discards_everything():
    config = ExperimentConfig(0.0, eta=0.0, trials=5_000, seed=1)
    tally = run_trials(config)
    assert tally.kept == 0
    assert tally.discarded == 5_000
    with pytest.raises(ValueError, match="discarded"):
        estimate_exx(tally)


def test_tally_bookkeeping():
    config = ExperimentConfig(1.1, eta=0.8, dark=0.02, trials=30_000, seed=3)
    tally = run_trials(config)
    assert tally.kept + tally.discarded == 30_000
    assert all(n >= 0 for n in tally.counts.values())


def test_ideal_run_at_phi_zero_is_perfectly_correlated():
    config = ExperimentConfig(0.0, trials=1_000_000, seed=11)
    e, stderr = estimate_exx(run_trials(config))
    assert e == 1.0
    assert stderr == 0.0


def test_estimator_examples():
    perfect = TrialTally({(1, 1): 500, (1, -1): 0, (-1, 1): 0, (-1, -1): 500}, 0)
    assert estimate_exx(perfect) == (1.0, 0.0)
    anti = TrialTally({(1, 1): 0, (1, -1): 500, (-1, 1): 500, (-1, -1): 0}, 0)
    assert estimate_exx(anti) == (-1.0, 0.0)
    uniform = TrialTally({o: 250 for o in experiment.OUTCOMES}, 0)
    e, stderr = estimate_exx(uniform)
    assert e == 0.0
    assert stderr == pytest.approx(1 / np.sqrt(1000), abs=1e-15)


@given(st.lists(st.integers(0, 10_000), min_size=4, max_size=4).filter(lambda c: sum(c) > 0))
def test_estimator_stays_in_range(counts):
    tally = TrialTally(dict(zip(experiment.OUTCOMES, counts)), 0)
    e, stderr = estimate_exx(tally)
    assert -1.0 <= e <= 1.0
    assert stderr >= 0.0


def test_monte_carlo_tracks_the_analytic_prediction():
    config = ExperimentConfig(np.pi / 3, visibility=0.9, sigma=0.3, trials=40_000, seed=5)
    e, stderr = estimate_exx(run_trials(config))
    assert abs(e - expected_correlation(np.pi / 3, 0.9, 0.3)) < 4 * stderr


def test_monte_carlo_dispersion_matches_the_binomial_error():
    # the +-30% band on a 30-sample std is a ~2.3 sigma window; the seed
    # family is fixed so the draw is deterministic
    target = expected_correlation(np.pi / 3, 1.0, 0.0)
    estimates, stderrs = [], []
    for seed in range(100, 130):
        config = ExperimentConfig(np.pi / 3, trials=10_000, seed=seed)
        e, stderr = estimate_exx(run_trials(config))
        estimates.append(e)
        stderrs.append(stderr)
    mean = np.mean(estimates)
    typical_stderr = np.mean(stderrs)
    assert abs(mean - target) < 4 * typical_stderr / np.sqrt(30)
    assert 0.7 * typical_stderr < np.std(estimates, ddof=1) < 1.3 * typical_stderr


def test_dark_counts_degrade_the_correlation_when_photons_can_be_lost():
    # with eta = 1 a lone dark click can never fake a coincidence (the photon
    # always clicks, so extra clicks only discard trials); run below unit
    # efficiency where fakes dilute the correlation
    estimates = []
    for dark in (0.0, 0.01, 0.05):
        config = ExperimentConfig(0.0, eta=0.9, dark=dark, trials=400_000, seed=23)
        e, _ = estimate_exx(run_trials(config))
        estimates.append(abs(e))
    assert estimates[0] > estimates[1] > estimates[2]


def test_dark_counts_with_unit_efficiency_only_discard():
    clean = ExperimentConfig(np.pi / 3, eta=1.0, dark=0.0, trials=200_000, seed=29)
    dark = ExperimentConfig(np.pi / 3, eta=1.0, dark=0.05, trials=200_000, seed=29)
    e_clean, stderr = estimate_exx(run_trials(clean))
    t_dark = run_trials(dark)
    e_dark, _ = estimate_exx(t_dark)
    assert t_dark.discarded > 0
    assert abs(e_dark - e_clean) < 5 * stderr


def test_sweep_signs_and_seed_derivation():
    config = ExperimentConfig(0.0, trials=20_000, seed=42)
    rows = sweep_phase([0.0, np.pi], config)
    assert rows[0].e_xx > 0.5
    assert rows[1].e_xx < -0.5
    # point j reruns exactly as point j of the master seed
    again = run_trials(ExperimentConfig(np.pi, trials=20_000, seed=42), point=1)
    assert again.counts == rows[1].tally.counts
    assert again.discarded == rows[1].tally.discarded
    first = run_trials(ExperimentConfig(0.0, trials=20_000, seed=42))
    assert first.counts == rows[0].tally.counts


def test_point_streams_never_overlap():
    # under seed XOR j, point 1 of seed 4 was point 0 of seed 5; spawn keys
    # give each (seed, point) pair its own state
    states = {tuple(point_seed(seed, j).generate_state(4))
              for seed in range(16) for j in range(16)}
    assert len(states) == 256
    for seed, j in ((4, 1), (0, 5), (7, 7)):
        aliased = seed ^ j
        a = np.random.default_rng(point_seed(seed, j)).random(8)
        b = np.random.default_rng(point_seed(aliased, 0)).random(8)
        assert not np.any(a == b)
    config = ExperimentConfig(0.9, eta=0.8, dark=0.02, trials=100_000, seed=4)
    assert run_trials(config, point=1) != run_trials(replace(config, seed=5), point=0)


valid_settings = dict(
    phi=st.floats(-1e6, 1e6),
    visibility=st.floats(0, 1),
    sigma=st.floats(0, 1e6),
    eta=st.floats(0, 1),
    dark=st.floats(0, 1, exclude_max=True),
)


@given(**valid_settings)
def test_category_probabilities_are_a_distribution(phi, visibility, sigma, eta, dark):
    p = category_probabilities(ExperimentConfig(phi, visibility=visibility, eta=eta,
                                                dark=dark, sigma=sigma))
    assert p.shape == (5,)
    assert np.all(np.isfinite(p))
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


@given(**valid_settings)
def test_expected_correlation_is_the_diluted_closed_form(phi, visibility, sigma, eta, dark):
    expected = expected_correlation(phi, visibility, sigma, eta, dark)
    keep = eta + 4.0 * (1.0 - eta) * dark
    if eta == 0.0 and dark == 0.0:
        assert expected is None
        return
    # near-zero keep probabilities lose the ratio to underflow
    assume(keep > 1e-100)
    v = visibility * np.exp(-0.5 * sigma * sigma)
    assert expected == pytest.approx(eta * v * np.cos(phi) / keep, rel=1e-9, abs=1e-12)


def test_monte_carlo_tracks_the_diluted_prediction():
    # eta = 0.5, dark = 0.05: lone dark clicks after photon loss dilute E_XX
    # to 0.5 V cos(phi) / 0.6
    config = ExperimentConfig(0.0, visibility=0.9, sigma=0.2, eta=0.5, dark=0.05,
                              trials=400_000, seed=31)
    row = sweep_phase([0.0], config)[0]
    assert row.expected == pytest.approx(0.5 * 0.9 * np.exp(-0.02) / 0.6, abs=1e-12)
    assert abs(row.e_xx - row.expected) < 4 * row.stderr


def test_sweep_midpoint_fluctuates_around_zero():
    config = ExperimentConfig(0.0, trials=100_000, seed=13)
    rows = sweep_phase([np.pi / 2], config)
    assert abs(rows[0].e_xx) <= 4 / np.sqrt(rows[0].tally.kept)


def test_sweep_rejects_empty_phase_list():
    with pytest.raises(ValueError, match="at least one"):
        sweep_phase([], ExperimentConfig(0.0, trials=10, seed=0))


def test_csv_text_round_trips_exactly():
    config = ExperimentConfig(0.0, visibility=0.9, trials=5_000, seed=2)
    rows = sweep_phase([0.0, 1.0, np.pi], config)
    text = experiment.sweep_csv_text(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(experiment.CSV_COLUMNS)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == row.phi
        assert int(cells[1]) == row.tally.trials
        assert int(cells[2]) == row.tally.kept
        assert int(cells[3]) == row.tally.discarded
        assert [int(c) for c in cells[4:8]] == [
            row.tally.counts[o] for o in experiment.OUTCOMES]
        assert float(cells[8]) == row.e_xx
        assert float(cells[9]) == row.stderr
        assert float(cells[10]) == row.expected


def test_csv_empty_estimate_cells_when_all_discarded():
    config = ExperimentConfig(0.0, eta=0.0, trials=100, seed=0)
    rows = sweep_phase([0.0], config)
    text = experiment.sweep_csv_text(rows)
    cells = text.strip().split("\n")[1].split(",")
    assert cells[8] == "" and cells[9] == "" and cells[10] == ""
