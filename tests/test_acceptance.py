"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 3-5 assert the rows of bell_checks, rep_checks and group_checks,
the one definition of each sampled invariant; the planted-defect tests at the
end show that every one of those rows can FAIL.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from extpoincare import checks, cli, doublet, experiment, group, qubit

import per_trial


def _announce(number: int, text: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f}s): {text}")


def test_criterion_1_eigenvalue_correlation():
    started = time.perf_counter()
    for eps, phi in ((1, 0.0), (-1, np.pi)):
        state = per_trial.prepare_state(phi)
        dense = np.trace(per_trial.XX @ state).real
        probs = per_trial.born_probabilities(state)
        summed = per_trial.correlation_from_probabilities(probs)
        assert abs(dense - eps) < 1e-12
        assert abs(summed - eps) < 1e-12
        assert abs(dense - summed) < 1e-12
    _announce(1, "X-X expectation equals the swap eigenvalue by both routes", started)


def test_criterion_2_phase_dictionary():
    started = time.perf_counter()
    for phi, target in ((0.0, 1.0), (np.pi, -1.0)):
        config = experiment.ExperimentConfig(phi, trials=1_000_000, seed=101)
        e, stderr = experiment.estimate_exx(experiment.run_trials(config))
        assert abs(e - target) <= 4 * stderr
    phis = np.linspace(0.0, 2 * np.pi, 17)
    for v, sigma in ((1.0, 0.0), (0.9, 0.0), (1.0, 0.5)):
        config = experiment.ExperimentConfig(0.0, visibility=v, sigma=sigma,
                                             trials=20_000, seed=77)
        rows = experiment.sweep_phase(phis, config)
        amplitude, fit_stderr = experiment.fit_cosine(rows)
        target = v * np.exp(-sigma ** 2 / 2)
        assert abs(amplitude - target) <= 3 * fit_stderr, (v, sigma, amplitude, fit_stderr)
    _announce(2, "phase settings 0 and pi give +-1 and sweeps fit v*exp(-sigma^2/2)*cos(phi)",
              started)


# (name, tolerance) of every row each suite reports, in report order
BELL_CHECK_ROWS = [
    ("sector isometry preserves inner products", 1e-12),
    ("observable embedding is a unital *-homomorphism", 1e-10),
    ("expectations agree on both sides of the dictionary", 1e-10),
    ("conjugated sector swap equals I x sigma_x", 1e-14),
    ("swap eigenstates give correlation +-1", 1e-12),
    ("entanglement entropy hits 0 and ln 2 at the extremes", 1e-12),
]
REP_CHECK_ROWS = [
    ("unitarity of every representation operator", 1e-12),
    ("sector swap and momentum reversal are involutions", 0.0),
    ("axial subgroup homomorphism", 1e-10),
    ("covariance under both discrete conjugations", 1e-10),
    ("per-point decomposition into swap eigenstates", 1e-12),
    ("swap eigenstates carry their labels", 1e-12),
]
GROUP_CHECK_ROWS = [
    ("involution squares to identity (10x10 angle grid)", 1e-12),
    ("product associativity", 1e-12),
    ("two-sided inverses", 1e-12),
    ("alpha_z is involutive for every z", 1e-12),
    ("orbit class invariant under the identity component", 0.0),
    ("pairing flips sign on the time-direction plane", 1e-12),
    ("timelike orbit merges with both massive classes and tachyonic", 0.0),
]
# group_checks' second row depends on the convention
CONE_ROWS = [("momentum", "aligned representative maps to its negative"),
             ("coordinate", "aligned representative is fixed")]


def group_check_rows(cone_row):
    return GROUP_CHECK_ROWS[:1] + [(cone_row, 1e-12)] + GROUP_CHECK_ROWS[1:]


def assert_rows_pass(results, want):
    assert [(r.name, r.tolerance) for r in results] == want
    assert all(r.passed for r in results), results


def test_criterion_3_equivalence_theorem():
    started = time.perf_counter()
    assert_rows_pass(checks.bell_checks(), BELL_CHECK_ROWS)
    _announce(3, "dictionary preserves expectations, products, adjoints and the swap block form",
              started)


def test_criterion_4_representation_suite():
    started = time.perf_counter()
    assert_rows_pass(checks.rep_checks(), REP_CHECK_ROWS)
    _announce(4, "involutions exact, operators unitary, axial homomorphism and covariances hold",
              started)


def test_criterion_5_group_suite():
    started = time.perf_counter()
    for convention, cone_row in CONE_ROWS:
        assert_rows_pass(checks.group_checks(convention), group_check_rows(cone_row))
    _announce(5, "involution squares, cone swap, orbit merging and class invariance hold", started)


def test_criterion_6_marginal_invariance():
    started = time.perf_counter()
    for phi in np.linspace(0, 2 * np.pi, 13):
        for v in (0.0, 0.5, 1.0):
            probs = per_trial.born_probabilities(per_trial.prepare_state(phi, v))
            assert abs(probs[(1, 1)] + probs[(1, -1)] - 0.5) <= 1e-12
            assert abs(probs[(-1, 1)] + probs[(-1, -1)] - 0.5) <= 1e-12
            assert abs(probs[(1, 1)] + probs[(-1, 1)] - 0.5) <= 1e-12
    e_plus = per_trial.correlation_from_probabilities(
        per_trial.born_probabilities(per_trial.prepare_state(0.0)))
    e_minus = per_trial.correlation_from_probabilities(
        per_trial.born_probabilities(per_trial.prepare_state(np.pi)))
    assert e_plus > 0.999 and e_minus < -0.999
    _announce(6, "marginals stay uniform while the correlation flips sign", started)


def test_criterion_7_reproducibility(tmp_path):
    started = time.perf_counter()
    base = ["experiment", "run", "--phi", "0.8", "--visibility", "0.95",
            "--eta", "0.9", "--dark", "0.002", "--trials", "200000", "--seed", "90"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w4.csv")]
    assert cli.main(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli.main(base + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert cli.main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    _announce(7, "identical seed and config give bitwise-identical CSV for 1 and 4 workers",
              started)


@pytest.mark.parametrize("convention, cone_row", CONE_ROWS)
def test_group_suite_rows_and_results_hold_over_seeds(convention, cone_row):
    for seed in range(21):
        assert_rows_pass(checks.group_checks(convention, seed=seed), group_check_rows(cone_row))


def _doublet(s, amps):
    """A state or stack over s's grid with the given (..., 2, N) amplitudes."""
    return doublet._state(s.grid, np.array(amps, dtype=complex))


def _translation_with_the_forward_phase_in_both_sectors(orig):
    def translate(s, a):
        phases = orig(_doublet(s, np.ones(s.amps.shape)), a).psi_fwd
        return _doublet(s, phases[..., None, :] * s.amps)
    return translate


def _boost_by_the_first_trials_shift(orig):
    return lambda s, rapidity: orig(s, np.ravel(rapidity)[0])


def _block_action_similar_not_unitary(orig):
    """S^-1 iota(A x B) S, S halving the forward sector: unital and multiplicative, not *."""
    def apply(op, s):
        amps = s.amps.copy()
        amps[..., 0, :] *= 0.5
        moved = orig(op, _doublet(s, amps)).amps.copy()
        moved[..., 0, :] *= 2.0
        return _doublet(s, moved)
    return apply


def _swap_with_the_first_samples_projector(orig):
    def swap(theta, phi):
        s = orig(theta, phi)
        s[..., 1:, 1:] = orig(np.ravel(theta)[0], np.ravel(phi)[0])[1:, 1:]
        return s
    return swap


def _involution_scaled_by_1_001(orig):
    return lambda *args, **kwargs: 1.001 * orig(*args, **kwargs)


# The suites at the sizes the planted defects run them: each defect below
# fails its row at every seed 0-49 at these sizes.
SMALL_SUITES = {
    "rep": lambda: checks.rep_checks(16, trials=5),
    "bell": lambda: checks.bell_checks(8, trials=5),
    "momentum": lambda: checks.group_checks("momentum", 100),
    "coordinate": lambda: checks.group_checks("coordinate", 100),
}

# One planted defect per suite row: (suite, row the defect must FAIL, module,
# attribute, defect built from the original attribute).
PLANTED_DEFECTS = [
    pytest.param("rep", REP_CHECK_ROWS[0][0], doublet, "apply_axial_rotation",
                 lambda orig: lambda s, alpha: _doublet(
                     s, (1 + 1j * s.grid.helicity * np.asarray(alpha)[..., None, None]) * s.amps),
                 id="rotation-phase-linearised"),
    pytest.param("rep", REP_CHECK_ROWS[1][0], doublet, "apply_u_lambda_inf",
                 lambda orig: lambda s, epsilon=1: _doublet(
                     s, np.stack([epsilon * s.psi_bwd, s.psi_fwd], axis=-2)),
                 id="swap-sign-on-one-sector"),
    pytest.param("rep", REP_CHECK_ROWS[2][0], doublet, "axial_product",
                 lambda orig: lambda grid, g1, g2: doublet.AxialElement(
                     g1.translation + g2.translation, g1.boost + g2.boost,
                     g1.rotation + g2.rotation),
                 id="axial-product-adds-translations"),
    # every state of a block must shift by its own k, not by the first trial's
    pytest.param("rep", REP_CHECK_ROWS[2][0], doublet, "apply_axial_boost",
                 _boost_by_the_first_trials_shift, id="boost-shifts-by-the-first-trial"),
    pytest.param("rep", REP_CHECK_ROWS[3][0], doublet, "apply_translation",
                 _translation_with_the_forward_phase_in_both_sectors,
                 id="backward-sector-gets-forward-phase"),
    pytest.param("rep", REP_CHECK_ROWS[4][0], doublet, "epsilon_components",
                 lambda orig: lambda s: orig(s)[::-1], id="epsilon-components-swapped"),
    pytest.param("rep", REP_CHECK_ROWS[5][0], doublet, "apply_u_lambda_inf",
                 lambda orig: lambda s, epsilon=1: orig(s), id="swap-ignores-epsilon"),
    pytest.param("bell", BELL_CHECK_ROWS[0][0], qubit, "sector_isometry",
                 lambda orig: lambda s: orig(s).conj(), id="isometry-conjugated"),
    pytest.param("bell", BELL_CHECK_ROWS[1][0], qubit, "apply_block",
                 lambda orig: lambda op, s: orig(
                     qubit.BlockOperator(op.a, np.swapaxes(op.b, -1, -2)), s),
                 id="block-action-transposes-b"),
    # scaling by powers of 2 keeps unit and product exact, so only the *-part catches it
    pytest.param("bell", BELL_CHECK_ROWS[1][0], qubit, "apply_block",
                 _block_action_similar_not_unitary, id="block-action-similar-not-unitary"),
    # A x conj(B) is still a unital *-homomorphism, so only the dictionary breaks
    pytest.param("bell", BELL_CHECK_ROWS[2][0], qubit, "apply_block",
                 lambda orig: lambda op, s: orig(qubit.BlockOperator(op.a, op.b.conj()), s),
                 id="block-action-conjugates-b"),
    pytest.param("bell", BELL_CHECK_ROWS[3][0], qubit, "apply_u_lambda_inf",
                 lambda orig: lambda s, epsilon=1: s, id="swap-that-does-not-swap"),
    pytest.param("bell", BELL_CHECK_ROWS[4][0], doublet, "make_epsilon_eigenstate",
                 lambda orig: lambda grid, psi, epsilon: orig(grid, psi, -epsilon),
                 id="eigenstate-of-the-other-eigenvalue"),
    pytest.param("bell", BELL_CHECK_ROWS[5][0], qubit, "entanglement_entropy",
                 lambda orig: lambda rho: orig(rho) / math.log(2.0), id="entropy-in-bits"),
    # the Gram block on (+H, +V), the product f|+H> + b|+V>: the row must read
    # the dictionary, not only the sector weights
    pytest.param("bell", BELL_CHECK_ROWS[5][0], qubit, "reduced_state",
                 lambda orig: lambda s: orig(s)[..., [0, 3, 1, 2], :][..., [0, 3, 1, 2]],
                 id="dictionary-sends-b-to-plus-v"),
    pytest.param("momentum", GROUP_CHECK_ROWS[0][0], group, "coordinate_swap",
                 _swap_with_the_first_samples_projector, id="stacked-swap-one-projector"),
    pytest.param("momentum", GROUP_CHECK_ROWS[0][0], group, "make_lambda_inf",
                 _involution_scaled_by_1_001, id="involution-scaled-by-1.001"),
    *[pytest.param(convention, cone_row, group, "lightlike_representative",
                   lambda orig: lambda omega, theta=0.0, phi=0.0:
                   orig(omega, theta, phi) * [1.0, -1.0, -1.0, -1.0],
                   id=f"representative-opposite-n-{convention}")
      for convention, cone_row in CONE_ROWS],
    pytest.param("momentum", GROUP_CHECK_ROWS[1][0], group, "poincare_mul",
                 lambda orig: lambda g, h: group.ExtPoincareElement(
                     g.linear @ h.linear, g.translation + group.act(h.linear, h.translation)),
                 id="product-translation-a-plus-h2-a2"),
    pytest.param("momentum", GROUP_CHECK_ROWS[2][0], group, "poincare_inverse",
                 lambda orig: lambda g: group.ExtPoincareElement(
                     orig(g).linear, np.zeros_like(g.translation)),
                 id="inverse-drops-the-translation"),
    pytest.param("momentum", GROUP_CHECK_ROWS[3][0], group, "alpha_z",
                 lambda orig: lambda z, n: group.ExtPoincareElement(
                     orig(z, n).linear, group.act(z @ group.METRIC, n.translation)),
                 id="alpha-z-lowers-the-translation-index"),
    pytest.param("momentum", GROUP_CHECK_ROWS[4][0], group, "classify_orbit",
                 lambda orig: lambda p: orig(np.asarray(p)[..., [3, 1, 2, 0]]),
                 id="orbit-time-read-from-p3"),
    # the row excuses only samples within twice the band fixed at import
    pytest.param("momentum", GROUP_CHECK_ROWS[4][0], group, "LIGHTLIKE_BAND",
                 lambda orig: 1e-3, id="band-widened"),
    pytest.param("momentum", GROUP_CHECK_ROWS[5][0], group, "minkowski",
                 lambda orig: lambda u, v: np.sum(np.multiply(u, v), axis=-1),
                 id="euclidean-pairing"),
    pytest.param("momentum", GROUP_CHECK_ROWS[6][0], group, "classify_orbit",
                 lambda orig: lambda p: orig(np.concatenate([abs(p[..., :1]), p[..., 1:]], -1)),
                 id="orbit-ignores-the-sign-of-p0"),
]


def test_planted_defects_cover_every_suite_row():
    rows = {name for name, _ in BELL_CHECK_ROWS + REP_CHECK_ROWS + GROUP_CHECK_ROWS}
    rows |= {cone_row for _, cone_row in CONE_ROWS}
    assert {param.values[1] for param in PLANTED_DEFECTS} == rows


def test_suites_pass_at_the_planted_defect_sizes():
    for suite, run in SMALL_SUITES.items():
        assert all(r.passed for r in run()), suite


@pytest.mark.parametrize("suite, row, module, name, defect", PLANTED_DEFECTS)
def test_planted_defect_fails_its_row(monkeypatch, suite, row, module, name, defect):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, defect(original))
    results = {r.name: r for r in SMALL_SUITES[suite]()}
    assert not results[row].passed, results[row]
    monkeypatch.undo()
    assert getattr(module, name) is original


def test_a_broken_involution_is_a_group_check_failure_not_an_input_error(monkeypatch, capsys):
    # alpha_z refuses the scaled z, so its row records NaN instead of raising
    monkeypatch.setattr(group, "make_lambda_inf",
                        _involution_scaled_by_1_001(group.make_lambda_inf))
    results = {r.name: r for r in checks.group_checks()}
    assert not results[GROUP_CHECK_ROWS[0][0]].passed
    assert math.isnan(results[GROUP_CHECK_ROWS[3][0]].max_deviation)
    assert cli.main(["group-check"]) == 1
    captured = capsys.readouterr()
    assert f"FAIL  {GROUP_CHECK_ROWS[3][0]}" in captured.out
    assert "error:" not in captured.err
