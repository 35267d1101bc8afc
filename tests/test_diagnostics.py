"""Hessian assembly, PSD testing, witnesses and the brute-force oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from sslsq import diagnostics
from sslsq import (
    CapacityError,
    ClassEncoding,
    Dataset,
    DegenerateInputError,
    HessianKind,
    InvalidInputError,
    NoWitnessError,
    SolverConfig,
    SyntheticSpec,
    brute_force_hard_minimum,
    build_hessian,
    decision_values,
    find_witness,
    fit_hard,
    fit_soft,
    generate,
    grid_soft_minimum,
    is_psd,
    label_objective,
    responsibility_objective,
    ridge_operator,
    soft_grid_slack,
    supervised_objective,
    update_hard_labels,
    update_weights,
)

from conftest import (
    _reduced_quadratic,
    central_hessian,
    chunked_gemm_hard_minimum,
    dense_responsibility_witness,
    exhaustive_hard_minimum,
    make_dataset,
    scaled_collinear_data,
    tiled_grid_soft_minimum,
    unpruned_hard_minimum,
)


def tiny_dataset():
    # d = 1, L = 1, U = 1 with unit features: blocks are hand-checkable.
    return Dataset([[1.0]], [1.0], [[1.0]])


class TestBuildHessian:
    def test_label_based_blocks(self):
        block = build_hessian(tiny_dataset(), HessianKind.LABEL_BASED)
        np.testing.assert_allclose(block.matrix, [[4.0, -2.0], [-2.0, -2.0]])

    def test_responsibility_based_blocks(self):
        block = build_hessian(tiny_dataset(), HessianKind.RESPONSIBILITY_BASED)
        np.testing.assert_allclose(block.matrix, [[4.0, -2.0], [-2.0, 0.0]])

    def test_label_based_has_negative_eigenvalue(self):
        block = build_hessian(tiny_dataset(), HessianKind.LABEL_BASED)
        # det = -8 - 4 = -12 < 0: indefinite.
        assert np.linalg.det(block.matrix) == pytest.approx(-12.0)
        assert np.min(np.linalg.eigvalsh(block.matrix)) < 0.0

    def test_ridge_term_enters_leading_block(self, rng):
        data = make_dataset(rng, 4, 3, 2)
        plain = build_hessian(data, HessianKind.LABEL_BASED, lam=0.0)
        ridged = build_hessian(data, HessianKind.LABEL_BASED, lam=0.7)
        bump = ridged.matrix - plain.matrix
        np.testing.assert_allclose(bump[:2, :2], 2 * 0.7 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(bump[2:, :], 0.0, atol=1e-12)

    def test_requires_unlabeled_block(self, rng):
        with pytest.raises(DegenerateInputError):
            build_hessian(make_dataset(rng, 4, 0, 2), HessianKind.LABEL_BASED)

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_rejects_bad_ridge_penalty(self, rng, lam):
        # A negative or NaN penalty is refused, not read as lam = 0.
        data = make_dataset(rng, 4, 3, 2)
        for kind in HessianKind:
            with pytest.raises(InvalidInputError, match="ridge penalty"):
                build_hessian(data, kind, lam)
            with pytest.raises(InvalidInputError, match="ridge penalty"):
                diagnostics._psd_verdict(data, kind, lam)
            with pytest.raises(InvalidInputError, match="ridge penalty"):
                find_witness(data, kind, lam)

    def test_symmetry(self, rng):
        for kind in HessianKind.LABEL_BASED, HessianKind.RESPONSIBILITY_BASED:
            block = build_hessian(make_dataset(rng, 5, 4, 3), kind)
            np.testing.assert_allclose(block.matrix, block.matrix.T, atol=1e-12)

    def test_matches_finite_difference_curvature(self, rng):
        # The responsibility matrix is the exact second derivative of its
        # objective. For the label-based kind the leading and coupling
        # blocks are the exact second derivatives of the label objective;
        # the trailing block is modeled as -2I by construction (the
        # objective's own curvature in the imputed labels is +2I, which is
        # what the finite differences recover).
        for _ in range(5):
            data = make_dataset(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)),
                                int(rng.integers(1, 3)))
            d, U = data.n_features, data.n_unlabeled
            lam = float(rng.choice([0.0, 0.5]))
            point = rng.standard_normal(d + U)
            w0, q0 = point[:d], np.clip(point[d:], 0.05, 0.95)

            resp = build_hessian(data, HessianKind.RESPONSIBILITY_BASED, lam=lam).matrix
            fd_resp = central_hessian(
                lambda z: responsibility_objective(
                    data, z[:d], np.clip(z[d:], 0.0, 1.0), ClassEncoding(), lam
                ),
                np.concatenate([w0, q0]),
            )
            np.testing.assert_allclose(resp, fd_resp, atol=1e-5 * (1 + np.abs(resp).max()))

            label = build_hessian(data, HessianKind.LABEL_BASED, lam=lam).matrix
            fd_label = central_hessian(
                lambda z: label_objective(data, z[:d], z[d:], lam),
                np.concatenate([w0, q0]),
            )
            scale = 1e-5 * (1 + np.abs(label).max())
            np.testing.assert_allclose(label[:d, :d], fd_label[:d, :d], atol=scale)
            np.testing.assert_allclose(label[:d, d:], fd_label[:d, d:], atol=scale)
            np.testing.assert_allclose(label[d:, d:], -2.0 * np.eye(U), atol=1e-12)
            np.testing.assert_allclose(fd_label[d:, d:], 2.0 * np.eye(U), atol=scale)


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(3))

    def test_indefinite_two_by_two(self):
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_label_hessian_never_psd(self, rng):
        for _ in range(10):
            data = make_dataset(rng, int(rng.integers(2, 8)), int(rng.integers(1, 6)),
                                int(rng.integers(1, 4)))
            block = build_hessian(data, HessianKind.LABEL_BASED)
            assert not is_psd(block.matrix)
            assert np.min(np.diag(block.matrix)) == -2.0

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            is_psd(np.ones((2, 3)))

    def test_empty_matrix_is_psd(self):
        assert is_psd(np.zeros((0, 0)))


def psd_instance(rng, variant):
    """A dataset whose Hessians probe one edge of the reduced spectrum."""
    d = int(rng.integers(1, 6))
    unlabeled_count = int(rng.integers(1, 40))
    if variant == "fewer unlabeled than features":
        d = int(rng.integers(3, 7))
        unlabeled_count = int(rng.integers(1, d))
    labeled = rng.standard_normal((int(rng.integers(1, 8)), d))
    unlabeled = rng.standard_normal((unlabeled_count, d))
    if variant == "zero unlabeled":
        unlabeled[:] = 0.0
    elif variant == "rank-deficient unlabeled":
        unlabeled = np.outer(rng.standard_normal(unlabeled_count), rng.standard_normal(d))
    elif variant == "rank-deficient design":
        # The last column repeats the first in every row, labeled and unlabeled.
        labeled[:, -1], unlabeled[:, -1] = labeled[:, 0], unlabeled[:, 0]
    elif variant == "features scaled by 1e6":
        labeled, unlabeled = 1e6 * labeled, 1e6 * unlabeled
    elif variant == "features scaled by 1e-6":
        labeled, unlabeled = 1e-6 * labeled, 1e-6 * unlabeled
    elif variant == "coupling near the threshold":
        # The responsibility verdict flips near a coupling scale of 1e-4.
        unlabeled *= 10.0 ** rng.uniform(-6.0, -2.0)
    return Dataset(labeled, (rng.random(len(labeled)) < 0.5).astype(float), unlabeled)


class TestPsdVerdict:
    @pytest.mark.parametrize("variant", [
        "plain", "fewer unlabeled than features", "zero unlabeled", "rank-deficient unlabeled",
        "rank-deficient design", "features scaled by 1e6", "features scaled by 1e-6",
        "coupling near the threshold",
    ])
    def test_equals_dense_verdict_and_min_diagonal(self, rng, variant):
        # The verdict is the block-form rule: the label kind is never PSD,
        # and the responsibility kind is PSD exactly when X_u = 0, which is
        # also exactly when it has no witness. is_psd's -1e-8 * ||H||
        # tolerance passes small negative eigenvalues, so on the scaled and
        # weakly coupled variants it can say True beside a witness; there
        # only the rule is checked.
        dense_agrees = variant not in {
            "features scaled by 1e6", "features scaled by 1e-6", "coupling near the threshold",
        }
        tolerance_hides_a_witness = False
        for _ in range(40):
            data = psd_instance(rng, variant)
            zero = not np.any(data.unlabeled_features)
            for lam in 0.0, 0.5, 1.0:
                try:
                    witness = find_witness(data, HessianKind.RESPONSIBILITY_BASED, lam)
                except NoWitnessError:
                    witness = None
                assert (witness is None) == zero
                for kind in HessianKind.LABEL_BASED, HessianKind.RESPONSIBILITY_BASED:
                    H = build_hessian(data, kind, lam).matrix
                    psd, min_diagonal = diagnostics._psd_verdict(data, kind, lam)
                    responsibility = kind == HessianKind.RESPONSIBILITY_BASED
                    assert type(psd) is bool
                    assert psd == (responsibility and zero)
                    assert min_diagonal == (0.0 if responsibility else -2.0)
                    assert min_diagonal == float(np.min(np.diag(H)))
                    if responsibility and witness is not None:
                        assert witness.quadratic_form_value < 0.0 and not psd
                    if dense_agrees:
                        assert psd == is_psd(H)
                    else:
                        tolerance_hides_a_witness |= is_psd(H) and not psd
        if variant == "coupling near the threshold":
            assert tolerance_hides_a_witness

    def test_memory_is_linear_in_unlabeled_count(self, rng):
        # At d = 3 and U = 20,000 the dense matrix alone would take 3.2 GB.
        data = make_dataset(rng, 4, 20_000, 3)
        tracemalloc.start()
        try:
            verdicts = [diagnostics._psd_verdict(data, kind) for kind in HessianKind]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [psd for psd, _ in verdicts] == [False, False]
        assert peak < 16e6

    def test_requires_unlabeled_block(self, rng):
        with pytest.raises(DegenerateInputError):
            diagnostics._psd_verdict(make_dataset(rng, 4, 0, 2), HessianKind.LABEL_BASED)


class TestFindWitness:
    def test_label_based_unit_direction(self, rng):
        data = make_dataset(rng, 5, 4, 3)
        witness = find_witness(data, HessianKind.LABEL_BASED)
        np.testing.assert_array_equal(witness.z1, np.zeros(3))
        assert witness.quadratic_form_value == pytest.approx(-2.0)

    def test_label_based_value_is_the_dense_form(self, rng, monkeypatch):
        # The witness skips the dense matrix yet gives the bits of z'Hz.
        cases = []
        for lam in (0.0, 0.5):
            for _ in range(10):
                data = make_dataset(rng, int(rng.integers(2, 7)), int(rng.integers(1, 6)),
                                    int(rng.integers(1, 4)))
                H = build_hessian(data, HessianKind.LABEL_BASED, lam).matrix
                cases.append((data, lam, H))
        scaled = scaled_collinear_data(0)
        cases.append((scaled, 0.0, build_hessian(scaled, HessianKind.LABEL_BASED).matrix))

        def refuse(*args, **kwargs):
            raise AssertionError("the label-based witness built the dense matrix")

        monkeypatch.setattr(diagnostics, "build_hessian", refuse)
        for data, lam, H in cases:
            witness = find_witness(data, HessianKind.LABEL_BASED, lam)
            z = np.concatenate([witness.z1, witness.z2])
            expected = float(z @ (H @ z))
            assert np.float64(witness.quadratic_form_value).tobytes() == (
                np.float64(expected).tobytes()
            )
            assert type(witness.quadratic_form_value) is float

    def test_label_based_still_validates(self, rng):
        with pytest.raises(DegenerateInputError):
            find_witness(make_dataset(rng, 4, 0, 2), HessianKind.LABEL_BASED)
        with pytest.raises(InvalidInputError, match="unknown hessian kind"):
            find_witness(make_dataset(rng, 4, 3, 2), "label-based")

    def test_responsibility_worked_example(self):
        witness = find_witness(tiny_dataset(), HessianKind.RESPONSIBILITY_BASED)
        np.testing.assert_allclose(witness.z1, [1.0])
        np.testing.assert_allclose(witness.z2, [2.0])
        assert witness.quadratic_form_value == pytest.approx(-4.0)

    def test_value_matches_quadratic_form(self, rng):
        for kind in HessianKind.LABEL_BASED, HessianKind.RESPONSIBILITY_BASED:
            for _ in range(10):
                data = make_dataset(rng, int(rng.integers(2, 7)), int(rng.integers(1, 6)),
                                    int(rng.integers(1, 4)))
                witness = find_witness(data, kind)
                H = build_hessian(data, kind).matrix
                z = np.concatenate([witness.z1, witness.z2])
                assert witness.quadratic_form_value == pytest.approx(float(z @ H @ z))
                assert witness.quadratic_form_value < 0.0

    @pytest.mark.parametrize("variant", [
        "plain", "rank-deficient design", "features scaled by 1e6", "features scaled by 1e-6",
    ])
    def test_responsibility_matches_the_dense_form(self, rng, monkeypatch, variant):
        # The direction has the reference's bits, whose sums round as the
        # package's do. The value, formed from the blocks, rounds
        # differently from the dense z'Hz: 42 of these 160 instances
        # matched it to the bit, and the widest gap was 7.2e-16 relative,
        # so 1e-12 leaves a wide margin.
        cases = []
        for _ in range(20):
            data = psd_instance(rng, variant)
            for lam in 0.0, 0.5:
                cases.append((data, lam, dense_responsibility_witness(data, lam)))

        def refuse(*args, **kwargs):
            raise AssertionError("the responsibility witness built the dense matrix")

        monkeypatch.setattr(diagnostics, "build_hessian", refuse)
        for data, lam, (z1, z2, dense) in cases:
            witness = find_witness(data, HessianKind.RESPONSIBILITY_BASED, lam)
            assert witness.z1.tobytes() == z1.tobytes()
            assert witness.z2.tobytes() == z2.tobytes()
            value = witness.quadratic_form_value
            assert type(value) is float
            assert abs(value - dense) <= 1e-12 * abs(dense)
            assert value < 0.0

    @pytest.mark.parametrize("scale", [1e80, 1e160])
    def test_overflow_is_refused(self, rng, scale):
        # At 1e80 the responsibility form overflows, and at 1e160 the
        # weights' block 2 X_e'X_e does too. Either is refused, not read
        # as "no witness", and numpy raises no warning on the way.
        features = np.hstack([scale * rng.standard_normal((44, 1)), np.ones((44, 1))])
        data = Dataset(features[:4], [0.0, 1.0, 1.0, 0.0], features[4:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="overflows"):
                find_witness(data, HessianKind.RESPONSIBILITY_BASED)
            if scale > 1e100:
                with pytest.raises(DegenerateInputError, match="weight block overflows"):
                    build_hessian(data, HessianKind.LABEL_BASED)

    @pytest.mark.parametrize("unlabeled, flow", [
        ([[1e-170], [2e-170]], "underflows"),
        ([[0.0], [1e-170]], "underflows"),
        ([[1e-120], [2e-120]], "underflows"),
        ([[1e80], [2e80]], "overflows"),
    ])
    def test_nonzero_features_out_of_range_are_refused(self, unlabeled, flow):
        # Nonzero unlabeled features always have a witness in exact
        # arithmetic, and the verdict says so. When its value leaves double
        # range, that is refused by name: not read as "all zero" (the
        # squared row norms underflow at 1e-170), and not called an overflow
        # at 1e-120, where the form divides by an underflowed |X_u z1|^2.
        data = Dataset([[1.0], [2.0], [3.0]], [0.0, 1.0, 1.0], unlabeled)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diagnostics._psd_verdict(data, HessianKind.RESPONSIBILITY_BASED) == (
                False, 0.0
            )
            with pytest.raises(DegenerateInputError, match=f"witness {flow}"):
                find_witness(data, HessianKind.RESPONSIBILITY_BASED)

    def test_zero_unlabeled_features_have_no_witness(self):
        data = Dataset([[1.0], [2.0]], [0.0, 1.0], [[0.0], [0.0]])
        with pytest.raises(NoWitnessError):
            find_witness(data, HessianKind.RESPONSIBILITY_BASED)
        block = build_hessian(data, HessianKind.RESPONSIBILITY_BASED)
        assert is_psd(block.matrix)


class TestBruteForce:
    @pytest.mark.parametrize("design", ["full-rank", "repeated-column", "scaled-1e6"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_no_unlabeled_is_supervised(self, rng, design, lam):
        # The enumeration's one empty labeling is the supervised solve, to
        # the bit.
        features = rng.standard_normal((6, 2))
        if design == "repeated-column":
            features = features[:, [0, 1, 1]]
        elif design == "scaled-1e6":
            features = 1e6 * features
        data = Dataset(features, [0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        result = brute_force_hard_minimum(data, lam)
        assert result.labels.shape == (0,)
        w = update_weights(data, np.zeros(0), lam)
        assert result.weights.tobytes() == w.tobytes()
        assert result.objective == supervised_objective(data, w, lam)
        assert result.objective == pytest.approx(fit_hard(data, lam).final_objective)

    @staticmethod
    def pin_design(rng, design, unlabeled_count):
        """A design of the given family with ``unlabeled_count`` unlabeled rows."""
        if design == "interpolating":
            # More features than points: at lam = 0 every label vanishes.
            return make_dataset(rng, 2, unlabeled_count, unlabeled_count + 4)
        if design == "tall":
            # A few hundred labeled rows, so N is far above U.
            return make_dataset(rng, 300, unlabeled_count, 3)
        if design == "integer-ties":
            # Few distinct integer rows, so many labelings tie exactly.
            features = rng.integers(-1, 2, size=(6 + unlabeled_count, 2)).astype(float)
            features = np.hstack([features, np.ones((len(features), 1))])
            return Dataset(features[:6], [0.0, 1.0, 1.0, 0.0, 1.0, 0.0], features[6:])
        data = make_dataset(rng, 6, unlabeled_count, 3)
        features = np.vstack([data.labeled_features, data.unlabeled_features])
        if design == "duplicated-rows":
            # Three distinct rows: swapping the labels of equal rows ties.
            features = features[rng.integers(0, 3, size=len(features))]
        elif design == "repeated-column":
            features = features[:, [0, 1, 1, 2]]
        elif design == "scaled-1e6":
            features = 1e6 * features
        return Dataset(features[:6], data.labels, features[6:])

    @pytest.mark.parametrize("design", ["full-rank", "repeated-column", "scaled-1e6",
                                        "integer-ties", "duplicated-rows", "interpolating",
                                        "tall"])
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_pruned_scan_keeps_unpruned_bits(self, rng, monkeypatch, design, lam, chunk):
        # Scoring blocks best first and skipping those whose bound is out
        # of reach keeps the set rescored, so every bit of the result.
        # Blocks of one row put exact ties in different blocks even at
        # small U; the default blocks split the table from U = 13 on.
        monkeypatch.setattr(diagnostics, "_CHUNK_LABELINGS", chunk)
        for unlabeled_count in range(21):
            data = self.pin_design(rng, design, unlabeled_count)
            labels, weights, objective = unpruned_hard_minimum(data, lam, chunk)
            result = brute_force_hard_minimum(data, lam)
            assert result.labels.tobytes() == labels.tobytes()
            assert result.weights.tobytes() == weights.tobytes()
            assert np.float64(result.objective).tobytes() == np.float64(objective).tobytes()

    def test_memory_does_not_grow_as_n_squared(self, rng):
        # At N = 4,012 one (N, N) matrix alone would take 128 MB; the
        # oracles read only the U label columns.
        hard, soft = make_dataset(rng, 4000, 12, 3), make_dataset(rng, 4009, 3, 3)
        tracemalloc.start()
        try:
            result = brute_force_hard_minimum(hard)
            slack = soft_grid_slack(soft)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.labels.shape == (12,)
        assert slack > 0.0
        assert peak < 16e6

    def test_pruned_scan_scores_few_blocks_on_separated_clusters(self, monkeypatch):
        # At U = 20 the table has 2^10 rows in blocks of 4: 256 blocks.
        scored = []
        block_values = diagnostics._block_values

        def counting(row_values, *args):
            scored.append(len(row_values))
            return block_values(row_values, *args)

        monkeypatch.setattr(diagnostics, "_block_values", counting)
        for seed in range(5):
            data, _ = generate(SyntheticSpec(unlabeled_total=20, seed=seed))
            for lam in (0.0, 0.5):
                scored.clear()
                result = brute_force_hard_minimum(data, lam)
                assert set(scored) == {4}
                assert len(scored) < 32
                labels, _, objective = unpruned_hard_minimum(data, lam)
                np.testing.assert_array_equal(result.labels, labels)
                assert result.objective == objective

    def test_single_far_positive_point(self):
        # Supervised line fits the labeled points exactly; the unlabeled
        # point sits far on the positive side, so labeling it 1 wins.
        data = Dataset([[1.0, 1.0], [2.0, 1.0]], [0.0, 1.0], [[4.0, 1.0]])
        result = brute_force_hard_minimum(data, 0.0)
        np.testing.assert_array_equal(result.labels, [1.0])

    @staticmethod
    def plain_objective(data, q, lam):
        w = update_weights(data, q, lam)
        return responsibility_objective(data, w, q, ClassEncoding(), lam)

    def assert_plain_minimum(self, result, data, lam):
        """Same labels, weights and objective bits as the plain enumeration."""

        def objective(data, w, q, lam):
            return responsibility_objective(data, w, q, ClassEncoding(), lam)

        labels, weights, value = exhaustive_hard_minimum(data, lam, objective, update_weights)
        np.testing.assert_array_equal(result.labels, labels)
        np.testing.assert_array_equal(result.weights, weights)
        assert result.objective == value

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("unlabeled_count", range(1, 11))
    def test_matches_plain_enumeration(self, rng, unlabeled_count, lam):
        # Every U from 1 (an empty first half) to 10, odd and even, on
        # full-rank designs and on designs with a repeated or a zero column.
        for n_features in (1, 3):
            data = make_dataset(rng, int(rng.integers(3, 8)), unlabeled_count, n_features)
            self.assert_plain_minimum(brute_force_hard_minimum(data, lam), data, lam)
        full = make_dataset(rng, 5, unlabeled_count, 2)
        for extra in (full.extended_features[:, :1], np.zeros((5 + unlabeled_count, 1))):
            features = np.hstack([full.extended_features, extra])
            data = Dataset(features[:5], full.labels, features[5:])
            self.assert_plain_minimum(brute_force_hard_minimum(data, lam), data, lam)

    @pytest.mark.parametrize("lam", [0.0, 1e-8, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scaled_collinear_design(self, seed, lam):
        # The 1e6-scaled near-collinear design: the table rounds far
        # worse here, yet the rescored minimum is still the plain one.
        data = scaled_collinear_data(seed)
        self.assert_plain_minimum(brute_force_hard_minimum(data, lam), data, lam)

    def test_rescores_only_near_minimal_labelings(self, rng, monkeypatch):
        # No per-labeling solve: on generic data only the winner is within
        # the rounding slack of the table minimum, so one rescore suffices.
        calls = []

        def counting(*args):
            calls.append(args)
            return responsibility_objective(*args)

        monkeypatch.setattr(diagnostics, "responsibility_objective", counting)
        monkeypatch.setattr(diagnostics, "_CHUNK_LABELINGS", 64)
        for _ in range(5):
            calls.clear()
            brute_force_hard_minimum(make_dataset(rng, 6, 14, 3), 0.0)
            assert len(calls) == 1

    def test_matches_earlier_enumeration_at_sixteen(self, rng):
        # The earlier oracle took the winner's weights from a GEMM row,
        # which may round an ulp away from the lone solve used now.
        for _ in range(4):
            data = make_dataset(rng, 6, 16, 3)
            for lam in (0.0, 0.5):
                labels, _, value = chunked_gemm_hard_minimum(data, lam)
                result = brute_force_hard_minimum(data, lam)
                np.testing.assert_array_equal(result.labels, labels)
                assert abs(result.objective - value) <= 4 * np.spacing(value)

    def test_local_fit_on_the_global_labeling_has_zero_gap(self, rng):
        # A hard fit that lands on the global labeling reports the same
        # objective bits, so the diagnose gap is exactly 0, never an ulp.
        landed = 0
        for _ in range(10):
            data = make_dataset(rng, 6, 12, 3)
            for lam in (0.0, 0.5):
                best = brute_force_hard_minimum(data, lam)
                fit = fit_hard(data, lam)
                if np.array_equal(fit.imputed, best.labels):
                    landed += 1
                    assert fit.final_objective == best.objective
        assert landed > 0

    def test_tie_breaks_lexicographically(self):
        # Two identical unlabeled points at decision value 1/2 of the
        # symmetric labeled fit: labelings [0,0] and [1,1] tie exactly at
        # objective 0.75 and the lexicographically smaller one wins.
        data = Dataset([[1.0], [1.0]], [1.0, 0.0], [[1.0], [1.0]])
        result = brute_force_hard_minimum(data, 0.0)
        np.testing.assert_array_equal(result.labels, [0.0, 0.0])
        assert result.objective == 0.75

    def test_tie_between_duplicated_rows(self):
        # Group C (4 rows, labels 1 and 0) ties exactly between labeling
        # its duplicated pair [0, 0] and [1, 1]; group D (16 rows) wants
        # all ones. The operator entries 1/4 and 1/16 are exact.
        c, d = [1.0, 0.0], [0.0, 1.0]
        order = np.array(list("DCDDDDCDDDDDDD"))
        data = Dataset([c, c, d, d, d, d], [1.0, 0.0, 1.0, 1.0, 1.0, 0.0],
                       [c if group == "C" else d for group in order])
        smaller = (order == "D").astype(float)
        larger = np.ones(len(order))
        tie = self.plain_objective(data, smaller, 0.0)
        assert self.plain_objective(data, larger, 0.0) == tie == 1.6875
        result = brute_force_hard_minimum(data, 0.0)
        np.testing.assert_array_equal(result.labels, smaller)
        assert result.objective == tie

    @pytest.mark.parametrize("order", ["-++-+--+-++-+--+", "+--+-++-+--+-++-",
                                       "++++++++--------"])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_tie_between_mirrored_rows(self, order, lam):
        # 48 labeled points at x = 0, half of each class, and unlabeled
        # points mirrored at x = +1 and x = -1. Mirroring x maps the
        # labeling "+ is 1" to "- is 1" at equal objective; the
        # lexicographically smaller of the two wins.
        data = Dataset([[0.0, 1.0]] * 48, [1.0, 0.0] * 24,
                       [[1.0 if side == "+" else -1.0, 1.0] for side in order])
        plus = np.array([1.0 if side == "+" else 0.0 for side in order])
        smaller, larger = sorted([plus, 1.0 - plus], key=tuple)
        tie = self.plain_objective(data, smaller, lam)
        assert self.plain_objective(data, larger, lam) == tie
        result = brute_force_hard_minimum(data, lam)
        np.testing.assert_array_equal(result.labels, smaller)
        assert result.objective == tie

    @pytest.mark.parametrize("seed, draw, unlabeled_count", [(0, 1, 4), (1, 0, 10), (1, 0, 14)])
    def test_interpolating_design_takes_first_labeling(self, seed, draw, unlabeled_count):
        # More features than points at lam = 0: every labeling is fitted
        # exactly, so all tie at objective 0 and only rounding noise tells
        # them apart. The noise must not pick the winner.
        rng = np.random.default_rng(seed)
        for _ in range(draw + 1):
            data = make_dataset(rng, 2, unlabeled_count, unlabeled_count + 4)
        zeros = np.zeros(unlabeled_count)
        weights = update_weights(data, zeros, 0.0)
        result = brute_force_hard_minimum(data, 0.0)
        np.testing.assert_array_equal(result.labels, zeros)
        np.testing.assert_array_equal(result.weights, weights)
        assert result.objective == self.plain_objective(data, zeros, 0.0)
        assert result.objective < 1e-25

    def test_label_that_cannot_move_objective_stays_zero(self):
        # A fourth feature set only on unlabeled point 2 gives it leverage 1
        # at lam = 0: it is fitted exactly under either label, so the two
        # values tie and the tie rule asks for 0. The other labels still
        # matter and are searched.
        data = make_dataset(np.random.default_rng(17), 8, 6, 3)
        extra = np.zeros((6, 1))
        extra[2] = 1.0
        data = Dataset(
            np.hstack([data.labeled_features, np.zeros((8, 1))]),
            data.labels,
            np.hstack([data.unlabeled_features, extra]),
        )
        labelings = [q for q in np.array(list(np.ndindex(*(2,) * 6)), float) if q[2] == 0.0]
        objectives = [self.plain_objective(data, q, 0.0) for q in labelings]
        best = labelings[int(np.argmin(objectives))]
        result = brute_force_hard_minimum(data, 0.0)
        np.testing.assert_array_equal(result.labels, best)
        assert result.objective == min(objectives)

    def test_global_bound_and_fixed_point(self, rng):
        for _ in range(15):
            data = make_dataset(rng, int(rng.integers(3, 10)), int(rng.integers(1, 9)),
                                int(rng.integers(1, 4)))
            best = brute_force_hard_minimum(data, 0.0)
            fit = fit_hard(data, 0.0)
            assert best.objective <= fit.final_objective + 1e-9
            values = decision_values(data.unlabeled_features, best.weights)
            if not np.any(values == 0.5):
                np.testing.assert_array_equal(
                    update_hard_labels(data, best.weights), best.labels
                )
                refit = update_weights(data, best.labels, 0.0)
                assert np.max(np.abs(refit - best.weights)) < 1e-10

    def test_capacity_cap(self, rng):
        data = make_dataset(rng, 3, 21, 2)
        with pytest.raises(CapacityError):
            brute_force_hard_minimum(data, 0.0)

    def test_chunking_is_transparent(self, rng, monkeypatch):
        # A table row holds 2^ceil(U/2) labelings: chunks 1 and 3 are less
        # than one row at U = 6 and 7, and chunk 2^20 is more than 2^U.
        for unlabeled_count in (6, 7):
            data = make_dataset(rng, 4, unlabeled_count, 2)
            monkeypatch.setattr(diagnostics, "_CHUNK_LABELINGS", 4096)
            full = brute_force_hard_minimum(data, 0.0)
            for chunk in (1, 3, 7, 1 << unlabeled_count, 1 << 20):
                monkeypatch.setattr(diagnostics, "_CHUNK_LABELINGS", chunk)
                small = brute_force_hard_minimum(data, 0.0)
                np.testing.assert_array_equal(full.labels, small.labels)
                np.testing.assert_array_equal(full.weights, small.weights)
                assert full.objective == small.objective


class TestGridSearch:
    def test_no_unlabeled_is_supervised(self, rng):
        data = make_dataset(rng, 5, 0, 2)
        result = grid_soft_minimum(data, 0.0, step=0.1)
        fit = fit_soft(data, 0.0)
        assert result.objective == pytest.approx(fit.final_objective)

    def test_capacity_cap(self, rng):
        data = make_dataset(rng, 4, 4, 2)
        with pytest.raises(CapacityError):
            grid_soft_minimum(data, 0.0, step=0.1)

    def test_step_validation(self, rng):
        data = make_dataset(rng, 4, 1, 2)
        with pytest.raises(InvalidInputError):
            grid_soft_minimum(data, 0.0, step=0.7)
        with pytest.raises(InvalidInputError):
            grid_soft_minimum(data, 0.0, step=0.0)

    def test_nested_grids_do_not_get_worse(self, rng):
        for _ in range(5):
            data = make_dataset(rng, int(rng.integers(3, 8)), int(rng.integers(1, 4)), 2)
            objectives = [
                grid_soft_minimum(data, 0.0, step).objective for step in (0.2, 0.1, 0.05)
            ]
            assert objectives[1] <= objectives[0] + 1e-12
            assert objectives[2] <= objectives[1] + 1e-12

    def test_descent_beats_grid_up_to_slack(self, rng):
        config = SolverConfig(max_iterations=20000, objective_tolerance=1e-15)
        for _ in range(10):
            data = make_dataset(rng, int(rng.integers(4, 10)), int(rng.integers(1, 4)),
                                int(rng.integers(1, 3)))
            grid = grid_soft_minimum(data, 0.0, step=0.05)
            fit = fit_soft(data, 0.0, config)
            slack = soft_grid_slack(data, 0.0, step=0.05)
            assert fit.final_objective <= grid.objective + slack

    @pytest.mark.parametrize("design", ["full-rank", "scaled-1e6", "repeated-column"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1e-8])
    def test_result_is_the_exact_solve_at_its_point(self, rng, design, lam):
        for unlabeled_count in range(diagnostics.GRID_CAP + 1):
            for _ in range(5):
                data = TestBruteForce.pin_design(rng, design, unlabeled_count)
                result = grid_soft_minimum(data, lam)
                w = update_weights(data, result.soft_labels, lam)
                assert result.weights.tobytes() == w.tobytes()
                assert result.objective == label_objective(data, w, result.soft_labels, lam)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1e-8])
    def test_matches_the_tiled_grid_up_to_exact_ties(self, rng, lam, record_property):
        # The table rounds differently from the tiled residuals, so exactly
        # tied points may resolve either way: on integer, duplicated-row
        # and (at lam = 0) interpolating designs, where many points tie.
        differing = 0
        for design in ("full-rank", "scaled-1e6", "repeated-column", "integer-ties",
                       "duplicated-rows", "interpolating"):
            for unlabeled_count in range(diagnostics.GRID_CAP + 1):
                for _ in range(10):
                    data = TestBruteForce.pin_design(rng, design, unlabeled_count)
                    labels, _, objective = tiled_grid_soft_minimum(data, lam)
                    result = grid_soft_minimum(data, lam)
                    scale = float(data.labels @ data.labels) + unlabeled_count
                    assert abs(result.objective - objective) <= 1e-12 * scale
                    if result.soft_labels.tobytes() != labels.tobytes():
                        differing += 1
                        w = update_weights(data, labels, lam)
                        tied = label_objective(data, w, labels, lam)
                        assert abs(result.objective - tied) <= 16 * np.finfo(float).eps * scale
        record_property("differing_points", differing)

    def test_memory_does_not_grow_with_rows(self, rng):
        # The tiled search held (points, N) targets, weights and residuals:
        # about 300 MB here. The table needs (points, U).
        data = make_dataset(rng, 2000, 3, 3)
        tracemalloc.start()
        try:
            result = grid_soft_minimum(data, 0.0, step=0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.soft_labels.shape == (3,)
        assert peak < 16e6

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_penalty_is_refused_without_unlabeled_rows(self, rng, lam):
        data = make_dataset(rng, 5, 0, 2)
        for oracle in (grid_soft_minimum, soft_grid_slack):
            with pytest.raises(InvalidInputError, match="ridge penalty"):
                oracle(data, lam)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1e-8])
    def test_slack_matches_the_reduced_quadratic_bound(self, rng, lam):
        # The slack reads the (U, U) matrix C'C; the bound from the tail of
        # the (N, N) matrix R'R + lam P'P rounds differently, by at most
        # 1.6e-15 relative on 610 random designs at these three penalties.
        cases = [make_dataset(rng, int(rng.integers(2, 40)), int(rng.integers(1, 4)),
                              int(rng.integers(1, 5))) for _ in range(30)]
        cases += [scaled_collinear_data(seed) for seed in range(5)]
        for data in cases:
            extended = data.extended_features
            reduced = _reduced_quadratic(extended, ridge_operator(extended, lam), lam)
            tail = reduced[data.n_labeled :, data.n_labeled :]
            lam_max = float(np.max(np.linalg.eigvalsh(0.5 * (tail + tail.T))))
            expected = max(lam_max, 0.0) * data.n_unlabeled * 0.05 * 0.05 / 4.0 + 1e-12
            assert abs(soft_grid_slack(data, lam) - expected) <= 1e-12 * expected
