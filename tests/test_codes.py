"""Residual conditions, the complexity floor, and the rectangular-code rate."""
import math

import numpy as np
import pytest

from branchkit.branches import _classify
from branchkit.codes import (
    CodeSpec,
    SurfaceCodeModel,
    beny_oreshkov_residuals,
    classify_region,
    code_complexity_floor,
    exact_binomial_tail_rate,
    pauli_cost,
    surface_logical_rate,
)
from branchkit.complexity import (
    ComplexityEstimate,
    ComplexityKind,
    ComplexityQuery,
    brute_force_estimate,
)
from branchkit.fixtures import parity_codewords
from branchkit.qsim import QuantumState, apply_pauli_string


def repetition_words(n=3):
    return (QuantumState.basis(n, 0), QuantumState.basis(n, 2**n - 1))


def single_site(ch, q, n):
    return "I" * q + ch + "I" * (n - q - 1)


def all_singles(n, kinds="XYZ"):
    return tuple(single_site(ch, q, n) for ch in kinds for q in range(n))


def five_qubit_code() -> tuple[QuantumState, QuantumState]:
    stabilizers = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")

    def project(vec):
        for s in stabilizers:
            vec = (vec + apply_pauli_string(vec, 5, s)) / 2.0
        return vec / np.linalg.norm(vec)

    v0 = np.zeros(32, dtype=complex)
    v0[0] = 1.0
    v1 = np.zeros(32, dtype=complex)
    v1[31] = 1.0
    return QuantumState(5, project(v0)), QuantumState(5, project(v1))


class TestResiduals:
    def test_repetition_with_x_errors_exact(self):
        spec = CodeSpec(repetition_words(),
                        ("III",) + all_singles(3, "X"))
        rep = beny_oreshkov_residuals(spec)
        assert rep.max_eps <= 1e-12
        assert rep.correctable_to == 1

    def test_adding_z_breaks_it(self):
        spec = CodeSpec(repetition_words(),
                        ("III",) + all_singles(3, "X") + ("ZII",))
        rep = beny_oreshkov_residuals(spec)
        assert rep.max_eps >= 1 - 1e-9
        assert rep.correctable_to == 0

    def test_parity_code_z_errors_flag_logical(self):
        pc = parity_codewords(2, 2)
        spec = CodeSpec((pc.state0, pc.state1),
                        ("IIII",) + all_singles(4, "Z"))
        rep = beny_oreshkov_residuals(spec)
        # a cross-block Z pair product maps one codeword to the other,
        # showing up as a unit off-diagonal residual
        off_diag = np.abs(rep.eps_mnij[:, :, 0, 1])
        assert abs(off_diag.max() - 1.0) <= 1e-9

    def test_lambda_hermitian(self):
        pc = parity_codewords(2, 2)
        spec = CodeSpec((pc.state0, pc.state1),
                        ("IIII", "XIII", "IZII", "IIYI"))
        rep = beny_oreshkov_residuals(spec)
        assert np.allclose(rep.lambda_mn, rep.lambda_mn.conj().T, atol=1e-10)

    def test_nonorthogonal_codewords_rejected(self):
        plus = QuantumState.from_vector(
            np.array([1, 1], dtype=complex) / math.sqrt(2))
        with pytest.raises(ValueError, match="orthogonal"):
            CodeSpec((QuantumState.basis(1, 0), plus), ("I",))

    @pytest.mark.parametrize("error", ["XX", "XXXX", "IAI"])
    def test_bad_error_string_named(self, error):
        with pytest.raises(ValueError, match=repr(error)):
            CodeSpec(repetition_words(), ("III", error))

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(ValueError, match="qubit counts"):
            CodeSpec((QuantumState.basis(2, 0), QuantumState.basis(3, 7)), ())

    def test_empty_error_set(self):
        rep = beny_oreshkov_residuals(CodeSpec(repetition_words(), ()))
        floor = code_complexity_floor(rep)
        assert (floor.c, floor.floor) == (0, 0)

    def test_pauli_cost_units(self):
        assert pauli_cost("IIII") == 0
        assert pauli_cost("XIII") == 1
        assert pauli_cost("XZII") == 1
        assert pauli_cost("XZYI") == 2


class TestFloor:
    def test_perfect_code_floor(self):
        w0, w1 = five_qubit_code()
        spec = CodeSpec((w0, w1), ("IIIII",) + all_singles(5))
        rep = beny_oreshkov_residuals(spec)
        floor = code_complexity_floor(rep)
        assert rep.max_eps <= 1e-12
        assert (floor.c, floor.floor) == (1, 2)

    def test_floor_never_contradicts_brute_force(self):
        # with the complete weight-1 set correctable, enumerations must not
        # find any cheaper distinguisher or interferer between codewords
        w0, w1 = five_qubit_code()
        spec = CodeSpec((w0, w1), ("IIIII",) + all_singles(5))
        floor = code_complexity_floor(beny_oreshkov_residuals(spec))
        for kind in (ComplexityKind.DISTINGUISHABILITY,
                     ComplexityKind.INTERFERENCE):
            est = brute_force_estimate(
                ComplexityQuery(kind, w0, w1, 0.1, max_size=2))
            assert est.lower_bound >= floor.floor

    def test_incomplete_level_floor_is_conditional(self):
        # the bit-flip repetition code with X-only errors passes level 1, but
        # the supplied set is not complete for that level; the floor statement
        # is scoped to the supplied set (a Z distinguisher exists at cost 1)
        spec = CodeSpec(repetition_words(), ("III",) + all_singles(3, "X"))
        floor = code_complexity_floor(beny_oreshkov_residuals(spec))
        assert floor.floor == 2
        complete = CodeSpec(repetition_words(), ("III",) + all_singles(3))
        floor_complete = code_complexity_floor(beny_oreshkov_residuals(complete))
        assert floor_complete.floor == 0


class TestSurfaceRate:
    def test_reference_point(self):
        rep = surface_logical_rate(SurfaceCodeModel(100, 3, 1e-3))
        assert rep.logical_rate == pytest.approx(3.0e-4, abs=1e-12)

    def test_single_site_short_cycle(self):
        for p in (0.3, 1e-2, 1e-4):
            rep = surface_logical_rate(SurfaceCodeModel(1, 1, p))
            assert rep.logical_rate == pytest.approx(p)
            assert rep.asymptotic_form is None

    def test_oracle_agreement(self):
        for l in range(1, 8):
            model = SurfaceCodeModel(100, l, 1e-3)
            ratio = surface_logical_rate(model).logical_rate / \
                exact_binomial_tail_rate(model)
            assert 0.95 <= ratio <= 1.05

    def test_ratio_monotone_toward_one(self):
        for l in range(2, 8):
            devs = []
            for p in (1e-2, 1e-3, 1e-4):
                model = SurfaceCodeModel(1000, l, p)
                ratio = surface_logical_rate(model).logical_rate / \
                    exact_binomial_tail_rate(model)
                devs.append(abs(ratio - 1.0))
            assert devs[0] >= devs[1] >= devs[2]

    def test_robust_length_threshold(self):
        model = SurfaceCodeModel(100, 3, 1e-3)
        assert model.robust_l_min(1.0) == pytest.approx(1e9, rel=1e-9)

    def test_regime_bounds(self):
        with pytest.raises(ValueError):
            SurfaceCodeModel(10, 3, 0.5)
        with pytest.raises(ValueError):
            SurfaceCodeModel(2, 3, 1e-3)


class TestRegions:
    def test_balanced_code(self):
        assert classify_region(10, 10, 5, 2, 1.0) == "GoodCode"

    def test_robust_branch(self):
        assert classify_region(50, 1, 5, 2, 1.0) == "RobustBranch"

    def test_overlap_region(self):
        assert classify_region(12, 8, 5, 2, 1.0) == "Both"

    def test_neither(self):
        assert classify_region(2, 1, 5, 2, 5.0) == "Neither"

    def test_plain_good_branch(self):
        assert classify_region(4, 2, 5, 2, 3.0) == "GoodBranch"

    def test_robust_requires_the_margin(self):
        # ci > exp(cd) holds, but the margin 2 - 0 misses the good threshold
        # 3, so this is no branch: the verdict assess_branches gives
        assert classify_region(2, 0, 5, 3, 1.0) == "Neither"
        ci = ComplexityEstimate(ComplexityKind.INTERFERENCE, 0.1, 2, "", 2,
                                None, None, "test")
        cd = ComplexityEstimate(ComplexityKind.DISTINGUISHABILITY, 0.9, 0, "",
                                0, None, None, "test")
        assert _classify(ci, cd, 3, 1.0) == ("NotBranch", 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify_region(-1, 0, 1, 1, 1.0)
