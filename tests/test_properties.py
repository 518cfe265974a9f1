"""The inequality property harness on small random ensembles."""
import dataclasses

import numpy as np
import pytest

from branchkit import branches, complexity, fixtures, properties
from branchkit.properties import (
    random_orthogonal_states,
    run_pair_properties,
    run_property_suite,
    run_triple_properties,
)
from branchkit.qsim import QuantumState

SOUND_PAIR_PROPERTIES = ("monotonicity", "symmetry", "phase_invariance",
                         "ci_sandwich", "conjugate_basis", "triangle")


class TestRandomStates:
    def test_orthonormal(self):
        states = random_orthogonal_states(3, 3, seed=5)
        for i, s in enumerate(states):
            assert abs(np.linalg.norm(s.amplitudes) - 1) < 1e-12
            for t in states[i + 1:]:
                assert abs(np.vdot(s.amplitudes, t.amplitudes)) < 1e-12

    def test_deterministic(self):
        a = random_orthogonal_states(2, 2, seed=9)
        b = random_orthogonal_states(2, 2, seed=9)
        assert np.array_equal(a[0].amplitudes, b[0].amplitudes)


class TestPairProperties:
    def test_sound_properties_hold_on_small_ensemble(self):
        rep = run_pair_properties(2, instances=10, seed=41, max_len=2)
        for name in SOUND_PAIR_PROPERTIES:
            assert rep.properties[name].violations == 0, name

    def test_product_state_ceiling_is_a_known_proxy_gap(self):
        # the single-unitary distinguishability objective is zero on the
        # empty circuit, while the mapping objective can already be met by
        # it, so the ceiling comparison fails on generic instances; the
        # harness must report those honestly
        rep = run_pair_properties(2, instances=10, seed=41, max_len=2)
        stats = rep.properties["cd_ceiling"]
        assert stats.checked > 0
        assert stats.violations > 0

    def test_stats_accounting(self):
        rep = run_pair_properties(2, instances=4, seed=7, max_len=2)
        st = rep.properties["symmetry"]
        # three kinds at three accuracies per instance
        assert st.checked + st.vacuous == 4 * 9


class TestTripleProperties:
    def test_merge_and_three_branch_hold(self):
        rep = run_triple_properties(3, triples=6, seed=11, max_len=2)
        assert rep.merge.violations == 0
        assert rep.three_branch.violations == 0


class TestFullSuite:
    def test_counts_include_all_sections(self):
        rep = run_property_suite(2, instances=4, seed=3, max_len=2, triples=2)
        counts = rep.violation_counts()
        for key in SOUND_PAIR_PROPERTIES + ("merge_bounds", "three_branch",
                                            "irreversibility"):
            assert key in counts
            if key != "cd_ceiling":
                assert counts[key] == 0, key


SUITES = {
    "pair_properties": lambda: run_pair_properties(2, 1, seed=3, max_len=2),
    "merge_bound": lambda: branches.merge_bound_check(
        *random_orthogonal_states(2, 3, seed=4), p=0.5, max_len=2),
    "three_branch": lambda: branches.three_branch_compatibility(
        *random_orthogonal_states(2, 3, seed=4), max_len=2),
    "irreversibility": lambda: branches.irreversibility_check(
        QuantumState.zero(3), fixtures.ghz(3).decomposition,
        max_len=2),
}


@pytest.mark.parametrize("suite", SUITES)
def test_every_surveyed_channel_is_read(suite, monkeypatch):
    requested, read = [], set()

    class Recording(complexity.SurveyResult):
        def bounds(self, channel, threshold):
            read.add(channel)
            return super().bounds(channel, threshold)

    def recording_survey(states, n_qubits, channels, *args, **kwargs):
        requested.extend(channels)
        res = complexity.survey(states, n_qubits, channels, *args, **kwargs)
        return Recording(*(getattr(res, f.name)
                           for f in dataclasses.fields(res)))

    monkeypatch.setattr(branches, "survey", recording_survey)
    monkeypatch.setattr(properties, "survey", recording_survey)
    SUITES[suite]()
    assert requested
    assert set(requested) == read
