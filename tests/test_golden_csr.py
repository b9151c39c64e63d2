"""The CSR structure of the Hamiltonian and the shift unitary, and the
slope floats, against the committed goldens of golden_csr.py."""

import json

import pytest

from golden_csr import (FLOAT_SLOPES, GOLDEN_FILE, SLOPE_FLOATS_FILE,
                        configurations, csr_digests, slope_floats)

GOLDENS = json.loads(GOLDEN_FILE.read_text())
CONFIGURATIONS = configurations()


def test_goldens_cover_the_configurations():
    assert sorted(GOLDENS) == sorted(name for name, _ in CONFIGURATIONS)


@pytest.mark.parametrize("name,build", CONFIGURATIONS,
                         ids=[name for name, _ in CONFIGURATIONS])
def test_csr_structure_matches_golden(name, build):
    assert csr_digests(build()) == GOLDENS[name]


SLOPE_GOLDENS = json.loads(SLOPE_FLOATS_FILE.read_text())


def test_slope_goldens_cover_the_slopes():
    assert sorted(SLOPE_GOLDENS) == sorted(FLOAT_SLOPES)


@pytest.mark.parametrize("label", FLOAT_SLOPES)
def test_slope_floats_match_golden(label):
    assert slope_floats(FLOAT_SLOPES[label]) == SLOPE_GOLDENS[label]
