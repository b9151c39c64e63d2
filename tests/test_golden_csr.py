"""The CSR structure of the Hamiltonian and the shift unitary against the
committed goldens of golden_csr.py."""

import json

import pytest

from golden_csr import GOLDEN_FILE, configurations, csr_digests

GOLDENS = json.loads(GOLDEN_FILE.read_text())
CONFIGURATIONS = configurations()


def test_goldens_cover_the_configurations():
    assert sorted(GOLDENS) == sorted(name for name, _ in CONFIGURATIONS)


@pytest.mark.parametrize("name,build", CONFIGURATIONS,
                         ids=[name for name, _ in CONFIGURATIONS])
def test_csr_structure_matches_golden(name, build):
    assert csr_digests(build()) == GOLDENS[name]
