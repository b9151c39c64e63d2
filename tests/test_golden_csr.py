"""The CSR structure and data of the Hamiltonian and the shift unitary,
the symmetry sectors, and the slope floats, against the committed goldens
of golden_csr.py."""

import json

import pytest

from golden_csr import (DATA_FILE, FLOAT_SLOPES, GOLDEN_FILE, SECTOR_CASES,
                        SECTORS_FILE, SLOPE_FLOATS_FILE, configurations,
                        csr_digests, data_matches, sector_structure,
                        slope_floats)

GOLDENS = json.loads(GOLDEN_FILE.read_text())
CONFIGURATIONS = configurations()


def test_goldens_cover_the_configurations():
    assert sorted(GOLDENS) == sorted(name for name, _ in CONFIGURATIONS)


@pytest.mark.parametrize("name,build", CONFIGURATIONS,
                         ids=[name for name, _ in CONFIGURATIONS])
def test_csr_structure_matches_golden(name, build):
    assert csr_digests(build()) == GOLDENS[name]


DATA_GOLDENS = json.loads(DATA_FILE.read_text())


def test_data_goldens_cover_the_configurations():
    assert sorted(DATA_GOLDENS) == sorted(name for name, _ in CONFIGURATIONS)


@pytest.mark.parametrize("name,build", CONFIGURATIONS,
                         ids=[name for name, _ in CONFIGURATIONS])
def test_csr_data_matches_golden(name, build):
    assert data_matches(build().matrix.data, DATA_GOLDENS[name])


SECTOR_GOLDENS = json.loads(SECTORS_FILE.read_text())


def test_sector_goldens_cover_the_cases():
    assert sorted(SECTOR_GOLDENS) == sorted(SECTOR_CASES)


@pytest.mark.parametrize("name", SECTOR_CASES)
def test_symmetry_sectors_match_golden(name):
    structure, data = sector_structure(name)
    golden = SECTOR_GOLDENS[name]
    assert structure == {k: v for k, v in golden.items() if k != "data"}
    assert len(data) == len(golden["data"])
    assert all(data_matches(d, t) for d, t in zip(data, golden["data"]))


SLOPE_GOLDENS = json.loads(SLOPE_FLOATS_FILE.read_text())


def test_slope_goldens_cover_the_slopes():
    assert sorted(SLOPE_GOLDENS) == sorted(FLOAT_SLOPES)


@pytest.mark.parametrize("label", FLOAT_SLOPES)
def test_slope_floats_match_golden(label):
    assert slope_floats(FLOAT_SLOPES[label]) == SLOPE_GOLDENS[label]
