"""The verify_bic reports of three bic_slab benchmark configurations
against the committed goldens of golden_csr.py: the integer, boolean and
string fields exactly, the float fields within 1e-10."""

import json

import numpy as np
import pytest

from golden_csr import BIC_CONFIGURATIONS, REPORTS_FILE, bic_report

GOLDENS = json.loads(REPORTS_FILE.read_text())
FLOAT_TOL = 1e-10


def test_goldens_cover_the_configurations():
    assert sorted(GOLDENS) == sorted(BIC_CONFIGURATIONS)


@pytest.mark.parametrize("name", BIC_CONFIGURATIONS)
def test_report_matches_golden(name):
    got, want = bic_report(name), GOLDENS[name]
    assert sorted(got) == sorted(want)
    for field, value in got.items():
        golden = want[field]
        if isinstance(value, (float, tuple)):       # delta is a float pair
            assert np.abs(np.subtract(value, golden)).max() <= FLOAT_TOL, field
        else:
            assert (type(value), value) == (type(golden), golden), field
