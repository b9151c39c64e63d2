"""The lines of `iwalab hull --Mmax 8` output that do not depend on the
run, against the committed goldens of golden_csr.py."""

import json

import pytest

from golden_csr import HULL_FILE, HULL_SLOPES, hull_outputs

GOLDENS = json.loads(HULL_FILE.read_text())


def test_goldens_cover_the_slopes():
    assert sorted(GOLDENS) == sorted(HULL_SLOPES)


@pytest.mark.parametrize("slope", HULL_SLOPES)
def test_hull_outputs_match_golden(slope, tmp_path):
    assert hull_outputs(slope, tmp_path) == GOLDENS[slope]
