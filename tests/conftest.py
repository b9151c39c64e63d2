import pytest

from iwalab import invariants


@pytest.fixture(autouse=True)
def fresh_bloch_memo():
    """Each test starts and ends with an empty `chern_momentum` memo, so
    no test reads a Bloch eigensolve another one left."""
    invariants._held_bloch_eigensolve.cache_clear()
    yield
    invariants._held_bloch_eigensolve.cache_clear()
