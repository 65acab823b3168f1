import pytest

from repro.obs.log import LOG, configure


@pytest.fixture(autouse=True)
def process_log_is_left_off():
    """Every test leaves the process event log off (``tests/logcap.py``
    restores it), so no test writes into another's capture."""
    yield
    if LOG.enabled:
        configure(None)
        pytest.fail("the test left the process event log on")
