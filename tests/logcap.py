"""Read the process event log from inside one test.

Every layer writes to the one process log (:data:`repro.obs.log.LOG`),
which is off unless configured.  A test turns it on onto a buffer with
:func:`capture` and reads back what the code under test wrote; leaving
the ``with`` block restores whatever was configured before, so no
other test sees the log on (``tests/conftest.py`` checks that).
"""

import contextlib
import io
import json

from repro.obs.log import LOG, configure

__all__ = ["Capture", "capture"]


class Capture:
    """The lines written to the process log while a :func:`capture`
    block is open."""

    def __init__(self):
        self.buffer = io.StringIO()

    def lines(self):
        return [line for line in self.buffer.getvalue().splitlines() if line]

    def events(self, event=None):
        """Every captured event as a dict, optionally only those named
        ``event``."""
        parsed = [json.loads(line) for line in self.lines()]
        if event is not None:
            parsed = [record for record in parsed if record["event"] == event]
        return parsed


@contextlib.contextmanager
def capture(min_level="debug"):
    """Configure the process log onto a fresh :class:`Capture` at
    ``min_level`` for the block, then put the previous setting back."""
    previous = (LOG.stream, LOG.min_level)
    log = Capture()
    configure(log.buffer, min_level)
    try:
        yield log
    finally:
        configure(*previous)
