"""Read the process metrics registry from inside one test.

Every layer reports into the one process registry
(:func:`repro.obs.metrics.get_registry`), which also holds whatever the
tests before this one recorded.  So a test reads a counter, or a
histogram's observation count, as the change since its :class:`Meter`
was made, and a gauge (:func:`reading`) right after its own object set
it.  A series a test expects to stay absent is one whose delta is 0.
"""

from repro.obs.metrics import Histogram, get_registry

__all__ = ["Meter", "reading"]


def reading(name: str, **labels) -> float:
    """A counter's or gauge's value, or a histogram's observation count,
    for one label set; 0 while ``name`` is not registered."""
    instrument = get_registry().get(name)
    if instrument is None:
        return 0
    if isinstance(instrument, Histogram):
        return instrument.count(**labels)
    return instrument.value(**labels)


def _key(labels: dict) -> tuple:
    return tuple(sorted((name, str(value)) for name, value in labels.items()))


class Meter:
    """Every counter and histogram of the process registry, read relative
    to the moment this meter was made."""

    def __init__(self):
        registry = get_registry()
        #: name -> label key -> (value or observation count, histogram sum)
        self._start = {}
        for name in registry.names():
            instrument = registry.get(name)
            histogram = isinstance(instrument, Histogram)
            self._start[name] = {
                _key(series["labels"]): (
                    (series["count"], series["sum"]) if histogram
                    else (series["value"], 0.0)
                )
                for series in instrument.as_dict()["values"]
            }

    def _started(self, name: str, labels: dict) -> tuple:
        return self._start.get(name, {}).get(_key(labels), (0, 0.0))

    def __call__(self, name: str, **labels) -> float:
        """How far a counter (or a histogram's count) moved since
        construction."""
        return reading(name, **labels) - self._started(name, labels)[0]

    def sum(self, name: str, **labels) -> float:
        """How far a histogram's sum moved since construction."""
        histogram = get_registry().get(name)
        now = histogram.sum(**labels) if histogram is not None else 0.0
        return now - self._started(name, labels)[1]
