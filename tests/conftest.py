import inspect

import pytest

from unitscan import _parallel, cubic, heuristics, load_cubic_fields, load_quad_fields, quadratic
from unitscan.report import load_reference_tables


@pytest.fixture(scope="session")
def quad_records():
    return load_quad_fields()


@pytest.fixture(scope="session")
def cubic_records():
    return load_cubic_fields()


@pytest.fixture(scope="session")
def ref_tables():
    return load_reference_tables()


@pytest.fixture
def chunk_counts(monkeypatch):
    """The number of chunks each scan's run_chunked call cuts its range into;
    with more than one worker and core, more than one chunk means the pool ran."""
    counts = []
    signature = inspect.signature(_parallel.run_chunked)

    def counted(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        counts.append(a["hi"] // a["chunk_span"] - a["lo"] // a["chunk_span"] + 1)
        return _parallel.run_chunked(*args, **kwargs)

    for mod in (cubic, heuristics, quadratic):
        monkeypatch.setattr(mod, "run_chunked", counted)
    return counts
