"""Every test keeps the dataset cache of ``ingest.load_dataset`` in its own
temporary directory, so the suite never writes to ~/.cache."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def session_dataset_cache(tmp_path_factory):
    """The cache of module-scoped fixtures, which load datasets before any
    test's own fixtures are set up."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def dataset_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
