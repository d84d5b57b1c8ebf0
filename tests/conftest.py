"""Every test keeps the dataset cache of ``ingest.load_dataset`` in its own
temporary directory, so the suite never writes to ~/.cache. A test that
holds the model to a float64 oracle asks for ``float64_steps``."""

import numpy as np
import pytest

from demandcast import lstm_att


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


@pytest.fixture
def float64_steps(monkeypatch):
    """Makes the parameter arena float64 (``DTYPE``), and so the model, clip,
    Adam and checkpoint of every ``ModelParams`` the test makes, for the
    tests that hold the model to a float64 oracle at float64 tolerances."""
    monkeypatch.setattr(lstm_att, "DTYPE", np.float64)
