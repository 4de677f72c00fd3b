"""Suite-wide set-up."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _fresh_catalog_cache(tmp_path_factory):
    """Point the catalog cache at an empty folder for the whole session,
    so the suite tests the catalogs this checkout builds rather than files
    another checkout left in the shared default folder."""
    patch = pytest.MonkeyPatch()
    patch.setenv("PEBBLEX_CACHE_DIR", str(tmp_path_factory.mktemp("catalog-cache")))
    yield
    patch.undo()
