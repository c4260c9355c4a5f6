import importlib

import pytest

native = importlib.import_module("palmpat._native")


@pytest.fixture(params=["kernel", "tree"])
def nn_path(request, monkeypatch):
    """Runs a test with G and F on the compiled grid kernel, then on the k-d tree
    (the library forced off, as when it cannot be built)."""
    if request.param == "tree":
        monkeypatch.setattr(native, "_lib", False)
    elif native.load() is None:
        pytest.skip("the compiled library cannot be built on this host")
    return request.param
