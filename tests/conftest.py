import numpy as np
import pytest


@pytest.fixture
def linalg_dtypes(monkeypatch):
    """``record(*names)`` wraps the named ``np.linalg`` functions so that each
    call records the dtype of its matrix argument, and returns the record
    {name: [dtypes in call order]}."""

    def record(*names):
        seen = {name: [] for name in names}
        for name in names:

            def recording(a, *args, _call=getattr(np.linalg, name), _seen=seen[name], **kwargs):
                _seen.append(a.dtype)
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        return seen

    return record
