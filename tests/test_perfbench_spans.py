"""The traced benchmark wraps package attributes by name; a refactor that
moves or renames one of them must fail here rather than in a traced run."""

import functools
import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._targets()


@pytest.mark.parametrize(
    "owner, attr, kind",
    [(owner, attr, kind) for owner, attr, _, kind, _ in _targets()],
    ids=lambda v: v if isinstance(v, str) else getattr(v, "__name__", None),
)
def test_wrapped_call_site_is_bound(owner, attr, kind):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    value = vars(owner)[attr]
    if kind == "classmethod":
        assert isinstance(value, classmethod)
    elif kind == "cached_property":
        assert isinstance(value, functools.cached_property)
    else:
        assert callable(value)
