"""The laptop examples run to completion in-process.

Both open ``kv://`` stores (the NetKV cluster over in-process shards),
so they are the first thing a store change can break for a new user.
"""

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


@pytest.mark.parametrize("name, marker", [
    ("quickstart.py", "--- data management ---"),
    ("data_backends.py", "after eviction: checkpoint still readable"),
], ids=["quickstart", "data_backends"])
def test_example_runs(name, marker, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(os.path.join(EXAMPLES, name), run_name="__main__")
    out = capsys.readouterr().out
    assert marker in out
    assert "FAILED" not in out
