import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "cli_digests.py")


@pytest.fixture
def digests(monkeypatch):
    spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "runs", lambda out, heart: [([], ["out/values.csv"])])
    return module


def write_values(root, *cells):
    os.makedirs(root / "out")
    rows = ["# config comment", "id,value"] + [f"{i},{c}" for i, c in enumerate(cells)]
    (root / "out" / "values.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "old, new, status",
    [
        (("0.1", "0.2"), ("0.1", "0.2"), 0),
        (("0.1", "0.2"), ("0.1000001", "0.2"), 0),
        (("0.1", "0.2"), ("0.100002", "0.2"), 1),
        (("0.1", "0.2"), ("0.1000000001", "nan"), 1),
        (("0.1", "0.2"), ("nan", "0.2000000001"), 1),
    ],
    ids=["equal", "within-1e-7", "2e-6", "nan-after-small", "nan-first"],
)
def test_compare_numeric_column(digests, tmp_path, capsys, old, new, status):
    write_values(tmp_path / "old", *old)
    write_values(tmp_path / "new", *new)
    assert digests.compare(str(tmp_path / "old"), str(tmp_path / "new")) == status
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert len(fails) == status
    assert all(ln.startswith("FAIL out/values.csv: column value differs by") for ln in fails)


@pytest.mark.parametrize("missing_from", ["old", "new"])
def test_compare_missing_file_fails(digests, tmp_path, capsys, missing_from):
    for side in ("old", "new"):
        if side == missing_from:
            os.makedirs(tmp_path / side)
        else:
            write_values(tmp_path / side, "0.1")
    assert digests.compare(str(tmp_path / "old"), str(tmp_path / "new")) == 1
    assert capsys.readouterr().out.splitlines() == ["FAIL out/values.csv: missing"]
