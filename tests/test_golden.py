"""Golden-output gate: every cell of ``tests/golden.py`` must reproduce
``tests/fixtures/golden.json`` byte for byte (summary values and the
sha256 of the final checkpoint, the trace and the audit log)."""

import json
import shutil

import pytest

from repro.resilience.checkpoint import SCHEMA_VERSION
from tests import golden

FIXTURE = golden.load_fixture()
CELLS = golden.cells()


def test_fixture_matches_the_checkpoint_schema():
    # A schema bump changes every checkpoint hash: refresh the fixture
    # (python -m tests.golden --refresh) in the same change.
    assert FIXTURE["checkpoint_schema"] == SCHEMA_VERSION
    assert "numpy" in FIXTURE


def test_fixture_covers_exactly_the_cell_list():
    assert sorted(FIXTURE["cells"]) == sorted(cell.name for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=[cell.name for cell in CELLS])
def test_cell(cell):
    got = golden.capture_cell(cell)
    want = FIXTURE["cells"][cell.name]
    if golden.canonical(got) == golden.canonical(want):
        return
    diff = {
        key: (want.get(key), got.get(key))
        for key in sorted(set(want) | set(got))
        if json.dumps(want.get(key), sort_keys=True)
        != json.dumps(got.get(key), sort_keys=True)
    }
    numpy_note = ""
    if FIXTURE["numpy"] != golden.environment()["numpy"]:
        numpy_note = (
            f" (fixture captured with numpy {FIXTURE['numpy']}, running "
            f"{golden.environment()['numpy']})"
        )
    pytest.fail(f"{cell.name} differs from its golden{numpy_note}: {diff}")


def test_refresh_refuses_without_a_schema_change(tmp_path):
    path = tmp_path / "golden.json"
    shutil.copy(golden.FIXTURE, path)
    before = path.read_bytes()
    refusal = golden.refresh(path)
    assert refusal is not None and "refusing" in refusal
    assert path.read_bytes() == before
