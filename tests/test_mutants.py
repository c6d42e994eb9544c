"""The mutant catalogue (``tests/mutants.py``) stays applicable, and the
selftest catches the tie fault without any hook in the library."""

import os
import shutil
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT, apply, mutate
from paretorecords.cli import main


def test_catalogue_texts_occur_once():
    # a refactor that moves a mutant's text must update the catalogue
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.file).read_text()
        assert mutate(text, m) != text, m.id
        assert m.tests and m.why, m.id
        for test in m.tests:
            assert (ROOT / test.split("::")[0]).is_file(), (m.id, test)


def test_selftest_catches_the_tie_fault(tmp_path):
    # '>' made '>=' in RecordBook._observe_raw: duplicates and tied points
    # stop setting records, and the selftest's suites say so
    shutil.copytree(ROOT / "src" / "paretorecords", tmp_path / "src" / "paretorecords",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tie_fault, = (m for m in MUTANTS if m.id == "observe-tie-dominated")
    apply(tie_fault, tmp_path)
    res = subprocess.run([sys.executable, "-m", "paretorecords.cli", "selftest"],
                         capture_output=True, text=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(tmp_path / "src")))
    assert res.returncode == 1, res.stdout + res.stderr
    assert "FAIL record-dominance" in res.stderr


def test_selftest_takes_no_fault_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--inject-fault"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err
