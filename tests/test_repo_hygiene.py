"""Tier-1 hygiene gates: no compiled artifacts tracked, no stale docs.

Runs :mod:`scripts.check_no_pyc` as part of the regular suite so a
``git add -A`` that sweeps in ``__pycache__/`` fails fast. Also keeps
the operator table of ``REPRO_*`` environment variables in
``docs/DISTRIBUTED.md`` in step with what ``src/`` reads.
"""

import ast
import pathlib
import re
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "scripts"))

import check_no_pyc  # noqa: E402


def test_no_compiled_artifacts_tracked():
    paths = check_no_pyc.tracked_files()
    if paths is None:
        pytest.skip("not a git checkout (or git unavailable)")
    offenders = check_no_pyc.compiled_artifacts(paths)
    assert offenders == [], (
        "compiled Python artifacts are tracked in git; remove them with "
        "`git rm -r --cached <path>` (see scripts/check_no_pyc.py)"
    )


def test_gitignore_covers_compiled_artifacts():
    gitignore = (_REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__/" in gitignore
    assert "*.py[cod]" in gitignore or "*.pyc" in gitignore


def test_detector_flags_offenders():
    flagged = check_no_pyc.compiled_artifacts(
        ["src/a.pyc", "pkg/__pycache__/b.cpython-311.pyc", "src/ok.py",
         "docs/__pycache__x/readme.md"]
    )
    assert flagged == ["pkg/__pycache__/b.cpython-311.pyc", "src/a.pyc"]


def test_detector_flags_egg_info():
    flagged = check_no_pyc.compiled_artifacts(
        ["src/repro.egg-info/PKG-INFO", "src/repro.egg-info/SOURCES.txt",
         "nested/thing.egg-info/top_level.txt", "src/egg-info.py",
         "docs/egg-info/readme.md", "src/ok.py"]
    )
    assert flagged == [
        "nested/thing.egg-info/top_level.txt",
        "src/repro.egg-info/PKG-INFO",
        "src/repro.egg-info/SOURCES.txt",
    ]


_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _env_names_in_source():
    """Every ``REPRO_*`` name ``src/`` spells as a whole string literal.

    That is how the code reads a variable — a module constant or an
    ``os.environ`` argument; docstrings that merely mention a name are
    not whole-literal matches.
    """
    names = set()
    for path in sorted((_REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _ENV_NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _env_names_in_operator_table():
    """The ``REPRO_*`` rows of the table in ``docs/DISTRIBUTED.md``."""
    doc = (_REPO_ROOT / "docs" / "DISTRIBUTED.md").read_text()
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", doc, re.M))


def test_env_table_lists_exactly_the_variables_src_reads():
    in_source = _env_names_in_source()
    in_table = _env_names_in_operator_table()
    assert in_source, "found no REPRO_* variables under src/"
    assert in_source - in_table == set(), (
        "docs/DISTRIBUTED.md's REPRO_* table is missing variables src/ "
        f"reads: {sorted(in_source - in_table)}"
    )
    assert in_table - in_source == set(), (
        "docs/DISTRIBUTED.md's REPRO_* table lists variables src/ no "
        f"longer reads: {sorted(in_table - in_source)}"
    )
