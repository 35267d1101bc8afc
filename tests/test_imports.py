"""What importing the package and its command line loads, and the lazy namespace."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sslsq
from sslsq import datagen, selflearn

SRC = Path(__file__).resolve().parent.parent / "src"

# Every subcommand that fits needs these; diagnose and the experiment
# subcommands import the rest when they run.
CLI_MODULES = ["sslsq", "sslsq.cli", "sslsq.datagen", "sslsq.errors", "sslsq.model",
               "sslsq.selflearn"]


def imported_by(statement, setup=""):
    """The ``sslsq`` modules loaded after ``setup`` and ``statement`` in a fresh
    interpreter, and which of ``csv`` and ``numpy`` the statement loaded
    that the interpreter and ``setup`` had not."""
    code = "\n".join([
        "import sys",
        setup,
        "before = set(sys.modules)",
        statement,
        "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sslsq')))",
        "print(','.join(m for m in ('csv', 'numpy')"
        " if m in sys.modules and m not in before))",
    ])
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60, check=True)
    # The statement may print first; the last two lines are the report.
    package, others = done.stdout.splitlines()[-2:]
    return package.split(","), others.split(",") if others else []


def test_cli_import_loads_only_what_every_fit_needs():
    # numpy and the standard modules the command line needs come first, so
    # only what sslsq itself imports is counted.
    package, others = imported_by("import sslsq.cli", "import argparse, numpy, pathlib")
    assert package == CLI_MODULES
    assert others == []


def test_version_runs_no_subcommand_import():
    package, others = imported_by(
        "from sslsq.cli import main\n"
        "try:\n"
        "    main(['--version'])\n"
        "except SystemExit:\n"
        "    pass",
        "import argparse, numpy, pathlib")
    assert package == CLI_MODULES
    assert others == []


def test_package_import_loads_no_submodule():
    package, others = imported_by("import sslsq")
    assert package == ["sslsq"]
    assert others == []


def test_public_name_loads_its_own_submodule():
    package, _ = imported_by("from sslsq import fit_soft")
    assert package == ["sslsq", "sslsq.errors", "sslsq.model", "sslsq.selflearn"]


def test_table_matches_each_submodule():
    for short in ("model", "selflearn", "diagnostics", "datagen", "experiments"):
        module = getattr(sslsq, short)
        assert sorted(module.__all__) == sorted(
            name for name, owner in sslsq._EXPORTS.items() if owner == short)
    errors = sslsq.errors
    assert all(issubclass(getattr(errors, name), errors.Error)
               for name, owner in sslsq._EXPORTS.items() if owner == "errors")
    assert sslsq.__all__ == list(sslsq._EXPORTS)


def test_dir_lists_every_public_name_and_submodule():
    names = dir(sslsq)
    assert names == sorted(names)
    assert set(sslsq.__all__) <= set(names)
    assert {"cli", "datagen", "diagnostics", "errors", "experiments", "model",
            "selflearn", "__version__"} <= set(names)


def test_submodules_are_attributes():
    from sslsq import datagen as imported

    assert imported is datagen is sslsq.datagen
    assert sslsq.diagnostics.__name__ == "sslsq.diagnostics"


def test_public_name_is_read_from_its_submodule(monkeypatch):
    assert sslsq.fit_soft is selflearn.fit_soft
    assert "fit_soft" not in vars(sslsq)

    def replacement(*args, **kwargs):
        return None

    # Nothing is cached in the package, so a rebinding in the submodule is
    # the one the package hands out.
    monkeypatch.setattr(selflearn, "fit_soft", replacement)
    assert sslsq.fit_soft is replacement
    from sslsq import fit_soft

    assert fit_soft is replacement


@pytest.mark.parametrize("name", ["no_such_name", "fit_sofft"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"^module 'sslsq' has no attribute '{name}'$"):
        getattr(sslsq, name)
    assert not hasattr(sslsq, name)
    with pytest.raises(ImportError, match=name):
        exec(f"from sslsq import {name}", {})
