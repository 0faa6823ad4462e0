import subprocess
import sys
import tomllib
from pathlib import Path

import hyf

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_every_export_resolves_once():
    assert len(hyf.__all__) == len(set(hyf.__all__))
    assert [name for name in hyf.__all__ if not hasattr(hyf, name)] == []


def test_import_loads_no_submodule():
    out = _fresh("import sys, hyf; print(sorted(m for m in sys.modules "
                 "if m == 'numpy' or m.startswith('hyf.')))")
    assert out == "[]\n"


def test_each_export_resolves_on_first_use_from_its_module():
    # before first use no export is bound in the package; after it, each is
    # the object its submodule defines
    out = _fresh(
        "import importlib, sys, hyf\n"
        "print([n for n in hyf.__all__ if n in vars(hyf)])\n"
        "print(sorted(n for n in hyf.__all__ if getattr(hyf, n) is not "
        "getattr(importlib.import_module('hyf.' + hyf._ORIGIN[n]), n)))\n"
        "print([n for n in hyf.__all__ if n not in vars(hyf)])\n")
    assert out == "[]\n[]\n[]\n"


def test_every_submodule_resolves_without_its_own_import():
    modules = sorted(p.stem for p in (ROOT / "src" / "hyf").glob("*.py") if p.stem[:2] != "__")
    out = _fresh("import hyf, types; print(sorted(name for name in hyf._SUBMODULES "
                 "if isinstance(getattr(hyf, name), types.ModuleType)))")
    assert out == f"{modules}\n"


def test_star_import_dir_and_unknown_names():
    out = _fresh(
        "import hyf\n"
        "ns = {}\n"
        "exec('from hyf import *', ns)\n"
        "ns.pop('__builtins__')\n"
        "print(sorted(ns) == sorted(hyf.__all__), "
        "sorted((set(hyf.__all__) | set(hyf._SUBMODULES)) - set(dir(hyf))))\n"
        "try:\n"
        "    hyf.frobnicate\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    assert out == "True []\nmodule 'hyf' has no attribute 'frobnicate'\n"


def test_console_script_is_the_front_door_main():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"hyf": "hyf.entry:main"}
    out = _fresh("import sys, hyf.entry; print('numpy' in sys.modules); "
                 "import hyf.cli; print(hyf.cli.main is hyf.entry.main)")
    assert out == "False\nTrue\n"
