"""The package namespace: every export resolves, and loads only its module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import platkit

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bands", "hilden", "laurent", "motion", "plats", "stabilize", "systems", "words")


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter on the checkout's sources; its JSON stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_export_is_its_modules_object():
    # a name held by several modules (CertificateError: words and bands) is one object
    modules = [__import__(f"platkit.{name}", fromlist=["_"]) for name in MODULES]
    for name in platkit.__all__:
        value = getattr(platkit, name)
        holders = [vars(module)[name] for module in modules if name in vars(module)]
        assert holders, name
        assert all(held is value for held in holders), name


def test_dir_and_unknown_names():
    assert set(platkit.__all__) <= set(dir(platkit))
    assert len(set(platkit.__all__)) == len(platkit.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        platkit.no_such_name  # noqa: B018
    assert platkit.__version__ == "0.1.0"


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from platkit import *", namespace)
    assert set(platkit.__all__) <= set(namespace)
    assert namespace["braids_equal"] is platkit.braids_equal


WORDS = {"words"}
PLATS = {"laurent", "plats", "words"}
SYSTEMS = {"search", "systems", "words"}
BANDS = {"bands", "hilden", "laurent", "plats", "search", "stabilize", "systems", "words"}
MOTION = {"laurent", "motion", "plats", "search", "systems", "words"}
# every subcommand, its exit code and the platkit modules besides platkit.cli
# one call of it loads; {banded}, {plan} and {system} name files
COLD_START = {
    "parse": (["parse", "--strands", "3", "1 2 -2"], 0, WORDS),
    "equal": (["equal", "--strands", "4", "1 2", "2 1"], 1, WORDS),
    "plat-components": (["plat-components", "--strands", "4", "1 2"], 0, PLATS),
    "bracket": (["bracket", "--strands", "4", "2 2 2"], 0, PLATS),
    "adequate": (["adequate", "--strands", "4", "1"], 0, {"hilden", "search", "words"}),
    "stabilize": (["stabilize", "--strands", "2", "1", "--extra", "1"], 0, {"stabilize", "words"}),
    "slide": (["slide", "--degree", "3", "--entries", "1;2", "1"], 0, SYSTEMS),
    "hurwitz": (["hurwitz", "--degree", "2", "--entries", "1;-1", "--entries2=-1;1"], 0, SYSTEMS),
    "surface-invariants": (
        ["surface-invariants", "--degree", "2", "--entries", "1;1;-1"], 0, SYSTEMS
    ),
    "to-genuine-plat": (["to-genuine-plat", "--degree", "2", "--entries", "1;-1"], 0, SYSTEMS),
    "ribbon-check": (["ribbon-check", "--degree", "2", "--entries", "1;-1"], 0, SYSTEMS),
    "banded-check": (["banded-check", "{banded}"], 0, BANDS),
    "compile": (["compile", "{banded}", "--search"], 0, BANDS),
    "export-mp-plan": (["export-mp", "plan", "{plan}"], 0, BANDS | {"motion"}),
    "export-mp-plat": (["export-mp", "plat", "--strands", "4", "1"], 0, MOTION),
    "export-mp-system": (["export-mp", "system", "{system}"], 0, MOTION),
}


@pytest.mark.parametrize(
    "argv, code, modules", list(COLD_START.values()), ids=list(COLD_START)
)
def test_word_commands_leave_heavy_modules_unloaded(argv, code, modules, tmp_path):
    bb = platkit.banded_from_obj(
        {"strands": 4, "base": "", "bands": [{"slot": 2, "sign": 1, "time": "1/2"}]}
    )
    files = {
        "banded": platkit.banded_to_json(bb),
        "plan": platkit.plan_to_json(
            platkit.compile_surface(bb, platkit.search_certificates(bb, 3))
        ),
        "system": json.dumps({"degree": 2, "entries": ["1", "-1"]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
    loaded = fresh(
        "import json, sys\n"
        "from platkit.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    assert loaded["code"] == code
    assert {name for name in loaded["modules"] if name.startswith("platkit.")} == {
        f"platkit.{name}" for name in modules | {"cli"}
    }


@pytest.mark.parametrize(
    "argv, code, modules", list(COLD_START.values()), ids=list(COLD_START)
)
def test_commands_leave_dataclasses_and_inspect_unloaded(argv, code, modules, tmp_path):
    # the value classes come from words._frozen, which needs neither module
    bb = platkit.banded_from_obj(
        {"strands": 4, "base": "", "bands": [{"slot": 2, "sign": 1, "time": "1/2"}]}
    )
    files = {
        "banded": platkit.banded_to_json(bb),
        "plan": platkit.plan_to_json(
            platkit.compile_surface(bb, platkit.search_certificates(bb, 3))
        ),
        "system": json.dumps({"degree": 2, "entries": ["1", "-1"]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
    loaded = fresh(
        "import json, sys\n"
        "from platkit.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    assert loaded["code"] == code
    assert not {"dataclasses", "inspect"} & set(loaded["modules"])


def test_submodule_imported_first_keeps_the_export():
    # importing the submodule platkit.stabilize binds it on the package
    loaded = fresh(
        "import json\n"
        "import platkit.stabilize\n"
        "import platkit\n"
        "from platkit import stabilize\n"
        "print(json.dumps({'callable': callable(platkit.stabilize),"
        " 'same': stabilize is platkit.stabilize}))\n"
    )
    assert loaded == {"callable": True, "same": True}


def test_plat_motion_leaves_bands_unloaded():
    # motion names BraidedSurfacePlan only in an annotation
    loaded = fresh(
        "import json, sys\n"
        "from platkit.cli import main\n"
        "code = main(['export-mp', 'plat', '--strands', '4', '1'])\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    assert loaded["code"] == 0
    assert "platkit.motion" in loaded["modules"]
    assert "platkit.bands" not in loaded["modules"]
