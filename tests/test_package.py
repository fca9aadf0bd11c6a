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


@pytest.mark.parametrize(
    "argv, code",
    [(["bracket", "--strands", "4", "2 2 2"], 0), (["equal", "--strands", "4", "1 2", "2 1"], 1)],
    ids=["bracket", "equal"],
)
def test_word_commands_leave_heavy_modules_unloaded(argv, code):
    loaded = fresh(
        "import json, sys\n"
        "from platkit.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )
    assert loaded["code"] == code
    for name in ("platkit.bands", "platkit.motion", "platkit.systems"):
        assert name not in loaded["modules"]


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
