"""The CLI's exit-code contract on random JSON input files (hypothesis)."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from platkit.cli import main

# the field names of braid systems, banded braids, certificates and plans
FIELDS = [
    "degree", "entries", "conjugator", "index", "sign",
    "strands", "base", "bands", "slot", "time",
    "profile", "profile1", "profile2",
    "gamma", "gamma_prime", "delta", "delta_prime",
    "strips", "name", "bottom", "top", "kind", "left", "right", "position",
    "boundary", "boundary_factors", "branch_points", "certificates", "chi",
]  # fmt: skip
TOY = '{"strands": 4, "base": "", "bands": [{"slot": 2, "sign": 1, "time": "1/2"}]}'
TEXTS = ["", "1", "1 2", "-1 -2 1", "2 2 2", "1/2", "0.25", "0,0", "m=2", "m=2 g0 g1^-1"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(TEXTS)
    | st.text(max_size=4)
)
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS), children, max_size=6),
    max_leaves=20,
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=documents)
def test_every_file_command_keeps_the_exit_code_contract(tmp_path, capsys, document):
    banded = tmp_path / "toy.json"
    banded.write_text(TOY)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    doc = str(path)
    for argv in (
        ["surface-invariants", "--in", doc],
        ["slide", "--in", doc, "1"],
        ["banded-check", doc],
        ["export-mp", "plan", doc],
        ["export-mp", "system", doc],
        ["compile", str(banded), "--certs", doc],
    ):
        code = main(argv)
        capsys.readouterr()
        assert isinstance(code, int) and 0 <= code <= 3, (argv, document, code)
