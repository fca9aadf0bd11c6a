"""End-to-end command-line tests driving platkit.cli.main directly."""

import json
import random
import sys

import pytest

import platkit.bands
from platkit.bands import Band, BandedBraid, banded_to_json
from platkit.cli import main
from platkit.motion import motion_from_obj
from platkit.stabilize import MAX_STABILIZED_STRANDS
from platkit.systems import BraidSystem, MonodromyEntry, system_to_json
from platkit.words import MAX_STRANDS, parse_braid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def system22_file(tmp_path):
    beta_inv = parse_braid("-2 -2 -2", 4)
    system = BraidSystem(
        4,
        (MonodromyEntry(beta_inv, 1, 1), MonodromyEntry(beta_inv, 1, -1)),
    )
    path = tmp_path / "sys22.json"
    path.write_text(system_to_json(system))
    return str(path)


@pytest.fixture
def toy_file(tmp_path):
    from fractions import Fraction

    from platkit.words import BraidWord

    toy = BandedBraid(BraidWord.identity(4), (Band(2, 1, Fraction(1, 2)),))
    path = tmp_path / "toy.json"
    path.write_text(banded_to_json(toy))
    return str(path)


@pytest.fixture
def knotted_file(tmp_path):
    bb = BandedBraid(parse_braid("2 2 2", 4))
    path = tmp_path / "bad.json"
    path.write_text(banded_to_json(bb))
    return str(path)


class TestWordCommands:
    def test_parse(self, capsys):
        code, out, _ = run(capsys, "parse", "--strands", "3", "1 2 -2")
        assert code == 0
        assert out == (
            "strands=3\nlength=3\nword=1 2 -2\nexponent_sum=1\n"
            "permutation=2 1 3\nreduced=1\n"
        )

    def test_parse_rejects_bad_word(self, capsys):
        code, _, err = run(capsys, "parse", "--strands", "3", "1 x")
        assert code == 2
        assert "error:" in err

    def test_equal_exit_codes(self, capsys):
        code, out, _ = run(capsys, "equal", "--strands", "3", "1 2 1", "2 1 2")
        assert (code, out) == (0, "equal=true\n")
        code, out, _ = run(capsys, "equal", "--strands", "3", "1", "2")
        assert (code, out) == (1, "equal=false\n")

    def test_negative_word_after_separator(self, capsys):
        code, out, _ = run(capsys, "parse", "--strands", "2", "--", "-1 1")
        assert code == 0
        assert "reduced=\n" in out

    def test_plat_components_example(self, capsys):
        code, out, _ = run(capsys, "plat-components", "--strands", "4", "2 2 2")
        assert (code, out) == (0, "components=1\n")

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "bracket", "--strands", "4", "2 2 2")
        assert code == 0
        assert out == "bracket=A^7 - A^3 - A^-5\ncomponents=1\ntriviality=NotTrivial\n"

    def test_bracket_past_the_digit_limit_exits_3(self, capsys):
        # the loop power's binomial coefficients outgrow the int-to-str limit:
        # at 640 digits, 4400 strands have about 660 and 4000 strands 600
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, "bracket", "--strands", "4400", "1")
            assert (code, out) == (3, "")
            assert err == (
                "budget exhausted: a bracket coefficient has more digits than "
                "the limit of 640 for printing an integer\n"
            )
            code, out, _ = run(capsys, "bracket", "--strands", "4000", "1")
            assert code == 0 and out.startswith("bracket=")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_bracket_budget_exit(self, capsys):
        word = " ".join(["1"] * 25)
        code, _, err = run(capsys, "bracket", "--strands", "2", word)
        assert code == 3
        assert "budget" in err
        code, out, _ = run(capsys, "bracket", "--strands", "2", word, "--budget", "25")
        assert code == 0

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "plat-components", "--strands", "4", "2 2 2", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"components": 1}

    def test_strand_guard_exits_3(self, capsys):
        # one pair past the bound: exit 3 before any per-strand table is built
        strands = str(MAX_STRANDS + 2)
        for argv in (
            ("parse", "--strands", strands, "1"),
            ("equal", "--strands", strands, "1", "1"),
            ("plat-components", "--strands", strands, "1"),
            ("bracket", "--strands", strands, "1"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.startswith(f"budget exhausted: {strands} strands is over the limit")


class TestAdequate:
    def test_member(self, capsys):
        code, out, _ = run(capsys, "adequate", "--strands", "4", "1 3")
        assert code == 0
        assert out == "status=member\nexpression=m=2 g0 g1 g0 g1^-1\n"

    def test_not_member(self, capsys):
        code, out, _ = run(capsys, "adequate", "--strands", "4", "2")
        assert code == 1
        assert "status=not_member" in out

    def test_unknown_within_bound(self, capsys):
        code, out, _ = run(
            capsys, "adequate", "--strands", "2", "1 1 1 1 1", "--max-len", "2"
        )
        assert code == 3
        assert "status=unknown" in out

    def test_verify(self, capsys):
        code, out, _ = run(
            capsys, "adequate", "--strands", "4", "--verify", "m=2 g0 g1 g0 g1^-1", "1 3"
        )
        assert (code, out) == (0, "verified=true\n")
        code, out, _ = run(
            capsys, "adequate", "--strands", "4", "--verify", "m=2 g0", "1 3"
        )
        assert (code, out) == (1, "verified=false\n")


class TestStabilize:
    def test_profile_mode(self, capsys):
        code, out, _ = run(
            capsys, "stabilize", "--strands", "4", "--profile", "1,1", "2"
        )
        assert code == 0
        assert out == "strands=8\nword=2 2 1 3 2 4 -2 -3 -1 -2 -4 -5 -3 -4 6 4 3 5 4\n"

    def test_extra_mode(self, capsys):
        code, out, _ = run(capsys, "stabilize", "--strands", "2", "--extra", "2", "1")
        assert (code, out) == (0, "strands=6\nword=1 2 4\n")

    def test_size_guard_exits_3(self, capsys):
        # one pair past the bound: exit 3 before the word is built
        extra = str(MAX_STABILIZED_STRANDS // 2)
        code, out, err = run(capsys, "stabilize", "--strands", "2", "--extra", extra, "1")
        assert (code, out) == (3, "")
        assert err.startswith("budget exhausted: stabilizing to")
        profile = f"{MAX_STABILIZED_STRANDS // 2 - 1},0"
        code, _, err = run(capsys, "stabilize", "--strands", "4", "--profile", profile, "2")
        assert code == 3 and "over the limit" in err

    def test_modes_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stabilize", "--strands", "2", "--extra", "1", "--profile", "1", "1"])
        assert exc.value.code == 2


class TestSystems:
    def test_slide(self, capsys):
        # empty chunks between or after the separators are skipped
        for entries in ("1;2", "1;;2;"):
            code, out, _ = run(capsys, "slide", "--degree", "3", "--entries", entries, "1")
            assert code == 0
            assert out == (
                "degree=3\nr=2\n"
                "entry_1=monodromy index=2 sign=+1 conjugator=[1]\n"
                "entry_2=monodromy index=1 sign=+1 conjugator=[]\n"
            )

    def test_slide_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "slide", "--degree", "3", "--entries", "1;2", "1", "-1"
        )
        assert code == 0
        assert out == (
            "degree=3\nr=2\n"
            "entry_1=monodromy index=1 sign=+1 conjugator=[]\n"
            "entry_2=monodromy index=2 sign=+1 conjugator=[]\n"
        )

    def test_entries_need_degree(self, capsys):
        code, _, err = run(capsys, "slide", "--entries", "1;2", "1")
        assert code == 2
        assert "--degree" in err

    def test_slide_needs_a_system(self, capsys):
        code, out, err = run(capsys, "slide", "1")
        assert (code, out) == (2, "")
        assert err == "error: provide --in FILE or --entries together with --degree\n"

    def test_surface_invariants_example(self, capsys):
        code, out, _ = run(
            capsys, "surface-invariants", "--degree", "2", "--entries", "1;1;-1"
        )
        assert code == 0
        assert out == (
            "degree=2\nr=3\nboundary=1\ntwo_dimensional=false\nchi=-1\n"
            "positive_branch_points=2\nnegative_branch_points=1\n"
            "normal_euler=2\nclassification=NonorientableSum(2,1)\n"
        )

    def test_surface_invariants_without_branch_data(self, capsys):
        # an entry that is no conjugate of one crossing: no branch signs, no
        # normal Euler number, no degree-two classification
        code, out, _ = run(capsys, "surface-invariants", "--degree", "2", "--entries", "1 1")
        assert code == 0
        assert out == "degree=2\nr=1\nboundary=1 1\ntwo_dimensional=false\nchi=1\n"

    def test_slide_keeps_a_plain_entry(self, capsys):
        code, out, _ = run(capsys, "slide", "--degree", "3", "--entries", "1 2;2", "1")
        assert code == 0
        assert out == (
            "degree=3\nr=2\n"
            "entry_1=monodromy index=2 sign=+1 conjugator=[1 2]\n"
            "entry_2=1 2\n"
        )

    def test_surface_invariants_file(self, capsys, system22_file):
        code, out, _ = run(capsys, "surface-invariants", "--in", system22_file)
        assert code == 0
        assert out == (
            "degree=4\nr=2\nboundary=\ntwo_dimensional=true\nchi=2\n"
            "positive_branch_points=1\nnegative_branch_points=1\nnormal_euler=0\n"
        )

    def test_ribbon_check_example(self, capsys, system22_file):
        code, out, _ = run(capsys, "ribbon-check", "--in", system22_file)
        assert (code, out) == (0, "ribbon=true\n")

    def test_ribbon_check_failure(self, capsys):
        code, out, _ = run(
            capsys, "ribbon-check", "--degree", "2", "--entries", "1;1"
        )
        assert (code, out) == (1, "ribbon=false\n")

    def test_to_genuine_plat(self, capsys, system22_file):
        code, out, _ = run(capsys, "to-genuine-plat", "--in", system22_file)
        assert code == 0
        conj = "2 1 4 3 2 1 6 5 4 3 2 1 -2 -2 -2"
        assert out == (
            "degree=8\nr=2\n"
            f"entry_1=monodromy index=1 sign=+1 conjugator=[{conj}]\n"
            f"entry_2=monodromy index=1 sign=-1 conjugator=[{conj}]\n"
        )

    def test_to_genuine_plat_past_the_letter_limit_exits_3(self, capsys, monkeypatch):
        import platkit.systems

        # two factored entries, each conjugated by the 2-letter staircase
        argv = ["to-genuine-plat", "--degree", "2", "--entries", "1;-1"]
        monkeypatch.setattr(platkit.systems, "MAX_GENUINE_LETTERS", 4)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(platkit.systems, "MAX_GENUINE_LETTERS", 3)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "needs 4 letters, over the limit of 3" in err

    def test_surface_invariants_decides_the_boundary_once(self, capsys, monkeypatch):
        import platkit.systems

        calls = []
        decide = platkit.systems.braids_equal

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(platkit.systems, "braids_equal", counted)
        code, out, _ = run(capsys, "surface-invariants", "--degree", "3", "--entries", "1;-1")
        assert code == 0
        assert "two_dimensional=true\n" in out and out.endswith("normal_euler=0\n")
        assert len(calls) == 1

    def test_to_genuine_plat_decides_the_boundary_once(self, capsys, monkeypatch):
        import platkit
        import platkit.systems

        calls = []
        decide = platkit.systems.is_two_dimensional

        def counted(system):
            calls.append(system)
            return decide(system)

        # the package caches its lazy exports, so patch both lookups
        monkeypatch.setattr(platkit.systems, "is_two_dimensional", counted)
        monkeypatch.setattr(platkit, "is_two_dimensional", counted, raising=False)
        for entries, want in (("1;-1", 0), ("1", 1)):
            calls.clear()
            code = run(capsys, "to-genuine-plat", "--degree", "2", "--entries", entries)[0]
            assert (code, len(calls)) == (want, 1)
        # a degree-0 system is bad input, not an open one
        code, out, err = run(capsys, "to-genuine-plat", "--degree", "0", "--entries", "")
        assert (code, out) == (2, "")
        assert "strand count must be positive" in err

    def test_to_genuine_plat_rejects_open_systems(self, capsys):
        code, out, _ = run(
            capsys, "to-genuine-plat", "--degree", "2", "--entries", "1"
        )
        assert (code, out) == (1, "two_dimensional=false\n")


class TestHurwitz:
    def test_equivalent(self, capsys):
        code, out, _ = run(
            capsys, "hurwitz", "--degree", "2", "--entries", "1;-1", "--entries2=-1;1"
        )
        assert code == 0
        assert out == "status=Equivalent\nexplored=2\nmoves=1\n"

    def test_not_equivalent(self, capsys):
        code, out, _ = run(
            capsys, "hurwitz", "--degree", "2", "--entries", "1", "--entries2=-1"
        )
        assert code == 1
        assert out.startswith("status=NotEquivalent\n")

    @pytest.mark.parametrize(
        "entries, reason",
        [("1;-1", "exponent-sum multisets differ"), ("1 2;-2 -1", "cycle-type multisets differ")],
        ids=["exponent_sums", "cycle_types"],
    )
    def test_not_equivalent_by_invariants(self, capsys, entries, reason):
        argv = ["--degree", "3", "--entries", entries, "--entries2=1 1;-1 -1"]
        code, out, _ = run(capsys, "hurwitz", *argv)
        assert code == 1
        assert out == f"status=NotEquivalent\nexplored=0\nreason={reason}\n"

    def test_unknown_budget(self, capsys):
        code, out, _ = run(
            capsys,
            "hurwitz",
            "--degree",
            "2",
            "--entries",
            "1;-1",
            "--entries2=-1;1",
            "--budget",
            "0",
        )
        assert code == 3
        assert out == "status=Unknown\nexplored=0\nreason=budget exhausted\n"

    def test_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PLATKIT_BUDGET", "0")
        code, out, _ = run(
            capsys, "hurwitz", "--degree", "2", "--entries", "1;-1", "--entries2=-1;1"
        )
        assert code == 3
        # explicit flag wins over the environment
        code, out, _ = run(
            capsys,
            "hurwitz",
            "--degree",
            "2",
            "--entries",
            "1;-1",
            "--entries2=-1;1",
            "--budget",
            "10",
        )
        assert code == 0

    def test_fingerprint_guard_answers_unknown(self, capsys, monkeypatch, tmp_path):
        # a system against itself three slides later, whose search passes the
        # fingerprint guard before it reaches the target
        monkeypatch.delenv("PLATKIT_BUDGET", raising=False)
        s1 = {
            "degree": 4,
            "entries": [
                {"conjugator": "-3 -3 -1", "index": 2, "sign": 1},
                "-2 -3 -3 -2",
                "-2 1 1",
                "2 -2",
                {"conjugator": "-2 -3 -1", "index": 1, "sign": -1},
            ],
        }
        s2 = {
            "degree": 4,
            "entries": [
                {"conjugator": "-3 -3 -1 2 1 3 3 -2 1 1 -3 -3 -1 -2", "index": 2, "sign": 1},
                "-3 -3 -1 2 1 3 3 -2 1 1 -3 -3 -1 -2 1 3 3",
                "-1 -1 -3 -3 -2 -2 1 1",
                "2 -2",
                {"conjugator": "-2 -3 -1", "index": 1, "sign": -1},
            ],
        }
        path1, path2 = tmp_path / "s1.json", tmp_path / "s2.json"
        path1.write_text(json.dumps(s1))
        path2.write_text(json.dumps(s2))
        code, out, _ = run(capsys, "hurwitz", "--in", str(path1), "--in2", str(path2))
        assert code == 3
        assert out.startswith("status=Unknown\nexplored=")
        assert "reason=free-group fingerprint grew past 1000000 letters\n" in out


class TestBanded:
    def test_check_admissible(self, capsys, toy_file):
        code, out, _ = run(capsys, "banded-check", toy_file)
        assert code == 0
        assert out == (
            "base_components=2\nsurgered_components=1\n"
            "base_verdict=ConsistentWithTrivial\nsurgered_verdict=ConsistentWithTrivial\n"
            "admissible=true\nrealizing_euler=2\nsurgered_word=2\n"
        )

    def test_check_inadmissible(self, capsys, knotted_file):
        code, out, _ = run(capsys, "banded-check", knotted_file)
        assert code == 1
        assert "admissible=false" in out

    def test_compile_with_search(self, capsys, toy_file):
        code, out, _ = run(capsys, "compile", toy_file, "--search")
        assert code == 0
        assert out == (
            "degree=4\nbranch_points=2\npositive_branch_points=1\n"
            "negative_branch_points=1\nchi=2\nboundary=\nboundary_adequate=true\n"
        )

    def test_compile_bound_exhausted(self, capsys, toy_file):
        code, out, _ = run(capsys, "compile", toy_file, "--search", "--bound", "1")
        assert code == 3
        assert out == "certificates=absent\nbound=1\n"

    def test_search_on_many_pairs_exits_3(self, capsys, tmp_path):
        # 1200 pairs: more than the recursion limit, past the stabilization limit
        path = tmp_path / "wide.json"
        path.write_text('{"strands": 2400, "base": "", "bands": []}')
        code, out, err = run(capsys, "compile", str(path), "--search", "--bound", "1200")
        assert (code, out) == (3, "")
        assert err == (
            "budget exhausted: stabilizing to 2400 strands is over the limit of 1024\n"
        )

    def test_search_stops_at_the_limit_before_the_ball(self, capsys, tmp_path, monkeypatch):
        # an m past the stabilization limit is refused before any Hilden move is made
        def no_ball(m, depth):
            raise AssertionError(f"Hilden ball on {2 * m} strands")

        monkeypatch.setattr(platkit.bands, "_hilden_ball", no_ball)
        path = tmp_path / "wide.json"
        path.write_text('{"strands": 2400, "base": "", "bands": []}')
        code, out, err = run(capsys, "compile", str(path), "--search", "--bound", "1200")
        assert (code, out) == (3, "")
        assert err == (
            "budget exhausted: stabilizing to 2400 strands is over the limit of 1024\n"
        )

    def test_compile_inadmissible(self, capsys, knotted_file):
        code, out, _ = run(capsys, "compile", knotted_file, "--search")
        assert code == 1
        assert "admissible=false" in out

    def test_compile_with_certs_file(self, capsys, toy_file, tmp_path):
        certs = {
            "profile": "0,0",
            "profile1": "0,0",
            "profile2": "1",
            "gamma": "m=2",
            "gamma_prime": "m=2",
            "delta": "m=2",
            "delta_prime": "m=2",
        }
        path = tmp_path / "certs.json"
        path.write_text(json.dumps(certs))
        code, out, _ = run(capsys, "compile", toy_file, "--certs", str(path))
        assert code == 0
        assert "chi=2" in out

    def test_compile_rejects_bad_certs(self, capsys, toy_file, tmp_path):
        certs = {
            "profile": "0,0",
            "profile1": "0,0",
            "profile2": "1",
            "gamma": "m=2 g0",
            "gamma_prime": "m=2",
            "delta": "m=2",
            "delta_prime": "m=2",
        }
        path = tmp_path / "badcerts.json"
        path.write_text(json.dumps(certs))
        code, _, err = run(capsys, "compile", toy_file, "--certs", str(path))
        assert code == 1
        assert "first side certificate failed" in err

    def test_failed_certificate_is_a_certificate_error(self, capsys, toy_file, tmp_path):
        # exit 1 with the verification message, not the exit 2 of other ValueErrors
        certs = {
            "profile": "0,0",
            "profile1": "0,0",
            "profile2": "1",
            "gamma": "m=2",
            "gamma_prime": "m=2",
            "delta": "m=2 g1",
            "delta_prime": "m=2",
        }
        path = tmp_path / "badcerts.json"
        path.write_text(json.dumps(certs))
        code, out, err = run(capsys, "compile", toy_file, "--certs", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("verification failed: second side certificate failed")

    def test_search_then_compile_brackets_once(self, capsys, toy_file, tmp_path, monkeypatch):
        # the search's admissibility report (base and surgered plat) is the only
        # one; compiling from certificates evaluates no bracket
        import platkit.bands

        calls = []
        real = platkit.bands.kauffman_bracket

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(platkit.bands, "kauffman_bracket", counted)
        certs = {"profile": "0,0", "profile1": "0,0", "profile2": "1"}
        certs.update(dict.fromkeys(("gamma", "gamma_prime", "delta", "delta_prime"), "m=2"))
        path = tmp_path / "certs.json"
        path.write_text(json.dumps(certs))
        for mode, expected in ((["--search"], 2), (["--certs", str(path)], 0)):
            calls.clear()
            code, out, _ = run(capsys, "compile", toy_file, *mode)
            assert code == 0
            assert "chi=2\n" in out
            assert len(calls) == expected

    def test_compile_past_the_plan_size_limit_exits_3(self, capsys, toy_file, tmp_path, monkeypatch):
        import platkit.bands

        monkeypatch.setattr(platkit.bands, "MAX_PLAN_SIZE", 7)
        out_path = tmp_path / "plan.json"
        argv = ["compile", toy_file, "--search", "--out", str(out_path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "size 8" in err
        assert not out_path.exists()

    def test_long_banded_twist_exits_3(self, capsys, tmp_path):
        # sigma1^N with B bands: each band's conjugator is about N/2 letters long
        n = b = 1000
        bands = [{"slot": 1, "sign": 1, "time": f"{k}/{b + 1}"} for k in range(1, b + 1)]
        banded = tmp_path / "b.json"
        banded.write_text(json.dumps({"strands": 2, "base": " ".join(["1"] * n), "bands": bands}))
        certs = {"profile": "0", "profile1": "0", "profile2": "0"}
        certs.update(gamma="m=1" + " g0" * n, gamma_prime="m=1")
        certs.update(delta="m=1" + " g0" * (n + b), delta_prime="m=1")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(certs))
        code, out, err = run(capsys, "compile", str(banded), "--certs", str(path))
        assert (code, out) == (3, "")
        assert f"size {6000 * 7000}," in err

    def test_certificates_past_the_bracket_budget_compile(self, capsys, tmp_path):
        # 26 crossings are over the bracket budget of 24; the certificates need none
        banded = tmp_path / "b.json"
        banded.write_text(json.dumps({"strands": 2, "base": " ".join(["1"] * 26)}))
        twist = "m=1" + " g0" * 26
        certs = {"profile": "0", "profile1": "0", "profile2": "0"}
        certs.update(gamma=twist, gamma_prime="m=1", delta=twist, delta_prime="m=1")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(certs))
        code, out, _ = run(capsys, "compile", str(banded), "--certs", str(path))
        assert code == 0
        assert "chi=2\n" in out

    def test_compile_needs_a_mode(self, capsys, toy_file):
        code, _, err = run(capsys, "compile", toy_file)
        assert code == 2
        assert "--certs" in err

    def test_compile_writes_plan_file(self, capsys, toy_file, tmp_path):
        out_path = tmp_path / "plan.json"
        code, _, _ = run(
            capsys, "compile", toy_file, "--search", "--out", str(out_path)
        )
        assert code == 0
        from platkit.bands import plan_from_json

        plan = plan_from_json(out_path.read_text())
        assert plan.chi == 2


class TestExportMp:
    def test_plat_listing(self, capsys):
        code, out, _ = run(capsys, "export-mp", "plat", "2 2 2", "--strands", "4")
        assert code == 0
        assert out == (
            "strands=4\nstills=3\nstill_1=caps []\nstill_2=braid [2 2 2]\n"
            "still_3=cups []\n"
        )

    def test_plat_needs_strands(self, capsys):
        code, _, err = run(capsys, "export-mp", "plat", "2 2 2")
        assert code == 2
        assert "--strands" in err

    def test_json_round_trips(self, capsys, system22_file):
        code, out, _ = run(capsys, "export-mp", "system", system22_file, "--json")
        assert code == 0
        picture = motion_from_obj(json.loads(out))
        assert [s.label for s in picture.stills][1] == "level 2"

    def test_svg_file(self, capsys, tmp_path):
        path = tmp_path / "out.svg"
        code, _, _ = run(
            capsys, "export-mp", "plat", "2 2 2", "--strands", "4", "--out", str(path)
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>\n")

    def test_svg_past_the_point_limit_exits_3(self, capsys, tmp_path, monkeypatch):
        import platkit.motion

        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", 23)
        path = tmp_path / "out.svg"
        argv = ["export-mp", "plat", "2 2 2", "--strands", "4", "--out", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "24 points" in err
        assert not path.exists()

    def test_system_past_the_point_limit_exits_3(self, capsys, system22_file, monkeypatch):
        import platkit.motion

        # 4 strands: caps, level 2 (reduced to nothing), level 1 (7 letters),
        # level 0 and cups need 4 * (1 + 2 + 9 + 1 + 1) = 56 points
        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", 56)
        assert run(capsys, "export-mp", "system", system22_file)[0] == 0
        monkeypatch.setattr(platkit.motion, "MAX_SVG_POINTS", 55)
        code, out, err = run(capsys, "export-mp", "system", system22_file)
        assert (code, out) == (3, "")
        assert "limit of 55" in err

    def test_plan_kind(self, capsys, toy_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        run(capsys, "compile", toy_file, "--search", "--out", str(plan_path))
        code, out, _ = run(capsys, "export-mp", "plan", str(plan_path))
        assert code == 0
        assert "still_2=E6 []" in out


class TestHarness:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "banded-check", "/nonexistent/x.json")
        assert code == 2
        assert "error:" in err

    def test_deterministic_output(self, capsys):
        a = run(capsys, "surface-invariants", "--degree", "2", "--entries", "1;1;-1")
        b = run(capsys, "surface-invariants", "--degree", "2", "--entries", "1;1;-1")
        assert a == b

    def test_out_file_for_key_value(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "plat-components", "--strands", "4", "2 2 2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text() == "components=1\n"


class TestMalformedInput:
    def write(self, tmp_path, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        return str(path)

    def test_system_degree_as_text(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"degree": "3", "entries": ["1", "2"]}\n')
        code, _, err = run(capsys, "surface-invariants", "--in", path)
        assert code == 2
        assert "'degree' must be of type int" in err

    def test_system_as_list(self, capsys, tmp_path):
        path = self.write(tmp_path, "[1, 2]\n")
        code, _, err = run(capsys, "surface-invariants", "--in", path)
        assert code == 2
        assert "expected a JSON object" in err

    def test_banded_slot_as_text(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            '{"strands": 4, "base": "", "bands": [{"slot": "2", "sign": 1, "time": "1/2"}]}\n',
        )
        code, _, err = run(capsys, "banded-check", path)
        assert code == 2
        assert "'slot' must be of type int" in err

    def test_banded_time_divides_by_zero(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            '{"strands": 4, "base": "", "bands": [{"slot": 2, "sign": 1, "time": "1/0"}]}\n',
        )
        code, _, err = run(capsys, "banded-check", path)
        assert code == 2
        assert "divides by zero" in err

    def test_banded_time_in_exponent_notation(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            '{"strands": 4, "base": "", "bands": [{"slot": 2, "sign": 1, "time": "1e-400"}]}\n',
        )
        code, _, err = run(capsys, "banded-check", path)
        assert code == 2
        assert "must be an integer, p/q or a plain decimal" in err

    def test_certificate_profile_as_number(self, capsys, toy_file, tmp_path):
        certs = {
            "profile": 3,
            "profile1": "0,0",
            "profile2": "1",
            "gamma": "m=2",
            "gamma_prime": "m=2",
            "delta": "m=2",
            "delta_prime": "m=2",
        }
        path = self.write(tmp_path, json.dumps(certs))
        code, _, err = run(capsys, "compile", toy_file, "--certs", path)
        assert code == 2
        assert "'profile' must be of type str" in err

    def test_plan_strips_as_number(self, capsys, tmp_path):
        path = self.write(tmp_path, '{"degree": 4, "strips": 5}\n')
        code, _, err = run(capsys, "export-mp", "plan", path)
        assert code == 2
        assert "'strips' must be of type list" in err

    @pytest.mark.parametrize("degree", [0, -2])
    @pytest.mark.parametrize(
        "argv",
        [
            ["ribbon-check", "--in", "{path}"],
            ["surface-invariants", "--in", "{path}"],
            ["to-genuine-plat", "--in", "{path}"],
            ["slide", "--in", "{path}", "1"],
            ["hurwitz", "--in", "{path}", "--in2", "{path}"],
            ["export-mp", "system", "{path}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_system_degree_below_one(self, capsys, tmp_path, argv, degree):
        # bad input, never a verdict: every system reader rejects the file
        path = self.write(tmp_path, json.dumps({"degree": degree, "entries": []}))
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
        assert (code, out) == (2, "")
        assert "strand count must be positive" in err

    @pytest.mark.parametrize(
        "env, argv",
        [
            (None, ["bracket", "--strands", "4", "--budget", "-1", "2 2 2"]),
            (None, ["adequate", "--strands", "4", "--max-len", "-1", "1 -1"]),
            (None, ["compile", "{toy}", "--search", "--bound", "-1"]),
            ("-1", ["adequate", "--strands", "4", "1"]),
        ],
        ids=["budget", "max-len", "bound", "env"],
    )
    def test_negative_budget(self, capsys, monkeypatch, toy_file, env, argv):
        # bad input, never a verdict or an exhausted budget
        if env is None:
            monkeypatch.delenv("PLATKIT_BUDGET", raising=False)
        else:
            monkeypatch.setenv("PLATKIT_BUDGET", env)
        code, out, err = run(capsys, *(arg.format(toy=toy_file) for arg in argv))
        assert (code, out) == (2, "")
        assert err == "error: a budget must not be negative, got -1\n"

    def test_budget_variable_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("PLATKIT_BUDGET", "abc")
        code, out, err = run(capsys, "adequate", "--strands", "4", "1")
        assert (code, out) == (2, "")
        assert err == "error: PLATKIT_BUDGET must be an integer, got 'abc'\n"


    @pytest.mark.parametrize(
        "argv",
        [
            ["surface-invariants", "--in", "{deep}"],
            ["hurwitz", "--in", "{system}", "--in2", "{deep}"],
            ["banded-check", "{deep}"],
            ["compile", "{deep}", "--search"],
            ["compile", "{banded}", "--certs", "{deep}"],
            ["export-mp", "plan", "{deep}"],
            ["export-mp", "system", "{deep}"],
        ],
        ids=["in", "in2", "banded-check", "compile", "certs", "plan", "system"],
    )
    def test_nested_past_the_recursion_limit(
        self, capsys, tmp_path, system22_file, toy_file, argv
    ):
        depth = 10 * sys.getrecursionlimit()
        deep = self.write(tmp_path, "[" * depth + "]" * depth)
        paths = {"deep": deep, "system": system22_file, "banded": toy_file}
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
        assert (code, out) == (2, "")
        assert err.startswith("error:")


class TestLongIdentities:
    def test_equal_on_a_506_letter_identity_exits_0(self, capsys):
        # w r w^-1 with |w| = 250 on 8 strands: past the fingerprint guard when
        # the two sides are fingerprinted whole
        rng = random.Random(506)
        letters = [rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(250)]
        w = parse_braid(" ".join(map(str, letters)), 8)
        r = parse_braid("3 4 3 -4 -3 -4", 8)
        x = w * r * w.inverse()
        assert len(x) == 506
        code, out, err = run(capsys, "equal", "--strands", "8", "--", x.text(), "")
        assert (code, out, err) == (0, "equal=true\n", "")
