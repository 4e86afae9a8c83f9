import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zonotopal.cli import _COMMANDS, main
from zonotopal.matroid import BivarPoly
from zonotopal.periodic import PeriodicPoly
from zonotopal.toric import Character


def run_cli(*argv):
    from io import StringIO
    import contextlib
    buf = StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


ZP = "[[1,0,1,-1],[0,1,1,1]]"


def _periodic_json(exp, order, coeffs):
    """--p with one term e[1/2] * coeffs * s^exp, as f-tilde --json prints."""
    return json.dumps([{"character": {"theta": ["1/2"], "tors": []},
                        "poly": [{"exp": exp, "coeff": {"order": order,
                                                        "coeffs": coeffs}}]}])


class TestCommands:
    def test_arith_tutte_text(self):
        code, out = run_cli("arith-tutte", "--x", ZP)
        assert code == 0
        assert out.strip() == "a^2 + b^2 + 2a + 2b + 1"

    def test_count(self):
        code, out = run_cli("count", "--x", "[[1,2,4]]", "--u", "[5]")
        assert (code, out.strip()) == (0, "4")
        code, out = run_cli("count", "--x", "[[1,2,4]]", "--u", "[0]")
        assert (code, out.strip()) == (0, "1")

    def test_bv_count(self):
        code, out = run_cli("bv-count", "--x", "[[1,2,4]]",
                            "--z", "[1]", "--u", "[6]")
        assert (code, out.strip()) == (0, "4")

    def test_volume_box(self):
        code, out = run_cli("volume", "--x", "[[1,2,4]]", "--u", "[5]")
        assert (code, out.strip()) == (0, "25/16")
        code, out = run_cli("box", "--x", "[[1,2]]", "--u", "[2]")
        assert (code, out.strip()) == (0, "1/2")

    def test_checks_pass(self):
        for cmd in ("check-unity", "check-continuity", "wall-jump"):
            code, out = run_cli(cmd, "--x", ZP, "--json")
            assert code == 0
            payload = json.loads(out)
            status = payload.get("status")
            assert status == "pass"

    def test_group_spellings_agree(self):
        # Z/2 + Z/3 is Z/6, so each spelling takes one residue row
        x = "[[1,0,1],[1,2,5]]"
        outs = {run_cli("arith-tutte", "--x", x, "--group", g)
                for g in ("Z + Z/2 + Z/3", "Z + Z/3 + Z/2", "Z + Z/6")}
        assert outs == {(0, "2ab + 2b^2 + 4a + 4\n")}

    def test_check_delta(self):
        code, out = run_cli("check-delta", "--x", "[[1,1]]", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_check_deconv(self):
        code, out = run_cli("check-deconv", "--x", "[[1,2]]", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_default_w_outside_the_old_range(self):
        # check-deconv's default w lies in cone(X); the default short w of
        # a list with a normal (50, -1) comes from past the small primes
        for cmd, x in (("check-deconv", "[[0,1],[1,2]]"),
                       ("check-deconv", "[[0,1],[1,50]]"),
                       ("check-delta", "[[0,1],[1,50]]")):
            code, out = run_cli(cmd, "--x", x, "--json")
            assert (code, json.loads(out)["status"]) == (0, "pass")
        code, out = run_cli("l-map", "--x", "[[0,1],[1,50]]", "--z", "[0,1]",
                            "--json")
        assert code == 0
        assert json.loads(out)["l_map"]

    def test_quasipoly(self):
        code, out = run_cli("quasipoly", "--x", "[[1,2]]", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cell"]["sample"] == ["1"]
        assert payload["quasipolynomial"]

    def test_todd_and_cells_and_zonotope(self):
        for cmd, extra in (("todd", ("--z", "[1]")), ("cells", ()),
                           ("zonotope", ()), ("l-map", ("--z", "[1]"))):
            code, out = run_cli(cmd, "--x", "[[1,2]]", *extra, "--json")
            assert code == 0
            json.loads(out)


class TestJsonRoundTrips:
    def test_tutte(self):
        code, out = run_cli("arith-tutte", "--x", ZP, "--json")
        payload = json.loads(out)
        poly = BivarPoly.from_json(payload["arithmetic_tutte"])
        assert poly.evaluate(1, 1) == 7

    def test_f_tilde(self):
        code, out = run_cli("f-tilde", "--x", "[[1,2]]", "--z", "[1]",
                            "--json")
        payload = json.loads(out)
        p = PeriodicPoly.from_json(("s1",), payload["f_tilde"])
        assert PeriodicPoly.from_json(("s1",), p.to_json()) == p

    def test_characters(self):
        code, out = run_cli("vertices", "--x", "[[1,2,4]]", "--json")
        payload = json.loads(out)
        chars = [Character.from_json(v["character"])
                 for v in payload["vertices"]]
        assert len(chars) == 4
        assert all(Character.from_json(c.to_json()) == c for c in chars)

    def test_dm_and_pper(self):
        for cmd in ("pper-basis", "pper-internal", "dm-basis",
                    "p-basis", "d-basis"):
            code, out = run_cli(cmd, "--x", "[[1,2]]", "--json")
            assert code == 0
            json.loads(out)


class TestDeterminism:
    def test_identical_runs(self):
        runs = [run_cli("pper-internal", "--x", ZP, "--json")[1]
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_corpus_reproducible(self):
        a = run_cli("corpus", "--seed", "1", "--count", "5")[1]
        b = run_cli("corpus", "--seed", "1", "--count", "5")[1]
        assert a == b and a.strip()

    def test_corpus_limits(self):
        out = run_cli("corpus", "--seed", "2", "--count", "4", "--d", "1")[1]
        for line in out.strip().splitlines():
            job = json.loads(line)
            assert len(job["x"]) == 1 or job["group"].startswith("Z^1")


class TestExitCodes:
    def test_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--x"])
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command", "--x", "[[1]]"])
        assert exc.value.code == 1

    def test_domain_error(self, capsys):
        assert main(["volume", "--x", "[[1,-1]]", "--u", "[1]"]) == 2
        # check-deconv with a w outside cone(X)
        assert main(["check-deconv", "--x", "[[1,0,1],[0,1,1]]",
                     "--w", "[1,-1]"]) == 2
        assert main(["check-deconv", "--x", "[[1,2]]",
                     "--w", '["-1/3"]']) == 2
        # quasipoly with a u in no chamber
        assert main(["quasipoly", "--x", "[[1,0,1],[0,1,1]]",
                     "--u", "[-5,1]"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("is outside cone(X)") == 3
        code, out = run_cli("check-deconv", "--x", "[[1,0,1],[0,1,1]]",
                            "--w", "[1,2]")
        assert (code, out) == (0, "box deconvolution: pass\n")
        # check-delta with a w that is not short: |eta.w| >= 1
        for x, w in (("[[1,1]]", "[1]"), ("[[1,1]]", "[-1]"),
                     ("[[1,0,1],[0,1,1]]", "[1,-1]"),
                     ("[[1,0,1],[0,1,1]]", '["1/2","-1/2"]')):
            assert main(["check-delta", "--x", x, "--w", w]) == 2
        # check-unity on a list with a coloop
        for x in ("[[1]]", "[[1,1,0],[0,0,1]]"):
            assert main(["check-unity", "--x", x]) == 2
        # check-deconv on a list that does not span
        for x in ("[[1,1],[1,1]]", "[[1,2],[2,4]]"):
            assert main(["check-deconv", "--x", x]) == 2
        # spline values and counts on a list over a group with torsion
        tors = ["--x", "[[1,1],[0,1]]", "--group", "Z+Z/2"]
        for argv in (["box", *tors, "--u", "[1]"],
                     ["volume", *tors, "--u", "[1]"], ["check-unity", *tors],
                     ["count", *tors, "--u", "[2]"]):
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("is not short") == 4
        assert err.count("is a coloop") == 2
        assert err.count("require a torsion-free group") == 4
        code, out = run_cli("check-delta", "--x", "[[1,1]]", "--w", '["1/2"]')
        assert (code, out) == (0, "delta interpolation: pass\n")

    @pytest.mark.parametrize("argv", [
        ["tutte", "--x", "[[1,2],[3]]"],
        ["tutte", "--x", "[[1.5,2]]"],
        ["tutte", "--x", "5"],
        ["f-tilde", "--x", "[[1,2]]", "--z", "[0.5]"],
        ["bv-count", "--x", "[[1,2]]", "--z", "[1]", "--u", "[1,2]"],
        ["f-tilde", "--x", "[[1,2]]", "--z", "[1,2]"],
        ["tutte", "--x", "[[1,2],[0,1]]", "--group", "Z/2 + Z/3"],
        ["tutte", "--x", "[[1,2],[0,1]]", "--group", "Z + Z/0"],
        ["l-map", "--x", "[[1,2]]"],
        ["l-map", "--x", "[[1,2]]", "--p", '[{"foo": 1}]'],
        ["l-map", "--x", "[[1,2]]", "--p", "5"],
        ["l-map", "--x", "[[1,2]]", "--p", _periodic_json([1, 0], 1, ["1"])],
        ["l-map", "--x", "[[1,2]]", "--p",
         _periodic_json([1], 1, ["1", "2"])],
        ["l-map", "--x", "[[1,2]]", "--p", _periodic_json([1], 0, [])],
        ["l-map", "--x", "[[1,2]]", "--p",
         _periodic_json([1], 10 ** 24 + 7, ["1"])],
        # a zero denominator
        ["count", "--x", "[[1,1]]", "--u", '["1/0"]'],
        ["tutte", "--x", '[["1/0"]]'],
        ["bv-count", "--x", "[[1,2,4]]", "--z", "[1]", "--u", "[6]",
         "--w", '["1/0"]'],
        # corpus needs 1 <= --d <= --n (defaults 3 and 7)
        ["corpus", "--d", "0"],
        ["corpus", "--n", "0"],
        ["corpus", "--d", "-1"],
        ["corpus", "--d", "3", "--n", "1"],
        ["corpus", "--count", "-1"],
    ])
    def test_invalid_input_is_usage_error(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        ["pper-basis"], ["tutte"], ["vertices"], ["f-tilde", "--z", "[0]"],
    ], ids=["pper-basis", "tutte", "vertices", "f-tilde"])
    def test_cap_only_where_read(self, argv, capsys):
        # only todd takes --cap; elsewhere it is unrecognized
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--x", "[[1,2]]", "--cap", "-1"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --cap -1" in err
        assert main(["todd", "--x", "[[1,2]]", "--z", "[0]",
                     "--cap", "1"]) == 0

    def test_negative_corpus_count_has_no_traceback(self):
        out = subprocess.run(
            [sys.executable, "-m", "zonotopal.cli", "corpus", "--count", "-1"],
            capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == "usage error: corpus needs --count >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["check-delta", "--x", "[[1,1]]", "--w", "[0]"],
        ["check-deconv", "--x", "[[1,0,1],[0,1,1]]", "--w", "[0,0]"],
        ["bv-count", "--x", "[[1,0,1],[0,1,1]]", "--z", "[1,0]", "--u",
         "[3,3]", "--w", "[1,1]"],
    ])
    def test_non_regular_w_is_domain_error(self, argv, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("domain error: w is not affine regular")

    def test_bv_count_on_a_torsion_group_is_domain_error(self, capsys):
        # the count formula reads the spline T_X, defined over lattices only
        assert main(["bv-count", "--x", "[[1,2],[1,1]]", "--group", "Z+Z/2",
                     "--z", "[1,1]", "--u", "[3]"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("domain error: spline values require a torsion-free "
                       "group\n")

    def test_bad_matrix(self):
        assert main(["count", "--x", "[[2],[0]]", "--group", "Z/4",
                     "--u", "[1]"]) == 1

    def test_subprocess_entry(self):
        out = subprocess.run(
            [sys.executable, "-m", "zonotopal.cli", "count",
             "--x", "[[1,1]]", "--u", "[3]"],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "4"

    def test_subprocess_usage_error_has_no_traceback(self):
        out = subprocess.run(
            [sys.executable, "-m", "zonotopal.cli", "tutte",
             "--x", '[["1/0"]]'], capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == 'usage error: --x needs numbers, got ["1/0"]\n'

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_exits_141_without_message(self, unbuffered):
        # the read end of stdout's pipe is closed before the run starts
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "zonotopal.cli", "tutte",
                 "--x", "[[1,0,1],[0,1,1]]"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert out.returncode == 141
        assert out.stderr == ""

    def test_other_exception_is_internal_error(self, monkeypatch, capsys):
        from zonotopal import cli

        def boom(args):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._COMMANDS, "tutte", (boom, ()))
        assert main(["tutte", "--x", "[[1,2]]"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "internal error: RuntimeError: boom\n"


@st.composite
def invocations(draw):
    """A command on a list over Z^d, d = 1-2, with n <= d + 2 columns of
    entries in [-2, 3], and the --u/--z vectors the command takes."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, d + 2))
    rows = [[draw(st.integers(-2, 3)) for _ in range(n)] for _ in range(d)]
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command, "--x", json.dumps(rows)]
    for extra in _COMMANDS[command][1]:
        flag = extra.rstrip("!")
        if flag in ("u", "z"):
            vec = [draw(st.integers(-2, 5)) for _ in range(d)]
            argv += [f"--{flag}", json.dumps(vec)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


class TestFuzz:
    # l-map on the larger zonotopes takes seconds (most of the time of
    # 800 draws of this strategy), so the examples are few
    @settings(max_examples=68, deadline=None)
    @given(invocations())
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()
