import json
import subprocess
import sys
import time

import pytest

from insdel import acceptance, cli, codefile
from insdel.bounds import counterexample_code
from insdel.cw_l1 import L1ConstructionSpec, construct_l1
from insdel.errors import DomainError
from insdel.gf import FieldCtx
from insdel.lift import lift
from insdel.words import CWL1, Code, Composition, Word, insdel_distance

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "cli_report.schema.json"

# `insdel selftest` with lift.guarantee_report rounding its size guarantee
# down instead of up; the package re-exports the function `lift` over the
# module's name, so the module comes from importlib.
SELFTEST_WITH_FLOORED_GUARANTEE = """
import importlib, math, sys
from insdel import cli
lift_module = importlib.import_module("insdel.lift")
exact = lift_module.guarantee_report
def floored(q, n, delta):
    report = exact(q, n, delta)
    denom = (2 * q + 2) ** (delta - 2) * (2 * q + 1)
    report["guaranteed_size"] = math.comb(n + q - 1, n) // denom
    return report
lift_module.guarantee_report = floored
sys.exit(cli.main(["selftest"]))
"""


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "insdel.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


class TestCodeFileFormat:
    def test_insdel_round_trip(self, tmp_path):
        code = Code(3, 2, (Word(3, (0, 1)), Word(3, (2, 0))))
        path = tmp_path / "c.txt"
        codefile.dump(code, path)
        assert codefile.load(path) == code

    def test_cwl1_round_trip_is_bit_exact(self, tmp_path):
        code = Code(2, 3, (Composition(2, (3, 0)), Composition(2, (1, 2))), kind=CWL1)
        path = tmp_path / "c.txt"
        codefile.dump(code, path)
        text = path.read_text(encoding="ascii")
        assert text == "CWL1 2 3 2\n3 0\n1 2\n"
        codefile.dump(codefile.load(path), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_text(encoding="ascii") == text

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\nINSDEL 2 2 2\n\n0 0\n# another\n1 1\n"
        code = codefile.loads(text)
        assert len(code) == 2

    def test_malformed_inputs_rejected(self):
        for text in [
            "",
            "BOGUS 2 2 1\n0 0\n",
            "INSDEL 2 2 2\n0 0\n",
            "INSDEL 2 2 1\n0 0 0\n",
            "INSDEL 2 2 1\n0 x\n",
            "CWL1 2 3 1\n1 1\n",
            "INSDEL 1 3 0\n",
            "INSDEL 2 -1 0\n",
            "CWL1 0 3 0\n",
        ]:
            with pytest.raises(DomainError):
                codefile.loads(text)

    def test_emitted_artifacts_reload(self, tmp_path):
        source, _ = construct_l1(L1ConstructionSpec(q=3, n=4, delta=2))
        lifted, _ = lift(source)
        cx, _ = counterexample_code(4, 3)
        for code in (source, lifted, cx):
            path = tmp_path / "artifact.txt"
            codefile.dump(code, path)
            assert codefile.load(path) == code


class TestCliExitCodes:
    def test_success(self):
        result = run_cli("dist", "--q", "3", "--u", "0,0,1,2,0", "--v", "0,2,0,0,1")
        assert result.returncode == 0
        assert result.stdout.strip() == "4"

    def test_domain_error_is_one(self):
        result = run_cli("dist", "--q", "2", "--u", "0,3", "--v", "0")
        assert result.returncode == 1

    def test_missing_argument_is_one(self):
        result = run_cli("dist", "--q", "2", "--u", "0,1")
        assert result.returncode == 1

    def test_scale_cap_is_two(self):
        result = run_cli("exact-iq", "--q", "3", "--n", "9", "--d", "4")
        assert result.returncode == 2

    @pytest.mark.parametrize("q, n, count", [(101, 4, 101**2), (1048576, 12, 1048576**2)])
    def test_sweep_cap_refuses_before_the_criterion(self, monkeypatch, capsys, q, n, count):
        def criterion(code):
            raise AssertionError(f"criterion ran on a refused sweep over {code.ctx}")

        monkeypatch.setattr(cli, "check_rs2_criterion", criterion)
        alphas = ",".join(str(3 * i + 1) for i in range(n))
        argv = ["verify-rs2", "--q", str(q), "--n", str(n), "--alphas", alphas, "--exhaustive"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"insdel verify-rs2: scale cap: {count} codewords exceed the sweep cap 10000\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--n", "3", "--alphas", "0,1"), "expected 3 evaluation points, got 2"),
            (("--n", "2", "--alphas", "0,1"), "criterion needs n >= 3, got n=2"),
            (("--n", "3", "--alphas", "0,1,1"), "evaluation points must be pairwise distinct"),
        ],
    )
    def test_verify_rs2_domain_errors_come_before_the_sweep_cap(self, capsys, args, message):
        # GF(2^20) is past the sweep cap at k = 2; these inputs are refused
        # for their own reasons first, as they are without --exhaustive.
        assert cli.main(["verify-rs2", "--q", "1048576", *args, "--exhaustive"]) == 1
        assert capsys.readouterr().err.endswith(f"{message}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["verify-rs2", "--q", "1048573", "--n", "15", "--alphas", ",".join(map(str, range(15)))],
                "n=15 over GF(1048573) takes 198380 weighted affine-map steps, past the cap 150000",
            ),
            (
                ["verify-rs2", "--q", "1048576", "--n", "6", "--alphas", "0,1,2,3,4,5"],
                "n=6 over GF(1048576) takes 243600 weighted affine-map steps, past the cap 150000",
            ),
            (
                ["witness-rs", "--q", "1048573", "--k", "43", "--alphas", ",".join(map(str, range(986)))],
                "k=43, n=986 over GF(1048573) takes 2013238 weighted field steps, past the cap 2000000",
            ),
            (
                ["construct-rs2", "--n", "14"],
                "n=14 over GF(85193) takes 210456 weighted steps, past the cap 150000",
            ),
        ],
        ids=["verify-rs2-prime", "verify-rs2-extension", "witness-rs", "construct-rs2"],
    )
    def test_work_caps_refuse_before_the_work(self, monkeypatch, capsys, argv, message):
        def no_arithmetic(*args):
            raise AssertionError("field arithmetic before the refusal")

        for name in ("add", "sub", "neg", "mul", "inv", "div", "pow"):
            monkeypatch.setattr(FieldCtx, name, no_arithmetic)
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"insdel {argv[0]}: scale cap: {message}\n")

    def test_exact_iq_clique_of_every_vertex(self):
        # 1024 vertices at pairwise distance >= 2: the clique is the whole
        # graph, one search level per vertex.
        result = run_cli("exact-iq", "--q", "2", "--n", "10", "--d", "2")
        assert result.returncode == 0, result.stderr
        assert "size=1024" in result.stdout.splitlines()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_max_seconds_must_be_finite_and_positive(self, value):
        result = run_cli("exact-iq", "--q", "2", "--n", "3", "--d", "4", f"--max-seconds={value}")
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1
        assert "--max-seconds" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("fmt", [(), ("--json",)])
    def test_bounds_past_int_digit_limit_is_two(self, fmt):
        result = run_cli("bounds", "--q", "2", "--n", "100000", "--d", "4", *fmt)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (("construct-rs2", "--n", str(10**200)), f"n={10**200} needs a field larger than the size cap 1048576"),
            # 4000 digits and no factor below 41: Miller-Rabin takes seconds on it.
            (
                ("construct-l1", "--q", "3", "--n", "2", "--delta", "2", "--r", str(10**3999 + 3)),
                "r exceeds the field size cap 1048576",
            ),
        ],
        ids=["construct-rs2-huge-n", "construct-l1-huge-r"],
    )
    def test_field_past_the_size_cap_is_refused_at_once(self, args, message):
        start = time.monotonic()
        result = run_cli(*args)
        assert time.monotonic() - start < 1
        assert result.returncode == 2
        assert (result.stdout, result.stderr) == ("", f"insdel {args[0]}: scale cap: {message}\n")

    def test_given_field_below_a_huge_threshold_is_one_line(self):
        # The threshold for n = 10^1000 has about 4000 digits; the message
        # names the size cap instead, and the exit code stays 1.
        start = time.monotonic()
        result = run_cli("construct-rs2", "--q", "7", "--n", str(10**1000))
        assert time.monotonic() - start < 1
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"insdel construct-rs2: field size 7 does not exceed the threshold for n={10**1000}, "
            "which passes the size cap 1048576\n"
        )

    def test_unknown_subcommand_is_64(self):
        result = run_cli("frobnicate")
        assert result.returncode == 64
        assert "usage" in result.stderr

    def test_no_arguments_prints_usage(self):
        result = run_cli()
        assert result.returncode == 0
        assert "usage" in result.stdout


class TestCliJson:
    def all_outputs(self, tmp_path, *fmt):
        """(subcommand, stdout) of one run of each of the eleven subcommands."""
        source, lifted = str(tmp_path / "l1.txt"), str(tmp_path / "w.txt")
        commands = [
            ("dist", "--q", "2", "--u", "0,1", "--v", "1,0"),
            ("construct-l1", "--q", "2", "--n", "3", "--delta", "2", "--out", source),
            ("lift", "--in", source, "--out", lifted),
            ("code-distance", "--in", lifted),
            ("bounds", "--q", "2", "--n", "3", "--d", "4"),
            ("exact-iq", "--q", "2", "--n", "3", "--d", "4"),
            ("counterexample", "--q", "4", "--n", "3"),
            ("construct-rs2", "--n", "4"),
            ("verify-rs2", "--q", "7", "--n", "4", "--alphas", "0,1,2,3"),
            ("witness-rs", "--q", "7", "--k", "3", "--alphas", "0,1,2,3,4,5"),
            ("selftest",),
        ]
        outputs = []
        for cmd in commands:
            result = run_cli(*cmd, *fmt)
            assert result.returncode == 0, (cmd, result.stderr)
            outputs.append((cmd[0], result.stdout))
        assert sorted(name for name, _ in outputs) == sorted(cli.COMMANDS)
        return outputs

    def all_json_outputs(self, tmp_path):
        return [(name, json.loads(out)) for name, out in self.all_outputs(tmp_path, "--json")]

    def test_single_document_per_command(self, tmp_path):
        for name, doc in self.all_json_outputs(tmp_path):
            assert isinstance(doc, dict)
            assert doc["command"] == name

    def test_text_report_opens_with_its_command(self, tmp_path):
        for name, out in self.all_outputs(tmp_path):
            if name == "dist":
                assert out == "2\n"
            elif name != "selftest":  # selftest prints one PASS/FAIL line a check
                assert out.splitlines()[0] == f"command={name}"

    @pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
    def test_documents_validate_against_schema(self, tmp_path):
        schema = json.loads(SCHEMA_PATH.read_text())
        for _, doc in self.all_json_outputs(tmp_path):
            jsonschema.validate(doc, schema)

    def test_construct_l1_report_fields(self):
        result = run_cli("construct-l1", "--q", "2", "--n", "3", "--delta", "2", "--json")
        doc = json.loads(result.stdout)
        for field in (
            "q",
            "n",
            "delta",
            "r",
            "bucket_unit",
            "size",
            "guaranteed_lower_bound",
            "verified_min_l1",
        ):
            assert field in doc
        assert doc["size"] == 2
        assert doc["verified_min_l1"] == 4

    def test_witness_rs_echoes_one_based_indices(self):
        result = run_cli(
            "witness-rs", "--q", "7", "--k", "3", "--alphas", "0,1,2,3,4,5", "--json"
        )
        doc = json.loads(result.stdout)
        assert doc["i"][:2] == [3, 4]
        assert doc["j"][:2] == [1, 3]
        assert doc["lcs_lower_bound"] >= 4

    def test_witness_rs_at_2k_points(self):
        result = run_cli(
            "witness-rs", "--q", "17", "--k", "4", "--alphas", "0,1,2,3,4,5,6,7", "--json"
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["lcs_lower_bound"] >= 6
        assert doc["distance_upper_bound"] == 4
        assert insdel_distance(Word(17, doc["codeword_f"]), Word(17, doc["codeword_g"])) <= 4
        short = run_cli("witness-rs", "--q", "17", "--k", "4", "--alphas", "0,1,2,3,4,5,6")
        assert short.returncode == 1
        assert short.stdout == ""
        assert short.stderr == "insdel witness-rs: need n >= 8 for k=4, got n=7\n"

    def test_outputs_deterministic(self):
        first = run_cli("construct-rs2", "--n", "4", "--json").stdout
        second = run_cli("construct-rs2", "--n", "4", "--json").stdout
        assert first == second

    def test_threads_flag_is_accepted_and_neutral(self):
        base = run_cli("bounds", "--q", "2", "--n", "4", "--d", "4", "--json").stdout
        threaded = run_cli(
            "bounds", "--q", "2", "--n", "4", "--d", "4", "--threads", "4", "--json"
        ).stdout
        assert base == threaded

    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_threads_below_one_rejected(self, value):
        result = run_cli("bounds", "--q", "2", "--n", "4", "--d", "4", "--threads", value)
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1
        assert "--threads" in result.stderr


class TestCliPipelines:
    def test_lift_round_trip(self, tmp_path):
        src = tmp_path / "l1.txt"
        dst = tmp_path / "lifted.txt"
        assert run_cli(
            "construct-l1", "--q", "2", "--n", "4", "--delta", "2", "--out", str(src)
        ).returncode == 0
        result = run_cli("lift", "--in", str(src), "--out", str(dst), "--verify", "--json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["verified"] is True
        lifted = codefile.load(dst)
        assert lifted.kind == "INSDEL"
        assert len(lifted) == doc["size"]

    def test_lift_env_cap_refusal(self, tmp_path):
        src = tmp_path / "l1.txt"
        run_cli("construct-l1", "--q", "2", "--n", "4", "--delta", "2", "--out", str(src))
        result = run_cli(
            "lift",
            "--in",
            str(src),
            "--out",
            str(tmp_path / "w.txt"),
            "--verify",
            env={"INSDEL_MAX_PAIRS": "0"},
        )
        assert result.returncode == 2

    def test_lift_verify_needs_two_members(self, tmp_path):
        src = tmp_path / "one.txt"
        src.write_text("CWL1 2 3 1\n3 0\n")
        out = str(tmp_path / "w.txt")
        result = run_cli("lift", "--in", str(src), "--out", out, "--verify")
        assert result.returncode == 1
        assert result.stderr == "insdel lift: --verify needs a code of at least two members, got 1\n"
        result = run_cli("lift", "--in", str(src), "--out", out, "--json")
        assert result.returncode == 0
        assert json.loads(result.stdout)["note"] == "inherited, unverified"

    def test_lift_verify_past_cell_budget(self, tmp_path):
        src = tmp_path / "long.txt"
        src.write_text("CWL1 2 4 2\n4 0\n0 4\n")
        out = str(tmp_path / "w.txt")
        result = run_cli("lift", "--in", str(src), "--out", out, "--verify", env={"INSDEL_MAX_PAIRS": "1"})
        assert result.returncode == 2
        assert result.stderr.count("\n") == 1
        assert "take 16 LCS cells, past the budget 9" in result.stderr
        result = run_cli("lift", "--in", str(src), "--out", out, "--json", env={"INSDEL_MAX_PAIRS": "1"})
        assert result.returncode == 0
        assert json.loads(result.stdout)["verified"] is False

    def test_lift_malformed_env_cap_is_one(self, tmp_path):
        src = tmp_path / "l1.txt"
        run_cli("construct-l1", "--q", "2", "--n", "4", "--delta", "2", "--out", str(src))
        result = run_cli(
            "lift",
            "--in",
            str(src),
            "--out",
            str(tmp_path / "x.txt"),
            env={"INSDEL_MAX_PAIRS": "abc"},
        )
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1
        assert "INSDEL_MAX_PAIRS" in result.stderr

    def test_code_distance_on_emitted_file(self, tmp_path):
        path = tmp_path / "cx.txt"
        run_cli("counterexample", "--q", "5", "--n", "4", "--out", str(path))
        result = run_cli("code-distance", "--in", str(path), "--json")
        doc = json.loads(result.stdout)
        assert doc["min_distance"] == 6
        assert doc["metric"] == "INSDEL"

    # The counterexample file has 6 words of length 4: 15 pairs, and for
    # INSDEL 240 LCS cells, which fit 9 cells a pair from a cap of 27 on.
    @pytest.mark.parametrize(
        "metric, cap, code",
        [("HAMMING", "14", 2), ("HAMMING", "15", 0), ("INSDEL", "26", 2), ("INSDEL", "27", 0)],
    )
    def test_code_distance_pair_cap(self, tmp_path, metric, cap, code):
        path = tmp_path / "cx.txt"
        run_cli("counterexample", "--q", "5", "--n", "4", "--out", str(path))
        result = run_cli("code-distance", "--in", str(path), "--metric", metric, env={"INSDEL_MAX_PAIRS": cap})
        assert result.returncode == code
        if code:
            assert result.stdout == ""
            assert result.stderr.count("\n") == 1
            assert "INSDEL_MAX_PAIRS" in result.stderr
        else:
            assert result.stdout.startswith("command=code-distance\n")

    def test_code_distance_non_ascii_file_is_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"INSDEL 2 2 1\n0 \xff\n")
        result = run_cli("code-distance", "--in", str(path))
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("header", ["CWL1 0 3 0", "CWL1 -1 3 0", "CWL1 2 -3 0"])
    @pytest.mark.parametrize("command", ["lift", "code-distance"])
    def test_impossible_header_without_rows_is_one(self, tmp_path, header, command):
        path, out = tmp_path / "c.txt", tmp_path / "o.txt"
        path.write_text(header + "\n", encoding="ascii")
        extra = ["--out", str(out)] if command == "lift" else []
        result = run_cli(command, "--in", str(path), *extra)
        assert result.returncode == 1
        assert result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_selftest_passes(self):
        names = [name for name, _, _ in acceptance.CRITERIA]
        result = run_cli("selftest")
        assert result.returncode == 0
        assert result.stdout.splitlines() == [f"PASS {name}" for name in names] + ["selftest: ok"]
        result = run_cli("selftest", "--json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["passed"] is True
        assert doc["checks"] == [{"name": name, "passed": True, "detail": ""} for name in names]

    @pytest.mark.parametrize(
        "program,code,last",
        [
            (["-m", "insdel.cli", "selftest"], 0, "selftest: ok"),
            (["-c", SELFTEST_WITH_FLOORED_GUARANTEE], 1, "selftest: FAILED"),
        ],
        ids=["as-built", "floored-guarantee"],
    )
    def test_selftest_checks_under_optimisation(self, program, code, last):
        result = subprocess.run([sys.executable, "-O", *program], capture_output=True, text=True)
        assert result.returncode == code, result.stderr
        assert result.stdout.splitlines()[-1] == last
        failed = [line for line in result.stdout.splitlines() if line.startswith("FAIL ")]
        assert failed == ([] if code == 0 else ["FAIL bucket-lift-construction (AssertionError: )"])

    def test_selftest_reports_a_failing_criterion(self, monkeypatch, capsys):
        def broken():
            raise AssertionError("broken on purpose")

        criteria = list(acceptance.CRITERIA)
        name, label, _ = criteria[4]
        criteria[4] = (name, label, broken)
        monkeypatch.setattr(acceptance, "CRITERIA", tuple(criteria))
        want = [f"PASS {other}" for other, _, _ in criteria]
        want[4] = f"FAIL {name} (AssertionError: broken on purpose)"
        assert cli.main(["selftest"]) == 1
        assert capsys.readouterr().out.splitlines() == want + ["selftest: FAILED"]
