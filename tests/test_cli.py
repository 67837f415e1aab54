import json

import pytest

from conftest import REGIONS_4_ROWS
from hypergen import PgfPolynomial, cli, distribution
from hypergen.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestPgfCommand:
    def test_coeffs(self, capsys):
        code, out, err = run(["pgf", "4", "2", "3"], capsys)
        assert (code, out, err) == (0, "0 1/2 1/2\n", "")

    def test_json(self, capsys):
        code, out, _ = run(["pgf", "4", "2", "3", "--format", "json"], capsys)
        assert code == 0
        assert out == '{"branch":"3b","coeffs":["0","1/2","1/2"]}\n'
        assert json.loads(out) == {"branch": "3b", "coeffs": ["0", "1/2", "1/2"]}

    def test_json_lower_branch(self, capsys):
        code, out, _ = run(["pgf", "5", "2", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["branch"] == "3a"

    def test_latex(self, capsys):
        code, out, _ = run(["pgf", "4", "2", "3", "--format", "latex"], capsys)
        assert code == 0
        assert out == "G(z) = \\frac{3!\\,2!}{4!\\,1!}\\,z^{1}\\,{}_2F_1(-1, -2; 2; z)\n"

    def test_latex_lower_branch(self, capsys):
        code, out, _ = run(["pgf", "4", "2", "2", "--format", "latex"], capsys)
        assert code == 0
        assert out == "G(z) = \\frac{2!\\,2!}{4!\\,0!}\\,{}_2F_1(-2, -2; 1; z)\n"

    def test_domain_error(self, capsys):
        code, out, err = run(["pgf", "4", "5", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "K must satisfy" in err

    def test_usage_error(self, capsys):
        code, _, err = run(["pgf", "4", "x", "1"], capsys)
        assert code == 2
        assert err != ""


class TestEvalCommand:
    def test_pgf_at_one(self, capsys):
        assert run(["eval", "4", "2", "3", "--at", "1", "--kind", "pgf"], capsys)[:2] == (0, "1\n")

    def test_pgf_at_two(self, capsys):
        assert run(["eval", "4", "2", "3", "--at", "2"], capsys)[:2] == (0, "3\n")

    def test_pgf_rational(self, capsys):
        # negative arguments need the = form, as usual with argparse
        code, out, _ = run(["eval", "4", "2", "3", "--at=-1/2"], capsys)
        assert (code, out) == (0, "-1/8\n")

    def test_cf_at_zero(self, capsys):
        code, out, _ = run(["eval", "4", "2", "3", "--at", "0", "--kind", "cf"], capsys)
        assert (code, out) == (0, "1 0\n")

    def test_mgf_at_zero(self, capsys):
        code, out, _ = run(["eval", "4", "2", "3", "--at", "0", "--kind", "mgf"], capsys)
        assert (code, out) == (0, "1\n")

    def test_cgf_at_zero(self, capsys):
        code, out, _ = run(["eval", "4", "2", "3", "--at", "0", "--kind", "cgf"], capsys)
        assert (code, out) == (0, "0\n")

    def test_pgf_rejects_float_input(self, capsys):
        code, _, err = run(["eval", "4", "2", "3", "--at", "0.5"], capsys)
        assert code == 2
        assert "exact" in err

    def test_mgf_rejects_garbage(self, capsys):
        code, _, err = run(["eval", "4", "2", "3", "--at", "abc", "--kind", "mgf"], capsys)
        assert code == 2
        assert "float" in err

    def test_mgf_overflow_is_clean_exit(self, capsys):
        code, _, err = run(["eval", "4", "2", "3", "--at", "1e6", "--kind", "mgf"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_missing_at_flag(self, capsys):
        code, _, err = run(["eval", "4", "2", "3"], capsys)
        assert code == 2


class TestMomentsCommand:
    def test_frozen_table(self, capsys):
        code, out, _ = run(["moments", "4", "2", "3", "--max-r", "2"], capsys)
        assert code == 0
        assert out == "fact[1]=3/2\nfact[2]=1\nraw[1]=3/2\nraw[2]=5/2\nmean=3/2\nvar=1/4\n"

    def test_zero_urn(self, capsys):
        code, out, _ = run(["moments", "5", "0", "3", "--max-r", "3"], capsys)
        assert code == 0
        for line in out.strip().splitlines():
            assert line.endswith("=0")

    def test_orders_past_degree(self, capsys):
        code, out, _ = run(["moments", "4", "2", "3", "--max-r", "5"], capsys)
        assert code == 0
        lines = dict(line.split("=") for line in out.strip().splitlines())
        assert lines["fact[3]"] == lines["fact[4]"] == lines["fact[5]"] == "0"

    def test_max_r_validation(self, capsys):
        code, _, err = run(["moments", "4", "2", "3", "--max-r", "0"], capsys)
        assert code == 2
        assert "max-r" in err


class TestVerifyCommand:
    def test_tiny_grid(self, capsys):
        code, out, _ = run(["verify", "--n-max", "1"], capsys)
        assert code == 0
        assert out == "checked 5 triples, 0 failures\n"

    def test_ten_grid(self, capsys):
        code, out, _ = run(["verify", "--n-max", "10"], capsys)
        assert code == 0
        assert out == "checked 506 triples, 0 failures\n"

    def test_corrupted_build_fails(self, capsys, monkeypatch):
        real = distribution.pgf_polynomial

        def corrupted(p):
            poly = real(p)
            return PgfPolynomial(poly.coeffs[:-1] + (-poly.coeffs[-1],))

        monkeypatch.setattr(distribution, "pgf_polynomial", corrupted)
        code, out, _ = run(["verify", "--n-max", "2"], capsys)
        assert code == 1
        assert "14 failures" in out.splitlines()[0]
        assert any(line.startswith("FAIL") for line in out.splitlines()[1:])

    def test_env_bound_blocks(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERGEN_N_MAX", "3")
        code, _, err = run(["verify", "--n-max", "5"], capsys)
        assert code == 2
        assert "exceeds the oracle bound 3" in err

    def test_env_bound_allows(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERGEN_N_MAX", "5")
        code, out, _ = run(["verify", "--n-max", "5"], capsys)
        assert code == 0
        assert out.startswith("checked 91 triples")

    def test_env_bound_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERGEN_N_MAX", "lots")
        code, _, err = run(["verify", "--n-max", "2"], capsys)
        assert code == 2
        assert "HYPERGEN_N_MAX" in err

    def test_n_max_validation(self, capsys):
        code, _, err = run(["verify", "--n-max", "0"], capsys)
        assert code == 2


class TestRegionsCommand:
    def test_n4_table(self, capsys):
        code, out, _ = run(["regions", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,K,tags"
        assert lines[1:] == REGIONS_4_ROWS

    def test_quadruple_overlap_cell(self, capsys):
        _, out, _ = run(["regions", "4"], capsys)
        row = next(line for line in out.splitlines() if line.startswith("2,2,"))
        tags = row.split(",")[2].split("|")
        assert {"Cor1a", "Cor1b", "Cor2a", "Cor2b"} <= set(tags)

    def test_single_cell(self, capsys):
        code, out, _ = run(["regions", "0"], capsys)
        assert code == 0
        assert out == "n,K,tags\n0,0,ThmA|ThmB|Cor1a|Cor1b|Cor2a|Cor2b\n"

    def test_negative_rejected(self, capsys):
        code, _, err = run(["regions", "-1"], capsys)
        assert code == 2
        assert "N must be >= 0" in err


class TestHarness:
    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 2

    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"], capsys)[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["pgf", "4", "2", "3", "--format", "json"],
            ["moments", "6", "3", "4", "--max-r", "4"],
            ["regions", "5"],
            ["verify", "--n-max", "4"],
            ["eval", "9", "4", "6", "--at", "7/5"],
        ],
    )
    def test_byte_determinism(self, argv, capsys):
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second

    def test_a_command_is_looked_up_on_each_call(self, monkeypatch, capsys):
        # the parser is built once per process and must not keep the first command functions
        assert run(["pgf", "4", "2", "3"], capsys)[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_pgf", lambda args: calls.append(args.N) or 0)
        assert run(["pgf", "4", "2", "3"], capsys) == (0, "", "")
        assert calls == [4]
