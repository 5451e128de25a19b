import pytest

from homophonic.abelianization import AbelianInvariants
from homophonic.cli import main
from homophonic.datasets import builtin_data_dir

GERMAN = str(builtin_data_dir() / "german.hq")
KOREAN = str(builtin_data_dir() / "korean.hq")
TURKISH = str(builtin_data_dir() / "turkish.hq")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def square_dataset(tmp_path):
    path = tmp_path / "square.hq"
    path.write_text(
        "@language xx\n@alphabet a\nraw\ta+a\t\tsquare\tcustom\n",
        encoding="utf-8",
    )
    return str(path)


class TestReduce:
    def test_reduces_and_prints_display_form(self, capsys):
        code, out, _ = run(
            capsys, "reduce", GERMAN, "w a a g e e^-1 g^-1 a^-1 w^-1"
        )
        assert code == 0
        assert out == "w·a·w⁻¹\n"

    def test_ascii_mode(self, capsys):
        code, out, _ = run(
            capsys, "reduce", GERMAN, "w a a g e e^-1 g^-1 a^-1 w^-1", "--ascii"
        )
        assert code == 0
        assert out == "w·a·w^-1\n"

    def test_identity_prints_one(self, capsys):
        code, out, _ = run(capsys, "reduce", GERMAN, "a a^-1")
        assert code == 0
        assert out == "1\n"

    def test_unknown_token_fails(self, capsys):
        code, out, err = run(capsys, "reduce", GERMAN, "a ? b")
        assert code == 1
        assert out == ""
        assert "position 1" in err


class TestSimplify:
    def test_german_is_trivial(self, capsys):
        code, out, _ = run(capsys, "simplify", GERMAN)
        assert code == 0
        assert out == "verdict: trivial (30 generators eliminated)\n"

    def test_korean_is_free_of_rank_two(self, capsys):
        code, out, _ = run(capsys, "simplify", KOREAN)
        assert code == 0
        assert out == "verdict: free of rank 2; basis: ㅏ ㅗ\n"

    def test_empty_dataset_is_free(self, capsys, tmp_path):
        path = tmp_path / "empty.hq"
        path.write_text("@language xx\n@alphabet a\n", encoding="utf-8")
        code, out, _ = run(capsys, "simplify", str(path))
        assert code == 0
        assert out == "verdict: free of rank 1; basis: a\n"

    def test_trace_table(self, capsys):
        code, out, _ = run(capsys, "simplify", GERMAN, "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a | waage --- wage (scales/(I) dare)"
        assert lines[-1] == "verdict: trivial (30 generators eliminated)"
        assert len(lines) == 31

    def test_machine_trace(self, capsys):
        code, out, _ = run(capsys, "simplify", GERMAN, "--machine")
        assert code == 0
        first = out.splitlines()[0].split("\t")
        assert first == ["0", "a", "1", "0", "vowel-length"]

    def test_unresolved_exits_two(self, capsys, square_dataset):
        code, out, _ = run(capsys, "simplify", square_dataset)
        assert code == 2
        assert out.startswith("verdict: unresolved")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "simplify", str(tmp_path / "nope.hq"))
        assert code == 1
        assert "error:" in err

    def test_non_utf8_dataset_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.hq"
        path.write_bytes(b"\xff\xfe@language de\n")
        code, out, err = run(capsys, "simplify", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}:1: ")

    def test_duplicate_alphabet_glyph_exits_one_with_its_line(self, capsys, tmp_path):
        path = tmp_path / "dup.hq"
        path.write_text("@language de\n@alphabet a b\n# c\n@alphabet a c\n", encoding="utf-8")
        code, out, err = run(capsys, "simplify", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}:4: duplicate glyph 'a'\n"

    def test_round_limit_leaves_unresolved(self, capsys):
        code, out, _ = run(capsys, "simplify", GERMAN, "--max-rounds", "3")
        assert code == 2
        assert out.startswith("verdict: unresolved (27 generators live")

    def test_relator_length_limit_is_named(self, capsys):
        code, out, _ = run(capsys, "simplify", GERMAN, "--max-relator-len", "2")
        assert code == 2
        assert out == (
            "verdict: unresolved (29 generators live, 29 relators remain;"
            " relator length limit exceeded)\n"
        )


class TestCertify:
    def test_korean_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", KOREAN)
        assert code == 0
        assert out == (
            "verdict: free of rank 2; basis: ㅏ ㅗ\n"
            "abelianization: free rank 2, torsion []; consistent: yes\n"
        )

    def test_german_certificate(self, capsys):
        code, out, _ = run(capsys, "certify", GERMAN)
        assert code == 0
        assert out == (
            "verdict: trivial (30 generators eliminated)\n"
            "abelianization: free rank 0, torsion []; consistent: yes\n"
        )

    def test_square_relator_certificate(self, capsys, square_dataset):
        code, out, _ = run(capsys, "certify", square_dataset)
        assert code == 2
        lines = out.splitlines()
        assert lines[0].startswith("verdict: unresolved")
        assert lines[1] == (
            "abelianization: free rank 0, torsion [2]; consistent: yes (unresolved)"
        )


class TestInconsistentCertificate:
    @pytest.fixture(autouse=True)
    def wrong_invariants(self, monkeypatch):
        monkeypatch.setattr(
            "homophonic.cli.abelian_invariants", lambda p: AbelianInvariants(1, ())
        )

    def test_certify_exits_three(self, capsys):
        code, out, _ = run(capsys, "certify", GERMAN)
        assert code == 3
        assert out.splitlines()[-1] == (
            "abelianization: free rank 1, torsion []; consistent: no"
        )

    def test_report_exits_three(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 3
        assert "consistent: no" in out


class TestDecompose:
    def test_kitchen(self, capsys):
        code, out, _ = run(capsys, "decompose", "부엌")
        assert code == 0
        assert out == "ㅂ+ㅜ+ㅇ+ㅓ+ㅋ\n"

    def test_single_syllable(self, capsys):
        code, out, _ = run(capsys, "decompose", "수")
        assert code == 0
        assert out == "ㅅ+ㅜ\n"

    def test_non_hangul_fails(self, capsys):
        code, _, err = run(capsys, "decompose", "ab")
        assert code == 1
        assert "error:" in err


class TestReport:
    def test_sections_and_verdicts(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        assert "== german ==" in out
        assert "== korean ==" in out
        assert "== turkish ==" in out
        assert "verdict: trivial (30 generators eliminated)" in out
        assert "verdict: free of rank 2; basis: ㅏ ㅗ" in out
        assert "reference rank: 22" in out
        assert "computed rank: 23; reference rank: 22 (disagreement)" in out

    def test_report_counts(self, capsys):
        _, out, _ = run(capsys, "report")
        assert "alphabet size: 30\nrelations: 30" in out
        assert "alphabet size: 39\nrelations: 38" in out
        assert "alphabet size: 29\nrelations: 6" in out

    def test_missing_corpus_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", str(tmp_path))
        assert code == 1
        assert "error:" in err


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1
        assert out == ""
        assert "invalid choice: 'frobnicate'" in err

    def test_non_integer_bound_exits_one(self, capsys):
        code, _, err = run(capsys, "simplify", GERMAN, "--max-rounds", "x")
        assert code == 1
        assert "argument --max-rounds: invalid int value: 'x'" in err

    @pytest.mark.parametrize("argv", [["--help"], ["simplify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out.startswith("usage: homophonic")
        assert err == ""

    @pytest.mark.parametrize("flag", ["--max-rounds", "--max-relator-len"])
    @pytest.mark.parametrize("command", [["simplify", GERMAN], ["certify", GERMAN], ["report"]])
    def test_negative_bound_rejected(self, capsys, command, flag):
        code, out, err = run(capsys, *command, flag, "-4")
        assert code == 1
        assert out == ""
        assert f"error: argument {flag}: must be non-negative, got -4" in err
