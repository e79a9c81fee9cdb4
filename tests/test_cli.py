"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import pytest

from repro.bench.generators import paper_example_program
from repro.cli import build_argument_parser, main

LITERATURE = """
conferencePaper(X) -> article(X).
scientist(X) -> exists Y isAuthorOf(X, Y).
scientist(john).
conferencePaper(pods13).
"""


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "literature.dlp"
    path.write_text(LITERATURE)
    return str(path)


class TestArgumentParser:
    def test_defaults(self):
        args = build_argument_parser().parse_args(["prog.dlp"])
        assert args.program == "prog.dlp"
        assert args.query == [] and args.atom == []
        assert not args.dump_model and not args.stratified

    def test_repeatable_options(self):
        args = build_argument_parser().parse_args(
            ["prog.dlp", "--query", "? p(X)", "--query", "? q(X)", "--atom", "p(a)"]
        )
        assert len(args.query) == 2 and len(args.atom) == 1


class TestMain:
    def test_query_answering(self, program_file, capsys):
        code = main([program_file, "--query", "? isAuthorOf(john, Y)", "--query", "? article(john)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "? isAuthorOf(john, Y) : yes" in out
        assert "? article(john) : no" in out

    def test_atom_truth_values(self, program_file, capsys):
        code = main([program_file, "--atom", "article(pods13)", "--atom", "article(john)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "article(pods13) : true" in out
        assert "article(john) : false" in out

    def test_dump_model_and_stats(self, program_file, capsys):
        code = main([program_file, "--dump-model", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("# model:")
        assert "true   article(pods13)" in out

    def test_stats_names_the_finite_plan(self, tmp_path, capsys):
        path = tmp_path / "win.dlp"
        path.write_text(
            "move(a, b). move(b, a). move(b, c). move(c, d).\n"
            "move(X, Y), not win(Y) -> win(X).\n"
        )
        assert main([str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "# model: plan=finite criterion=function-free true=5 false=1 undefined=2"
        ), out
        assert "depth=" not in out

    def test_stats_names_the_chase_plan(self, tmp_path, capsys):
        program, database = paper_example_program(0)
        path = tmp_path / "paper.dlp"
        path.write_text(f"{program}\n" + "".join(f"{atom}.\n" for atom in database))
        assert main([str(path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# model: plan=chase depth=") and "converged=True" in out, out
        assert "criterion=" not in out

    def test_extra_database_file(self, program_file, tmp_path, capsys):
        database = tmp_path / "extra.facts"
        database.write_text("scientist(ada).")
        code = main([program_file, "--database", str(database), "--query", "? isAuthorOf(ada, Y)"])
        out = capsys.readouterr().out
        assert code == 0 and ": yes" in out

    def test_stratified_comparison_column(self, program_file, capsys):
        code = main([program_file, "--stratified", "--query", "? article(pods13)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[stratified: yes]" in out

    def test_parse_error_in_program_gives_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.dlp"
        bad.write_text("p(X ->")
        code = main([str(bad), "--query", "? p(a)"])
        err = capsys.readouterr().err
        assert code == 2 and "error" in err

    def test_bad_query_reports_error_but_keeps_going(self, program_file, capsys):
        code = main([program_file, "--query", "??", "--query", "? article(pods13)"])
        captured = capsys.readouterr()
        assert code == 2
        assert "? article(pods13) : yes" in captured.out
        assert "error in query" in captured.err

    @pytest.mark.parametrize("path_flag", ["--no-rewrite", "--rewrite"])
    def test_empty_deepening_schedule_is_an_input_error(self, program_file, capsys, path_flag):
        # --max-depth 1 lies below the engine's initial depth of 3
        code = main([program_file, path_flag, "--max-depth", "1", "--query", "? article(pods13)"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    def test_missing_file_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["/nonexistent/program.dlp"])

    def test_rewrite_flag_answers_identically(self, program_file, capsys):
        code = main([program_file, "--rewrite", "--query", "? isAuthorOf(john, Y)",
                     "--query", "? article(john)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "? isAuthorOf(john, Y) : yes" in out
        assert "? article(john) : no" in out

    def test_verbose_prints_grounding_statistics(self, program_file, capsys):
        code = main([program_file, "--rewrite", "--verbose", "--query", "? article(pods13)"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=magic" in out
        assert "ground_rules=" in out

    def test_no_rewrite_is_the_classic_path(self, program_file, capsys):
        code = main([program_file, "--no-rewrite", "--verbose", "--query", "? article(pods13)"])
        out = capsys.readouterr().out
        assert code == 0
        # unrewritten evaluation; the program is certified terminating, so it
        # answers on the finite plan
        assert "mode=finite" in out
        assert "mode=magic" not in out

    @pytest.mark.parametrize(
        "removed",
        [["--backend", "sqlite"], ["--workers", "2"], ["--sips", "bound-first"]],
        ids=["sqlite", "workers", "sips"],
    )
    @pytest.mark.parametrize("verb", ["query", "scenarios replay"])
    def test_removed_options_are_usage_errors(self, program_file, capsys, verb, removed):
        """Neither CLI accepts a sqlite backend, a worker count or a SIPS choice."""
        if verb == "query":
            argv = [program_file, "--query", "? article(pods13)"]
        else:
            argv = ["scenarios", "replay", "win-move", "--size", "4", "--length", "4"]
        with pytest.raises(SystemExit) as exited:
            main(argv + removed)
        assert exited.value.code == 2
        assert removed[0] in capsys.readouterr().err


CHAINS = """
source(X) -> reach(X).
reach(X), edge(X, Y) -> reach(Y).
source(a).
edge(a, b).
edge(b, c).
"""


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chains.dlp"
    path.write_text(CHAINS)
    return str(path)


class TestUpdates:
    """The `--updates` script replay drives a warm `MaterializedEngine`."""

    def _script(self, tmp_path, text):
        path = tmp_path / "script.upd"
        path.write_text(text)
        return str(path)

    def test_insert_retract_and_inline_queries(self, chain_file, tmp_path, capsys):
        script = self._script(
            tmp_path,
            """
            ? reach(c)
            - edge(b, c).   % cut the chain
            ? reach(c)
            + edge(a, c).   # reconnect around b
            ? reach(X)
            """,
        )
        code = main([chain_file, "--updates", script, "--check"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("?")]
        assert lines[0] == "? reach(c) : yes"
        assert lines[1] == "? reach(c) : no"
        assert lines[2] == "? reach(X) : (a) (b) (c)"

    def test_final_queries_see_the_updated_model(self, chain_file, tmp_path, capsys):
        script = self._script(tmp_path, "- edge(a, b).\n")
        code = main(
            [chain_file, "--updates", script, "--atom", "reach(b)", "--query", "? reach(a)"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reach(b) : false" in out
        assert "? reach(a) : yes" in out

    def test_malformed_update_line_reports_and_continues(self, chain_file, tmp_path, capsys):
        script = self._script(tmp_path, "! nonsense\n? reach(a)\n")
        code = main([chain_file, "--updates", script])
        captured = capsys.readouterr()
        assert code == 2
        assert "line 1" in captured.err
        assert "? reach(a) : yes" in captured.out

    def test_verbose_reports_view_statistics(self, chain_file, tmp_path, capsys):
        script = self._script(tmp_path, "- edge(b, c).\n+ edge(b, c).\n")
        code = main([chain_file, "--updates", script, "--verbose", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# view:" in out
        assert "overdeleted" in out
