import contextlib
import io

import pytest

from mealygroup import hanoi_automaton, parse_automaton
from mealygroup import cli
from mealygroup.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_act_example():
    code, out, _ = run_cli("act", "--word", "a(1,2)", "--input", "134")
    assert code == 0
    assert out == "234\n"


def test_act_empty_word():
    code, out, _ = run_cli("act", "--word", "", "--input", "12")
    assert (code, out) == (0, "12\n")


def test_act_parse_error_exit_code():
    code, _, err = run_cli("act", "--word", "a(1,2)", "--input", "19")
    assert code == 2
    assert "position 2" in err


def test_section_example():
    code, out, _ = run_cli("section", "--word", "a(1,2).a(1,3)", "--input", "1")
    assert (code, out) == (0, "a(1,2).e\n")


def test_section_empty_input():
    code, out, _ = run_cli("section", "--word", "a(1,4).a(2,3)", "--input", "")
    assert (code, out) == (0, "a(1,4).a(2,3)\n")


def test_wp_identity_word():
    code, out, _ = run_cli("wp", "--word", "a(1,2).a(1,2)")
    assert code == 0
    assert out.startswith("identity ")
    assert "sections=2" in out and "depth=1" in out


def test_wp_non_identity_word():
    code, out, _ = run_cli("wp", "--word", "a(1,2)")
    assert code == 1
    assert out.startswith("non-identity ")


def test_wp_empty_word():
    code, out, _ = run_cli("wp", "--word", "")
    assert code == 0
    assert "sections=1 depth=0" in out


def test_wp_unknown_state_is_an_error():
    code, _, err = run_cli("wp", "--word", "a(1,9)")
    assert code == 2
    assert "unknown state" in err


def test_gen_round_trips(tmp_path):
    path = tmp_path / "machine.txt"
    code, _, _ = run_cli("gen", "--pegs", "5", "--out", str(path))
    assert code == 0
    assert parse_automaton(path.read_text()) == hanoi_automaton(5)


def test_gen_defaults_to_four_pegs():
    code, out, _ = run_cli("gen")
    assert code == 0
    assert out.splitlines()[0] == "alphabet 4"


def test_automaton_file_source(tmp_path):
    path = tmp_path / "machine.txt"
    run_cli("gen", "--pegs", "3", "--out", str(path))
    code, out, _ = run_cli("act", "--automaton", str(path), "--word", "a(1,3)", "--input", "111")
    assert (code, out) == (0, "311\n")


def test_conflicting_sources_rejected(tmp_path):
    path = tmp_path / "machine.txt"
    run_cli("gen", "--pegs", "3", "--out", str(path))
    code, _, err = run_cli("act", "--automaton", str(path), "--pegs", "4", "--word", "e", "--input", "1")
    assert code == 2
    assert "not both" in err


def test_table_plain_and_csv():
    code, plain, err = run_cli("table", "--pegs", "4", "--max-n", "3")
    assert code == 0
    assert plain.splitlines()[0].split()[:3] == ["n", "depth", "theta"]
    assert "# n=3" in err  # progress goes to the diagnostic stream
    code, csv_text, _ = run_cli("table", "--pegs", "4", "--max-n", "3", "--csv")
    assert code == 0
    lines = csv_text.splitlines()
    assert lines[0] == "n,depth,theta,depth_witness,theta_witness,words_examined,seconds"
    assert lines[1].startswith("1,1,2,")
    assert lines[3].startswith("3,2,8,")


def test_table_deterministic_across_jobs(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli("table", "--pegs", "4", "--max-n", "4", "--jobs", "1", "--out", str(out1))[0] == 0
    assert run_cli("table", "--pegs", "4", "--max-n", "4", "--jobs", "2", "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_table_budget_gate():
    code, _, err = run_cli("table", "--pegs", "4", "--max-n", "12")
    assert code == 2
    assert "--long-run" in err


def test_table_rejects_bad_max_n():
    code, _, err = run_cli("table", "--pegs", "4", "--max-n", "0")
    assert code == 2


def test_claim_passes_on_hanoi():
    code, out, _ = run_cli("claim", "--pegs", "4", "--lengths", "4,8", "--samples", "10")
    assert code == 0
    assert out.splitlines()[-1] == "verdict: all sections within bound"


def test_claim_csv_deterministic_with_seed():
    a = run_cli("claim", "--pegs", "4", "--lengths", "4", "--samples", "6", "--csv", "--seed", "9")
    b = run_cli("claim", "--pegs", "4", "--lengths", "4", "--samples", "6", "--csv", "--seed", "9")
    assert a == b
    assert a[0] == 0
    assert a[1].splitlines()[0] == "n,word,t_star,bound,pass"


def test_wp_rejects_non_invertible_machine(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text(
        "alphabet 2\nstates s\n"
        "s 1 -> s 1\ns 2 -> s 1\n"
    )
    code, _, err = run_cli("wp", "--automaton", str(path), "--word", "s")
    assert code == 2
    assert "not invertible" in err


def test_claim_fails_on_fixless_machine(tmp_path):
    path = tmp_path / "cycle.txt"
    path.write_text(
        "alphabet 3\nstates r\n"
        "r 1 -> r 2\nr 2 -> r 3\nr 3 -> r 1\n"
    )
    code, out, _ = run_cli(
        "claim", "--automaton", str(path), "--lengths", "2", "--samples", "3", "--csv"
    )
    assert code == 1
    assert all(line.endswith("false") for line in out.splitlines()[1:])


def test_claim_table_with_unbounded_and_bounded_words(tmp_path):
    # r cycles all letters forever; s fixes letter 3, so r and s samples of
    # one length mix unbounded and finite thresholds.
    path = tmp_path / "mixed.txt"
    path.write_text(
        "alphabet 3\nstates r s\n"
        "r 1 -> r 2\nr 2 -> r 3\nr 3 -> r 1\n"
        "s 1 -> s 2\ns 2 -> s 1\ns 3 -> s 3\n"
    )
    code, out, err = run_cli(
        "claim", "--automaton", str(path), "--lengths", "1", "--samples", "20"
    )
    assert (code, err) == (1, "")
    assert out.splitlines()[1].split()[:3] == ["1", "20", "inf"]


def test_interrupt_exits_130_with_one_line(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "survey", interrupted)
    code, out, err = run_cli("table", "--pegs", "3", "--max-n", "2")
    assert (code, out) == (130, "")
    assert len(err.splitlines()) == 1


def test_solve_three_pegs():
    code, out, err = run_cli("solve", "--pegs", "3", "--disks", "3", "--verify")
    assert code == 0
    assert len(out.strip().split(".")) == 7
    assert "verify: 7 moves" in err


def test_solve_four_pegs_verified():
    code, out, err = run_cli("solve", "--pegs", "4", "--disks", "5", "--verify")
    assert code == 0
    assert len(out.strip().split(".")) == 13
    assert "11111 to 44444" in err


def test_solve_zero_disks():
    code, out, _ = run_cli("solve", "--pegs", "3", "--disks", "0")
    assert (code, out) == (0, "\n")


def test_solve_custom_target():
    code, out, _ = run_cli("solve", "--pegs", "3", "--disks", "1", "--to-peg", "2")
    assert (code, out) == (0, "a(1,2)\n")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
