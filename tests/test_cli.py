import argparse
import contextlib
import io
import json
import os
import re
import shutil
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import oracles
from mealygroup import analysis, format_automaton, format_state_word, frame_stewart, hanoi_automaton
from mealygroup import parse_automaton
from mealygroup import _kernel, cli
from mealygroup.cli import main
from mealygroup.hanoi import MAX_PEGS


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


requires_cc = pytest.mark.skipif(
    shutil.which(_kernel._CC) is None,
    reason=f"no C compiler ({_kernel._CC}) on PATH: surveys run serially on the Python scan",
)


@requires_cc
def test_table_caps_workers_at_the_cpu_count(monkeypatch, scan_calls):
    argv = ("table", "--pegs", "4", "--max-n", "5", "--csv")
    serial = run_cli(*argv)[1]
    scan_calls.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(*argv, "--jobs", "100000")
    assert (code, out) == (0, serial)
    # Two worker threads, one kernel call each, and none on the main thread.
    threads = {thread for thread, _ in scan_calls}
    assert len(scan_calls) == len(threads) == 2
    assert threading.main_thread() not in threads


def interrupt_main(monkeypatch, scan_calls, jobs):
    """Ctrl-C: a SIGINT to the main thread once every worker is about to
    make its kernel call.  Each worker then waits for the stop flag, which
    the main thread sets once it handles the signal, so no subtree is
    claimed before the scan is stopped, however late the signal arrives."""
    both = threading.Barrier(jobs)

    def interrupt():
        if both.wait(timeout=60) == 0:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        shared = scan_calls[0][1][-1]  # mg_scan's shared counters
        deadline = time.monotonic() + 60
        while not shared[2] and time.monotonic() < deadline:
            time.sleep(0.001)

    scan_calls.before = interrupt


def over_budget(monkeypatch, scan_calls, jobs):
    """A section budget of 20, which the 4-peg scan passes at n = 6."""
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 20)


@requires_cc
@pytest.mark.parametrize(
    "fault, code, line",
    [
        (interrupt_main, 130, "interrupted"),
        (over_budget, 2, "error: a section closure has more than 20 sections"),
    ],
)
def test_fault_in_a_threaded_round_stops_it_with_one_line(monkeypatch, scan_calls, fault, code,
                                                          line):
    # The 4-peg scan to n = 10 at --jobs 2 (subtrees claimed below prefixes
    # of 4 letters) meets the fault, at once for the budget: every claimed
    # subtree reaches n = 6.  The stop flag is set: the running subtrees
    # end and no other is claimed, and the command ends only then, with one
    # line.  No scan work runs on the main thread.
    jobs = 2
    fault(monkeypatch, scan_calls, jobs)
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)
    result, out, err = run_cli("table", "--pegs", "4", "--max-n", "10", "--jobs", str(jobs))
    assert (result, out) == (code, "")
    assert [ln for ln in err.splitlines() if not ln.startswith("# ")] == [line]
    threads = [thread for thread, _ in scan_calls]
    assert 1 <= len(threads) <= jobs and threading.main_thread() not in threads
    assert not any(thread.is_alive() for thread in threads)
    # 39 subtrees at 4 letters.
    taken, _ = scan_calls.counters()
    assert taken < 39
    time.sleep(0.2)
    assert scan_calls.counters()[0] == taken


def table_lines(err):
    """The ``# n=`` progress lines of a table run's stderr."""
    return [ln for ln in err.splitlines() if ln.startswith("# n=")]


def test_table_reports_scan_tasks_as_they_finish(monkeypatch):
    argv = ("table", "--pegs", "4", "--max-n", "6", "--csv")
    code, quiet_out, quiet_err = run_cli(*argv)
    assert code == 0 and "# scan" not in quiet_err
    monkeypatch.setattr(analysis, "TASK_REPORT_SECONDS", 0)
    code, out, err = run_cli(*argv)
    assert (code, out) == (0, quiet_out)
    lines = err.splitlines()
    # The waiting thread reads the kernel's counter of subtrees done (the
    # Python scan reports each time it grows): the counts never fall, and
    # the last line, once the scan ends, counts every subtree.
    tasks = [ln for ln in lines if ln.startswith("# scan tasks=")]
    counts = [tuple(map(int, ln.split()[2].removeprefix("tasks=").split("/"))) for ln in tasks]
    total = counts[-1][1]
    assert total > 1 and counts[-1] == (total, total)
    assert {n for _, n in counts} == {total}
    assert [k for k, _ in counts] == sorted(k for k, _ in counts)
    assert all(float(ln.split("seconds=")[1]) >= 0 for ln in tasks)
    # The rows come once the scan ends, and the other lines are left alone.
    assert lines == tasks + table_lines(err)
    assert len(table_lines(err)) == 6


@pytest.mark.parametrize("compiler", [True, False])
def test_scan_progress_counts_the_prefixes_below_mirrors(monkeypatch, compiler):
    # The 3-peg scan to n = 12 splits at 4 letters: 14 canonical words,
    # but the 5 below a mirror of 2 letters are not subtrees, so the scan
    # counts 9 subtrees to scan before it reports.
    if compiler and shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler ({_kernel._CC}) on PATH")
    if not compiler:
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, "TASK_REPORT_SECONDS", 0)
    code, _, err = run_cli("table", "--pegs", "3", "--max-n", "12", "--jobs", "2")
    assert code == 0
    counts = [tuple(map(int, ln.split()[2].removeprefix("tasks=").split("/")))
              for ln in err.splitlines() if ln.startswith("# scan tasks=")]
    assert {total for _, total in counts} == {9}
    counts = [done for done, _ in counts]
    assert counts == sorted(counts) and counts[-1] == 9
    if not compiler:
        # The Python scan reports each time a subtree ends.
        assert counts == list(range(1, 10))


@requires_cc
def test_scan_progress_counts_the_same_subtrees_at_any_jobs(monkeypatch):
    # The 4-peg scan to n = 8 splits at 4 letters on one thread as on two,
    # so both count the same 39 subtrees and end at 39/39.  (The Python
    # scan's 39 there is pinned in tests/test_kernel.py.)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, "TASK_REPORT_SECONDS", 0)
    for jobs in ("1", "2"):
        code, _, err = run_cli("table", "--pegs", "4", "--max-n", "8", "--jobs", jobs)
        assert code == 0
        counts = [ln.split()[2] for ln in err.splitlines() if ln.startswith("# scan tasks=")]
        assert {count.split("/")[1] for count in counts} == {"39"}, jobs
        assert counts[-1] == "tasks=39/39", jobs


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_scan_splits_at_four_letters_or_one_short_of_the_longest(jobs):
    splits = []

    def scan(split, *args):
        splits.append(split)
        return ()

    for n_max in range(1, 8):
        analysis._scan_all(scan, jobs, n_max)
    assert splits == [0, 1, 2, 3, 4, 4, 4]


def test_scan_progress_ends_with_every_subtree_once_a_line_is_out(monkeypatch, capsys):
    # A scan that reports (done, subtrees) at the given clock readings, with
    # lines at most 10 s apart: a scan done before its first line prints
    # nothing, and one that printed a line prints the line with every
    # subtree done, once, however soon it comes.
    monkeypatch.setattr(analysis, "TASK_REPORT_SECONDS", 10)

    def report(*calls):
        clock = iter([0.0] + [now for now, _ in calls])
        monkeypatch.setattr(analysis.time, "perf_counter", lambda: next(clock))

        def scan(split, jobs, progress, every):
            for _, call in calls:
                progress(*call)
            return ()

        analysis._scan_all(scan, 1, 3)
        return [ln.split()[2] for ln in capsys.readouterr().err.splitlines()]

    assert report((1.0, (1, 3)), (2.0, (3, 3))) == []
    assert report((11.0, (1, 3)), (12.0, (2, 3)), (13.0, (3, 3)), (13.5, (3, 3))) == [
        "tasks=1/3", "tasks=3/3"]
    assert report((11.0, (3, 3)), (11.5, (3, 3))) == ["tasks=3/3"]


def test_resume_rejects_a_checkpoint_that_disagrees_with_the_scan(tmp_path):
    out = tmp_path / "t.csv"
    ckpt = tmp_path / "t.csv.ckpt"
    argv = ("table", "--pegs", "4", "--long-run", "--out", str(out))
    assert run_cli(*argv, "--max-n", "3")[0] == 0
    lines = ckpt.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    assert record["n"] == 2
    record["depth"] += 1
    lines[2] = json.dumps(record) + "\n"
    ckpt.write_text("".join(lines))
    table = out.read_bytes()
    code, _, err = run_cli(*argv, "--max-n", "4")
    assert code == 2
    assert err.splitlines()[-1] == f"error: checkpoint {ckpt} disagrees with the scan at n=2"
    assert [ln for ln in err.splitlines() if not ln.startswith("# ")] == err.splitlines()[-1:]
    # Nothing is written: the checkpoint and the table stay as they were.
    assert ckpt.read_text() == "".join(lines)
    assert out.read_bytes() == table


@pytest.mark.parametrize(
    "at, damage",
    [
        (2, lambda rec: {"depth": 1}),
        (0, lambda rec: [1]),
        (-1, lambda rec: {**rec, "depth": "x"}),
        (-1, lambda rec: {**rec, "theta_witness": 5}),
        (-1, lambda rec: {**rec, "theta_witness": [1]}),
        (-1, lambda rec: {**rec, "theta_witness": [0, 1, 2]}),
        (-1, lambda rec: {**rec, "theta_witness": [99, 1, 2]}),
        (-1, lambda rec: {**rec, "depth_witness": [-1, 1, 2]}),
    ],
    ids=["record-without-keys", "header-not-an-object", "depth-not-an-integer",
         "witness-not-a-list", "witness-too-short", "witness-with-the-do-nothing-state",
         "witness-past-the-states", "witness-below-the-states"],
)
def test_resume_rejects_a_damaged_checkpoint_line(tmp_path, at, damage):
    out = tmp_path / "t.csv"
    ckpt = tmp_path / "t.csv.ckpt"
    argv = ("table", "--pegs", "3", "--max-n", "3", "--long-run", "--out", str(out))
    assert run_cli(*argv)[0] == 0
    lines = ckpt.read_text().splitlines(keepends=True)
    lines[at] = json.dumps(damage(json.loads(lines[at]))) + "\n"
    ckpt.write_text("".join(lines))
    code, _, err = run_cli(*argv)
    assert code == 2
    [line] = err.splitlines()
    assert line.startswith(f"error: checkpoint {ckpt}, line {at % len(lines) + 1}: not a ")


def test_table_runs_on_a_machine_past_the_recursion_limit(tmp_path):
    # The symmetry and inverse searches give up on 1,200 states, so the
    # scan runs as with --no-symmetry.
    path = tmp_path / "cycle.txt"
    path.write_text(format_automaton(oracles.cycle_machine(1200)))
    argv = ("table", "--automaton", str(path), "--max-n", "1")
    code, out, err = run_cli(*argv)
    assert code == 0 and len(err.splitlines()) == 1
    assert (code, out) == run_cli(*argv, "--no-symmetry")[:2]


def test_resume_scans_once_and_keeps_the_recorded_rows(tmp_path):
    out = tmp_path / "t.csv"
    ckpt = tmp_path / "t.csv.ckpt"
    argv = ("table", "--pegs", "4", "--long-run", "--out", str(out))
    assert run_cli(*argv, "--max-n", "3")[0] == 0
    first = ckpt.read_text().splitlines()
    code, _, err = run_cli(*argv, "--max-n", "5")
    assert code == 0
    resumed = ckpt.read_text().splitlines()
    assert resumed[:4] == first and [json.loads(ln)["n"] for ln in resumed[4:]] == [4, 5]
    fresh = tmp_path / "fresh.csv"
    assert run_cli("table", "--pegs", "4", "--max-n", "5", "--out", str(fresh))[0] == 0
    assert out.read_bytes() == fresh.read_bytes()
    # The recorded rows keep their own seconds; the new ones share the scan's.
    seconds = [ln.split("seconds=")[1] for ln in table_lines(err)]
    assert seconds[3] == seconds[4]


# The checkpoint of table --pegs 4 to n = 5, each row's seconds as S.
HANOI4_CHECKPOINT = """\
{"fingerprint": "4ebd4fc94f8ea3dabb3c517e968386c9e8da3d83f3cddeb47bc32e49d52ba82a"}
{"n": 1, "depth": 1, "depth_witness": [1], "theta": 2, "theta_witness": [1], \
"examined": 1, "orbits": 1, "seconds": S}
{"n": 2, "depth": 2, "depth_witness": [1, 6], "theta": 4, "theta_witness": [1, 2], \
"examined": 3, "orbits": 3, "seconds": S}
{"n": 3, "depth": 2, "depth_witness": [1, 1, 6], "theta": 8, "theta_witness": [1, 2, 6], \
"examined": 12, "orbits": 12, "seconds": S}
{"n": 4, "depth": 3, "depth_witness": [1, 2, 3, 6], "theta": 13, "theta_witness": [1, 2, 5, 6], \
"examined": 60, "orbits": 60, "seconds": S}
{"n": 5, "depth": 4, "depth_witness": [1, 2, 4, 5, 6], "theta": 17, \
"theta_witness": [1, 2, 3, 5, 6], "examined": 336, "orbits": 336, "seconds": S}
"""


def test_checkpoint_bytes_of_a_fresh_run_and_of_a_resume(tmp_path):
    out = tmp_path / "t.csv"
    ckpt = tmp_path / "t.csv.ckpt"
    argv = ("table", "--pegs", "4", "--long-run", "--out", str(out))
    seconds = re.compile(r'(?<="seconds": )[^}]+')
    assert run_cli(*argv, "--max-n", "3")[0] == 0
    first = ckpt.read_text()
    assert seconds.sub("S", first) == "".join(HANOI4_CHECKPOINT.splitlines(keepends=True)[:4])
    assert run_cli(*argv, "--max-n", "5")[0] == 0
    resumed = ckpt.read_text()
    assert resumed.startswith(first) and seconds.sub("S", resumed) == HANOI4_CHECKPOINT
    # The rows one scan adds carry its one wall time.
    new = seconds.findall(resumed)[3:]
    assert len(new) == 2 and new[0] == new[1]


def test_failed_out_write_keeps_the_old_target(tmp_path, monkeypatch):
    target = tmp_path / "machine.txt"
    target.write_bytes(b"old contents\n")
    real_fdopen = os.fdopen

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def fileno(self):
            return self.fh.fileno()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", lambda fd, *a, **k: FullDisk(real_fdopen(fd, *a, **k)))
    code, out, err = run_cli("gen", "--pegs", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "No space left" in err
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["machine.txt"]


def test_out_replaces_the_target_with_a_plain_file_mode(tmp_path):
    target = tmp_path / "machine.txt"
    target.write_text("old contents\n")
    umask = os.umask(0o022)
    try:
        assert run_cli("gen", "--pegs", "3", "--out", str(target))[0] == 0
    finally:
        os.umask(umask)
    assert parse_automaton(target.read_text()) == hanoi_automaton(3)
    assert target.stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["machine.txt"]


def test_table_budget_gate():
    code, _, err = run_cli("table", "--pegs", "4", "--max-n", "12")
    assert code == 2
    assert "--long-run" in err


def test_table_rejects_bad_max_n():
    code, _, err = run_cli("table", "--pegs", "4", "--max-n", "0")
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_table_rejects_fewer_than_one_worker_with_one_line(jobs, scan_calls):
    code, out, err = run_cli("table", "--pegs", "4", "--max-n", "3", "--jobs", jobs)
    assert (code, out, err) == (2, "", f"error: --jobs must be at least 1, got {jobs}\n")
    assert not scan_calls  # rejected before any scan


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


def test_the_calls_the_traced_benchmark_wraps_go_through_their_module_attributes(monkeypatch):
    # perfbench/run.py --trace 1 reads its per-layer metrics off wrappers
    # that it sets on these module attributes; a caller that bypasses one
    # leaves that metric with no data, and the traced run fails.
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(analysis, "fixing_threshold")
    report = analysis.threshold_survey(hanoi_automaton(4), [4, 8], 3, seed=1)
    assert calls == {"fixing_threshold": len(report.samples)} == {"fixing_threshold": 6}
    code, _, _ = run_cli("claim", "--pegs", "4", "--lengths", "4,8,16", "--samples", "5")
    assert (code, calls) == (0, {"fixing_threshold": 6 + 15})
    calls.clear()
    for module, name in [(cli, "survey"), (cli, "render_growth_csv"),
                         (analysis, "automaton_symmetries")]:
        count(module, name)
    code, _, _ = run_cli("table", "--pegs", "4", "--max-n", "4", "--csv")
    assert (code, calls) == (0, {"survey": 1, "render_growth_csv": 1, "automaton_symmetries": 1})


def test_interrupt_exits_130_with_one_line(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "survey", interrupted)
    code, out, err = run_cli("table", "--pegs", "3", "--max-n", "2")
    assert (code, out) == (130, "")
    assert len(err.splitlines()) == 1


def test_kernel_out_of_memory_exits_2_with_one_line(monkeypatch):
    class Starved:
        """A closure kernel whose every query runs out of memory."""

        def __getattr__(self, query):
            def starved(*args):
                raise MemoryError(_kernel._OUT_OF_MEMORY)

            return starved

    monkeypatch.setattr(_kernel, "compiled_closure", lambda auto: Starved())
    code, out, err = run_cli("wp", "--word", "a(1,2).a(1,3)")
    assert (code, out) == (2, "")
    assert err == "error: the compiled kernel ran out of memory\n"

    # A scan worker that cannot set up its workspace sets the stop flag
    # and returns -1, as mg_scan does; the waiting thread raises for it.
    class NoWorkspace:
        @staticmethod
        def mg_scan(*args):
            args[-1][2] = 1
            return -1

    monkeypatch.setattr(_kernel, "_library", lambda: NoWorkspace)
    code, out, err = run_cli("table", "--pegs", "4", "--max-n", "3")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: the compiled kernel ran out of memory"
    assert len([ln for ln in err.splitlines() if not ln.startswith("# ")]) == 1

    def starved_scan(tasks, jobs, progress, every):
        raise MemoryError  # as Python raises it: no message

    monkeypatch.setattr(_kernel, "compiled_scan", lambda *args: starved_scan)
    code, out, err = run_cli("table", "--pegs", "4", "--max-n", "3")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: out of memory"
    assert len([ln for ln in err.splitlines() if not ln.startswith("# ")]) == 1


LAMPLIGHTER = """\
alphabet 2
states a b
a 1 -> a 1
a 2 -> b 2
b 1 -> a 2
b 2 -> b 1
"""


@pytest.mark.parametrize("compiler", [True, False])
def test_closures_past_the_section_budget_exit_2_with_one_line(tmp_path, monkeypatch, compiler):
    # A lamplighter word of length n has 2**n sections.
    if compiler and shutil.which(_kernel._CC) is None:
        pytest.skip(f"no C compiler ({_kernel._CC}) on PATH")
    if not compiler:
        monkeypatch.setattr(_kernel, "_CC", "mealygroup-no-such-compiler")
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 1000)
    machine = tmp_path / "lamplighter.txt"
    machine.write_text(LAMPLIGHTER)
    assert (_kernel.compiled_closure(parse_automaton(LAMPLIGHTER)) is None) is not compiler
    expected = (2, "", "error: a section closure has more than 1000 sections\n")
    assert run_cli("wp", "--automaton", str(machine), "--word", ".".join("ab" * 20)) == expected
    code, out, err = run_cli("table", "--automaton", str(machine), "--max-n", "10")
    assert (code, out) == expected[:2]
    assert [ln for ln in err.splitlines(True) if not ln.startswith("# ")] == [expected[2]]
    # Within the budget the same machine answers.
    code, out, _ = run_cli("wp", "--automaton", str(machine), "--word", "a.b.a.b.a.b.a.b")
    assert (code, out) == (1, "non-identity sections=256 depth=8\n")


@requires_cc
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_task_past_the_section_budget_stops_the_others(monkeypatch, scan_calls, jobs):
    # The lamplighter scan to n = 12 claims subtrees below prefixes of 4
    # letters, at jobs=1 as at jobs=2.  The words up to the split stay
    # within 1,000 sections; each claimed subtree meets a word of 1,024 and
    # returns -2.  The first -2 sets the stop flag: each worker ends with
    # its running subtree or at its next claim, and none claims after
    # survey raises.
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 1000)
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)
    before = set(threading.enumerate())
    with pytest.raises(analysis.BudgetError):
        analysis.survey(parse_automaton(LAMPLIGHTER), 12, jobs=jobs)
    assert set(threading.enumerate()) == before
    taken, done = scan_calls.counters()
    failed = scan_calls.codes.count(-2)
    assert done == 0 and 1 <= failed == taken <= jobs
    assert len(scan_calls.codes) == jobs and set(scan_calls.codes) <= {-2, 1}
    time.sleep(0.2)
    assert scan_calls.counters() == (taken, done)


@requires_cc
def test_a_failed_task_stops_the_other_worker(monkeypatch, scan_calls):
    # Two workers scan the lamplighter to n = 11 below prefixes of 4
    # letters.  Every word of 10 letters has 1,024 sections, so the first
    # worker's first subtree fails and sets the stop flag.  The second
    # worker starts only then: it walks the words above the split, reads
    # the flag at its first claim, and claims nothing.
    monkeypatch.setattr(_kernel, "SECTION_BUDGET", 1000)
    first = threading.Lock()

    def second_waits_for_the_flag():
        if not first.acquire(blocking=False):
            shared, deadline = scan_calls[0][1][-1], time.monotonic() + 60
            while not shared[2] and time.monotonic() < deadline:
                time.sleep(0.001)

    scan_calls.before = second_waits_for_the_flag
    auto = parse_automaton(LAMPLIGHTER)
    scan = _kernel.compiled_scan(auto._next, auto._emit0, (0, 1), (), None, 11)
    with pytest.raises(analysis.BudgetError):
        scan(4, 2)
    assert sorted(scan_calls.codes) == [-2, 1]
    assert scan_calls.counters() == (1, 0)


def test_gen_rejects_huge_peg_counts_at_once():
    t0 = time.perf_counter()
    code, out, err = run_cli("gen", "--pegs", "100000")
    assert (code, out) == (2, "")
    assert err == f"error: at most {MAX_PEGS} pegs are supported, got 100000\n"
    assert time.perf_counter() - t0 < 1


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


@pytest.mark.parametrize("pegs, disks", [(3, 1), (3, 4), (3, 9), (4, 2), (4, 7), (4, 12), (5, 10)])
def test_solve_prints_the_frame_stewart_names(pegs, disks):
    auto = hanoi_automaton(pegs)
    names = frame_stewart(pegs, disks)
    expected = format_state_word(auto, auto.word_from_names(names)) + "\n"
    code, out, err = run_cli("solve", "--pegs", str(pegs), "--disks", str(disks), "--verify")
    assert (code, out) == (0, expected)
    assert f"verify: {len(names)} moves take " in err


def test_solve_zero_disks():
    code, out, _ = run_cli("solve", "--pegs", "3", "--disks", "0")
    assert (code, out) == (0, "\n")


def test_solve_custom_target():
    code, out, _ = run_cli("solve", "--pegs", "3", "--disks", "1", "--to-peg", "2")
    assert (code, out) == (0, "a(1,2)\n")


def test_solve_zero_disks_from_the_target_peg_is_empty_for_any_pegs():
    three = run_cli("solve", "--pegs", "3", "--disks", "0", "--from-peg", "3")
    four = run_cli("solve", "--pegs", "4", "--disks", "0", "--from-peg", "4")
    assert three[:2] == four[:2] == (0, "\n")


@pytest.mark.parametrize("pegs, disks, line", [
    (3, 21, "error: 21 disks take 2097151 moves, more than 1048576"),
    (4, 100000, "error: at most 64 disks are supported, got 100000"),
])
def test_solve_rejects_strategies_past_its_bounds_at_once(pegs, disks, line):
    t0 = time.perf_counter()
    code, out, err = run_cli("solve", "--pegs", str(pegs), "--disks", str(disks))
    assert (code, out, err) == (2, "", line + "\n")
    assert time.perf_counter() - t0 < 1


def test_solve_takes_the_most_disks_when_the_strategy_is_short():
    code, out, _ = run_cli("solve", "--pegs", "23", "--disks", "64")
    assert code == 0
    assert len(out.strip().split(".")) == 211


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "mealygroup: error: the following arguments are required: command\n"
    )


def exits(run):
    """(exit code, stdout, stderr) of ``run()``, which argparse may end
    with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return run(), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


TOP_HELP = """\
usage: mealygroup [-h] {gen,act,section,wp,table,claim,solve} ...

Invertible Mealy automata: actions, sections, word problem, depth/growth
surveys, and Hanoi game strategies.

positional arguments:
  {gen,act,section,wp,table,claim,solve}
    gen                 emit a Hanoi machine description
    act                 apply a state word to an input word
    section             section of a state word at an input word
    wp                  decide whether a state word acts as identity
    table               exhaustive depth / section-growth table
    claim               fixing thresholds of random words vs bound
    solve               strategy word moving a full tower

options:
  -h, --help            show this help message and exit
"""
INVALID_CHOICE = ("mealygroup: error: argument command: invalid choice: 'bogus' "
                  "(choose from 'gen', 'act', 'section', 'wp', 'table', 'claim', 'solve')\n")


@pytest.mark.parametrize("argv, expected", [
    ("--help", (0, TOP_HELP, "")),
    ("-h", (0, TOP_HELP, "")),
    ("--help wp", (0, TOP_HELP, "")),
    ("bogus", (2, "", INVALID_CHOICE)),
    ("bogus --help", (2, "", INVALID_CHOICE)),
])
def test_the_top_level_help_and_errors_list_every_command(argv, expected, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert exits(lambda: main(argv.split())) == expected


def test_main_builds_only_the_command_it_runs(monkeypatch):
    built, build = [], cli._build_parser

    def recording(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_build_parser", recording)
    for argv in (["wp", "--word", "e"], ["gen", "--help"], [], ["--help"], ["bogus"],
                 ["--pegs", "3", "gen"]):
        exits(lambda: main(argv))
    assert built == ["wp", "gen", None, None, None, None]


def subparsers(parser):
    """The subparsers of ``parser``, by command."""
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_command_alone_has_the_help_of_the_whole_parser(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    alone, whole = subparsers(cli._build_parser(command)), subparsers(cli._build_parser())
    assert (list(alone), list(whole)) == ([command], list(cli.COMMANDS))
    assert alone[command].format_help() == whole[command].format_help()


# Per command: valid runs, a missing required option, an option another
# command reads, and a value that is not an integer.
PARSE_CASES = [
    "gen", "gen --pegs 3 --out F", "gen --automaton F", "gen --pegs x", "gen --help",
    "act --word e --input 1", "act --automaton F --pegs 3 --out F --word a.b --input 12",
    "act --word e", "act --word e --input 1 --seed 1", "act --pegs x --word e --input 1",
    "section --word e --input 1", "section --input 1", "section --word e --input 1 --csv",
    "section --pegs 3.0 --word e --input 1",
    "wp --word e", "wp --word= --out F", "wp", "wp --word e --jobs 2", "wp --pegs 4x --word e",
    "table --max-n 8", "table --pegs 4 --max-n 8 --jobs 2 --long-run --csv --out F",
    "table --max-n 3 --no-symmetry --include-trivial-state", "table --jobs 2",
    "table --max-n 3 --word e", "table --max-n x", "table --max-n 3 --jobs two",
    "claim", "claim --lengths 4,8 --samples 3 --seed 7 --csv --out F", "claim --disks 3",
    "claim --samples x", "claim --seed 1.5",
    "solve --disks 3", "solve --pegs 4 --disks 3 --from-peg 2 --to-peg 4 --verify", "solve",
    "solve --disks 3 --max-n 2", "solve --disks three", "solve --disks 3 --to-peg x",
]


@pytest.mark.parametrize("argv", PARSE_CASES)
def test_a_command_alone_parses_as_the_whole_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = argv.split()
    alone, whole = (exits(lambda: cli._build_parser(command).parse_args(argv))
                    for command in (argv[0], None))
    assert alone == whole
    code, out, err = whole
    if isinstance(code, argparse.Namespace):
        assert (out, err) == ("", "")
    elif code == 2:
        assert out == "" and len(err.splitlines()) == 1 and "error" in err
    else:
        assert (code, err) == (0, "") and out.startswith(f"usage: mealygroup {argv[0]} ")


@pytest.mark.parametrize("argv, foreign", [
    ("wp --pegs 4 --word e", "--jobs 2"),
    ("claim", "--no-symmetry"),
    ("act --word e --input 1", "--seed 1"),
    ("solve --disks 3", "--csv"),
    ("gen", "--automaton F"),
    ("section --word e --input 1", "--verify"),
    ("table --max-n 1", "--samples 3"),
])
def test_options_a_subcommand_does_not_read_exit_2_with_one_line(argv, foreign):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(f"{argv} {foreign}".split())
    assert (exc.value.code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"mealygroup: error: unrecognized arguments: {foreign}\n"


# --- argv fuzzing -------------------------------------------------------------

# Every value stays small: a large --pegs builds a huge machine, and a large
# --jobs would ask for that many worker threads.
SMALL_VALUES = {
    "--pegs": ["-1", "0", "2", "3", "4", "5", "x"],
    "--jobs": ["-1", "0", "1", "2", "x"],
    "--max-n": ["-1", "0", "1", "2", "4", ""],
    "--disks": ["-1", "0", "3", "5", "x"],
    "--samples": ["-1", "0", "1", "3"],
    "--lengths": ["", "1", "2,3", "0", "-1", "x", ",,"],
    "--seed": ["0", "-1", "7", "x"],
    "--word": ["", "e", "a(1,2)", "a(2,1).a(1,3)", "a(1,9)", "s0", "add.id", ".."],
    "--input": ["", "1", "134", "9", "x", "1 2"],
    "--from-peg": ["-1", "0", "1", "3", "6"],
    "--to-peg": ["0", "1", "2", "4", "6"],
}
FLAGS = ["--csv", "--verify", "--long-run", "--no-symmetry", "--include-trivial-state"]
# Options each command needs, drawn up front so that most runs get past
# argument parsing; claim's are here because its defaults sample 800 words.
REQUIRED = {
    "gen": [],
    "act": ["--word", "--input"],
    "section": ["--word", "--input"],
    "wp": ["--word"],
    "table": ["--max-n"],
    "claim": ["--samples", "--lengths"],
    "solve": ["--disks"],
    "bogus": [],
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "odometer.txt").write_text(
        "alphabet 2\nstates add id\n"
        "add 1 -> id 2\nadd 2 -> add 1\nid 1 -> id 1\nid 2 -> id 2\n"
    )
    (root / "garbage.txt").write_text("alphabet 2\nstates a\na 1 -> b 9\n")
    return {
        "--automaton": [str(root / n) for n in ("odometer.txt", "garbage.txt", "missing.txt")],
        "--out": [str(root / "out.txt"), str(root / "no-such-dir" / "out.txt")],
    }


@st.composite
def argvs(draw, paths):
    values = {**SMALL_VALUES, **paths}
    command = draw(st.sampled_from(sorted(REQUIRED)))
    argv = [command]
    for name in REQUIRED[command]:
        if command == "claim" or draw(st.integers(0, 9)):
            argv += [name, draw(st.sampled_from(SMALL_VALUES[name]))]
    option = st.sampled_from(sorted(values)).flatmap(
        lambda name: st.sampled_from(values[name]).map(lambda v: [name, v])
    )
    token = st.one_of(option, st.sampled_from(FLAGS).map(lambda f: [f]),
                      st.sampled_from(["--bogus", "-h", "7"]).map(lambda t: [t]))
    for extra in draw(st.lists(token, max_size=6)):
        argv += extra
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(fuzz_paths, data):
    argv = data.draw(argvs(fuzz_paths))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    err = err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        errors = [ln for ln in err.splitlines() if not ln.startswith("# ")]
        assert len(errors) == 1 and "error" in errors[0], (argv, err)
