"""Command-line interface.

Machine-readable results go to stdout (or ``--out``); progress and
diagnostics go to stderr.  Output for a given configuration is
byte-identical regardless of ``--jobs``, which is why the CSV artifacts
carry no wall-clock column values; timings are reported on stderr.

Exit codes: 0 success (and ``wp`` identity / ``claim`` within bound),
1 negative verdict (``wp`` non-identity, ``claim`` bound exceeded,
failed ``solve --verify``), 2 usage, parse, budget or out-of-memory
errors, 130 when interrupted with Ctrl-C.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .automata import (
    Automaton,
    AutomatonError,
    apply,
    format_automaton,
    format_letter_word,
    format_state_word,
    parse_automaton,
    parse_letter_word,
    parse_state_word,
    section_word,
    validate,
)
from .hanoi import (
    frame_stewart_length,
    frame_stewart_moves,
    generator_name,
    hanoi_automaton,
    replay_strategy,
)
from . import analysis
from .analysis import (
    BudgetError,
    render_growth_csv,
    render_threshold_csv,
    survey,
    threshold_survey,
)

DEFAULT_PEGS = 4

# Bounds on what ``solve`` builds: the word takes memory in proportion to its
# moves, and the move count grows exponentially with the disks.
MAX_DISKS = 64
MAX_MOVES = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # One line on stderr, as for every other failure; --help shows usage.
        self.exit(2, f"{self.prog}: error: {message}\n")


# The commands, in the order the top-level help lists them.
COMMANDS = ("gen", "act", "section", "wp", "table", "claim", "solve")


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with ``command``'s subparser only, when it names one: a
    run builds just the subparser it parses.  Without one it has every
    subparser, which the top-level help, usage and errors list."""
    parser = _Parser(
        prog="mealygroup",
        description="Invertible Mealy automata: actions, sections, word problem, "
        "depth/growth surveys, and Hanoi game strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        if command in (None, name):
            _add_command(sub, name)
    return parser


def _add_shared_options(p, *, automaton=True, csv=False) -> None:
    """The options several commands read, in the order their ``--help``
    lists them: ``--out`` and ``--pegs`` always, then ``--automaton``
    and ``--csv`` where asked."""
    p.add_argument("--out", metavar="PATH", help="write data output to PATH instead of stdout")
    p.add_argument(
        "--pegs",
        type=int,
        metavar="M",
        help=f"use the M-peg Hanoi machine (default {DEFAULT_PEGS} when no file is given)",
    )
    if automaton:
        p.add_argument("--automaton", metavar="FILE", help="machine description file")
    if csv:
        p.add_argument("--csv", action="store_true", help="emit CSV instead of the plain table")


def _add_command(sub, name) -> None:
    # Each subcommand takes only the options it reads.
    if name == "gen":
        p = sub.add_parser("gen", help="emit a Hanoi machine description")
        _add_shared_options(p, automaton=False)
        p.set_defaults(func=_cmd_gen)
    elif name == "act":
        p = sub.add_parser("act", help="apply a state word to an input word")
        _add_shared_options(p)
        p.add_argument("--word", required=True, help="dot-separated state names (may be empty)")
        p.add_argument("--input", required=True, help="input letters")
        p.set_defaults(func=_cmd_act)
    elif name == "section":
        p = sub.add_parser("section", help="section of a state word at an input word")
        _add_shared_options(p)
        p.add_argument("--word", required=True)
        p.add_argument("--input", required=True)
        p.set_defaults(func=_cmd_section)
    elif name == "wp":
        p = sub.add_parser("wp", help="decide whether a state word acts as identity")
        _add_shared_options(p)
        p.add_argument("--word", required=True)
        p.set_defaults(func=_cmd_wp)
    elif name == "table":
        p = sub.add_parser("table", help="exhaustive depth / section-growth table")
        _add_shared_options(p, csv=True)
        p.add_argument("--max-n", type=int, required=True, metavar="N", help="largest word length")
        p.add_argument("--jobs", type=int, default=1, metavar="N", help="worker threads")
        p.add_argument(
            "--long-run", action="store_true", help="allow enumerations beyond the default budget"
        )
        p.add_argument(
            "--no-symmetry", action="store_true", help="disable symmetry orbit reduction"
        )
        p.add_argument(
            "--include-trivial-state",
            action="store_true",
            help="enumerate words containing the do-nothing state too",
        )
        p.set_defaults(func=_cmd_table)
    elif name == "claim":
        p = sub.add_parser("claim", help="fixing thresholds of random words vs bound")
        _add_shared_options(p, csv=True)
        p.add_argument(
            "--lengths", default="4,8,16,32", metavar="LIST", help="comma-separated word lengths"
        )
        p.add_argument("--samples", type=int, default=200, metavar="K", help="words per length")
        p.add_argument("--seed", type=int, default=0, metavar="U64", help="sampling seed")
        p.set_defaults(func=_cmd_claim)
    elif name == "solve":
        p = sub.add_parser("solve", help="strategy word moving a full tower")
        _add_shared_options(p)
        p.add_argument("--disks", type=int, required=True, metavar="K")
        p.add_argument("--from-peg", type=int, default=1, metavar="P", dest="from_peg")
        p.add_argument("--to-peg", type=int, default=None, metavar="P", dest="to_peg")
        p.add_argument("--verify", action="store_true", help="replay the word and check the target")
        p.set_defaults(func=_cmd_solve)


def _load_automaton(args) -> Automaton:
    if args.automaton and args.pegs is not None:
        raise AutomatonError("give either --automaton or --pegs, not both")
    if args.automaton:
        return parse_automaton(Path(args.automaton).read_text())
    return hanoi_automaton(args.pegs if args.pegs is not None else DEFAULT_PEGS)


def _emit(args, text: str) -> None:
    """Write ``text`` to stdout, or to ``--out`` through a temporary file in
    the target's directory that then replaces the target, so that a failed
    write leaves an existing target as it was."""
    if not args.out:
        sys.stdout.write(text)
        return
    target = Path(args.out)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # the mode a plain open would give
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _require_invertible(auto: Automaton) -> None:
    report = validate(auto)
    if not report.invertible:
        raise AutomatonError("automaton is not invertible: " + "; ".join(report.issues))


def _cmd_gen(args) -> int:
    auto = hanoi_automaton(args.pegs if args.pegs is not None else DEFAULT_PEGS)
    _emit(args, format_automaton(auto))
    return 0


def _cmd_act(args) -> int:
    auto = _load_automaton(args)
    word = parse_state_word(auto, args.word)
    letters = parse_letter_word(args.input, auto.alphabet_size)
    image = apply(auto, word, letters)
    _emit(args, format_letter_word(image, auto.alphabet_size) + "\n")
    return 0


def _cmd_section(args) -> int:
    auto = _load_automaton(args)
    word = parse_state_word(auto, args.word)
    letters = parse_letter_word(args.input, auto.alphabet_size)
    sec = section_word(auto, word, letters)
    _emit(args, format_state_word(auto, sec) + "\n")
    return 0


def _cmd_wp(args) -> int:
    auto = _load_automaton(args)
    _require_invertible(auto)
    word = parse_state_word(auto, args.word)
    trivial, count, depth = analysis.word_problem(auto, word)
    verdict = "identity" if trivial else "non-identity"
    _emit(args, f"{verdict} sections={count} depth={depth}\n")
    return 0 if trivial else 1


def _format_growth_plain(report, auto) -> str:
    headers = ["n", "depth", "theta", "depth_witness", "theta_witness", "words_examined"]
    rows = [
        [
            str(r.n),
            str(r.depth),
            str(r.theta),
            format_state_word(auto, r.depth_witness),
            format_state_word(auto, r.theta_witness),
            str(r.words_examined),
        ]
        for r in report.rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    auto = _load_automaton(args)
    _require_invertible(auto)
    if args.max_n < 1:
        raise AutomatonError("--max-n must be at least 1")
    if args.jobs < 1:
        raise AutomatonError(f"--jobs must be at least 1, got {args.jobs}")
    checkpoint = None
    if args.long_run and args.out:
        checkpoint = args.out + ".ckpt"

    def progress(row):
        # closures=-: the row was read from the checkpoint and not scanned.
        closures = "-" if row.closures is None else row.closures
        print(
            f"# n={row.n} depth={row.depth} theta={row.theta} "
            f"words={row.words_examined} closures={closures} seconds={row.seconds:.6f}",
            file=sys.stderr,
            flush=True,
        )

    report = survey(
        auto,
        args.max_n,
        exclude_trivial=not args.include_trivial_state,
        symmetry=not args.no_symmetry,
        jobs=args.jobs,
        long_run=args.long_run,
        checkpoint=checkpoint,
        progress=progress,
    )
    if args.csv or args.out:
        _emit(args, render_growth_csv(report, auto))
    else:
        _emit(args, _format_growth_plain(report, auto))
    return 0


def _cmd_claim(args) -> int:
    auto = _load_automaton(args)
    _require_invertible(auto)
    try:
        lengths = [int(tok) for tok in args.lengths.split(",") if tok.strip()]
    except ValueError:
        raise AutomatonError(f"--lengths must be comma-separated integers, got {args.lengths!r}")
    if not lengths:
        raise AutomatonError("--lengths must name at least one length")
    report = threshold_survey(auto, lengths, args.samples, seed=args.seed)
    if args.csv or args.out:
        _emit(args, render_threshold_csv(report, auto))
    else:
        maxima = report.max_by_length()
        lines = ["n  samples  max_t_star  bound  pass"]
        for n in lengths:
            subset = [s for s in report.samples if s.length == n]
            bound = subset[0].bound
            ok = all(s.passed for s in subset)
            mx = maxima[n]
            lines.append(
                f"{n}  {len(subset)}  {'inf' if mx is None else mx}  {bound}  "
                f"{'true' if ok else 'false'}"
            )
        lines.append(
            "verdict: "
            + ("all sections within bound" if report.all_passed else "bound exceeded")
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report.all_passed else 1


def _cmd_solve(args) -> int:
    auto = _load_automaton(args)
    pegs = auto.alphabet_size
    if args.disks < 0:
        raise AutomatonError("--disks must be nonnegative")
    if args.disks > MAX_DISKS:
        raise AutomatonError(f"at most {MAX_DISKS} disks are supported, got {args.disks}")
    moves = frame_stewart_length(pegs, args.disks)
    if moves > MAX_MOVES:
        raise AutomatonError(f"{args.disks} disks take {moves} moves, more than {MAX_MOVES}")
    target = args.to_peg if args.to_peg is not None else pegs
    pairs = frame_stewart_moves(pegs, args.disks, args.from_peg, target)
    # Each peg pair is named and looked up once, in the order the word first
    # uses it, so an unknown name fails as word_from_names would.
    state_of = {pair: auto.state_index(generator_name(*pair)) for pair in dict.fromkeys(pairs)}
    word = tuple(map(state_of.__getitem__, pairs))
    _emit(args, format_state_word(auto, word) + "\n")
    if args.verify:
        start = (args.from_peg,) * args.disks
        goal = (target,) * args.disks
        cfg = start
        try:
            for cfg in replay_strategy(auto, word, start):
                pass
        except AutomatonError as exc:
            print(f"verify: {exc}", file=sys.stderr)
            return 1
        if cfg != goal:
            print(f"verify: final configuration {cfg} is not the target", file=sys.stderr)
            return 1
        print(
            f"verify: {len(word)} moves take "
            f"{format_letter_word(start, pegs) or 'the empty tower'} to "
            f"{format_letter_word(goal, pegs) or 'itself'}",
            file=sys.stderr,
        )
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (AutomatonError, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # The compiled kernels raise it with a message; Python's own has none.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
