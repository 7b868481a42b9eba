"""Invertible Mealy automata, their transformation groups, and the
multi-peg Hanoi automaton family.

The package has three layers:

* :mod:`mealygroup.automata` -- machines, words, actions, sections, and
  the line-oriented text format,
* :mod:`mealygroup.hanoi` -- the Hanoi machine family plus game-model
  solvers used as independent oracles,
* :mod:`mealygroup.analysis` -- section closures, the word problem, and
  exhaustive depth / section-growth surveys.

``mealygroup.cli`` wires everything into the ``mealygroup`` command.
"""

from .automata import (
    Automaton,
    AutomatonError,
    ParseError,
    ValidationReport,
    apply,
    cascade_simulate,
    format_automaton,
    format_letter_word,
    format_state_word,
    induced_permutation,
    parse_automaton,
    parse_letter_word,
    parse_state_word,
    restrict_to_fixing_states,
    section_state,
    section_word,
    validate,
)
from .hanoi import (
    frame_stewart,
    frame_stewart_length,
    generator_name,
    hanoi_automaton,
    legal_moves,
    replay_strategy,
    restriction_as_smaller_hanoi,
    solve_3peg,
    transposition_pairs,
)
from .analysis import (
    BudgetError,
    GrowthReport,
    GrowthRow,
    SectionClosure,
    ThresholdReport,
    ThresholdSample,
    common_fixed_letter,
    fixed_block_count,
    fixing_threshold,
    is_identity,
    render_growth_csv,
    render_threshold_csv,
    section_closure,
    section_count,
    strict_log2,
    strip_fixed_letter,
    survey,
    threshold_bound,
    threshold_survey,
    word_depth,
)

__version__ = "0.1.0"
