"""Every reduction of the survey against none, on every invertible machine
of K states over M letters: the rows to length N must agree, values and
witnesses included (``oracles.rows_differ``).  Not a pytest module: the
larger sets take minutes, so CI runs them as a step,

    PYTHONPATH=src python tests/exhaustive_reductions.py 3 2 7   # 5,832 machines
    PYTHONPATH=src python tests/exhaustive_reductions.py 2 4 5   # 147,456 machines

and tier-1 runs the 2,304 machines of 2 states over 3 letters to length 6.
Prints the machines whose rows differ and their number; exits 1 if any do.
"""

import sys

from mealygroup import format_automaton
from oracles import every_invertible_machine, rows_differ


def main(argv):
    k, m, n_max = map(int, argv)
    machines = differ = 0
    for auto in every_invertible_machine(k, m):
        machines += 1
        if rows_differ(auto, n_max):
            differ += 1
            print(format_automaton(auto))
    print(f"{differ} of {machines} machines of {k} states over {m} letters differ to n = {n_max}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
