"""Print the screen's bus ROCOF error against the oracles of test_oracle.py.

For the 9-bus set (all one- and two-unit losses) and the fleet set (six
contingencies, seed 1) against the mpmath oracle, and for four grid losses
against the refined oracle: the largest and the median |error| over every
bus of every contingency, Hz/s, of the single screen (warm) and of the
batch. It reports and checks nothing; a change that moves the screen's last
bits quotes these figures before and after. Run from the repository root:

    PYTHONPATH=src:tests python tests/oracle_report.py
"""

import numpy as np

from rocofscreen import build_model

from conftest import make_grid_case
from test_oracle import (bus_errors, fleet_set, grid_set, nine_bus_set, oracle_rocof,
                         refined_rocof)


def main() -> None:
    grid = (None, *build_model(make_grid_case(71))[1:])
    for name, screened, oracle in (("9-bus", nine_bus_set(), oracle_rocof),
                                   ("fleet", fleet_set(), oracle_rocof),
                                   ("grid", grid_set(grid), refined_rocof)):
        single, batched = bus_errors(*screened, oracle)
        print(f"{name:6s} single max {single.max():.3e} median {np.median(single):.3e}"
              f"  batch max {batched.max():.3e} median {np.median(batched):.3e}  Hz/s,"
              f" {single.size} bus values")


if __name__ == "__main__":
    main()
