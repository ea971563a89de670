"""Time ``model.unit_means`` on seeded float32 unit tables at paper scale.

    PYTHONPATH=src python3 tools/derivetimes.py [--units N] [--groups N] [--seeds S ...] [--repeats N]

Each table is ``tests.conftest.float32_unit_table(units, groups, seed)``: the
rows a fit leaves, float32-valued normal(0, 0.3) at k = 25, and equations
of geometric length capped at 60.  For each seed it prints the longest
group, whether the table is within the float32 one-reduce bound of older
versions (``max|x| * longest < 2**(e + 29)``, e the ``frexp`` exponent of
the smallest nonzero |x|), and the median, first and third quartile of
``repeats`` derives in ms, the layout's blocks built beforehand.  The
package is the one on ``PYTHONPATH``, so the same tables time any
checkout's ``src``.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from eqvec.model import UnitGroups, unit_means  # noqa: E402
from tests.conftest import float32_unit_table, within_float32_bound  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--units", type=int, default=20_000)
    p.add_argument("--groups", type=int, default=25_000)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 0])
    p.add_argument("--repeats", type=int, default=15)
    args = p.parse_args(argv)
    print("seed\tlongest\twithin_bound\tmedian_ms\tq1_ms\tq3_ms")
    for seed in args.seeds:
        rows, ptr, ids = float32_unit_table(args.units, args.groups, seed)
        groups = UnitGroups(ptr, ids)
        groups.blocks  # built once per model, not timed
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            unit_means(groups, rows)
            times.append((time.perf_counter() - t0) * 1e3)
        q1, med, q3 = np.percentile(times, [25, 50, 75])
        print(f"{seed}\t{groups.longest}\t{within_float32_bound(rows, groups.longest)}\t{med:.1f}\t{q1:.1f}\t{q3:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
