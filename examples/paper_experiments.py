#!/usr/bin/env python
"""Regenerate the paper's evaluation artefacts (Table III and Figures 3-8).

By default the figures run with a reduced number of random configurations so
the whole script finishes in minutes on a laptop; pass ``--paper-scale`` to use
the paper's 100 configurations per setting (and the 100 s ILP time limit for
Figure 8), which takes correspondingly longer.

Run with::

    python examples/paper_experiments.py [--paper-scale] [--figures figure3 figure5]
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Study
from repro.experiments.figures import FIGURE_DEFINITIONS, figure_spec
from repro.experiments.reporting import render_series, render_table3, table3_vs_paper
from repro.experiments.tables import reproduce_table3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="run the full 100-configuration sweeps (slow)")
    parser.add_argument("--figures", nargs="*", default=["figure3", "figure4", "figure5"],
                        choices=sorted(FIGURE_DEFINITIONS), help="figures to regenerate")
    parser.add_argument("--skip-table", action="store_true", help="skip the Table III reproduction")
    args = parser.parse_args()

    if not args.skip_table:
        print("=" * 70)
        print("Table III (illustrating example)")
        print("=" * 70)
        table = reproduce_table3()
        print(render_table3(table))
        print()
        print(table3_vs_paper(table))
        print()

    configurations = 100 if args.paper_scale else 5
    throughputs = None if args.paper_scale else (40, 80, 120, 160, 200)
    sweep = None  # the previous figure's sweep: Figures 3-5 aggregate the same one
    for name in args.figures:
        print("=" * 70)
        print(name)
        print("=" * 70)
        scale = {"num_configurations": configurations, "target_throughputs": throughputs}
        if name == "figure8" and not args.paper_scale:
            scale.update(num_configurations=2, ilp_time_limit=20.0)
        spec = figure_spec(name, **scale)
        if sweep is not None and sweep.plan != spec.experiment_plan():
            sweep = None
        result = Study.from_spec(spec).run(
            progress=lambda msg: print(msg, file=sys.stderr), sweep=sweep
        )
        sweep = result.sweep
        print(spec.description)
        print(render_series(result.series))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
