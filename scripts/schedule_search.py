#!/usr/bin/env python3
"""Compare refresh insertion with the exact refresh-schedule search.

Usage (from the repository root):

    python scripts/schedule_search.py --seed 19 --programs 40 --cap 10000

The programs are the seeded small random programs of
``tests/schedule_search.py`` (loaded from its file), each compiled without
refreshes at short retention windows.  Per program the script prints the
read/logic windows, the op count, ``insert_refresh``'s refresh count or
its error, and the search's fewest refreshes, "none" (no schedule exists)
or "unknown" (the search stopped at ``--cap`` states).  A summary line
follows: how many programs the search scheduled, found none for and left
unknown; how many the search scheduled but insertion did not (insertion
misses); and, over the programs both schedule, insertion's refreshes
against the minimum.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
from itertools import islice

from gcpim.compiler import RefreshScheduleError, insert_refresh

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_search():
    """The test helper ``tests/schedule_search.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "schedule_search", os.path.join(ROOT, "tests", "schedule_search.py"))
    search = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(search)
    return search


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=19, help="program generator seed")
    parser.add_argument("--programs", type=int, default=40, help="programs to compare")
    parser.add_argument("--cap", type=int, default=10_000, help="search state cap")
    args = parser.parse_args(argv)

    search = load_search()
    counts = {"scheduled": 0, "none": 0, "unknown": 0}
    misses = both = inserted_total = minimum_total = 0
    for k, (_, bare) in enumerate(islice(search.small_random_programs(args.seed),
                                         args.programs)):
        found, _ = search.search_refreshes(bare, cap=args.cap)
        try:
            inserted = insert_refresh(bare).n_refresh
        except RefreshScheduleError as exc:
            inserted = None
            insertion = f"error: {exc}"
        else:
            insertion = str(inserted)
        counts[found if isinstance(found, str) else "scheduled"] += 1
        if isinstance(found, int):
            if inserted is None:
                misses += 1
            else:
                both += 1
                inserted_total += inserted
                minimum_total += found
        print(f"{k:3d}  read/logic {bare.drt_read_ns}/{bare.drt_logic_ns} ns  "
              f"{len(bare.ops)} ops  insertion {insertion}  search {found}")
    print(f"{args.programs} programs: {counts['scheduled']} scheduled, {counts['none']} none, "
          f"{counts['unknown']} unknown; {misses} insertion misses; where both schedule "
          f"({both}), {inserted_total} refreshes against a minimum of {minimum_total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
