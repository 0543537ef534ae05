#!/usr/bin/env python3
"""Time the duality search of a branching with itself at 8, 10 and 12 labels.

Each case is the last branching that the enumeration finds for a plain
source (every dimension 1, no twists or duals) whose algebra condenses two
sectors.  Prints the label count, the number of dualities and the seconds
the search took, one case a line, and exits 1 when a count is not the
expected 48, 384 or 3,840.  Then writes the 12-label case's report through
``io.dump_dualities``, prints its seconds, and exits 1 unless the text is
``json.dumps(payload, indent=2)`` of the found dualities as dicts and reads
back a count of 3,840.  Run with no arguments.
"""

import io
import json
import sys
import time

import anycond as ac
from anycond import io as cio
from anycond.duality import _search, verify_dualities

EXPECTED = {8: 48, 10: 384, 12: 3840}


def main() -> int:
    wrong = 0
    print(f"{'labels':>6} {'dualities':>9} {'seconds':>8}")
    for n, expected in EXPECTED.items():
        source = ac.AnyonSystem(tuple(str(i) for i in range(n)), (1.0,) * n, "0")
        algebra = ac.CondensableAlgebra(source, (1, 1) + (0,) * (n - 2))
        b = ac.enumerate_branchings(source, algebra, max_sectors=n, max_dim=1)[-1]
        start = time.perf_counter()
        found = ac.find_dualities(b, b, label_cap=n)
        seconds = time.perf_counter() - start
        flag = "" if len(found) == expected else f"  expected {expected}"
        print(f"{n:>6} {len(found):>9} {seconds:>8.3f}{flag}")
        wrong += len(found) != expected

    # The report of the last case, through the writer and through dicts.
    sigmas, taus = _search(b, b, n)
    residuals = verify_dualities(b, b, found)
    out = io.StringIO()
    start = time.perf_counter()
    cio.dump_dualities(b, b, sigmas, taus, residuals, out)
    seconds = time.perf_counter() - start
    payload = {
        "count": len(found),
        "dualities": [
            {"source_perm": d.source_perm, "condensed_perm": d.condensed_perm, "residual": r}
            for d, r in zip(found, residuals.tolist())
        ],
    }
    same = out.getvalue() == json.dumps(payload, indent=2)
    count = json.loads(out.getvalue())["count"]
    flag = "" if same and count == expected else "  differs from json.dumps of the dicts"
    print(f"report of {count} dualities written in {seconds:.3f} s{flag}")
    wrong += bool(flag)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
