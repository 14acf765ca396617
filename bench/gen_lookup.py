"""Write the lookup TSV of the `ucb-lookup-l4v20` workload for one landscape seed.

Usage: python3 bench/gen_lookup.py SEED OUT.tsv

The table is every state of an N=4 K=2 V=20 NK model (160,000 rows) built by
`workloads.nk_lookup_table`, one `SEQUENCE<TAB>SCORE` row each, in
lexicographic order so that the first row, `AAAA`, is the wild type.
"""

import os
import sys
from pathlib import Path

from workloads import PROTEIN, nk_lookup_table


def write_lookup_tsv(seed: int, path: Path) -> None:
    codes, fitness = nk_lookup_table(seed)
    rows = ("".join(PROTEIN[r] for r in row) + "\t" + repr(f)
            for row, f in zip(codes.tolist(), fitness.tolist()))
    text = (f"# NK landscape N=4 K=2 V=20 seed={seed}\n# alphabet {PROTEIN}\n"
            + "\n".join(rows) + "\n")
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    write_lookup_tsv(int(sys.argv[1]), Path(sys.argv[2]))
