"""Set-up probe, run in a fresh interpreter by run.py.

Times importing patternsort, building the CLI parser and one warm-up
call per timed function on a length-3 input, and prints the seconds.

    python3 perfbench/setup_probe.py <path to src>
"""

import contextlib
import io
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from patternsort import bijections, cli, grid, machine, paths, perms, rgf  # noqa: E402

cli.build_parser()
machine.is_sigma_sortable((2, 1, 3), (1, 3, 2))
machine.is_sigma_sortable((2, 1, 3), (1, 2, 3))
perms.avoids((2, 1, 3), (2, 3, 1, 4))
perms.contains_mesh((2, 1, 3), perms.MU)
grid.generate_sortable(3)
rgf.enumerate_avoiders(3, (1, 2, 2, 1))
list(paths.enumerate_labeled_motzkin(3))
bijections.rgf_to_sortable(bijections.sortable_to_rgf((2, 1, 3)))
bijections.to_12231_avoider(bijections.to_12321_avoider((1, 2, 1)))
bijections.dyck_path_to_rgf(bijections.rgf_to_dyck_path((1, 2, 1)))
for mode in ("stack", "queue"):
    bijections.rgf_to_labeled_motzkin(bijections.labeled_motzkin_to_rgf(("U", "H2", "D"), mode), mode)
bijections.av321_to_rgf(bijections.rgf_to_av321((1, 2, 1)))
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["map", "phi-inverse", "--rgf", "1 2 1"])
    cli.main(["decompose", "--perm", "2 1 3"])
    cli.main(["simulate", "--perm", "2 1 3", "--trace"])
elapsed = time.perf_counter() - t0
print(repr(elapsed))
