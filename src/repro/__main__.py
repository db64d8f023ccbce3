"""``python -m repro`` and ``repro`` console-script entry point."""

import os
import sys


def main() -> int:
    """Pin BLAS to one thread, then run the CLI.

    The chains are small (tens to a few hundred states), so a threaded
    BLAS spends more on synchronisation than it saves, and each
    process-pool worker would start its own thread pool on the same
    cores.  The variables are read once, when numpy loads its BLAS, so
    they are set before :mod:`repro.cli` (and numpy) is imported; a
    value the user set wins.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from repro.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
