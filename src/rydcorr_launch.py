"""Entry point of the ``rydcorr`` console script: BLAS thread policy, then the CLI.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, and importing
``rydcorr`` loads numpy, so the policy is set here, in a module outside the
package that imports nothing numerical. One thread is the default because the
81x81 kernels run several times slower with two OpenBLAS threads on two
cores; a value already in the environment is kept.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from rydcorr.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
