"""Seeded solve benchmark for the dsda package.

Run from the root of a checkout:

    python3 bench/run.py --workload steel-care --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (measured with tracing off),
``--trace 1`` the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--smoke`` shrinks every
instance to a few dozen unknowns.  The workloads are described in
``bench/WORKLOADS.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: BLAS threads per workload, fixed so that runs compare.  On a 2-CPU
#: machine two OpenBLAS threads made the n <= 512 solves both slower
#: and noisier than one thread; at n = 1369 two threads are about 1.4x
#: faster, which keeps the steel-sized runs affordable.
BLAS_THREADS = {"steel-care": 2, "wide-kernel": 1, "families": 1}


def pin_environment(threads: int) -> None:
    """Fix BLAS threads and page size; must run before numpy is imported.

    numpy asks for transparent huge pages on large arrays by default.
    Whether the kernel grants them depends on how fragmented the host's
    memory is, which made the wide-kernel solve time jump by about 10 %
    from one run to the next; without them it is steady.
    """
    value = str(min(threads, len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = value
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=BLAS_THREADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the timed phase (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the self-tests")
    args = parser.parse_args(argv)

    pin_environment(BLAS_THREADS[args.workload])
    try:
        import harness
    except ImportError as exc:
        print(f"bench: cannot import dsda from this checkout: {exc}",
              file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, STARTED,
                         log=lambda line: print(line, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
