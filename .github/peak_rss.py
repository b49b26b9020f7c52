"""Run one weyldiag command in this process and fail when its peak RSS passes a bound.

Usage: python [-O] .github/peak_rss.py BOUND_MB COMMAND [ARGS...]

COMMAND and ARGS are those of the weyldiag console script, and its stdout
and stderr pass through.  The peak (ru_maxrss, KiB on Linux) goes to stderr.
The exit code is the command's own when that is nonzero, 1 with a message
when the peak is over BOUND_MB, and 0 otherwise.
"""

import resource
import sys

from weyldiag.cli import run


def main() -> None:
    bound_mb = int(sys.argv[1])
    res = run(sys.argv[2:])
    sys.stdout.write(res.stdout)
    sys.stderr.write(res.stderr)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB", file=sys.stderr)
    if res.exit_code:
        sys.exit(res.exit_code)
    if peak_mb > bound_mb:
        sys.exit(f"peak RSS {peak_mb:.0f} MB is over the {bound_mb} MB bound")


if __name__ == "__main__":
    main()
