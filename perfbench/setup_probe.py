"""Set-up time of a fresh process: import ``nsab.cli`` and parse one config.

    python3 perfbench/setup_probe.py <config> <subcommand>

Prints the seconds taken and, on a second line, the calibration kernel time
measured afterwards in the same process; ``run.py`` starts it with the
pinned environment.
"""

import sys
import time


def main(config, kind):
    t0 = time.perf_counter()
    import nsab.cli  # noqa: F401
    from nsab.config import parse_config

    with open(config) as fh:
        parse_config(fh.read(), kind_override=kind)
    print(time.perf_counter() - t0)

    import calibration

    calibration.sample()
    print(calibration.sample(3))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
