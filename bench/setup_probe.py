"""Time the set-up a user of tgmc pays before the first check: import the
package, parse the four builtin models and read the workload's manifests.

Usage: python3 setup_probe.py SRC_DIR MANIFEST...

Prints the seconds taken.  Nothing but ``sys`` and ``time`` is imported
before the clock starts, so the figure holds every import ``tgmc`` needs.
"""

import sys
import time


def main(argv: list[str]) -> int:
    src, manifests = argv[1], argv[2:]
    started = time.perf_counter()
    sys.path.insert(0, src)
    import tgmc
    for name in tgmc.BUILTIN_NAMES:
        tgmc.load_builtin(name)
    for path in manifests:
        tgmc.read_manifest(path)
    seconds = time.perf_counter() - started
    if not tgmc.__file__.startswith(src.rstrip("/") + "/"):
        print(f"imported tgmc from {tgmc.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
