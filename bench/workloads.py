"""The benchmark's workloads, and the import of ``tgmc`` from this checkout.

Every workload is a fixed list of manifest files run through
``tgmc.harness.run_manifest`` with one worker.  The lists take no random
seed: the checks are the paper's experiment and a fixed scaling ladder.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TABLES = SRC / "tgmc" / "tables"
MANIFESTS = BENCH_DIR / "manifests"
OUT_DIR = BENCH_DIR / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    manifests: tuple[Path, ...]
    symmetry: bool
    # Whether the expected verdict is also derived from n > 3t and f <= t.
    byz_condition: bool = False


WORKLOADS = {
    w.name: w for w in (
        # The paper's experiment: many small instances, each under three
        # specs, so the fixed cost of a check and counterexample replay weigh.
        Workload("manifest-sweep",
                 (TABLES / "table1.csv", TABLES / "appendix_required.csv",
                  TABLES / "appendix_extended.csv"),
                 symmetry=True),
        # One spec per instance and every verdict holds: successors,
        # canonicalisation, labelling and the nested DFS do the work, and
        # nothing is shared between checks.
        Workload("byz-ladder", (MANIFESTS / "byz_ladder.csv",),
                 symmetry=True, byz_condition=True),
        # The reference semantics without the canonical sort, on 10-40x
        # more states per instance.
        Workload("raw-interleaving", (MANIFESTS / "raw_interleaving.csv",),
                 symmetry=False),
    )
}


def import_tgmc():
    """Import ``tgmc`` from this checkout's ``src/``, never from elsewhere.

    Raises ImportError when the checkout has no ``src/tgmc`` or when another
    copy of the package shadows it.
    """
    if not (SRC / "tgmc" / "__init__.py").is_file():
        raise ImportError(f"no tgmc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tgmc
    if Path(tgmc.__file__).resolve().parent != SRC / "tgmc":
        raise ImportError(f"imported tgmc from {tgmc.__file__}, not from {SRC}")
    return tgmc
