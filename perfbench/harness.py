"""Shared pieces of the serving benchmark: paths, model, statistics, provenance.

Every workload serves the same random-weight, fast-model-sized checkpoint
(no zoo training enters set-up).  Statistics are plain numpy percentiles
reported together with their sample counts; a full-size run must leave at
least ``MIN_TAIL`` samples beyond every percentile it names.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: BLAS is pinned to one thread in every benchmark process: the engine, the
#: gateway server and the load generator share a small box, and a spinning
#: BLAS pool would make CPU time and latency depend on the neighbour.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: Samples a run must leave beyond each named percentile.
MIN_TAIL = 10

MODEL_CONFIG = dict(name="perfbench", vocab_size=64, d_model=128, n_heads=4,
                    n_layers=3, d_ff=384, arch="llama", seed=0, max_seq_len=160)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC} (expected src/repro)")
    os.environ.update(BLAS_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_model():
    """The random-weight checkpoint every workload serves."""
    from repro.llm.config import ModelConfig
    from repro.llm.inference import InferenceModel
    from repro.llm.transformer import TransformerLM

    config = ModelConfig(**MODEL_CONFIG)
    return InferenceModel(config, TransformerLM(config).state_dict())


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ statistics
def percentile(values, q: float, require_tail: bool = True) -> tuple:
    """``(value, n)`` of the ``q``-th percentile; enforces the tail rule."""
    import numpy as np

    sample = np.asarray(list(values), dtype=float)
    if sample.size == 0:
        raise ValueError(f"no samples for p{q:g}")
    tail = sample.size * (100.0 - q) / 100.0
    if require_tail and q > 50 and tail < MIN_TAIL:
        raise ValueError(f"p{q:g} needs {MIN_TAIL} samples beyond it, "
                         f"got {sample.size} samples ({tail:.1f} beyond)")
    return float(np.percentile(sample, q)), int(sample.size)


def median(values) -> float:
    import numpy as np

    return float(np.median(np.asarray(list(values), dtype=float)))


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------------ provenance
def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_line_count() -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in SRC.rglob("*.py"))


def metadata() -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_lines": src_line_count(),
    }
