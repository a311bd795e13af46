"""Workloads of the benchmark: the seven-scenario corpus plus seeded variants.

A workload is a list of ops.  An op is one CLI call
``jacobiflow <verb> <scenario> --out <file>`` together with the exit code and
error class it is expected to end with.  Every workload starts with its
corpus scenarios, copied verbatim, and continues with variants.

Variant ``i`` is a shape drawn once from a fixed generator (start plane,
cubic X or portrait constant ``c``), perturbed by
``JITTER`` with a generator seeded by ``[seed, workload index]``.  Shapes
differ in cost by a factor of two or more, so fresh shapes for every seed
would change what a run costs; perturbed fixed shapes give every seed new
inputs of the same difficulty.  The CLI only ever sees the files written
by :func:`write_scenarios`; the same seed writes byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
WORKLOADS = ("curve", "pole", "jet")

#: decimals kept for generated numbers, so the files stay readable
DECIMALS = 6
#: seed of the generator that draws the variant shapes
SHAPE_SEED = 20181122
#: size of the seeded perturbation of every generated number
JITTER = 0.05
#: deepest entry of the epsilon family of every ``pole`` variant.  At 1e-4
#: a trace takes about 1.8 s; in a traced run coefficient evaluation (L1) is
#: about 61% of it and the epsilon-family oracle about 55%.
POLE_DEPTH = 1e-4
#: variant scenarios per block; a round always runs whole blocks.  A ``jet``
#: block is one ``portrait`` variant and two each of ``degen_m1``/``degen_m2``.
BLOCK = {"curve": 1, "pole": 1, "jet": 5}
#: ops run and checked, but left out of the timing figures (see run.py).
#: The corpus ``degen_m3`` trace covers the default epsilon family down to
#: 1e-6 and takes 12 to 18 s.
LONG_OPS = frozenset({"degen_m3.trace"})
#: seconds taken by the corpus ops and by one block, probes included, when
#: the benchmark was written (2-core x86 VM, Python 3.11, unloaded).  They
#: only decide how many blocks a round holds, so that a round fills about
#: ROUND_SHARE of ``--seconds``.
COST_S = {"curve": (2.7, 1.3), "pole": (14.0, 1.95), "jet": (4.2, 4.2)}
ROUND_SHARE = 0.8


@dataclass(frozen=True)
class Op:
    """One CLI call and the outcome it is expected to have."""

    id: str
    verb: str
    scenario: str
    expect_code: int = 0
    expect_error: str | None = None


# Expected outcomes of the corpus ops at the commit that introduced the
# benchmark.  ``order2``'s maslov call is refused on purpose: X(0) lies in
# the reference plane.  The corpus ``degen_m1``/``degen_m2`` traces are
# expected to succeed; they currently end in PoleError and count as failed.
CORPUS_OPS = {
    "curve": [
        Op("regular.trace", "trace", "regular"),
        Op("regular.maslov", "maslov", "regular"),
        Op("order2.trace", "trace", "order2"),
        Op("order2.maslov", "maslov", "order2", 3, "PreconditionError"),
        Op("bangbang.bangbang", "bangbang", "bangbang"),
    ],
    "pole": [
        Op("degen_m3.classify", "classify", "degen_m3"),
        Op("degen_m3.jump", "jump", "degen_m3"),
        Op("degen_m3.trace", "trace", "degen_m3"),
    ],
    "jet": [
        Op("degen_m1.classify", "classify", "degen_m1"),
        Op("degen_m1.jump", "jump", "degen_m1"),
        Op("degen_m1.trace", "trace", "degen_m1"),
        Op("degen_m2.classify", "classify", "degen_m2"),
        Op("degen_m2.jump", "jump", "degen_m2"),
        Op("degen_m2.trace", "trace", "degen_m2"),
        Op("portrait.portrait", "portrait", "portrait"),
    ],
}

CORPUS_SCENARIOS = {
    workload: sorted({op.scenario for op in ops}) for workload, ops in CORPUS_OPS.items()
}


def _r(x) -> float:
    return round(float(x), DECIMALS)


class _Draw:
    """Draws a fixed shape and adds the seed's perturbation to it."""

    def __init__(self, workload: str, seed: int) -> None:
        index = WORKLOADS.index(workload)
        self.shape = np.random.default_rng([SHAPE_SEED, index])
        self.jitter = np.random.default_rng([seed, index])

    def uniform(self, lo: float, hi: float, size=None) -> np.ndarray:
        base = self.shape.uniform(lo, hi, size)
        return base + JITTER * self.jitter.uniform(-1.0, 1.0, np.shape(base))

    def start_plane(self, n: int) -> list[list[float]]:
        """Frame ``[I; S]`` with S symmetric: Lagrangian exactly, even after rounding."""
        a = self.uniform(-1.0, 1.0, (n, n))
        s = np.triu(a) + np.triu(a, 1).T
        return [[_r(v) for v in row] for row in np.vstack([np.eye(n), s])]


def _corpus(name: str) -> dict:
    return json.loads((CORPUS_DIR / f"{name}.json").read_text(encoding="utf-8"))


def _regular_variant(draw: _Draw) -> dict:
    """``regular`` with a random Lagrangian start and a random cubic X."""
    sc = _corpus("regular")
    sc["data"]["x"] = [[[_r(v) for v in draw.uniform(-1.0, 1.0, 4)] for _ in range(4)]]
    sc["initial_plane"] = draw.start_plane(2)
    return sc


def _pole_variant(draw: _Draw, depth: float) -> dict:
    """``degen_m3`` with a random start and the epsilon family cut at ``depth``."""
    sc = _corpus("degen_m3")
    sc["initial_plane"] = draw.start_plane(2)
    sc["tolerances"] = {"eps_family": [e for e in (1e-3, 1e-4, 1e-5, 1e-6) if e >= depth]}
    return sc


def _portrait_variant(draw: _Draw, oscillating: bool) -> dict:
    """``portrait`` with c on either side of the Kneser threshold 1 + 4c = 0."""
    sc = _corpus("portrait")
    sc["data"]["c"] = _r(draw.uniform(-2.0, -0.5) if oscillating else draw.uniform(0.5, 3.0))
    return sc


def _degen_variant(draw: _Draw, name: str) -> dict:
    sc = _corpus(name)
    sc["initial_plane"] = draw.start_plane(2)
    return sc


def blocks_for(workload: str, seconds: float) -> int:
    """Blocks of variants in one round of a run that measures ``seconds``."""
    corpus, block = COST_S[workload]
    return max(1, int((ROUND_SHARE * seconds - corpus) // block))


def _variants(workload: str, seed: int, count: int) -> list[tuple[str, dict, tuple[str, ...]]]:
    """``(scenario name, scenario, verbs)`` for each variant, in run order.

    Variants are drawn one after another, so the first ``count`` variants
    do not depend on how many follow.
    """
    draw = _Draw(workload, seed)
    out = []
    for i in range(count):
        if workload == "curve":
            out.append((f"regular_v{i:02d}", _regular_variant(draw), ("trace", "maslov")))
        elif workload == "pole":
            out.append((f"degen_m3_v{i:02d}", _pole_variant(draw, POLE_DEPTH),
                        ("classify", "jump", "trace")))
        else:
            kind = i % BLOCK["jet"]
            if kind == 0:
                out.append((f"portrait_v{i:02d}", _portrait_variant(draw, i % 2 == 0),
                            ("portrait",)))
            else:
                name = ("degen_m1", "degen_m2")[(kind - 1) % 2]
                out.append((f"{name}_v{i:02d}", _degen_variant(draw, name),
                            ("classify", "jump", "trace")))
    return out


def _dump(sc: dict) -> str:
    return "{\n" + ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sc.items()
    ) + "\n}\n"


def write_warmup(directory: Path) -> Op:
    """A short ``regular`` trace that fills the package's caches before timing."""
    sc = _corpus("regular")
    sc["grid"]["steps"] = 20
    (directory / "warmup.json").write_text(_dump(sc), encoding="utf-8", newline="\n")
    return Op("warmup.trace", "trace", "warmup")


def write_scenarios(workload: str, seed: int, blocks: int, directory: Path) -> list[Op]:
    """Write one round of the workload into ``directory``; return its ops in run order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    for name in CORPUS_SCENARIOS[workload]:
        (directory / f"{name}.json").write_bytes((CORPUS_DIR / f"{name}.json").read_bytes())
    ops = list(CORPUS_OPS[workload])
    for name, sc, verbs in _variants(workload, seed, blocks * BLOCK[workload]):
        (directory / f"{name}.json").write_text(_dump(sc), encoding="utf-8", newline="\n")
        ops.extend(Op(f"{name}.{verb}", verb, name) for verb in verbs)
    return ops
