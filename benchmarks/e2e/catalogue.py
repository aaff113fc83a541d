"""Benchmark-owned workload inputs: pinned instances plus seed-derived draws.

Nothing here imports ``repro.service.loadgen`` or ``repro.experiments``: the
Table III blocks, the gather campaigns and the serving curve families are
copied as constants, so a later change to the program cannot silently change
what the ledger measures.  ``input_digest`` hashes what each workload feeds
the program; ``reference.json`` pins the digests of the default seed.

What ``--seed`` varies, and what it does not
--------------------------------------------
Solve difficulty is chaotic in the benchmark noise: over 60 gather-noise
draws ``1deg-2048`` explores 10-122 B&B nodes and a sweep's wall time has a
coefficient of variation of 27 % (24 % for the FMO ladder), so no bound under
0.25 could be resolved inside the run-time cap if the seed drew the
instances.  The *instances* are therefore pinned by ``CATALOGUE_SEED`` (the
gather/fit/solve RNG stream of every pipeline block, the FMO systems, the 48
distinct serving requests, their popularity ranks, and the arrival order of
each ``serve_flash`` burst).  ``--seed`` draws what
a user of those instances does not control: the order blocks are visited in,
the noise of the executed run (step 4), every Zipf draw of the ``serve_hot``
request sequences and every priority class (a fresh sequence per round).
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.cesm.app import CESMApplication
from repro.cesm.grids import eighth_degree, one_degree
from repro.fmo.app import FMOApplication
from repro.fmo.molecules import protein_like
from repro.perf.model import PerformanceModel
from repro.service.request import ComponentSpec, SolveRequest

#: Pins instance identity (see module docstring); not a knob.
CATALOGUE_SEED = 20120427

#: Table III blocks: (key, resolution, total nodes, constrained ocean).
TABLE3_BLOCKS = (
    ("1deg-128", "1deg", 128, True),
    ("1deg-2048", "1deg", 2048, True),
    ("eighth-8192", "eighth", 8192, True),
    ("eighth-32768", "eighth", 32768, True),
    ("eighth-8192-freeocn", "eighth", 8192, False),
    ("eighth-32768-freeocn", "eighth", 32768, False),
)

#: The paper's gather campaigns (total node counts) per resolution.
GATHER_CAMPAIGNS = {
    "1deg": (32, 64, 128, 256, 512, 1024, 2048),
    "eighth": (2048, 4096, 8192, 16384, 32768),
}

#: FMO ladder: (fragments, total nodes); gathered at 1..32 nodes.
FMO_LADDER = ((8, 64), (16, 128), (24, 256))
FMO_GATHER = (1, 2, 4, 8, 16, 32)

#: Serving pool: curve families scaled from one CESM-like base set.
BASE_CURVES = {
    "atm": dict(a=1200.0, b=0.5, c=1.1, d=2.0),
    "ocn": dict(a=800.0, b=0.3, c=1.2, d=1.0),
    "ice": dict(a=300.0, b=0.2, c=1.0, d=0.5),
}
SERVE_FAMILIES = 12
SERVE_BUDGETS = (48, 64, 72, 96)
ZIPF_EXPONENT = 1.1
PRIORITY_MIX = (("interactive", 0.5), ("batch", 0.3), ("background", 0.2))

#: Stream tags, so no two draws share a SeedSequence.
_TAG = {"plan": 1, "exec": 2, "order": 3, "system": 4, "family": 5, "rank": 6,
        "serve_hot": 7, "serve_flash": 8}


def _rng(seed: int, tag: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, _TAG[tag], *key])


@dataclass
class PipelineBlock:
    """One pipeline instance: how to build its app and what to ask of it."""

    index: int
    key: str
    campaign: tuple[int, ...]
    total_nodes: int
    make_app: Callable[[], object]
    atoms: list[int] | None = None  # FMO fragment sizes, for the digest

    def plan_rng(self) -> np.random.Generator:
        """Gather/fit/solve stream: pinned, so the instance is the same
        for every seed."""
        return _rng(CATALOGUE_SEED, "plan", self.index)

    def exec_rng(self, seed: int, replica: int = 0) -> np.random.Generator:
        """Noise of the executed run: seed-derived."""
        return _rng(seed, "exec", self.index, replica)


def _cesm_app(resolution: str, constrained: bool) -> CESMApplication:
    if resolution == "1deg":
        return CESMApplication(one_degree())
    return CESMApplication(eighth_degree(constrained_ocean=constrained))


def cesm_blocks() -> list[PipelineBlock]:
    return [
        PipelineBlock(
            i, key, GATHER_CAMPAIGNS[resolution], nodes,
            partial(_cesm_app, resolution, constrained),
        )
        for i, (key, resolution, nodes, constrained) in enumerate(TABLE3_BLOCKS)
    ]


def fmo_blocks() -> list[PipelineBlock]:
    blocks = []
    for i, (fragments, nodes) in enumerate(FMO_LADDER):
        system = protein_like(fragments, _rng(CATALOGUE_SEED, "system", i))
        blocks.append(PipelineBlock(
            i, f"protein-{fragments}@{nodes}", FMO_GATHER, nodes,
            partial(FMOApplication, system),
            atoms=[f.n_atoms for f in system.fragments],
        ))
    return blocks


def block_order(seed: int, n_blocks: int) -> list[int]:
    """The order one sweep visits its blocks in."""
    return [int(i) for i in _rng(seed, "order").permutation(n_blocks)]


# -- serving ----------------------------------------------------------------


def request_pool() -> list[SolveRequest]:
    """The 48 distinct requests, most popular first (pinned)."""
    pool = []
    for k in range(SERVE_FAMILIES):
        scale = float(_rng(CATALOGUE_SEED, "family", k).uniform(0.8, 2.5))
        components = {
            name: ComponentSpec(
                model=PerformanceModel(
                    a=p["a"] * scale, b=p["b"], c=p["c"], d=p["d"]
                )
            )
            for name, p in BASE_CURVES.items()
        }
        pool.extend(
            SolveRequest(components=components, total_nodes=budget)
            for budget in SERVE_BUDGETS
        )
    order = _rng(CATALOGUE_SEED, "rank").permutation(len(pool))
    return [pool[i] for i in order]


def request_sequence(
    seed: int, workload: str, round_index: int, n: int, pool_size: int
) -> tuple[list[int], list[str]]:
    """``n`` Zipf-ranked pool indices and their priority classes.

    ``serve_flash`` pins the ranks: the order in which a burst's distinct
    requests first arrive decides when the popular ones are solved, and with
    it the median time-to-answer, which moved +-16 % between seeds against
    +-4 % between runs of one seed.  Its seed draws the priority classes.
    """
    rank_seed = CATALOGUE_SEED if workload == "serve_flash" else seed
    weights = 1.0 / np.arange(1, pool_size + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    ranks = _rng(rank_seed, workload, round_index, 0).choice(
        pool_size, size=n, p=weights
    )
    names = [name for name, _ in PRIORITY_MIX]
    mix = np.array([w for _, w in PRIORITY_MIX])
    classes = _rng(seed, workload, round_index, 1).choice(
        len(names), size=n, p=mix / mix.sum()
    )
    return [int(r) for r in ranks], [names[c] for c in classes]


# -- digests ----------------------------------------------------------------


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def input_digest(workload: str, seed: int) -> str:
    """Hash of everything ``workload`` feeds the program under ``seed``."""
    if workload in ("cesm_table3", "fmo_ladder"):
        blocks = cesm_blocks() if workload == "cesm_table3" else fmo_blocks()
        return _digest({
            "blocks": [
                [b.key, list(b.campaign), b.total_nodes,
                 b.atoms,
                 b.plan_rng().integers(1 << 62, size=2).tolist(),
                 b.exec_rng(seed).integers(1 << 62, size=2).tolist()]
                for b in blocks
            ],
            "order": block_order(seed, len(blocks)),
        })
    pool = request_pool()
    n = 2000 if workload == "serve_hot" else 600
    return _digest({
        "pool": [r.to_dict() for r in pool],
        "rounds": [
            request_sequence(seed, workload, r, n, len(pool)) for r in range(2)
        ],
    })
