"""The three request mixes of the benchmark.

A request is one ``celltiler`` CLI command on one input. A round holds every
request of a mix once, in an order drawn from the run's seed. Runs replay
whole rounds only, so every run has the same request composition and the
latency percentiles land on the same kind of request from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# decomposition target -> gate name the CLI reports it equivalent to
DECOMP_TARGETS = {
    "ccz_tdepth1": "CCZ",
    "toffoli_tdepth2": "Toffoli",
    "toffoli_mb": "Toffoli",
    "controlled_s": "CS",
    "and_4anc": "AND",
    "and_3anc": "AND",
}


@dataclass(frozen=True)
class Request:
    """One CLI command. ``kind`` selects the output check; ``artifact`` names
    the flag (``--out``/``--csv``) whose file the command writes."""

    kind: str  # "verify", "decomp", "schedule", "ls", "compare" or "invalid"
    args: tuple[str, ...]
    width: int | None = None
    artifact: str | None = None
    expect_rc: int = 0

    def argv(self, workdir: str) -> list[str]:
        argv = list(self.args)
        if self.artifact:
            argv += [self.artifact, f"{workdir}/{self.kind}-{self.width}.out"]
        return argv

    def key(self) -> str:
        """Fingerprint key of what the request emits, e.g. ``ls/8``."""
        return f"{self.kind}/{self.width}" if self.width is not None else self.kind

    def label(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple[Request, ...]
    warmup: tuple[Request, ...]
    dominant: str  # the layer expected to hold the largest self-time share


def _verify_small() -> Workload:
    # Each width appears twice per round so that the `verify 4` requests are
    # 2/13 of the mix: p90 then falls inside them, not on a cluster boundary.
    widths = [Request("verify", ("verify", str(n)), n) for n in (2, 3, 4)] * 2
    decomps = [Request("decomp", ("verify", t)) for t in DECOMP_TARGETS]
    invalid = [Request("invalid", ("verify", "5"), expect_rc=2)]
    warmup = (Request("verify", ("verify", "2"), 2), Request("decomp", ("verify", "ccz_tdepth1")))
    return Workload("verify-small", tuple(widths + decomps + invalid), warmup, "sim")


def _ls_compile() -> Workload:
    reqs = []
    for n in (6, 8, 10):
        reqs.append(Request("schedule", ("schedule", str(n), "--lower-clifford-t"), n, "--out"))
        reqs.append(Request("ls", ("ls", str(n), "3d"), n, "--out"))
    invalid = [Request("invalid", ("ls", "4", "2d"), expect_rc=1)]
    warmup = (
        Request("schedule", ("schedule", "2", "--lower-clifford-t"), 2, "--out"),
        Request("ls", ("ls", "2", "3d"), 2, "--out"),
    )
    return Workload("ls-compile", tuple(reqs + invalid), warmup, "lsx")


def _route_compare() -> Workload:
    reqs = [Request("compare", ("compare", str(n), str(n)), n, "--csv") for n in range(4, 9)]
    # two cheap invalid requests keep the round size odd, so the median is a
    # `compare 5 5` request rather than the mean of two neighbouring widths
    invalid = [
        Request("invalid", ("compare", "1", "1"), expect_rc=2),
        Request("invalid", ("build", "11"), expect_rc=2),
    ]
    warmup = (Request("compare", ("compare", "2", "2"), 2, "--csv"),)
    return Workload("route-compare", tuple(reqs + invalid), warmup, "circuit")


WORKLOADS = {w.name: w for w in (_verify_small(), _ls_compile(), _route_compare())}


def rounds(workload: Workload, seed: int):
    """Endless sequence of rounds, each a seeded permutation of the mix."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        order = list(workload.round)
        rng.shuffle(order)
        yield order
