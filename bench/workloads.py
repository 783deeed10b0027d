"""The benchmark's workloads: each turns a seed into a pipeline configuration.

The scenario samples are part of the workload: the pipeline seed stays at
SCENARIO_SEED, because the row-generation work of the certification LP moves
by about +-30 % from one sample batch to the next, which would swamp any
bound.  The workload seed draws the point pairs of the data-driven Lipschitz
estimate instead (and, in bench.py, the STEP probe).  The grids, rooms and
oracle placement are fixed per workload.  README.md says why each workload
was chosen.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

INPUT_LEVELS = (0.0, 0.05, 0.1, 0.15, 0.2)
STATE_BOX = ((-0.5, 0.5),)
DIST_BOX = ((-0.5, 0.5), (-0.5, 0.5))
SCENARIO_SEED = 0


@dataclass(frozen=True)
class Workload:
    rooms: int
    sigma: float
    external: bool = False  # room 0 served over STEP by a child process

    def server_command(self) -> list:
        """Command serving room 0 of this workload's ring over STEP."""
        return [sys.executable, "-m", "symabs.cli", "oracle-server",
                "--subsystem", "0", "--rooms", str(self.rooms)]

    def config(self, seed: int):
        from symabs.pipeline import PipelineConfig
        mapping = {"seed": SCENARIO_SEED,
                   "certify": {"sigma": self.sigma,
                               "lipschitz": {"seed": int(seed)}}}
        if self.external:
            mapping["system"] = {
                "kind": "external", "command": self.server_command(),
                "state_box": [list(b) for b in STATE_BOX],
                "disturbance_box": [list(b) for b in DIST_BOX],
                "input_set": [[v] for v in INPUT_LEVELS]}
        else:
            mapping["system"] = {"num_rooms": self.rooms,
                                 "input_levels": list(INPUT_LEVELS)}
        return PipelineConfig.from_mapping(mapping)

    def room(self):
        """Room 0 of this workload's ring as an in-process oracle."""
        from symabs.model import RoomNetworkParams, build_room_network
        params = RoomNetworkParams(num_rooms=self.rooms, input_levels=INPUT_LEVELS)
        return build_room_network(params)[2][0]


WORKLOADS = {
    "ring5-fine": Workload(rooms=5, sigma=0.02),
    "ring30": Workload(rooms=30, sigma=0.025),
    # Not in BENCHMARK.json: its 0.07 s simulate_s spreads too far; see README.
    "room-step": Workload(rooms=5, sigma=0.025, external=True),
    # Tiny sizes for selftest.py only; not listed in BENCHMARK.json.
    "tiny-ring": Workload(rooms=3, sigma=0.03),
    "tiny-step": Workload(rooms=3, sigma=0.03, external=True),
}
