"""Reference objects that only tests need: the edge set of a task DAG and a
noise model with no noise.  ``src`` has no caller for either."""
import math

import numpy as np

from qdrive.orchestrator import TaskDag
from qdrive.simulator import NoiseModel


def edges(dag: TaskDag) -> set[tuple[str, str]]:
    """Every (parent, child) pair of ``dag``."""
    return {(p, c) for p, cs in dag.children.items() for c in cs}


def noiseless(n: int) -> NoiseModel:
    """``n`` qubits with infinite T1 and T2, no gate error and perfect readout."""
    return NoiseModel(
        t1_us=np.full(n, math.inf),
        t2_us=np.full(n, math.inf),
        excited_population=np.zeros(n),
        gate_time_1q_us=0.0,
        gate_time_2q_us=0.0,
        p1=0.0,
        p2=0.0,
        readout=np.tile(np.eye(2), (n, 1, 1)),
        name="noiseless",
    )
