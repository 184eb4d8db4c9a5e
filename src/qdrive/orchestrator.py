"""Batch execution as a DAG of file-communicating tasks.

Per parity channel and run, the Hermitian stages form a chain
h(1) -> h(2) -> ... -> h(N); each h(i) also feeds the matching
non-Hermitian stage n(i); every n(i) feeds the run's pool node; all pool
nodes of a channel feed that channel's sort node.  Any ready node may be
claimed by any idle worker immediately (scavenger semantics, no barriers).
The ready node with the longest chain of descendants below it is claimed
first, so the Hermitian chain of the channel with most states, the batch's
critical path, never waits behind a branch that can run beside it; ties go
by :meth:`TaskNode.sort_key`.

Pool and sort nodes, ``GATHER_KINDS``, are gather points: they run in
degraded mode when at least one input artifact exists even if sibling
branches failed, so one broken run never voids a batch.

A sweep is one DAG: :func:`build_dag` adds each sweep point's batch to it
with the point's directory as the prefix of every node id and artifact
path, and one :func:`execute` call runs all points side by side.

With more than one worker, :func:`execute` forks worker processes of its
own, one pipe each, so stages that are pure-Python optimizer work run in
parallel instead of taking turns on one interpreter lock.  The workers
inherit the DAG, its payload closures and everything they reach through
fork; only node ids go down a pipe and only trace events come back, and
payloads hand their results to each other as artifact files.  A worker that
dies fails only the node it was running.  With one worker the payloads run
inline in the calling process.
"""
from __future__ import annotations

import contextlib
import gc
import heapq
import time
from dataclasses import dataclass, field

KIND_RANK = {"hermitian": 0, "nonhermitian": 1, "pool": 2, "sort": 3}
GATHER_KINDS = ("pool", "sort")


@dataclass
class TaskNode:
    id: str
    kind: str
    parity: str
    run: int
    index: int
    inputs: list = field(default_factory=list)
    output: str = ""
    payload: object = field(default=None, repr=False, compare=False)

    def sort_key(self):
        return (self.run, self.index, KIND_RANK[self.kind], self.parity, self.id)


class TaskDag:
    def __init__(self):
        self.nodes: dict[str, TaskNode] = {}
        self.children: dict[str, list[str]] = {}
        self.parents: dict[str, list[str]] = {}

    def add_node(self, node: TaskNode) -> TaskNode:
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node
        self.children[node.id] = []
        self.parents[node.id] = []
        return node

    def add_edge(self, parent: str, child: str) -> None:
        """``child`` runs after ``parent`` and reads its output artifact."""
        self.children[parent].append(child)
        self.parents[child].append(parent)
        self.nodes[child].inputs.append(self.nodes[parent].output)

    def topological_order(self) -> list[str]:
        indegree = {nid: len(ps) for nid, ps in self.parents.items()}
        heap = [self.nodes[nid].sort_key() for nid in indegree if indegree[nid] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            nid = heapq.heappop(heap)[-1]
            order.append(nid)
            for child in self.children[nid]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(heap, self.nodes[child].sort_key())
        if len(order) != len(self.nodes):
            raise ValueError("dependency graph contains a cycle")
        return order


def node_id(parity: str, run: int, kind: str, index: int = 0) -> str:
    if kind == "hermitian":
        return f"{parity}_r{run}_h{index}"
    if kind == "nonhermitian":
        return f"{parity}_r{run}_n{index}"
    if kind == "pool":
        return f"{parity}_r{run}_pool"
    return f"{parity}_sort"


def build_dag(
    n_states: dict[str, int],
    batch_size: int,
    parities: tuple[str, ...] = ("even", "odd"),
    prefix: str = "",
    dag: TaskDag | None = None,
) -> TaskDag:
    """Fig-of-merit graph: per run a Hermitian chain with non-Hermitian
    branches into one pool node; one sort node per parity channel.

    Every node id and artifact path starts with ``prefix``; the nodes go
    into ``dag`` if given, so a sweep builds one graph over all its points.
    """
    dag = TaskDag() if dag is None else dag

    def add(kind: str, parity: str, run: int, index: int, folder: str) -> str:
        nid = node_id(parity, run, kind, index)
        dag.add_node(
            TaskNode(
                id=prefix + nid, kind=kind, parity=parity, run=run, index=index,
                output=f"{prefix}runs/batch0/{folder}/{nid}.json",
            )
        )
        return prefix + nid

    for parity in parities:
        n = n_states[parity]
        if n < 1 or batch_size < 1:
            raise ValueError("state count and batch size must be at least 1")
        sort_id = add("sort", parity, 0, n + 1, parity)
        for run in range(batch_size):
            folder = f"{parity}/{run}"
            pool_id = add("pool", parity, run, n, folder)
            for i in range(1, n + 1):
                h_id = add("hermitian", parity, run, i, folder)
                n_id = add("nonhermitian", parity, run, i, folder)
                dag.add_edge(h_id, n_id)
                if i > 1:
                    dag.add_edge(prefix + node_id(parity, run, "hermitian", i - 1), h_id)
                dag.add_edge(n_id, pool_id)
            dag.add_edge(pool_id, sort_id)
    return dag


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _run_payload(node: TaskNode, degraded: list[str]) -> tuple[str, str | None]:
    try:
        if node.payload is not None:
            node.payload(node, degraded)
        return "done", None
    except Exception as exc:  # noqa: BLE001 - failures recorded, not raised
        return "failed", f"{type(exc).__name__}: {exc}"


def _schedule(dag: TaskDag, workers: int, start, finished, now) -> list[dict]:
    """The scheduler core of :func:`execute` (and of the inline
    virtual-clock executor of the tests); returns the trace.

    While fewer than ``workers`` nodes run, the ready node with the most
    nodes on its longest path of descendants is claimed, the lowest sort key
    among equals, and handed to ``start(node, degraded)``.
    ``finished()`` blocks until at least one started node ends and returns
    the trace events of those that did; ``now()`` stamps skip events.  A
    node becomes ready when all parents finished; a failed or skipped parent
    skips regular descendants, while ``GATHER_KINDS`` nodes run degraded if
    at least one parent succeeded; statuses stay here, not in the DAG.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    depth: dict[str, int] = {}  # nodes on the longest path of descendants
    for nid in reversed(dag.topological_order()):
        depth[nid] = max((1 + depth[c] for c in dag.children[nid]), default=0)

    def claim_key(nid: str) -> tuple:
        return (-depth[nid], *dag.nodes[nid].sort_key())  # the id comes last

    waiting = {nid: len(ps) for nid, ps in dag.parents.items()}
    ready = [claim_key(nid) for nid, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    trace: list[dict] = []
    status: dict[str, str] = {}  # node id -> status of its finished event
    running = 0

    def finish(event: dict):
        status[event["node"]] = event["status"]
        trace.append(event)
        for child_id in dag.children[event["node"]]:
            waiting[child_id] -= 1
            if waiting[child_id]:
                continue
            done = [status[p] == "done" for p in dag.parents[child_id]]
            if all(done) or (dag.nodes[child_id].kind in GATHER_KINDS and any(done)):
                heapq.heappush(ready, claim_key(child_id))
            else:
                t = now()
                finish({
                    "node": child_id, "status": "skipped", "error": "upstream failure",
                    "start": t, "finish": t, "worker": None, "degraded_inputs": [],
                })

    while ready or running:
        while ready and running < workers:
            node = dag.nodes[heapq.heappop(ready)[-1]]
            start(node, [p for p in dag.parents[node.id] if status[p] != "done"])
            running += 1
        for event in finished():
            running -= 1
            finish(event)
    del finish  # it refers to itself: a cycle that would keep the DAG alive until a collection
    return trace


def _run_node(dag: TaskDag, node_id: str, degraded: list[str], worker="MainProcess") -> dict:
    """Run one node's payload in this process, ``worker``; returns its trace event."""
    node = dag.nodes[node_id]
    begin = time.monotonic()
    status, error = _run_payload(node, degraded)
    return {
        "node": node_id, "status": status, "error": error,
        "start": begin, "finish": time.monotonic(),
        "worker": worker, "degraded_inputs": degraded,
    }


def _serve(dag: TaskDag, conn) -> None:
    """Worker loop: run each (node id, degraded inputs, name) received until None."""
    for request in iter(conn.recv, None):
        conn.send(_run_node(dag, *request))


def _fork_worker(dag: TaskDag) -> tuple:
    """Fork a worker that inherits ``dag``; returns this end of its pipe and
    the process.  Only the worker keeps the other end, so its death reads as
    EOF here."""
    import multiprocessing  # only a run that forks loads it
    conn, child_end = multiprocessing.Pipe()
    proc = multiprocessing.get_context("fork").Process(target=_serve, args=(dag, child_end))
    proc.start()
    child_end.close()
    return conn, proc


def _stop(conn, proc) -> None:
    """Tell a worker to stop, wait for it to exit and close its pipe."""
    with contextlib.suppress(ConnectionError):  # it may have died already
        conn.send(None)
    proc.join()
    conn.close()


def execute(dag: TaskDag, workers: int = 1) -> list[dict]:
    """Run every node payload with ``workers`` at a time; returns the
    execution trace with monotonic-clock start/finish times.

    More than one worker forks ``min(workers, len(dag.nodes))`` workers
    once.  Each gets a node id, its degraded inputs and its own process name
    down its pipe, runs the payload and sends back the trace event; this
    process waits on the pipes of the busy workers.  One worker, or a DAG of
    one node, runs the payloads inline and loads no ``multiprocessing``.

    A worker that dies (a crash, ``os._exit``, the OOM killer) reads as EOF
    on its pipe.  Only its node fails, with an error that names the worker,
    its pid and its exit code; a new worker is forked in its place and the
    other running nodes carry on.  Every worker is stopped and joined before
    this returns or raises.

    Set-up ends here, so the objects this process holds now (the imported
    modules, the plan, the channel problems and the DAG) go to the
    collector's permanent generation with ``gc.freeze()`` before any worker
    forks or payload runs.  They live until exit, and no collection walks
    them again: not a worker's, which would write to the pages it shares
    with this process, nor the interpreter's full collections at exit.
    """
    gc.freeze()
    size = min(workers, len(dag.nodes))
    if size <= 1:  # at most one node runs at a time, so one event is pending
        events: list[dict] = []
        return _schedule(
            dag, workers,
            lambda node, degraded: events.append(_run_node(dag, node.id, degraded)),
            lambda: [events.pop()], time.monotonic,
        )

    from multiprocessing.connection import wait
    procs: dict = {}  # connection -> its worker process
    idle: list = []
    busy: dict = {}  # connection -> (node id, degraded inputs, start time)

    def fork() -> None:
        conn, proc = _fork_worker(dag)
        procs[conn] = proc
        idle.append(conn)

    def start(node: TaskNode, degraded: list[str]) -> None:
        conn = idle.pop()
        with contextlib.suppress(ConnectionError):  # died idle: finished() reads EOF
            conn.send((node.id, degraded, procs[conn].name))
        busy[conn] = (node.id, degraded, time.monotonic())

    def finished() -> list[dict]:
        events = []
        for conn in wait(list(busy)):
            nid, degraded, begin = busy.pop(conn)
            try:
                event = conn.recv()
            except (EOFError, ConnectionError):  # the worker died
                proc = procs.pop(conn)
                _stop(conn, proc)
                error = f"worker {proc.name} (pid {proc.pid}) died with exit code {proc.exitcode}"
                event = {
                    "node": nid, "status": "failed", "error": error,
                    "start": begin, "finish": time.monotonic(), "worker": proc.name,
                    "degraded_inputs": degraded,
                }
                fork()
            else:
                idle.append(conn)
            events.append(event)
        return events

    try:
        for _ in range(size):
            fork()
        return _schedule(dag, workers, start, finished, time.monotonic)
    finally:
        for conn, proc in procs.items():
            _stop(conn, proc)


# ---------------------------------------------------------------------------
# DAGMan export
# ---------------------------------------------------------------------------


def export_dagman(
    dag: TaskDag, submit_prefix: str = "submit", cli_args: str = ""
) -> tuple[str, dict[str, str]]:
    """DAGMan description plus stub submit files, one per node.

    Returns (dag file text, {submit path: submit text}).  One JOB line per
    node and one PARENT line per node with children reproduce the edge set
    exactly.  Each job runs ``qdrive <cli_args> run --single-task <id>`` from
    the dag file's directory and logs to ``logs/`` there.
    """
    order = dag.topological_order()
    rank = {nid: i for i, nid in enumerate(order)}
    command = " ".join(["qdrive", *cli_args.split(), "run", "--single-task"])
    lines = []
    submits: dict[str, str] = {}
    for nid in order:
        sub_path = f"{submit_prefix}/{nid}.sub"
        lines.append(f"JOB {nid} {sub_path}")
        submits[sub_path] = (
            "universe = vanilla\n"
            "executable = /usr/bin/env\n"
            f'arguments = "{command} {nid}"\n'
            f"output = logs/{nid}.out\n"
            f"error = logs/{nid}.err\n"
            "log = logs/batch.log\n"
            "queue\n"
        )
    for nid in order:
        children = sorted(dag.children[nid], key=rank.__getitem__)
        if children:
            lines.append(f"PARENT {nid} CHILD {' '.join(children)}")
    return "\n".join(lines) + "\n", submits
