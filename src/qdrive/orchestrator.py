"""Batch execution as a DAG of file-communicating tasks.

Per parity channel and run, the Hermitian stages form a chain
h(1) -> h(2) -> ... -> h(N); each h(i) also feeds the matching
non-Hermitian stage n(i); every n(i) feeds the run's pool node; all pool
nodes of a channel feed that channel's sort node.  Any ready node may be
claimed by any idle worker immediately (scavenger semantics, no barriers).

Pool and sort nodes are gather points: they run in degraded mode when at
least one input artifact exists even if sibling branches failed, so one
broken run never voids a batch.

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
import heapq
import itertools
import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait

KIND_RANK = {"hermitian": 0, "nonhermitian": 1, "pool": 2, "sort": 3}


@dataclass
class TaskNode:
    id: str
    kind: str
    parity: str
    run: int
    index: int
    inputs: list = field(default_factory=list)
    output: str = ""
    gather: bool = False
    status: str = "pending"
    error: str | None = None
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
        self.children[parent].append(child)
        self.parents[child].append(parent)

    def edges(self) -> set[tuple[str, str]]:
        return {(p, c) for p, cs in self.children.items() for c in cs}

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


def artifact_path(batch: str, parity: str, run: int, task_id: str) -> str:
    return f"runs/{batch}/{parity}/{run}/{task_id}.json"


def build_dag(
    n_states: dict[str, int],
    batch_size: int,
    parities: tuple[str, ...] = ("even", "odd"),
    batch: str = "batch0",
) -> TaskDag:
    """Fig-of-merit graph: per run a Hermitian chain with non-Hermitian
    branches into one pool node; one sort node per parity channel."""
    dag = TaskDag()
    for parity in parities:
        n = n_states[parity]
        if n < 1 or batch_size < 1:
            raise ValueError("state count and batch size must be at least 1")
        sort_id = node_id(parity, 0, "sort")
        dag.add_node(
            TaskNode(
                id=sort_id, kind="sort", parity=parity, run=0, index=n + 1,
                gather=True,
                output=f"runs/{batch}/{parity}/{sort_id}.json",
            )
        )
        for run in range(batch_size):
            pool_id = node_id(parity, run, "pool")
            dag.add_node(
                TaskNode(
                    id=pool_id, kind="pool", parity=parity, run=run, index=n,
                    gather=True,
                    output=artifact_path(batch, parity, run, pool_id),
                )
            )
            for i in range(1, n + 1):
                h_id = node_id(parity, run, "hermitian", i)
                n_id = node_id(parity, run, "nonhermitian", i)
                dag.add_node(
                    TaskNode(
                        id=h_id, kind="hermitian", parity=parity, run=run, index=i,
                        output=artifact_path(batch, parity, run, h_id),
                    )
                )
                dag.add_node(
                    TaskNode(
                        id=n_id, kind="nonhermitian", parity=parity, run=run, index=i,
                        output=artifact_path(batch, parity, run, n_id),
                    )
                )
                dag.add_edge(h_id, n_id)
                if i > 1:
                    dag.add_edge(node_id(parity, run, "hermitian", i - 1), h_id)
                dag.add_edge(n_id, pool_id)
            dag.add_edge(pool_id, sort_id)
    for child, parents in dag.parents.items():
        dag.nodes[child].inputs = [dag.nodes[p].output for p in parents]
    dag.topological_order()  # acyclicity check
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
    """The scheduler core shared by both executors; returns the trace.

    While fewer than ``workers`` nodes run, the ready node with the lowest
    sort key is claimed and handed to ``start(node, degraded)``.
    ``finished()`` blocks until at least one started node ends and returns
    the trace events of those that did; ``now()`` stamps skip events.  A
    node becomes ready when all parents finished; a failed or skipped parent
    skips regular descendants, while gather nodes (pool/sort) run in
    degraded mode if at least one parent succeeded.
    """
    if workers < 1:
        raise ValueError("need at least one worker")
    waiting = {nid: len(ps) for nid, ps in dag.parents.items()}
    ready = [dag.nodes[nid].sort_key() for nid, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    trace: list[dict] = []
    running = 0

    def finish(event: dict):
        node = dag.nodes[event["node"]]
        node.status, node.error = event["status"], event["error"]
        trace.append(event)
        for child_id in dag.children[node.id]:
            waiting[child_id] -= 1
            if waiting[child_id]:
                continue
            child = dag.nodes[child_id]
            done = [dag.nodes[p].status == "done" for p in dag.parents[child_id]]
            if all(done) or (child.gather and any(done)):
                heapq.heappush(ready, child.sort_key())
            else:
                t = now()
                finish({
                    "node": child_id, "status": "skipped", "error": "upstream failure",
                    "start": t, "finish": t, "worker": None, "degraded_inputs": [],
                })

    while ready or running:
        while ready and running < workers:
            node = dag.nodes[heapq.heappop(ready)[-1]]
            node.status = "running"
            start(node, [p for p in dag.parents[node.id] if dag.nodes[p].status != "done"])
            running += 1
        for event in finished():
            running -= 1
            finish(event)
    return trace


def _run_node(dag: TaskDag, node_id: str, degraded: list[str]) -> dict:
    """Run one node's payload in this process; returns its trace event."""
    node = dag.nodes[node_id]
    begin = time.monotonic()
    status, error = _run_payload(node, degraded)
    return {
        "node": node_id, "status": status, "error": error,
        "start": begin, "finish": time.monotonic(),
        "worker": multiprocessing.current_process().name, "degraded_inputs": degraded,
    }


def _serve(dag: TaskDag, conn: Connection) -> None:
    """Worker loop: run each (node id, degraded inputs) received until None."""
    for request in iter(conn.recv, None):
        conn.send(_run_node(dag, *request))


def _fork_worker(dag: TaskDag) -> tuple[Connection, multiprocessing.Process]:
    """Fork a worker that inherits ``dag``; returns this end of its pipe and
    the process.  Only the worker keeps the other end, so its death reads as
    EOF here."""
    conn, child_end = multiprocessing.Pipe()
    proc = multiprocessing.get_context("fork").Process(target=_serve, args=(dag, child_end))
    proc.start()
    child_end.close()
    return conn, proc


def _stop(conn: Connection, proc: multiprocessing.Process) -> None:
    """Tell a worker to stop, wait for it to exit and close its pipe."""
    with contextlib.suppress(ConnectionError):  # it may have died already
        conn.send(None)
    proc.join()
    conn.close()


def execute(dag: TaskDag, workers: int = 1) -> list[dict]:
    """Run every node payload with ``workers`` at a time; returns the
    execution trace with monotonic-clock start/finish times.

    More than one worker forks ``min(workers, len(dag.nodes))`` workers
    once.  Each gets a node id and its degraded inputs down its pipe, runs
    the payload and sends back the trace event, whose ``worker`` is its
    process name; this process waits on the pipes of the busy workers.  One
    worker, or a DAG of one node, runs the payloads inline.

    A worker that dies (a crash, ``os._exit``, the OOM killer) reads as EOF
    on its pipe.  Only its node fails, with an error that names the worker,
    its pid and its exit code; a new worker is forked in its place and the
    other running nodes carry on.  Every worker is stopped and joined before
    this returns or raises.
    """
    size = min(workers, len(dag.nodes))
    if size <= 1:  # at most one node runs at a time, so one event is pending
        events: list[dict] = []
        return _schedule(
            dag, workers,
            lambda node, degraded: events.append(_run_node(dag, node.id, degraded)),
            lambda: [events.pop()], time.monotonic,
        )

    procs: dict[Connection, multiprocessing.Process] = {}
    idle: list[Connection] = []
    busy: dict = {}  # connection -> (node id, degraded inputs, start time)

    def fork() -> None:
        conn, proc = _fork_worker(dag)
        procs[conn] = proc
        idle.append(conn)

    def start(node: TaskNode, degraded: list[str]) -> None:
        conn = idle.pop()
        with contextlib.suppress(ConnectionError):  # died idle: finished() reads EOF
            conn.send((node.id, degraded))
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


def execute_simulated(
    dag: TaskDag, workers: int, durations: dict[str, float] | float = 1.0
) -> list[dict]:
    """Inline executor on a virtual clock, for tests.

    Payloads run one at a time in the calling process as their nodes are
    claimed; each node then occupies the lowest-numbered idle virtual worker
    for its duration (``durations[node]``, default 1.0, or one number for
    all), and the trace carries virtual start/finish times.  Scheduling,
    skip and degrade follow :func:`execute`.
    """
    clock = 0.0
    idle = list(range(workers))
    running: list = []  # (finish, claim number, worker, event)
    claims = itertools.count()

    def start(node: TaskNode, degraded: list[str]) -> None:
        status, error = _run_payload(node, degraded)
        span = durations.get(node.id, 1.0) if isinstance(durations, dict) else durations
        worker = heapq.heappop(idle)
        event = {
            "node": node.id, "status": status, "error": error,
            "start": clock, "finish": clock + float(span),
            "worker": f"sim-{worker}", "degraded_inputs": degraded,
        }
        heapq.heappush(running, (event["finish"], next(claims), worker, event))

    def finished() -> list[dict]:
        nonlocal clock
        clock, _, worker, event = heapq.heappop(running)
        heapq.heappush(idle, worker)
        return [event]

    return _schedule(dag, workers, start, finished, lambda: clock)


# ---------------------------------------------------------------------------
# DAGMan export
# ---------------------------------------------------------------------------


def export_dagman(
    dag: TaskDag, submit_prefix: str = "submit", cli_args: str = ""
) -> tuple[str, dict[str, str]]:
    """DAGMan description plus stub submit files, one per node.

    Returns (dag file text, {submit path: submit text}).  One JOB line per
    node and one PARENT line per node with children reproduce the edge set
    exactly.
    """
    order = dag.topological_order()
    lines = []
    submits: dict[str, str] = {}
    for nid in order:
        sub_path = f"{submit_prefix}/{nid}.sub"
        lines.append(f"JOB {nid} {sub_path}")
        submits[sub_path] = (
            "universe = vanilla\n"
            "executable = /usr/bin/env\n"
            f'arguments = "qdrive run {cli_args} --single-task {nid}"\n'
            f"output = logs/{nid}.out\n"
            f"error = logs/{nid}.err\n"
            "log = logs/batch.log\n"
            "queue\n"
        )
    for nid in order:
        children = dag.children[nid]
        if children:
            ordered = [c for c in order if c in set(children)]
            lines.append(f"PARENT {nid} CHILD {' '.join(ordered)}")
    return "\n".join(lines) + "\n", submits
