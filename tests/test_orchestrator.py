import multiprocessing
import os
import sys
import time
import warnings

import pytest

from qdrive import orchestrator
from qdrive.orchestrator import (
    TaskDag,
    TaskNode,
    build_dag,
    execute,
    execute_simulated,
    export_dagman,
    node_id,
)


def parse_dagman(text: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Jobs and (parent, child) edges of a DAGMan description."""
    jobs: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "JOB":
            jobs.add(parts[1])
        elif parts[0] == "PARENT":
            split = parts.index("CHILD")
            for parent in parts[1:split]:
                for child in parts[split + 1 :]:
                    edges.add((parent, child))
    return jobs, edges


def interval(trace, node):
    event = next(e for e in trace if e["node"] == node)
    return event["start"], event["finish"]


def status_of(trace, node):
    return next(e for e in trace if e["node"] == node)["status"]


class TestBuildDag:
    def test_single_run_counts(self):
        dag = build_dag({"even": 3}, 1, parities=("even",))
        assert len(dag.nodes) == 8  # 3 + 3 + pool + sort

    def test_batch_counts_two_parities(self):
        dag = build_dag({"even": 3, "odd": 3}, 8, parities=("even", "odd"))
        assert len(dag.nodes) == 2 * (8 * 7) + 2

    def test_single_state_root(self):
        dag = build_dag({"even": 1}, 1, parities=("even",))
        roots = [nid for nid, ps in dag.parents.items() if not ps]
        assert roots == [node_id("even", 0, "hermitian", 1)]

    def test_edge_pattern(self):
        dag = build_dag({"even": 2}, 1, parities=("even",))
        edges = dag.edges()
        assert (node_id("even", 0, "hermitian", 1), node_id("even", 0, "hermitian", 2)) in edges
        assert (node_id("even", 0, "hermitian", 1), node_id("even", 0, "nonhermitian", 1)) in edges
        assert (node_id("even", 0, "nonhermitian", 2), node_id("even", 0, "pool")) in edges
        assert (node_id("even", 0, "pool"), node_id("even", 0, "sort")) in edges

    def test_cycle_detection(self):
        dag = TaskDag()
        dag.add_node(TaskNode(id="a", kind="pool", parity="even", run=0, index=0))
        dag.add_node(TaskNode(id="b", kind="pool", parity="even", run=0, index=1))
        dag.add_edge("a", "b")
        dag.add_edge("b", "a")
        with pytest.raises(ValueError, match="cycle"):
            dag.topological_order()


class TestExecute:
    def test_single_worker_is_topological(self):
        dag = build_dag({"even": 3}, 2, parities=("even",))
        seen = []

        def payload(node, degraded):
            seen.append(node.id)

        for node in dag.nodes.values():
            node.payload = payload
        trace = execute(dag, workers=1)
        position = {nid: seen.index(nid) for nid in seen}
        for parent, child in dag.edges():
            assert position[parent] < position[child]
        assert all(e["status"] == "done" for e in trace)

    def test_edges_respected_in_time(self):
        dag = build_dag({"even": 2}, 2, parities=("even",))

        def payload(node, degraded):
            time.sleep(0.005)

        for node in dag.nodes.values():
            node.payload = payload
        trace = execute(dag, workers=4)
        for parent, child in dag.edges():
            assert interval(trace, parent)[1] <= interval(trace, child)[0] + 1e-9

    def test_nonhermitian_overlaps_next_hermitian(self):
        dag = build_dag({"even": 3}, 1, parities=("even",))

        def payload(node, degraded):
            time.sleep(0.05)

        for node in dag.nodes.values():
            node.payload = payload
        trace = execute(dag, workers=2)
        n1 = interval(trace, node_id("even", 0, "nonhermitian", 1))
        h2 = interval(trace, node_id("even", 0, "hermitian", 2))
        assert n1[0] < h2[1] and h2[0] < n1[1]

    def test_one_worker_runs_payloads_in_sort_key_order(self):
        orders = []
        for executor in (execute, execute_simulated):
            dag = build_dag({"even": 2, "odd": 1}, 2, parities=("even", "odd"))
            seen = []

            def payload(node, degraded):
                seen.append(node.id)

            for node in dag.nodes.values():
                node.payload = payload
            executor(dag, workers=1)
            orders.append(seen)
        assert orders[0] == orders[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_workers_run_in_child_processes(self, workers, tmp_path):
        dag = build_dag({"even": 2}, 2, parities=("even",))

        def payload(node, degraded):
            (tmp_path / node.id).write_text(str(os.getpid()))

        for node in dag.nodes.values():
            node.payload = payload
        trace = execute(dag, workers=workers)
        assert all(e["status"] == "done" for e in trace)
        pids = {int((tmp_path / nid).read_text()) for nid in dag.nodes}
        if workers == 1:
            assert pids == {os.getpid()}
        else:
            assert os.getpid() not in pids

    def test_workers_never_outnumber_the_nodes(self, monkeypatch):
        dag = build_dag({"even": 2}, 2, parities=("even",))
        real, forks = orchestrator._fork_worker, []

        def counted(*args):
            forks.append(args)
            if len(forks) > len(dag.nodes):  # a broken cap stops here, not at 10**6
                raise RuntimeError("forked more workers than there are nodes")
            return real(*args)

        monkeypatch.setattr(orchestrator, "_fork_worker", counted)
        trace = execute(dag, workers=10**6)
        assert len(forks) == len(dag.nodes)
        assert len(trace) == len(dag.nodes)
        assert all(e["status"] == "done" for e in trace)

    def test_dead_worker_fails_its_node_not_the_run(self, tmp_path):
        # run 0's n1 dies while run 1's n1 runs in the other worker; that
        # sibling, its pool node and the sort node carry on
        dag = build_dag({"even": 1}, 2, parities=("even",))
        dying = node_id("even", 0, "nonhermitian", 1)
        sibling = node_id("even", 1, "nonhermitian", 1)

        def payload(node, degraded):
            (tmp_path / node.id).write_text(str(os.getpid()))
            if node.id == sibling:
                time.sleep(0.5)
            if node.id == dying:
                deadline = time.monotonic() + 60
                while not (tmp_path / sibling).exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(1)

        for node in dag.nodes.values():
            node.payload = payload
        trace = execute(dag, workers=2)
        assert len(trace) == len(dag.nodes)
        event = next(e for e in trace if e["node"] == dying)
        dead_pid = int((tmp_path / dying).read_text())
        assert event["status"] == "failed"
        assert event["error"] == (
            f"worker {event['worker']} (pid {dead_pid}) died with exit code 1"
        )
        assert status_of(trace, node_id("even", 0, "pool")) == "skipped"
        for nid in ["even_r0_h1", "even_r1_h1", sibling, "even_r1_pool"]:
            assert status_of(trace, nid) == "done"
        sort = next(e for e in trace if e["node"] == node_id("even", 0, "sort"))
        assert sort["status"] == "done"
        assert sort["degraded_inputs"] == [node_id("even", 0, "pool")]
        assert int((tmp_path / sort["node"]).read_text()) != dead_pid

    @pytest.mark.parametrize("ending", ["returns", "raises", "exits"])
    def test_no_worker_or_pipe_outlives_execute(self, ending, monkeypatch):
        unraisable = []  # a warning raised in __del__ reaches only this hook
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        dag = build_dag({"even": 2}, 2, parities=("even",))

        def payload(node, degraded):
            if node.id == node_id("even", 1, "hermitian", 1):
                if ending == "raises":
                    raise RuntimeError("injected")
                if ending == "exits":
                    os._exit(1)

        for node in dag.nodes.values():
            node.payload = payload
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            trace = execute(dag, workers=2)
        assert multiprocessing.active_children() == []
        assert unraisable == []
        failed = {e["node"] for e in trace if e["status"] == "failed"}
        assert failed == (set() if ending == "returns" else {node_id("even", 1, "hermitian", 1)})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trace_events_share_one_schema(self, workers):
        # h2 raises, so n2, h3 and n3 are skipped; with forked workers n1 dies
        dag = build_dag({"even": 3}, 1, parities=("even",))

        def payload(node, degraded):
            if node.id == node_id("even", 0, "hermitian", 2):
                raise RuntimeError("injected")
            if workers > 1 and node.id == node_id("even", 0, "nonhermitian", 1):
                os._exit(1)

        for node in dag.nodes.values():
            node.payload = payload
        trace = execute(dag, workers=workers)
        assert {e["status"] for e in trace} == {"done", "failed", "skipped"}
        for event in trace:
            assert set(event) == {
                "node", "status", "error", "start", "finish", "worker", "degraded_inputs",
            }
        if workers > 1:
            dead = next(e for e in trace if e["node"] == node_id("even", 0, "nonhermitian", 1))
            assert "died with exit code 1" in dead["error"]

    @pytest.mark.parametrize("executor", [execute, execute_simulated])
    def test_failure_skips_descendants_but_pool_degrades(self, executor):
        dag = build_dag({"even": 3}, 1, parities=("even",))

        def payload(node, degraded):
            if node.id == node_id("even", 0, "hermitian", 2):
                raise RuntimeError("injected")

        for node in dag.nodes.values():
            node.payload = payload
        trace = executor(dag, workers=2)
        assert status_of(trace, node_id("even", 0, "hermitian", 2)) == "failed"
        for skipped in ["hermitian", "nonhermitian"]:
            assert status_of(trace, node_id("even", 0, skipped, 3)) == "skipped"
        assert status_of(trace, node_id("even", 0, "nonhermitian", 2)) == "skipped"
        assert status_of(trace, node_id("even", 0, "nonhermitian", 1)) == "done"
        pool_event = next(e for e in trace if e["node"] == node_id("even", 0, "pool"))
        assert pool_event["status"] == "done"
        assert pool_event["degraded_inputs"]

    @pytest.mark.parametrize("executor", [execute, execute_simulated])
    def test_all_parents_failed_skips_gather(self, executor):
        dag = build_dag({"even": 1}, 1, parities=("even",))

        def payload(node, degraded):
            if node.kind == "hermitian":
                raise RuntimeError("boom")

        for node in dag.nodes.values():
            node.payload = payload
        trace = executor(dag, workers=1)
        assert status_of(trace, node_id("even", 0, "pool")) == "skipped"
        assert status_of(trace, node_id("even", 0, "sort")) == "skipped"


class TestSimulatedClock:
    def test_work_conservation(self):
        dag = build_dag({"even": 3}, 4, parities=("even",))
        trace = execute_simulated(dag, workers=3, durations=1.0)
        events = sorted(trace, key=lambda e: e["start"])
        # at every claim instant, no task that was ready could have started
        # earlier on an idle worker: reconstruct busy intervals per worker
        for event in events:
            earlier = [
                e for e in events
                if e["worker"] == event["worker"] and e["finish"] <= event["start"]
            ]
            busy_until = max((e["finish"] for e in earlier), default=0.0)
            parents_done = max(
                (interval(trace, p)[1] for p in dag.parents[event["node"]]),
                default=0.0,
            )
            assert event["start"] <= max(busy_until, parents_done) + 1e-9

    def test_parallel_speedup_from_stage_overlap(self):
        dag1 = build_dag({"even": 3}, 1, parities=("even",))
        serial = execute_simulated(dag1, workers=1, durations=1.0)
        dag2 = build_dag({"even": 3}, 1, parities=("even",))
        parallel = execute_simulated(dag2, workers=2, durations=1.0)
        makespan_1 = max(e["finish"] for e in serial)
        makespan_2 = max(e["finish"] for e in parallel)
        n = 3
        assert makespan_1 == pytest.approx(2 * n + 2)
        assert makespan_2 <= (n + 3) / (2 * n + 2) * makespan_1 + 1e-9

    def test_deterministic_tie_breaking(self):
        traces = []
        for _ in range(2):
            dag = build_dag({"even": 2, "odd": 2}, 2, parities=("even", "odd"))
            traces.append(execute_simulated(dag, workers=3, durations=1.0))
        assert traces[0] == traces[1]


class TestDagmanExport:
    def test_single_run_line_counts(self):
        dag = build_dag({"even": 1}, 1, parities=("even",))
        text, submits = export_dagman(dag)
        job_lines = [l for l in text.splitlines() if l.startswith("JOB ")]
        parent_lines = [l for l in text.splitlines() if l.startswith("PARENT ")]
        # h1, n1, pool, sort -> 4 jobs chained by 3 parent lines
        assert len(job_lines) == 4
        assert len(parent_lines) == 3
        assert len(submits) == 4

    def test_roundtrip_edge_set(self):
        dag = build_dag({"even": 3, "odd": 2}, 3, parities=("even", "odd"))
        text, _ = export_dagman(dag)
        jobs, edges = parse_dagman(text)
        assert jobs == set(dag.nodes)
        assert edges == dag.edges()

    def test_disabled_channel_absent(self):
        dag = build_dag({"even": 2}, 2, parities=("even",))
        text, _ = export_dagman(dag)
        assert "odd" not in text

    def test_submit_stubs_invoke_single_task_mode(self):
        dag = build_dag({"even": 1}, 1, parities=("even",))
        _, submits = export_dagman(dag, cli_args="--config config.frozen.json")
        sample = next(iter(submits.values()))
        assert "--single-task" in sample
        assert "qdrive run" in sample
