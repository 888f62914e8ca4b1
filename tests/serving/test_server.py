"""The asyncio HTTP endpoint and the micro-batcher."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro import obs
from repro.core.condenser import FreeHGC
from repro.datasets import load_acm
from repro.errors import ServingError
from repro.models.hetero_sgc import HeteroSGC
from repro.serving import MicroBatcher, ServingController, ServingServer
from repro.serving.client import HttpClient, request
from repro.streaming import GraphDelta


@pytest.fixture(scope="module")
def controller():
    graph = load_acm(scale=0.15, seed=0)
    factory = lambda: HeteroSGC(hidden_dim=16, epochs=25, max_hops=2, seed=0)
    controller = ServingController(
        graph,
        factory,
        model_name="heterosgc",
        ratio=0.3,
        condenser=FreeHGC(max_hops=2),
        seed=0,
        cache_size=256,
    )
    controller.start()
    return controller


async def http(host, port, method, path, payload=None):
    response = await request(host, port, method, path, payload)
    return response.status, response.json()


def run_with_server(controller, coroutine_factory):
    async def runner():
        server = ServingServer(controller, port=0)
        host, port = await server.start()
        try:
            return await coroutine_factory(server, host, port)
        finally:
            await server.close()

    return asyncio.run(runner())


class TestEndpoints:
    def test_healthz(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/healthz")

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["version"] == controller.version

    def test_predict_matches_session(self, controller):
        ids = [0, 5, 17, 3]

        async def scenario(server, host, port):
            return await http(host, port, "POST", "/predict", {"nodes": ids})

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        expected = controller.session.predict(np.asarray(ids))
        assert payload["labels"] == expected.tolist()
        assert payload["version"] == controller.version
        assert payload["latency_ms"] >= 0

    def test_concurrent_predicts_are_coalesced(self, controller):
        async def scenario(server, host, port):
            results = await asyncio.gather(
                *(
                    http(host, port, "POST", "/predict", {"nodes": [i, i + 1]})
                    for i in range(20)
                )
            )
            return results, server.batcher.stats

        results, batcher = run_with_server(controller, scenario)
        for i, (status, payload) in enumerate(results):
            assert status == 200
            expected = controller.session.predict(np.asarray([i, i + 1]))
            assert payload["labels"] == expected.tolist()
        # at least some coalescing must have happened
        assert batcher["batches"] < batcher["requests"]

    def test_delta_endpoint_swaps(self, controller):
        graph = controller.graph
        coo = graph.adjacency["paper-term"].tocoo()
        delta = GraphDelta(
            remove_edges={"paper-term": (coo.row[:2], coo.col[:2])}, step=9
        )
        before = controller.version

        async def scenario(server, host, port):
            status, swap = await http(host, port, "POST", "/delta", delta.to_payload())
            predict = await http(host, port, "POST", "/predict", {"nodes": [0, 1]})
            return status, swap, predict

        status, swap, (p_status, p_payload) = run_with_server(controller, scenario)
        assert status == 200
        assert swap["version"] == before + 1
        assert swap["step"] == 9
        assert p_status == 200 and p_payload["version"] == before + 1

    def test_stats_endpoint(self, controller):
        async def scenario(server, host, port):
            await http(host, port, "POST", "/predict", {"nodes": [1, 2, 3]})
            return await http(host, port, "GET", "/stats")

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        assert payload["session"]["version"] == controller.version
        assert payload["latency"]["count"] >= 1
        assert payload["batcher"]["requests"] >= 1

    def test_unknown_route_404(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/nope")

        status, payload = run_with_server(controller, scenario)
        assert status == 404 and "error" in payload

    def test_bad_json_400(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "POST", "/predict", b"{not json")

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_out_of_range_node_400(self, controller):
        async def scenario(server, host, port):
            return await http(
                host, port, "POST", "/predict", {"nodes": [10**7]}
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_bad_request_does_not_poison_batch_mates(self, controller):
        """A request with an invalid id coalesced into the same micro-batch
        window as valid requests must fail alone."""

        async def scenario(server, host, port):
            return await asyncio.gather(
                http(host, port, "POST", "/predict", {"nodes": [0, 1]}),
                http(host, port, "POST", "/predict", {"nodes": [10**7]}),
                http(host, port, "POST", "/predict", {"nodes": [2]}),
            )

        (ok1, p1), (bad, pbad), (ok2, p2) = run_with_server(controller, scenario)
        assert bad == 400 and "error" in pbad
        assert ok1 == 200 and ok2 == 200
        assert p1["labels"] == controller.session.predict(np.array([0, 1])).tolist()
        assert p2["labels"] == controller.session.predict(np.array([2])).tolist()

    def test_empty_nodes_400(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "POST", "/predict", {"nodes": []})

        status, _ = run_with_server(controller, scenario)
        assert status == 400

    def test_keep_alive_multiple_requests_one_connection(self, controller, monkeypatch):
        connections = []
        handle_connection = ServingServer._handle_connection

        async def counting_handler(self, reader, writer):
            connections.append(writer)
            await handle_connection(self, reader, writer)

        monkeypatch.setattr(ServingServer, "_handle_connection", counting_handler)

        async def scenario(server, host, port):
            async with HttpClient(host, port) as client:
                return [(await client.request("POST", "/predict", {"nodes": [0]})).status
                        for _ in range(3)]

        statuses = run_with_server(controller, scenario)
        assert statuses == [200, 200, 200]
        assert len(connections) == 1


class RecordingSession:
    """A session stand-in that records the ids of every predict call."""

    def __init__(self, session, on_predict=None):
        self.session = session
        self.version = session.version
        self.calls = []
        self.on_predict = on_predict

    def predict(self, ids):
        self.calls.append(ids.tolist())
        if self.on_predict is not None:
            self.on_predict(len(self.calls))
        return self.session.predict(ids)


class TestMicroBatcherUnit:
    def test_splits_batch_results_correctly(self, controller):
        session = controller.session

        async def scenario():
            batcher = MicroBatcher(lambda: session, max_batch=64)
            batcher.start()
            try:
                results = await asyncio.gather(
                    batcher.submit(np.array([0, 1, 2])),
                    batcher.submit(np.array([3])),
                    batcher.submit(np.array([4, 5])),
                )
            finally:
                await batcher.stop()
            return results, batcher.stats

        results, stats = asyncio.run(scenario())
        assert stats["batches"] == 1 and stats["requests"] == 3
        flat = np.concatenate([labels for labels, _, _ in results])
        expected = session.predict(np.arange(6))
        assert np.array_equal(flat, expected)
        # untraced: no batch span to link
        assert all(batch is None for _, _, batch in results)

    def test_a_submit_one_loop_turn_behind_shares_the_batch(self, controller):
        session = RecordingSession(controller.session)

        async def scenario():
            batcher = MicroBatcher(lambda: session)
            batcher.start()

            async def one_turn_late():
                await asyncio.sleep(0)
                return await batcher.submit(np.array([8]))

            try:
                await asyncio.gather(batcher.submit(np.array([7])), one_turn_late())
            finally:
                await batcher.stop()

        asyncio.run(scenario())
        assert session.calls == [[7, 8]]

    def test_lone_submit_arms_no_timer(self, controller):
        session = controller.session

        def no_timers(*args, **kwargs):
            raise AssertionError("the batcher armed a timer")

        async def scenario():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(lambda: session)
            batcher.start()
            loop.call_later = loop.call_at = no_timers
            try:
                pending = asyncio.ensure_future(batcher.submit(np.array([7])))
                # no timeout (it would arm a timer): a drain loop killed by
                # no_timers ends the wait instead
                await asyncio.wait(
                    {pending, batcher._task}, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                del loop.call_later, loop.call_at
            assert pending.done(), "the lone submit was not answered"
            await batcher.stop()
            labels, version, _ = pending.result()
            return labels, version

        labels, version = asyncio.run(scenario())
        assert labels.tolist() == session.predict(np.array([7])).tolist()
        assert version == session.version

    def test_submits_during_a_batch_ride_the_next_one(self, controller):
        later = {}

        def submit_more(call):
            # runs while the first batch computes: these callers enqueue
            # behind it and must be answered together afterwards
            if call == 1:
                later["tasks"] = [
                    asyncio.ensure_future(batcher.submit(np.array(ids)))
                    for ids in ([10, 11], [12], [13, 14, 15])
                ]

        session = RecordingSession(controller.session, submit_more)
        batcher = MicroBatcher(lambda: session)

        async def scenario():
            batcher.start()
            try:
                first = await batcher.submit(np.array([1]))
                rest = await asyncio.gather(*later["tasks"])
            finally:
                await batcher.stop()
            return first, rest

        first, rest = asyncio.run(scenario())
        assert session.calls == [[1], [10, 11, 12, 13, 14, 15]]
        assert batcher.stats["batches"] == 2
        assert first[0].tolist() == controller.session.predict(np.array([1])).tolist()
        for ids, (labels, _, _) in zip(([10, 11], [12], [13, 14, 15]), rest):
            assert labels.tolist() == controller.session.predict(np.array(ids)).tolist()

    @pytest.mark.parametrize("turns", [1, 2])
    def test_stop_fails_pending_submits_promptly(self, controller, turns):
        session = RecordingSession(controller.session)

        async def scenario():
            batcher = MicroBatcher(lambda: session)
            batcher.start()
            pending = [
                asyncio.ensure_future(batcher.submit(np.array([i]))) for i in range(3)
            ]
            # one turn: the drain loop is parked; two: it is yielding
            # before it takes the batch
            for _ in range(turns):
                await asyncio.sleep(0)
            await batcher.stop()
            outcomes = await asyncio.wait_for(
                asyncio.gather(*pending, return_exceptions=True), 1.0
            )
            with pytest.raises(ServingError):
                await batcher.submit(np.array([0]))
            return outcomes

        outcomes = asyncio.run(scenario())
        assert session.calls == []
        assert all(isinstance(outcome, ServingError) for outcome in outcomes)

    def test_errors_propagate_to_submitters(self, controller):
        async def scenario():
            batcher = MicroBatcher(lambda: controller.session)
            batcher.start()
            try:
                with pytest.raises(Exception):
                    await batcher.submit(np.array([10**8]))  # out of range
            finally:
                await batcher.stop()

        asyncio.run(scenario())


async def raw_request(host, port, head: bytes, body: bytes = b"") -> tuple[int, dict]:
    """Send hand-crafted HTTP bytes; returns (status, decoded json body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(head + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head_bytes, _, response_body = raw.partition(b"\r\n\r\n")
    return int(head_bytes.split(b" ", 2)[1]), json.loads(response_body or b"{}")


class TestRequestBounds:
    """The body-size and Content-Length robustness contract."""

    def test_oversized_declared_body_is_413(self, controller):
        async def scenario(server, host, port):
            server.max_body_bytes = 64
            return await http(host, port, "POST", "/predict", b"x" * 1000)

        status, payload = run_with_server(controller, scenario)
        assert status == 413 and "error" in payload

    def test_413_answers_before_reading_the_body(self, controller):
        """The bound is enforced on the *declaration*: the response arrives
        even though the promised body is never sent."""

        async def scenario(server, host, port):
            server.max_body_bytes = 64
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 99999999\r\n\r\n"  # body intentionally absent
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return int(raw.split(b" ", 2)[1])

        assert run_with_server(controller, scenario) == 413

    def test_malformed_content_length_is_400(self, controller):
        async def scenario(server, host, port):
            return await raw_request(
                host, port,
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: banana\r\nConnection: close\r\n\r\n",
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_negative_content_length_is_400(self, controller):
        async def scenario(server, host, port):
            return await raw_request(
                host, port,
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -5\r\nConnection: close\r\n\r\n",
            )

        status, payload = run_with_server(controller, scenario)
        assert status == 400 and "error" in payload

    def test_connection_closes_after_bad_request(self, controller):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b"POST /predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: nope\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()  # EOF: server must close, not keep-alive
            writer.close()
            return raw

        raw = run_with_server(controller, scenario)
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"Connection: close" in raw

    def test_within_bound_body_still_served(self, controller):
        async def scenario(server, host, port):
            server.max_body_bytes = 4096
            return await http(host, port, "POST", "/predict", {"nodes": [0, 1]})

        status, payload = run_with_server(controller, scenario)
        assert status == 200 and len(payload["labels"]) == 2


class TestAdmissionAndMetrics:
    def test_predict_sheds_with_429_beyond_capacity(self, controller):
        async def scenario(server, host, port):
            server.admission.capacity = 1
            # hold admitted requests ahead of the batcher so later arrivals
            # stack up behind the single admitted slot
            release = asyncio.Event()
            submit = server.batcher.submit

            async def held_submit(ids):
                await release.wait()
                return await submit(ids)

            server.batcher.submit = held_submit
            requests = asyncio.gather(
                *(http(host, port, "POST", "/predict", {"nodes": [i]}) for i in range(12))
            )
            for _ in range(1000):
                if server.admission.stats["shed"] >= 11:
                    break
                await asyncio.sleep(0.01)
            release.set()
            results = await requests
            return results, server.admission.stats

        results, stats = run_with_server(controller, scenario)
        statuses = [status for status, _ in results]
        assert stats["shed"] >= 1 and 429 in statuses
        assert statuses.count(200) >= 1
        for status, payload in results:
            assert status in (200, 429)
            if status == 429:
                assert "error" in payload

    def test_metrics_endpoint_serves_prometheus_text(self, controller):
        async def scenario(server, host, port):
            await http(host, port, "POST", "/predict", {"nodes": [0]})
            return await request(host, port, "GET", "/metrics")

        response = run_with_server(controller, scenario)
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        page = response.body.decode()
        assert 'repro_requests_total{endpoint="predict"} 1' in page
        assert 'repro_replica_up{slot="0",role="coordinator"} 1' in page

    def test_stats_reports_admission(self, controller):
        async def scenario(server, host, port):
            return await http(host, port, "GET", "/stats")

        status, payload = run_with_server(controller, scenario)
        assert status == 200
        assert payload["admission"]["capacity"] == 0
        assert payload["admission"]["shed"] == 0


class TestTracedServer:
    def test_every_predict_span_names_its_batch_span(self, controller):
        async def scenario(server, host, port):
            return await asyncio.gather(
                *(http(host, port, "POST", "/predict", {"nodes": [i]}) for i in range(8))
            )

        with obs.tracing("t-batch-link") as tracer:
            results = run_with_server(controller, scenario)
        assert [status for status, _ in results] == [200] * 8
        spans = tracer.drain_spans()
        batches = {s.span_id for s in spans if s.name == "serve.batch_predict"}
        predicts = [s for s in spans if s.name == "serve.predict"]
        assert len(predicts) == 8
        assert all(s.attrs["batch"] in batches for s in predicts)
