"""AsyncBeliefClient: gather-pipelining, cancellation, failure drains.

Everything runs against the pipelined :class:`AsyncBeliefServer`, where
in-flight requests genuinely complete out of order — the futures-by-id
correlation in the client is what keeps ``asyncio.gather`` results aligned
with their calls.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.bdms.bdms import BeliefDBMS
from repro.core.schema import sightings_schema
from repro.errors import BeliefDBError, RejectedUpdateError
from repro.server import AsyncBeliefClient, AsyncBeliefServer
from repro.server.client import ConnectionLost

INSERT = "insert into Sightings values (?,?,?,?,?)"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def server():
    with AsyncBeliefServer(BeliefDBMS(sightings_schema(), strict=False)) as srv:
        yield srv


def test_gather_pipelines_and_correlates(server):
    async def main():
        async with await AsyncBeliefClient.connect(*server.address) as client:
            for i in range(8):
                await client.execute_prepared(
                    INSERT, [f"s{i}", "Carol", f"sp{i}", "d", "l"]
                )
            payloads = await asyncio.gather(*[
                client.execute_prepared(
                    "select S.species from Sightings as S where S.sid = ?",
                    [f"s{i}"],
                )
                for i in range(8)
            ])
            for i, payload in enumerate(payloads):
                assert payload["rows"] == [[f"sp{i}"]]
            assert client.inflight == 0

    run(main())


def test_session_ops_and_errors(server):
    async def main():
        async with await AsyncBeliefClient.connect(*server.address) as client:
            assert await client.ping()
            info = await client.login("Carol", create=True)
            assert info["user_name"] == "Carol"
            assert (await client.whoami())["user_name"] == "Carol"
            inserted = await client.execute_prepared(
                INSERT, ["s1", "Carol", "crow", "d", "l"]
            )
            assert inserted["rowcount"] == 1
            assert await client.believes(
                "Sightings", ["s1", "Carol", "crow", "d", "l"],
                path=["Carol"],
            )
            with pytest.raises(BeliefDBError):
                await client.execute_prepared("select nonsense from Nowhere")

    run(main())


def test_strict_rejection_maps_to_typed_error():
    db = BeliefDBMS(sightings_schema(), strict=True)
    with AsyncBeliefServer(db) as server:
        async def main():
            async with await AsyncBeliefClient.connect(
                *server.address
            ) as client:
                await client.login("Carol", create=True)
                inserted = await client.execute_prepared(
                    INSERT, ["s1", "Carol", "crow", "d", "l"]
                )
                assert inserted["rowcount"] == 1
                with pytest.raises(RejectedUpdateError):
                    await client.execute_prepared(
                        INSERT, ["s1", "Carol", "crow", "d", "l"]
                    )

        run(main())


def test_cancellation_mid_pipeline_keeps_correlation(server):
    """Cancelling one in-flight call must not desynchronize the stream:
    the cancelled id's response is discarded when it arrives, and every
    other call — concurrent or later — still resolves correctly."""
    async def main():
        async with await AsyncBeliefClient.connect(*server.address) as client:
            for i in range(6):
                await client.execute_prepared(
                    INSERT, [f"s{i}", "Carol", f"sp{i}", "d", "l"]
                )
            tasks = [
                asyncio.ensure_future(client.execute_prepared(
                    "select S.species from Sightings as S where S.sid = ?",
                    [f"s{i}"],
                ))
                for i in range(6)
            ]
            # Let every call put its request on the wire before cancelling,
            # so the cancelled ids are genuinely in flight server-side.
            while client.inflight < 6:
                await asyncio.sleep(0)
            tasks[2].cancel()
            tasks[4].cancel()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            for i, result in enumerate(results):
                if i in (2, 4):
                    assert isinstance(result, asyncio.CancelledError)
                else:
                    assert result["rows"] == [[f"sp{i}"]]
            # The connection survived the cancellations: later calls work
            # and correlate (their ids postdate the discarded ones).
            payload = await client.execute_prepared(
                "select S.species from Sightings as S where S.sid = ?",
                ["s5"],
            )
            assert payload["rows"] == [["sp5"]]

    run(main())


def test_server_death_fails_all_pending_calls():
    db = BeliefDBMS(sightings_schema(), strict=False)
    server = AsyncBeliefServer(db).start()

    async def main():
        client = await AsyncBeliefClient.connect(*server.address)
        try:
            assert await client.ping()
            # Stop the server from the loop's executor so the event loop
            # stays free to notice the dying connection.
            await asyncio.get_running_loop().run_in_executor(
                None, server.stop
            )
            with pytest.raises((ConnectionLost, BeliefDBError)):
                for _ in range(3):
                    await client.call("ping")
            assert client.closed or client.inflight == 0
            with pytest.raises(ConnectionLost, match="closed"):
                await client.call("ping")
        finally:
            await client.close()

    try:
        run(main())
    finally:
        server.stop()


def test_close_is_idempotent_and_fails_later_calls(server):
    async def main():
        client = await AsyncBeliefClient.connect(*server.address)
        assert await client.ping()
        await client.close()
        await client.close()
        with pytest.raises(ConnectionLost, match="closed"):
            await client.call("ping")

    run(main())


def test_execute_batch_async(server):
    async def main():
        async with await AsyncBeliefClient.connect(*server.address) as client:
            await client.login("Carol", create=True)
            payload = await client.execute_batch(
                "insert into Sightings values (?,?,?,?,?)",
                [[f"b{i}", "Carol", "crow", "d", "l"] for i in range(9)],
                chunk_rows=4,
            )
            assert payload["rowcount"] == 9
            assert payload["status"] == "INSERT 9"
            stats = await client.stats()
            assert stats["annotations"] > 0

    run(main())


def test_max_inflight_window_bounds_pipeline(server):
    async def main():
        async with await AsyncBeliefClient.connect(
            *server.address, max_inflight=2
        ) as client:
            results = await asyncio.gather(*[
                client.ping() for _ in range(10)
            ])
            assert all(results)

    run(main())
