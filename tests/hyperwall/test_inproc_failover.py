"""Failover on the in-process wall: no fork, no port, the same control node.

The in-process wall is the cluster's control node over inline links, so
the ``hyperwall.server.send`` / ``hyperwall.server.recv`` fault sites,
the three failover policies and ``request_renders`` work here exactly
as over sockets — and only here can a test look inside the cells
afterwards (``consistency_check``).  The matrix loses
client 0 on send and on recv at each stage of a session (workflow,
execute, event, render) under each policy: every cell ends ``live``,
``reassigned`` or ``degraded`` exactly once, or the call raises
``HyperwallError``.

The nodes share this process, so faults here ``drop`` (or ``raise``);
the ``exit`` action would kill the test runner and stays with
``LocalCluster`` (tests/hyperwall/test_failover.py).
"""

import pytest

from repro.hyperwall.display import WallGeometry
from repro.hyperwall.inproc import InProcessHyperwall
from repro.hyperwall.server import FAILOVER_POLICIES
from repro.resilience import RetryPolicy, faults
from repro.util.errors import HyperwallError
from repro.workflow.pipeline import Pipeline
from tests.conftest import build_cell_chain

WALL = WallGeometry(columns=3, rows=1, tile_width=48, tile_height=36)
STAGES = ("workflow", "execute", "event", "render")
SITES = ("hyperwall.server.send", "hyperwall.server.recv")

#: no backoff waits in tests
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def clean_registry():
    faults.disarm()
    yield
    faults.disarm()


def make_wall(registry, failover="reassign"):
    p = Pipeline(registry)
    for variable in ("ta", "zg", "ua"):  # three different pictures
        build_cell_chain(p, width=48, height=36, variable=variable)
    hw = InProcessHyperwall(p, WALL)
    hw.failover = failover
    hw.retry = FAST_RETRY
    return hw


def run_session(hw, site=None, stage=None):
    """One session, stage by stage, losing client 0 at *stage* on *site*.

    Returns what each stage returned.  A ``send`` fault can name the
    frame kind it waits for; ``recv`` carries no kind, so either fault
    is armed just before its stage runs.
    """
    stages = {
        "workflow": hw.distribute_workflows,
        "execute": hw.execute_all,
        "event": lambda: hw.broadcast_event("key", key="c"),
        "render": hw.request_renders,
    }
    out = {}
    for name, step in stages.items():
        if name == stage:
            match = {"client": 0}
            if site.endswith("send"):
                match["kind"] = stage
            faults.arm(site, "drop", match=match)
        out[name] = step()
    return out


@pytest.fixture(scope="module")
def undisturbed(registry):
    """``{cell_id: digest}`` of the final refresh on a wall that lost nobody."""
    renders = run_session(make_wall(registry))["render"]
    assert [r["status"] for r in renders] == ["live"] * 3
    assert len({r["image_digest"] for r in renders}) == 3
    return {r["cell_id"]: r["image_digest"] for r in renders}


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("site", SITES)
class TestLosingAClientAnywhere:
    def test_reassign_redraws_the_lost_cell_exactly(
        self, registry, undisturbed, site, stage
    ):
        hw = make_wall(registry, "reassign")
        lost_cell = hw.assignment[0]
        out = run_session(hw, site, stage)
        assert list(hw.dead_clients) == [0]
        for reports in (out["execute"]["clients"], out["render"]):
            assert sorted(r["cell_id"] for r in reports) == hw.cell_ids
        final = {r["cell_id"]: r for r in out["render"]}
        assert final[lost_cell]["status"] == "reassigned"
        assert final[lost_cell]["reassigned_to"] in (1, 2)
        assert [final[c]["status"] for c in hw.cell_ids if c != lost_cell] == [
            "live", "live",
        ]
        # the re-homed cell shows the picture the lost client would have:
        # executed, the session's event applied, at the tile's size
        assert {c: r["image_digest"] for c, r in final.items()} == undisturbed
        assert hw.consistency_check() == {c: True for c in hw.cell_ids}

    def test_degrade_serves_the_mirror(self, registry, undisturbed, site, stage):
        hw = make_wall(registry, "degrade")
        lost_cell = hw.assignment[0]
        out = run_session(hw, site, stage)
        assert list(hw.dead_clients) == [0]
        for reports in (out["execute"]["clients"], out["render"]):
            assert sorted(r["cell_id"] for r in reports) == hw.cell_ids
        final = {r["cell_id"]: r for r in out["render"]}
        assert final[lost_cell]["status"] == "degraded"
        assert final[lost_cell]["image_shape"] == [16, 16, 3]
        survivors = [c for c in hw.cell_ids if c != lost_cell]
        for cell_id in survivors:
            assert final[cell_id]["status"] == "live"
            assert final[cell_id]["image_digest"] == undisturbed[cell_id]
        check = hw.consistency_check()
        assert [check[c] for c in survivors] == [True, True]
        assert check[lost_cell] is False  # no live node holds it

    def test_fail_fast_raises(self, registry, site, stage):
        hw = make_wall(registry, "fail_fast")
        with pytest.raises(HyperwallError, match="client 0"):
            run_session(hw, site, stage)
        assert list(hw.dead_clients) == [0]


class TestEveryFrameNamesItsCell:
    """The reproduction: execute, one event, lose client 0 on the next
    refresh.  An un-addressed ``render`` used to land on the survivor's
    ``min(cells)`` — the neighbour's cell once it had been re-homed —
    and the re-homed cell never heard the session's events."""

    def test_one_report_per_cell_and_the_post_event_picture(self, registry):
        p = Pipeline(registry)
        for variable in ("ta", "zg"):
            build_cell_chain(p, width=48, height=36, variable=variable)
        tiles = WallGeometry(columns=2, rows=1, tile_width=48, tile_height=36)
        reference = InProcessHyperwall(p, tiles)
        reference.execute_all()
        reference.broadcast_event("key", key="c")
        expected = {
            r["cell_id"]: r["image_digest"] for r in reference.request_renders(48, 36)
        }

        hw = InProcessHyperwall(p, tiles)
        hw.execute_all()
        hw.broadcast_event("key", key="c")
        faults.arm(
            "hyperwall.server.send", "drop", match={"client": 0, "kind": "render"}
        )
        renders = hw.request_renders(48, 36)
        assert sorted((r["cell_id"], r["status"]) for r in renders) == [
            (3, "reassigned"), (7, "live"),
        ]
        assert {r["cell_id"]: r["image_digest"] for r in renders} == expected
        assert hw.consistency_check() == {3: True, 7: True}
        # and the standby keeps answering for both of its cells, by name
        again = hw.request_renders(48, 36)
        assert {r["cell_id"]: r["image_digest"] for r in again} == expected
        assert sorted(hw.nodes[1].cells) == [3, 7]

    def test_a_later_event_reaches_the_rehomed_cell_once(self, registry):
        hw, reference = make_wall(registry), make_wall(registry)
        hw.execute_all()
        faults.arm("hyperwall.server.recv", "drop", match={"client": 0})
        hw.request_renders()
        # client 1 now holds two cells and is told about each by name
        ack = hw.broadcast_event("key", key="t")
        assert {c: sorted(cells) for c, cells in ack["clients"].items()} == {
            1: [3, 7], 2: [11],
        }
        reference.execute_all()
        reference.broadcast_event("key", key="t")
        assert hw.consistency_check() == {3: True, 7: True, 11: True}
        assert {r["cell_id"]: r["image_digest"] for r in hw.request_renders()} == {
            r["cell_id"]: r["image_digest"] for r in reference.request_renders()
        }


class TestAnExecuteKeepsTheSession:
    """An execute of unchanged workflows returns the live cells, with the
    events they already received, so the event history runs from
    ``distribute_workflows``: a cell re-homed after the execute replays
    every event its neighbours hold."""

    def test_rehomed_after_an_execute_matches_an_intact_wall(self, registry, undisturbed):
        hw = make_wall(registry)
        hw.execute_all()
        hw.broadcast_event("key", key="c")
        executed = hw.execute_clients()
        assert {r["cell_id"]: r["image_digest"] for r in executed} == undisturbed
        faults.arm("hyperwall.server.send", "drop", match={"client": 0, "kind": "render"})
        renders = hw.request_renders()
        assert sorted((r["cell_id"], r["status"]) for r in renders) == [
            (3, "reassigned"), (7, "live"), (11, "live"),
        ]
        assert {r["cell_id"]: r["image_digest"] for r in renders} == undisturbed
        assert hw.consistency_check() == {3: True, 7: True, 11: True}

    def test_distribution_starts_the_session_over(self, registry):
        hw = make_wall(registry)
        hw.execute_all()
        hw.broadcast_event("key", key="c")
        mirror = dict(hw.mirror.cells)
        hw.distribute_workflows()
        assert hw.event_history == []
        assert hw.mirror.cells == {}
        assert all(node.cells == {} for node in hw.nodes)
        hw.execute_all()
        assert all(hw.mirror.cells[c] is not mirror[c] for c in hw.cell_ids)


class TestLostDuringDistribution:
    """A client that dies while its workflow is shipped is a lost client:
    marked dead, its cell recovered by the policy at the first execute."""

    @pytest.mark.parametrize("policy", FAILOVER_POLICIES)
    def test_marked_dead_and_recovered_by_policy(self, registry, policy):
        hw = make_wall(registry, policy)
        faults.arm(
            "hyperwall.server.send", "drop", match={"client": 1, "kind": "workflow"}
        )
        assert hw.distribute_workflows() == {0: 3, 1: 7, 2: 11}
        assert hw.dead_clients == {1: "injected connection drop on send"}
        if policy == "fail_fast":
            with pytest.raises(HyperwallError, match="client 1 disconnected"):
                hw.execute_clients()
            return
        status = {r["cell_id"]: r["status"] for r in hw.execute_clients()}
        recovered = "reassigned" if policy == "reassign" else "degraded"
        assert status == {3: "live", 7: recovered, 11: "live"}


class TestNodeFaults:
    def test_a_failing_execute_is_an_application_error(self, registry):
        """``raise`` inside a node is reported, not recovered: failover
        covers lost nodes, not broken workflows."""
        hw = make_wall(registry)
        faults.arm("hyperwall.client.execute", "raise", match={"client": 2})
        with pytest.raises(HyperwallError, match="client 2 failed"):
            hw.execute_clients()
        assert hw.dead_clients == {}

    def test_a_corrupt_frame_hangs_the_link_up(self, registry):
        """``protocol.send`` reaches inline frames too: the node cannot
        read a frame whose digest is wrong and goes dark, like a client
        whose loop ends."""
        hw = make_wall(registry)
        faults.arm("protocol.send", "corrupt", match={"kind": "execute"})
        status = {r["cell_id"]: r["status"] for r in hw.execute_clients()}
        assert status == {3: "reassigned", 7: "live", 11: "live"}
        assert hw.dead_clients == {0: "connection closed"}
