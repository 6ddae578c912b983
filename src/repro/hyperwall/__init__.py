"""Distributed visualization for the hyperwall (§III.H).

The paper's deployment: a 5×3 array of displays, each backed by a
client node, plus one control (server) node.  "At execution time the
server instance sends edited versions of the workflow to each client
node for local execution.  Each client workflow consists of one of the
cell modules (and all its upstream modules) from the server workflow.
The server instance executes a reduced resolution instance of the full
(15-cell) workflow, whereas each client instance executes a full
resolution 1-cell sub-workflow. ... All interactive navigation and
configuration operations ... are propagated to the corresponding
client display cells."

* :mod:`repro.hyperwall.display` — wall tile geometry;
* :mod:`repro.hyperwall.partition` — per-cell sub-workflow extraction
  and server-side resolution reduction;
* :mod:`repro.hyperwall.protocol` — the message kinds, sent as the
  shared digest-stamped frames of :mod:`repro.util.framing`;
* :mod:`repro.hyperwall.server` / :mod:`repro.hyperwall.client` — the
  control node (orchestration and failover: dead clients' cells are
  reassigned to survivors or served from the server's reduced-
  resolution mirror, see :data:`FAILOVER_POLICIES`) and the display
  node (:class:`DisplayNode`: messages in, replies out), each with its
  socket form (:class:`HyperwallServer`, :class:`HyperwallClient`);
* :mod:`repro.hyperwall.cluster` — a localhost multiprocessing harness
  standing in for the physical cluster;
* :mod:`repro.hyperwall.inproc` — the same control node talking to the
  same display nodes in one process, for tests and benchmarks.

There is one orchestration; the two walls differ only in the link.
"""

from repro.hyperwall.display import WallGeometry
from repro.hyperwall.partition import (
    find_cell_modules,
    make_reduced_pipeline,
    partition_by_cell,
)
from repro.hyperwall.inproc import InProcessHyperwall
from repro.hyperwall.server import FAILOVER_POLICIES, HyperwallServer
from repro.hyperwall.client import DisplayNode, HyperwallClient, run_client
from repro.hyperwall.cluster import LocalCluster

__all__ = [
    "FAILOVER_POLICIES",
    "WallGeometry",
    "find_cell_modules",
    "make_reduced_pipeline",
    "partition_by_cell",
    "InProcessHyperwall",
    "DisplayNode",
    "HyperwallServer",
    "HyperwallClient",
    "run_client",
    "LocalCluster",
]
