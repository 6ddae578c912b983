"""The hyperwall in one process.

:class:`InProcessHyperwall` is the control node of
:mod:`repro.hyperwall.server` — partition, mirror, execute, broadcast,
refresh, failover, all inherited — talking to real
:class:`~repro.hyperwall.client.DisplayNode` objects over
:class:`~repro.hyperwall.protocol.InlineLink` instead of sockets: no
port, no fork, no thread, so it is deterministic and can look inside
its cells.  Tests and the Fig. 5 benchmark use it; the failover policy
and retry are the control node's ``failover`` / ``retry`` attributes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.hyperwall.client import DisplayNode
from repro.hyperwall.display import WallGeometry
from repro.hyperwall.protocol import InlineLink
from repro.hyperwall.server import ControlNode
from repro.workflow.pipeline import Pipeline


class InProcessHyperwall(ControlNode):
    """A control node plus one display node per cell, workflows shipped."""

    def __init__(
        self,
        workflow: Pipeline,
        wall: Optional[WallGeometry] = None,
        reduction: int = 4,
    ) -> None:
        super().__init__(workflow, wall, reduction)
        #: the display nodes, indexed by client id
        self.nodes = [DisplayNode(index) for index in range(len(self.cell_ids))]
        for node in self.nodes:
            self._connections[node.client_id] = InlineLink(node)
        self.distribute_workflows()

    def execute_all(self) -> Dict[str, Any]:
        """The full Fig. 5 cycle: server mirror plus all wall tiles."""
        return {"server": self.execute_server(), "clients": self.execute_clients()}

    def consistency_check(self) -> Dict[int, bool]:
        """Whether each cell's plot state on the node that holds it now
        matches its server mirror (False for a cell no live node holds).

        Camera state is compared too; render resolution legitimately
        differs, so only plot state participates.
        """
        owners = self._owners()
        result = {}
        for cell_id in self.cell_ids:
            mirror = self.mirror.cells.get(cell_id)
            held = self.nodes[owners[cell_id]].cells if cell_id in owners else {}
            result[cell_id] = (
                mirror is not None
                and cell_id in held
                and mirror.plot.state() == held[cell_id].plot.state()
            )
        return result
