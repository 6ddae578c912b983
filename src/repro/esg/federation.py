"""The federated catalog, search and transfer model.

Deliberately faithful to how ESG is *used* from UV-CDAT (discover by
facets, then fetch and open) rather than to its wire protocols.  The
latency model is deterministic: transfer time = latency + bytes /
bandwidth, accumulated on a simulated clock rather than slept, so tests
and benchmarks measure the modelled cost without real waiting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.cdms.dataset import Dataset
from repro.resilience import InjectedFault, faults
from repro.util.errors import ESGError


@dataclass(frozen=True)
class DatasetRecord:
    """A published dataset's metadata plus its (lazy) generator."""

    dataset_id: str
    variables: Tuple[str, ...]
    description: str
    size_bytes: int
    factory: Callable[[], Dataset] = field(compare=False)

    def matches(self, query: str) -> bool:
        """Case-insensitive substring match on id, description, variables."""
        needle = query.lower()
        return (
            needle in self.dataset_id.lower()
            or needle in self.description.lower()
            or any(needle in v.lower() for v in self.variables)
        )


@dataclass(frozen=True)
class TransferRecord:
    """Provenance of one fetch: where from, how big, modelled duration."""

    dataset_id: str
    node_name: str
    size_bytes: int
    modelled_seconds: float


class ESGNode:
    """One federation member with its own latency/bandwidth character."""

    def __init__(
        self,
        name: str,
        latency_seconds: float = 0.05,
        bandwidth_bytes_per_s: float = 50e6,
    ) -> None:
        if latency_seconds < 0 or bandwidth_bytes_per_s <= 0:
            raise ESGError("bad node performance parameters")
        self.name = name
        self.latency_seconds = float(latency_seconds)
        self.bandwidth = float(bandwidth_bytes_per_s)
        #: federation nodes go down in practice; fetch() fails over
        self.available = True
        self._records: Dict[str, DatasetRecord] = {}

    def publish(self, record: DatasetRecord) -> None:
        if record.dataset_id in self._records:
            raise ESGError(f"node {self.name!r}: duplicate dataset {record.dataset_id!r}")
        self._records[record.dataset_id] = record

    def records(self) -> List[DatasetRecord]:
        return [self._records[k] for k in sorted(self._records)]

    def get(self, dataset_id: str) -> DatasetRecord:
        try:
            return self._records[dataset_id]
        except KeyError:
            raise ESGError(f"node {self.name!r}: no dataset {dataset_id!r}") from None

    def transfer_time(self, size_bytes: int) -> float:
        return self.latency_seconds + size_bytes / self.bandwidth


class ESGFederation:
    """The federation: search across nodes, fetch into the local store."""

    def __init__(self) -> None:
        self._nodes: Dict[str, ESGNode] = {}
        self._local: Dict[str, Dataset] = {}
        self.transfers: List[TransferRecord] = []
        self.simulated_clock: float = 0.0

    def add_node(self, node: ESGNode) -> ESGNode:
        if node.name in self._nodes:
            raise ESGError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        return node

    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    # -- discovery ----------------------------------------------------------

    def search(self, query: str = "") -> List[Tuple[str, DatasetRecord]]:
        """All (node, record) pairs matching *query* (empty = everything)."""
        hits = []
        for name in sorted(self._nodes):
            for record in self._nodes[name].records():
                if not query or record.matches(query):
                    hits.append((name, record))
        return hits

    def locate(self, dataset_id: str) -> Tuple[str, DatasetRecord]:
        """The fastest *available* node publishing *dataset_id*.

        Replicated datasets fail over automatically: when the fastest
        publisher is down, the next one is used.  Raises only when no
        available node publishes the dataset.
        """
        candidates = [
            (name, node.get(dataset_id))
            for name, node in self._nodes.items()
            if node.available and dataset_id in {r.dataset_id for r in node.records()}
        ]
        if not candidates:
            published_anywhere = any(
                dataset_id in {r.dataset_id for r in node.records()}
                for node in self._nodes.values()
            )
            if published_anywhere:
                raise ESGError(
                    f"all nodes publishing {dataset_id!r} are unavailable"
                )
            raise ESGError(f"no node publishes {dataset_id!r}")
        return min(
            candidates,
            key=lambda pair: self._nodes[pair[0]].transfer_time(pair[1].size_bytes),
        )

    def set_node_available(self, node_name: str, available: bool) -> None:
        """Mark a node up/down (failure injection and maintenance windows)."""
        try:
            self._nodes[node_name].available = bool(available)
        except KeyError:
            raise ESGError(f"no node {node_name!r}") from None

    # -- transfer --------------------------------------------------------------

    def fetch(self, dataset_id: str, node_name: Optional[str] = None) -> Dataset:
        """Fetch a dataset into the local store (idempotent).

        The modelled transfer cost accrues on ``simulated_clock`` and is
        recorded in ``transfers`` — the provenance entry for a remote
        data access.

        A node that dies mid-transfer (the ``esg.fetch`` fault site,
        ``node``/``dataset`` labels) is marked unavailable and the fetch
        fails over to the next replica; the aborted transfer's modelled
        cost still accrues.  A fetch pinned to *node_name* does not fail
        over — losing the pinned node raises.
        """
        if dataset_id in self._local:
            return self._local[dataset_id]
        pinned = node_name is not None
        while True:
            if pinned:
                try:
                    node = self._nodes[node_name]
                except KeyError:
                    raise ESGError(f"no node {node_name!r}") from None
                if not node.available:
                    raise ESGError(f"node {node_name!r} is unavailable")
                record = node.get(dataset_id)
            else:
                node_name, record = self.locate(dataset_id)
                node = self._nodes[node_name]
            cost = node.transfer_time(record.size_bytes)
            try:
                faults.check("esg.fetch", node=node_name, dataset=dataset_id)
            except InjectedFault as exc:
                self.simulated_clock += cost  # the aborted transfer cost time
                node.available = False
                obs.counter("resilience.retries", site="esg.fetch", node=node_name)
                if pinned:
                    raise ESGError(
                        f"node {node_name!r} went down mid-fetch of {dataset_id!r}"
                    ) from exc
                continue  # locate() raises once no replica remains
            break
        self.simulated_clock += cost
        dataset = record.factory()
        self._local[dataset_id] = dataset
        self.transfers.append(
            TransferRecord(dataset_id, node_name, record.size_bytes, cost)
        )
        return dataset


def default_federation(seed: str = "esg") -> ESGFederation:
    """A three-node federation publishing the synthetic case studies.

    Mirrors the topology of real usage: a near archive (fast), a far
    archive (slow, bigger holdings), and a replica node that duplicates
    one dataset so ``locate`` has a real choice to make.
    """
    from repro.data import catalog

    fed = ESGFederation()
    near = fed.add_node(ESGNode("nccs", latency_seconds=0.01, bandwidth_bytes_per_s=200e6))
    far = fed.add_node(ESGNode("pcmdi", latency_seconds=0.15, bandwidth_bytes_per_s=20e6))
    replica = fed.add_node(ESGNode("dkrz-replica", latency_seconds=0.08, bandwidth_bytes_per_s=60e6))

    reanalysis = DatasetRecord(
        "nccs_synthetic_reanalysis",
        ("ta", "zg", "ua", "va", "hus"),
        "synthetic global reanalysis: temperature, heights, winds, humidity",
        180_000_000,
        lambda: catalog.synthetic_reanalysis(seed=f"{seed}/reanalysis"),
    )
    storm = DatasetRecord(
        "storm_case_study",
        ("wspd", "tcore"),
        "regional translating vortex case study",
        35_000_000,
        lambda: catalog.storm_case_study(seed=f"{seed}/storm"),
    )
    waves = DatasetRecord(
        "wave_case_study",
        ("olr_anom", "olr_west"),
        "propagating equatorial wave time series",
        22_000_000,
        lambda: catalog.wave_case_study(seed=f"{seed}/waves"),
    )
    near.publish(reanalysis)
    near.publish(storm)
    far.publish(waves)
    far.publish(
        DatasetRecord(
            reanalysis.dataset_id, reanalysis.variables, reanalysis.description,
            reanalysis.size_bytes, reanalysis.factory,
        )
    )
    replica.publish(
        DatasetRecord(
            waves.dataset_id, waves.variables, waves.description,
            waves.size_bytes, waves.factory,
        )
    )
    return fed
