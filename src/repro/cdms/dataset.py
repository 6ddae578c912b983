"""Datasets: named collections of variables (the CDMS ``Dataset`` analog).

In a DV3D workflow the first module is a *dataset reader*: it opens a
dataset (from the local file system or, in the paper, from the Earth
System Grid), lists its variables, and hands subsetted variables
downstream.  :class:`Dataset` is that object; :func:`open_dataset` is
the ``cdms2.open`` analog over the ``.cdz`` container.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.cdms.selectors import Selector
from repro.cdms.storage import open_cdz, read_cdz, write_cdz
from repro.cdms.variable import Variable
from repro.util.errors import CDMSError

PathLike = Union[str, Path]


class Dataset:
    """An in-memory collection of variables with global attributes."""

    def __init__(
        self,
        id: str = "dataset",
        variables: Optional[List[Variable]] = None,
        attributes: Optional[Dict[str, object]] = None,
    ) -> None:
        self.id = id
        self.attributes: Dict[str, object] = dict(attributes or {})
        self._variables: Dict[str, Variable] = {}
        for var in variables or []:
            self.add_variable(var)

    def __repr__(self) -> str:
        return f"Dataset(id={self.id!r}, variables={sorted(self._variables)})"

    def __contains__(self, variable_id: str) -> bool:
        return variable_id in self._variables

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._variables))

    def __len__(self) -> int:
        return len(self._variables)

    @property
    def variable_ids(self) -> List[str]:
        return sorted(self._variables)

    def add_variable(self, variable: Variable) -> None:
        if variable.id in self._variables:
            raise CDMSError(f"dataset {self.id!r}: duplicate variable {variable.id!r}")
        self._variables[variable.id] = variable

    def get_variable(self, variable_id: str) -> Variable:
        try:
            return self._variables[variable_id]
        except KeyError:
            raise CDMSError(
                f"dataset {self.id!r}: no variable {variable_id!r} "
                f"(available: {self.variable_ids})"
            ) from None

    def __call__(
        self,
        variable_id: str,
        selector: Optional[Selector] = None,
        **criteria: Any,
    ) -> Variable:
        """``ds("tas", latitude=(-30, 30))`` — fetch and subset in one call."""
        var = self.get_variable(variable_id)
        if selector is None and not criteria:
            return var
        return var(selector, **criteria)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-variable structural description (used by the variable view)."""
        return {
            vid: {
                "shape": var.shape,
                "dimensions": [a.id for a in var.axes],
                "units": var.units,
                "long_name": var.long_name,
                "order": var.order(),
            }
            for vid, var in self._variables.items()
        }

    # -- persistence -------------------------------------------------------

    def save(
        self,
        path: PathLike,
        version: int = 2,
        chunk_timesteps: Optional[int] = None,
        lowres_factor: Optional[int] = None,
    ) -> None:
        write_cdz(
            path,
            [self._variables[k] for k in sorted(self._variables)],
            dataset_id=self.id,
            attributes=self.attributes,
            version=version,
            chunk_timesteps=chunk_timesteps,
            lowres_factor=lowres_factor,
        )

    @staticmethod
    def load(path: PathLike) -> "Dataset":
        dataset_id, attributes, variables = read_cdz(path)
        return Dataset(id=dataset_id, variables=variables, attributes=attributes)

    # -- streaming lifecycle ----------------------------------------------

    #: the StreamingSource behind this dataset's lazy variables, if any
    streaming_source = None

    @property
    def is_streaming(self) -> bool:
        return self.streaming_source is not None

    def close(self) -> None:
        """Close the streaming source behind this dataset's lazy variables."""
        if self.streaming_source is not None:
            self.streaming_source.close()

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _streaming_on(streaming: Union[bool, str]) -> bool:
    if isinstance(streaming, bool):
        return streaming
    mode = str(streaming).lower()
    if mode not in ("on", "off"):
        raise CDMSError(
            f"open_dataset: streaming must be True/False/'on'/'off', got {streaming!r}"
        )
    return mode == "on"


def open_dataset(
    path: PathLike,
    streaming: Union[bool, str] = False,
    streaming_config: Optional[object] = None,
) -> Dataset:
    """Open a ``.cdz`` dataset from disk (the ``cdms2.open`` analog).

    *streaming* selects how much is read now:

    ``False`` / ``"off"``
        every variable is loaded whole into memory;
    ``True`` / ``"on"``
        wherever the container has chunks, variables are lazy
        out-of-core :class:`~repro.cdms.lazy.LazyVariable` handles
        backed by the verified streaming layer, each chunk read on the
        caller's thread, and the dataset must be closed.  A legacy v1
        container has no chunks and loads whole.

    Both are the same reader — one open of the archive, one parse of
    its manifest, every chunk through
    :meth:`~repro.streaming.reader.ChunkReader.read_chunk` — so the two
    modes agree to the byte.  *streaming_config* is an optional
    :class:`~repro.streaming.config.StreamingConfig` (memory budget,
    retry policy) for the streaming mode.
    """
    if not _streaming_on(streaming):
        return Dataset.load(path)
    dataset_id, attributes, variables, source = open_cdz(path, streaming_config)
    dataset = Dataset(id=dataset_id, variables=variables, attributes=attributes)
    dataset.streaming_source = source
    return dataset
