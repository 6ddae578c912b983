"""Pre-assembled synthetic datasets.

These are the "case studies" the examples and benchmarks open: a
multi-variable global reanalysis-like dataset, a regional storm case
(the Fig. 3 isosurface/volume workload) and an equatorial wave case
(the Fig. 4 Hovmöller workload).  Each returns a
:class:`~repro.cdms.dataset.Dataset` and can be persisted with
``dataset.save(path)`` for the file-access code path.
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Optional

from repro.cdms.dataset import Dataset
from repro.data import fields
from repro.util.errors import CDMSError


def synthetic_reanalysis(
    nlat: int = 46,
    nlon: int = 72,
    nlev: int = 17,
    ntime: int = 12,
    seed: int | str = "reanalysis",
) -> Dataset:
    """A global multi-variable dataset: ta, zg, ua, va, hus.

    The shape mirrors a coarse monthly reanalysis (the scale of data the
    UV-CDAT GUI's variable view lists in Fig. 2).
    """
    ta = fields.global_temperature(nlat, nlon, nlev, ntime, seed=f"{seed}/ta")
    zg = fields.geopotential_height(nlat, nlon, nlev, ntime, seed=f"{seed}/zg")
    ua, va = fields.geostrophic_wind(zg)
    hus = fields.specific_humidity(nlat, nlon, nlev, ntime, seed=f"{seed}/hus")
    return Dataset(
        id="nccs_synthetic_reanalysis",
        variables=[ta, zg, ua, va, hus],
        attributes={
            "title": "Synthetic reanalysis (repro substitute for NASA model output)",
            "institution": "repro.data",
            "source": "analytic structure + band-limited noise",
            "seed": str(seed),
        },
    )


def storm_case_study(
    nlat: int = 64,
    nlon: int = 64,
    nlev: int = 20,
    ntime: int = 16,
    seed: int | str = "storm-case",
) -> Dataset:
    """Regional storm dataset: wind speed plus temperature on the same grid."""
    wspd = fields.storm_vortex(nlat, nlon, nlev, ntime, seed=f"{seed}/wspd")
    # a co-located temperature-like field (warm core) for two-variable plots
    warm_core = wspd * 0.35 + 250.0
    warm_core.id = "tcore"
    warm_core.attributes["units"] = "K"
    warm_core.attributes["long_name"] = "core temperature proxy"
    return Dataset(
        id="storm_case_study",
        variables=[wspd, warm_core],
        attributes={"title": "Translating vortex case study (Fig. 3 workload)"},
    )


def wave_case_study(
    nlon: int = 144,
    nlat: int = 32,
    ntime: int = 120,
    seed: int | str = "wave-case",
) -> Dataset:
    """Equatorial wave dataset: one eastward and one westward mode."""
    east = fields.equatorial_wave(nlon, nlat, ntime, wavenumber=4, period_steps=30.0,
                                  eastward=True, seed=f"{seed}/east")
    west = fields.equatorial_wave(nlon, nlat, ntime, wavenumber=6, period_steps=20.0,
                                  eastward=False, seed=f"{seed}/west")
    west.id = "olr_west"
    return Dataset(
        id="wave_case_study",
        variables=[east, west],
        attributes={"title": "Propagating equatorial waves (Fig. 4 workload)"},
    )


#: the grid parameters of each generator that a ``size`` may override,
#: with the least value of each that the generator builds and some DV3D
#: template draws: a one-point latitude or longitude is squeezed away,
#: and only a Hovmöller plot, which spatializes time, draws without both
GRID_MINIMA: Dict[str, Dict[str, int]] = {
    "synthetic_reanalysis": {"nlat": 2, "nlon": 2, "nlev": 1, "ntime": 1},
    "storm_case_study": {"nlat": 2, "nlon": 2, "nlev": 1, "ntime": 1},
    "wave_case_study": {"nlon": 1, "nlat": 1, "ntime": 1},
}

#: a DV3D template's own floor over :data:`GRID_MINIMA`: a Hovmöller
#: plot spatializes time, and a time axis of one step spans nothing (a
#: reanalysis generator's is squeezed away with the level it cuts at)
TEMPLATE_MINIMA: Dict[str, Dict[str, int]] = {
    "HovmollerSlicer": {"ntime": 2},
    "HovmollerVolume": {"ntime": 2},
}


def grid_size(source: str, size: Any, template: Optional[str] = None) -> Dict[str, int]:
    """*size* as the grid overrides of the generator named *source* (a
    key of :data:`GRID_MINIMA`): ``None`` or a mapping of that
    generator's grid parameters to whole numbers no smaller than
    :data:`GRID_MINIMA` allows, or *template*'s
    :data:`TEMPLATE_MINIMA` where that is more.  Anything else raises
    :class:`CDMSError`."""
    floors = TEMPLATE_MINIMA.get(template, {})
    minima = {name: max(least, floors.get(name, least))
              for name, least in GRID_MINIMA[source].items()}
    if size is None:
        return {}
    if not isinstance(size, dict):
        raise CDMSError(f"{source} size must be a mapping, got {size!r}")
    unknown = sorted(map(str, size.keys() - minima.keys()))
    if unknown:
        raise CDMSError(f"{source} size takes {sorted(minima)}, not {unknown}")
    for name, value in size.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise CDMSError(f"{source} size {name} must be a whole number, got {value!r}")
        if value < minima[name]:
            plot = f" for {template}" if name in floors else ""
            raise CDMSError(f"{source} size {name} must be at least {minima[name]}{plot}, "
                            f"got {value}")
    return {name: int(value) for name, value in size.items()}
