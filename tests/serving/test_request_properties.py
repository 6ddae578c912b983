"""Property tests for request-key canonicalization (hypothesis).

The coalescing key must satisfy two laws:

* **coalescing** — requests that specify the same product get the same
  key, whatever the params dict ordering and whatever the routing
  metadata (tenant, session, deadline) says;
* **sensitivity** — perturbing any single tenant-visible parameter
  (scene, camera, size, ...) changes the key, so no client can be
  served another product's bytes.

Both rest on a third, checked at the end: the key is one sha256 over
canonical JSON, and two params get equal keys exactly when the
per-node ``cache_key`` it replaced gives them equal keys.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import cache_key, digest, json_key
from repro.serving import Request, request_key

#: tenant-visible parameter names a request might carry
PARAM_NAMES = st.sampled_from(
    ["scene", "camera", "width", "height", "timestep", "variable", "tf", "level"]
)

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)

#: values may also be small lists/dicts (cameras, sizes, selectors)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.dictionaries(st.text(min_size=1, max_size=6), scalars, max_size=4),
)

params = st.dictionaries(PARAM_NAMES, values, min_size=1, max_size=6)

tenants = st.text(min_size=1, max_size=10)
sessions = st.text(max_size=10)
deadlines = st.one_of(st.none(), st.floats(min_value=0.001, max_value=100.0))


@settings(max_examples=120, deadline=None)
@given(p=params, t1=tenants, t2=tenants, s1=sessions, s2=sessions,
       d1=deadlines, d2=deadlines)
def test_equal_products_coalesce_across_metadata(p, t1, t2, s1, s2, d1, d2):
    """Tenant, session and deadline never enter the key; dict order
    never matters."""
    a = Request(params=dict(p), tenant=t1, session=s1, deadline_s=d1)
    shuffled = dict(reversed(list(p.items())))
    b = Request(params=shuffled, tenant=t2, session=s2, deadline_s=d2)
    assert request_key(a) == request_key(b)


@settings(max_examples=120, deadline=None)
@given(p=params, data=st.data())
def test_single_param_perturbation_changes_key(p, data):
    """Changing any one parameter to a canonically-different value
    changes the key."""
    base = Request(params=dict(p))
    name = data.draw(st.sampled_from(sorted(p)))
    replacement = data.draw(values)
    if digest(replacement) == digest(p[name]):
        return  # canonically identical value: not a perturbation
    perturbed = base.with_params(**{name: replacement})
    assert request_key(base) != request_key(perturbed)


@settings(max_examples=80, deadline=None)
@given(p=params, name=PARAM_NAMES, value=values)
def test_adding_a_param_changes_key(p, name, value):
    base = Request(params=dict(p))
    if name in p:
        return
    assert request_key(base) != request_key(base.with_params(**{name: value}))


@settings(max_examples=60, deadline=None)
@given(p=params)
def test_key_is_stable_across_calls(p):
    request = Request(params=dict(p))
    assert request_key(request) == request_key(request)


# -- the one-sha256 key against the Merkle key it replaced ------------------
#
# ``request_key`` hashes canonical JSON once; ``cache_key`` hashes one
# sha256 per node.  The keys differ, but they must partition params the
# same way: equal new keys exactly when the old keys are equal.

leaves = st.one_of(
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.sampled_from([0, 1, 0.0, -0.0, 1.0, True, False, "1", "0", 2**63, math.inf]),
    st.builds(np.array, st.lists(st.integers(-3, 3), max_size=3)),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 2)), children, max_size=3),
    ),
    max_leaves=8,
)


def _twin(value, data):
    """*value* respelled: numpy scalars for numbers, tuples for lists
    and back, dicts in another order — and now and then a ``str`` key
    where an ``int`` one was (not a twin: the keys must tell it)."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, np.ndarray)):
        return value
    if isinstance(value, int):
        if -2**63 <= value < 2**63 and data.draw(st.booleans()):
            return np.int64(value)
        return value
    if isinstance(value, float):
        choice = data.draw(st.integers(0, 2))
        if choice == 1:
            return np.float64(value)
        exact = not math.isfinite(value) or (abs(value) < 1e38 and float(np.float32(value)) == value)
        if choice == 2 and exact:
            return np.float32(value)
        return value
    if isinstance(value, (list, tuple)):
        items = [_twin(item, data) for item in value]
        return tuple(items) if data.draw(st.booleans()) else items
    if isinstance(value, dict):
        items = [(_twin_key(k, data), _twin(v, data)) for k, v in value.items()]
        return dict(reversed(items))
    return value


def _twin_key(key, data):
    if isinstance(key, int) and data.draw(st.integers(0, 9)) == 0:
        return str(key)
    return key


def _same_partition(a, b, site="serving.request"):
    try:
        old = cache_key(site, a) == cache_key(site, b)
    except Exception as exc:  # noqa: BLE001 - the new key must refuse alike
        with pytest.raises(type(exc)):
            json_key(site, a)
            json_key(site, b)  # only when a was keyed: then b is what cache_key refused
        return
    assert (json_key(site, a) == json_key(site, b)) == old, (a, b)


@settings(max_examples=400, deadline=None)
@given(value=trees, data=st.data())
def test_json_key_equal_iff_cache_key_equal_on_twins(value, data):
    """A respelled value keys as the old key says it should."""
    _same_partition({"p": value}, {"p": _twin(value, data)})


@settings(max_examples=300, deadline=None)
@given(a=trees, b=trees)
def test_json_key_equal_iff_cache_key_equal_on_any_pair(a, b):
    _same_partition({"p": a}, {"p": b})
    _same_partition(a, b, site="serving.backend.scene")


@pytest.mark.parametrize("a, b, equal", [
    (1, np.int64(1), True),
    (2.5, np.float64(2.5), True),
    (0.5, np.float32(0.5), True),
    ([1, "x"], (1, "x"), True),
    ({1: "x"}, {"1": "x"}, False),
    (True, 1, False),
    (False, 0, False),
    (1, 1.0, False),
    (-0.0, 0.0, False),
    (math.nan, math.nan, True),
    (math.inf, math.inf, True),
    (math.inf, -math.inf, False),
    (np.array([1, 2]), [1, 2], False),
    (np.array([1, 2]), np.array([1, 2]), True),
])
def test_request_keys_of_named_pairs(a, b, equal):
    key_a = request_key(Request(params={"p": a}))
    key_b = request_key(Request(params={"p": b}))
    assert (key_a == key_b) is equal
    assert (cache_key("serving.request", {"p": a}) == cache_key("serving.request", {"p": b})) is equal
