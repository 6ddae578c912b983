"""Property tests for request-key canonicalization (hypothesis).

The coalescing key must satisfy two laws:

* **coalescing** — requests that specify the same product get the same
  key, whatever the params dict ordering and whatever the routing
  metadata (tenant, session, deadline) says;
* **sensitivity** — perturbing any single tenant-visible parameter
  (scene, camera, size, ...) changes the key, so no client can be
  served another product's bytes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import digest
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
