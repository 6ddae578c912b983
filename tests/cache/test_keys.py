"""Canonical hashing: stability and sensitivity properties.

Hypothesis drives the core contract — equal values always produce
equal digests (across memory layouts, dict orderings and processes),
and any representational difference that can change a computed result
(dtype, endianness, shape, mask, NaN payload) produces a different
digest.  Cross-process stability is checked for real: a subprocess
with a different ``PYTHONHASHSEED`` must reproduce the parent's
digests bit for bit.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cache import keys
from repro.cache.keys import CODE_SALT, cache_key, digest
from repro.util.errors import CacheError

SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5)
DTYPES = st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.uint8])
ARRAYS = DTYPES.flatmap(
    lambda dt: hnp.arrays(dtype=dt, shape=SHAPES, elements=hnp.from_dtype(np.dtype(dt), allow_nan=True))
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=20),
    st.binary(max_size=20),
)


class TestStability:
    @given(arr=ARRAYS)
    @settings(max_examples=50, deadline=None)
    def test_copy_has_equal_digest(self, arr):
        assert digest(arr) == digest(arr.copy())

    @given(arr=ARRAYS)
    @settings(max_examples=50, deadline=None)
    def test_layout_does_not_matter(self, arr):
        # Fortran order and strided views hash like their C-contiguous copy
        assert digest(np.asfortranarray(arr)) == digest(arr)
        strided = np.repeat(arr, 2, axis=0)[::2]
        assert np.array_equal(strided, arr, equal_nan=arr.dtype.kind == "f")
        assert digest(strided) == digest(arr)

    @given(value=SCALARS)
    @settings(max_examples=100, deadline=None)
    def test_scalars_are_deterministic(self, value):
        assert digest(value) == digest(value)

    @given(entries=st.dictionaries(st.text(max_size=8), st.integers(), max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_dict_order_does_not_matter(self, entries):
        reversed_insertion = dict(reversed(list(entries.items())))
        assert digest(entries) == digest(reversed_insertion)

    def test_nan_payload_is_deterministic(self):
        # the same NaN bit pattern always hashes the same way
        quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]
        assert digest(quiet) == digest(quiet)
        arr = np.array([1.0, quiet, 3.0])
        assert digest(arr) == digest(arr.copy())

    def test_masked_payload_under_mask_is_ignored(self):
        a = np.ma.MaskedArray([1.0, 2.0, 3.0], mask=[False, True, False])
        b = np.ma.MaskedArray([1.0, 99.0, 3.0], mask=[False, True, False])
        assert digest(a) == digest(b)


class TestSensitivity:
    def test_dtype_changes_digest(self):
        a = np.arange(6, dtype=np.float64)
        assert digest(a) != digest(a.astype(np.float32))
        assert digest(a) != digest(a.astype(np.int64))

    def test_endianness_changes_digest(self):
        a = np.arange(6, dtype=np.float64)
        swapped = a.astype(a.dtype.newbyteorder())
        assert np.array_equal(a, swapped)  # equal values...
        assert digest(a) != digest(swapped)  # ...different representation

    def test_shape_changes_digest(self):
        a = np.arange(6, dtype=np.float64)
        assert digest(a) != digest(a.reshape(2, 3))
        assert digest(a.reshape(2, 3)) != digest(a.reshape(3, 2))

    def test_nan_payload_differs_from_finite_and_other_nans(self):
        quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]
        payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        assert digest(np.array([quiet])) != digest(np.array([1.0]))
        assert digest(np.array([quiet])) != digest(np.array([payload]))
        assert digest(quiet) != digest(payload)

    def test_signed_zero_differs(self):
        assert digest(0.0) != digest(-0.0)

    def test_mask_changes_digest(self):
        a = np.ma.MaskedArray([1.0, 2.0], mask=[False, False])
        b = np.ma.MaskedArray([1.0, 2.0], mask=[False, True])
        assert digest(a) != digest(b)

    def test_masked_differs_from_plain(self):
        plain = np.array([1.0, 2.0])
        masked = np.ma.MaskedArray([1.0, 2.0], mask=[False, False])
        assert digest(plain) != digest(masked)

    @given(a=st.integers(), b=st.integers())
    @settings(max_examples=50, deadline=None)
    def test_distinct_ints_have_distinct_digests(self, a, b):
        assert (digest(a) == digest(b)) == (a == b)

    def test_type_confusion_is_impossible(self):
        # tagged hashing: equal surface forms of different types differ
        assert digest(1) != digest(1.0)
        assert digest(True) != digest(1)
        assert digest("1") != digest(1)
        assert digest(b"x") != digest("x")
        assert digest([1, 2]) != digest({1: 2})
        assert digest(None) != digest(0)

    def test_list_boundaries_cannot_alias(self):
        assert digest(["ab", "c"]) != digest(["a", "bc"])
        assert digest([["a"], ["b"]]) != digest([["a", "b"], []])


class TestDomainTypes:
    def test_variable_digest_sensitive_to_data(self, simple_variable):
        base = digest(simple_variable)
        perturbed = simple_variable.clone() if hasattr(simple_variable, "clone") else None
        data = np.ma.copy(simple_variable.data)
        data[0, 0, 1, 1] = data[0, 0, 1, 1] + 0.5
        from repro.cdms.variable import Variable

        other = Variable(
            data, list(simple_variable.axes), id=simple_variable.id, units="K"
        )
        assert digest(other) != base
        del perturbed

    def test_axis_digest_stable_across_gen_bounds(self):
        from repro.cdms.axis import uniform_latitude

        axis = uniform_latitude(8)
        before = digest(axis)
        axis.gen_bounds()  # lazily caches bounds internally
        assert digest(axis) == before

    def test_axis_digest_sensitive_to_explicit_bounds(self):
        from repro.cdms.axis import uniform_latitude

        a = uniform_latitude(8)
        b = uniform_latitude(8)
        bounds = b.gen_bounds().copy()
        bounds[0, 0] -= 1.0
        b.set_bounds(bounds)
        assert digest(a) != digest(b)

    def test_unknown_type_raises_instead_of_guessing(self):
        class Opaque:
            pass

        with pytest.raises(CacheError, match="cannot canonically hash"):
            digest(Opaque())


class TestCacheKey:
    def test_site_and_salt_partition_the_keyspace(self, monkeypatch):
        assert cache_key("a", 1) != cache_key("b", 1)
        assert cache_key("a", 1) != cache_key("a", 2)
        assert cache_key("a", 1) == cache_key("a", 1)
        base = cache_key("a", 1)
        monkeypatch.setattr(keys, "CODE_SALT", "repro-next")  # a version bump
        assert cache_key("a", 1) != base

    def test_code_salt_is_version_bound(self):
        import repro

        assert repro.__version__ in CODE_SALT


#: a recipe of values whose digests a child process must reproduce
_RECIPE = r"""
import struct, sys, json
import numpy as np
from repro.cache.keys import digest, cache_key

quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]
values = [
    None, True, 12345, -7, 3.14159, quiet, "unicode-é☃", b"\x00\xff",
    [1, "two", 3.0], {"b": 2, "a": 1}, {"a": 1, "b": 2},
    np.arange(24, dtype=np.float64).reshape(4, 6),
    np.arange(24, dtype=np.float32).reshape(4, 6),
    np.ma.MaskedArray([1.0, 2.0, 3.0], mask=[False, True, False]),
]
out = [digest(v) for v in values] + [cache_key("site", "part")]
sys.stdout.write(json.dumps(out))
"""


def _recipe_digests(hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), str(_SRC)) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RECIPE],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


class TestCrossProcess:
    def test_digests_agree_across_hash_seeds(self):
        # str hashing is salted per process; canonical digests must not be
        one = _recipe_digests("1")
        two = _recipe_digests("4021")
        assert one == two
        # and the parent agrees with both
        quiet = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000))[0]
        assert digest(quiet) == one[5]
        assert digest({"b": 2, "a": 1}) == one[9] == one[10]
        assert cache_key("site", "part") == one[-1]
