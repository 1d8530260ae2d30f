import hashlib
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vzor.encoding import be_i64, be_u64, tagged_digest


@given(
    st.sampled_from(["VZOR/leaf/v1", "VZOR/node/v1", "VZOR/stmt/v1", ""]) | st.text("abc/", max_size=8),
    st.lists(st.binary(max_size=80), max_size=4),
)
def test_tagged_digest_is_sha256_of_tag_nul_parts(tag, parts):
    # each call starts from a copy of the tag's hashed prefix; calls must not share state
    expected = hashlib.sha256(tag.encode("ascii") + b"\x00" + b"".join(parts)).digest()
    assert tagged_digest(tag, *parts) == expected
    assert tagged_digest(tag, *parts) == expected


@given(st.integers(0, 2**64 - 1), st.integers(-(2**63), 2**63 - 1))
def test_fixed_width_fields_are_big_endian(u, i):
    assert be_u64(u) == u.to_bytes(8, "big")
    assert be_i64(i) == i.to_bytes(8, "big", signed=True)


@pytest.mark.parametrize("pack, value", [(be_u64, -1), (be_u64, 2**64), (be_i64, 2**63)])
def test_fixed_width_fields_refuse_out_of_range(pack, value):
    with pytest.raises(struct.error):
        pack(value)
