"""``key_slot`` (C CRC) against the table-driven CRC oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.netkv import key_slot
from tests.datastore.oracles import crc16_xmodem, slot_oracle

PRINTABLE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                    max_size=40)


def test_oracle_standard_vectors():
    assert crc16_xmodem(b"123456789") == 0x31C3
    assert crc16_xmodem(b"") == 0
    assert slot_oracle("foo") == 12182  # Redis CLUSTER KEYSLOT foo


@settings(max_examples=300, derandomize=True)
@given(PRINTABLE)
def test_printable_keys(key):
    assert key_slot(key) == slot_oracle(key)


@settings(max_examples=200, derandomize=True)
@given(PRINTABLE, PRINTABLE, PRINTABLE)
def test_hash_tag_forms(head, tag, tail):
    key = f"{head}{{{tag}}}{tail}"
    assert key_slot(key) == slot_oracle(key)


@settings(max_examples=200, derandomize=True)
@given(st.text(max_size=30))
def test_non_ascii_keys(key):
    assert key_slot(key) == slot_oracle(key)


def test_empty_tag_hashes_whole_key():
    for key in ("{}", "a{}b", "{}{x}", "x{}y}", "{"):
        assert key_slot(key) == slot_oracle(key)
    assert key_slot("{}user") != key_slot("{}other")
    assert key_slot("pre/{cg0001}/a") == key_slot("{cg0001}")
