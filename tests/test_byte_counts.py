"""UTF-8 byte counts that skip encoding ASCII text: ``errors._utf8_len``
is the size of the encoding and raises as ``utf8`` does on a lone
surrogate, and ``providers._clip_reply`` cuts a reply as it did when it
encoded every one."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from machina.belief import estimate_tokens
from machina.errors import UnencodableText, _utf8_len, utf8
from machina.providers import MAX_REPLY_BYTES, CompletionRequest, _clip_reply, _prompt_bytes

# ASCII, two-, three- and four-byte characters, lone surrogates of both
# halves, a surrogate pair's halves apart and arbitrary code points.
PIECES = st.sampled_from(["a", " ", "\n", "\x00", "\x7f", "\x80", "é", "ß", "中", "€", "😀"])
PIECES |= st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff", "\ud83d", "\ude00"])
PIECES |= st.text(st.characters(blacklist_categories=()), max_size=3)
TEXT = st.lists(PIECES, max_size=20).map("".join)


def encoded_size(text):
    """The size of ``text``'s UTF-8 encoding, or ``None`` if it has none."""
    try:
        return len(text.encode("utf-8"))
    except UnicodeEncodeError:
        return None


@given(TEXT)
def test_utf8_len_is_the_size_of_the_encoding(text):
    expected = encoded_size(text)
    if expected is None:
        with pytest.raises(UnencodableText):
            _utf8_len(text)
        with pytest.raises(UnencodableText):
            _prompt_bytes(CompletionRequest(text))
        return
    assert _utf8_len(text) == expected
    assert estimate_tokens(text) == math.ceil(expected / 4)
    assert _prompt_bytes(CompletionRequest("ok", text)) == 2 + expected


def reference_clip(text):
    """``_clip_reply`` as it was when it encoded every reply."""
    encoded = utf8(text)
    if len(encoded) <= MAX_REPLY_BYTES:
        return text, len(encoded)
    cut = MAX_REPLY_BYTES
    while encoded[cut] & 0xC0 == 0x80:
        cut -= 1
    return encoded[:cut].decode("utf-8"), cut


# Replies around the limit: an ASCII run that puts the text's end, or a
# multi-byte character, on either side of the cut.
REPLIES = TEXT | st.builds(
    lambda n, tail: "a" * n + tail,
    st.integers(MAX_REPLY_BYTES - 12, MAX_REPLY_BYTES + 2),
    TEXT,
)


@settings(max_examples=4 * settings.default.max_examples)
@given(REPLIES)
def test_clip_reply_matches_encoding_every_reply(text):
    try:
        expected = reference_clip(text)
    except UnencodableText as exc:
        with pytest.raises(UnencodableText) as err:
            _clip_reply(text)
        assert str(err.value) == str(exc)
        return
    assert _clip_reply(text) == expected
