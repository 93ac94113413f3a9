"""UTF-8 byte counts: a prompt's size and its token estimate are the size
of the encoding, and raise as ``utf8`` does on a lone surrogate; and
``providers._clip_reply`` cuts a reply as the encoding of every reply
does."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from machina.belief import estimate_tokens
from machina.errors import UnencodableText, utf8
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
            estimate_tokens(text)
        with pytest.raises(UnencodableText):
            _prompt_bytes(CompletionRequest(text))
        return
    assert estimate_tokens(text) == math.ceil(expected / 4)
    assert _prompt_bytes(CompletionRequest("ok", text)) == 2 + expected


# Replies around the limit: an ASCII run that puts the text's end, or a
# multi-byte character, on either side of the cut.
REPLIES = TEXT | st.builds(
    lambda n, tail: "a" * n + tail,
    st.integers(MAX_REPLY_BYTES - 12, MAX_REPLY_BYTES + 2),
    TEXT,
)


@given(REPLIES)
def test_clip_reply_matches_encoding_every_reply(text):
    """What is kept is the longest prefix whose encoding fits the limit, and
    the size returned is that encoding's: a character the cut splits is
    dropped whole."""
    try:
        encoded = utf8(text)
    except UnencodableText as exc:
        with pytest.raises(UnencodableText) as err:
            _clip_reply(text)
        assert str(err.value) == str(exc)
        return
    kept, size = _clip_reply(text)
    assert text.startswith(kept)
    assert size == len(utf8(kept)) <= MAX_REPLY_BYTES
    if len(encoded) <= MAX_REPLY_BYTES:
        assert kept == text
    else:
        assert size + len(utf8(text[len(kept)])) > MAX_REPLY_BYTES


@pytest.mark.parametrize("width", [2, 3, 4], ids=["two-byte", "three-byte", "four-byte"])
def test_clip_reply_drops_a_character_the_cut_splits(width):
    char = {2: "é", 3: "中", 4: "😀"}[width]
    prefix = "a" * (MAX_REPLY_BYTES - 1)
    assert _clip_reply(prefix + char + "b") == (prefix, MAX_REPLY_BYTES - 1)
    assert _clip_reply(prefix[: 1 - width] + char + "b") == (prefix[: 1 - width] + char, MAX_REPLY_BYTES)
