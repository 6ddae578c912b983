"""Overlay text from the glyph atlas against the per-pixel loop it replaced.

``reference_text`` holds the seed loop; the contract is its patch —
dtype, shape and bytes — for every glyph of the font, lowercase and
unknown characters, the empty string, every scale the overlays use and
both alpha modes the cell draws with.
"""

import numpy as np
import pytest

from repro.rendering import text
from repro.rendering.text import _FONT
from tests.rendering import reference_text as reference

COLORS = [(1.0, 1.0, 1.0), (0.7, 0.9, 1.0)]
ALPHAS = [0.0, 0.35]

STRINGS = (
    [char for char in _FONT]
    + [
        "".join(_FONT),
        "".join(_FONT).lower(),
        "ta (K)",
        "synthetic: hus (kg/kg)",
        "T=3/11",
        "PICK 287.125 AT 12.5E -30.0N",
        "~",
        "é",
        "a~é b",
        "ß",  # uppercases to two characters: one blank, as before
        "",
        " ",
    ]
)


def _assert_identical(got, expected):
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [1, 2, 3])
@pytest.mark.parametrize("background_alpha", ALPHAS)
@pytest.mark.parametrize("color", COLORS)
def test_render_text_matches_the_per_pixel_loop(color, background_alpha, scale):
    for string in STRINGS:
        _assert_identical(
            text.render_text(string, color=color, scale=scale,
                             background_alpha=background_alpha),
            reference.render_text(string, color=color, scale=scale,
                                  background_alpha=background_alpha),
        )


def test_default_arguments_match():
    for string in STRINGS:
        _assert_identical(text.render_text(string), reference.render_text(string))


@pytest.mark.parametrize("char", list(_FONT) + [c.lower() for c in _FONT] + ["~", "é", "ß", "AB"])
def test_glyph_bitmap_matches_the_per_pixel_loop(char):
    _assert_identical(text.glyph_bitmap(char), reference.glyph_bitmap(char))


def test_glyph_bitmap_is_a_copy_of_the_constant_atlas():
    bitmap = text.glyph_bitmap("A")
    bitmap[:] = True
    _assert_identical(text.glyph_bitmap("A"), reference.glyph_bitmap("A"))
    _assert_identical(text.render_text("A"), reference.render_text("A"))
    with pytest.raises(ValueError):
        text._ATLAS[0, 0, 0] = True


def test_text_width_is_the_patch_width():
    for string in STRINGS:
        for scale in (1, 2, 3):
            assert text.text_width(string, scale) == text.render_text(string, scale=scale).shape[1]
