"""Reference arithmetic written from the README, apart from ``ptzkit``.

The benchmark checks the program's outputs against these functions, so none
of them imports ``ptzkit``: a fault shared by the program and its checker
would pass unseen.
"""

from __future__ import annotations

import math

LEVELS = 3
MAX_VALUE = 10**LEVELS - 1
MARKERS = ("<PAN>", "<TILT>", "<ZOOM>")
END = "<END>"
SIGNS = {"<+>": 1, "<->": -1}


class GrammarError(ValueError):
    """A token string outside the canonical grammar."""


def round_half_away(x: float) -> int:
    """Nearest integer, ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


def clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def magnitude_tokens(value: int) -> list[str]:
    """Greedy {5, 2, 1} split of each decimal digit, highest level first."""
    tokens = []
    for level in range(LEVELS - 1, -1, -1):
        digit = (value // 10**level) % 10
        for coin in (5, 2, 1):
            tokens += [f"<{coin * 10**level}>"] * (digit // coin)
            digit %= coin
    return tokens


def encode(pan: int, tilt: int, zoom: int) -> str:
    """Canonical ``<PAN> [sign mags] <TILT> [sign mags] <ZOOM> [mags] <END>``."""
    tokens = []
    for marker, value in zip(MARKERS, (pan, tilt, zoom)):
        tokens.append(marker)
        if value != 0:
            if marker != "<ZOOM>":
                tokens.append("<+>" if value > 0 else "<->")
            tokens += magnitude_tokens(abs(value))
    tokens.append(END)
    return " ".join(tokens)


def _magnitude(token: str) -> int:
    # only the value is read here; decode() rejects any token that the
    # canonical re-encoding does not reproduce
    if not (token.startswith("<") and token.endswith(">") and token[1:-1].isdigit()):
        raise GrammarError(f"not a magnitude token: {token!r}")
    return int(token[1:-1])


def decode(text: str) -> tuple[int, int, int]:
    """Strict decoder for the canonical grammar; raises ``GrammarError``.

    A string is canonical exactly when re-encoding its values gives it back.
    """
    tokens = text.split()
    if not tokens or tokens[-1] != END:
        raise GrammarError("missing <END>")
    pos = 0
    values = []
    for marker in MARKERS:
        if tokens[pos] != marker:
            raise GrammarError(f"expected {marker} at position {pos}")
        pos += 1
        sign = 1
        if tokens[pos] in SIGNS:
            sign = SIGNS[tokens[pos]]
            pos += 1
        total = 0
        while tokens[pos] not in MARKERS and tokens[pos] != END:
            total += _magnitude(tokens[pos])
            pos += 1
        values.append(sign * total)
    if pos != len(tokens) - 1:
        raise GrammarError("tokens after the zoom section")
    if values[2] < 0 or any(abs(v) > MAX_VALUE for v in values):
        raise GrammarError(f"values out of range: {values}")
    if encode(*values) != " ".join(tokens):
        raise GrammarError("not the canonical greedy form")
    return values[0], values[1], values[2]


def record_features(image_w: float, image_h: float, bbox) -> tuple[float, float, float]:
    """(x_norm, y_norm, w1): box centre mapped to (-1, 1) and box/frame area."""
    x0, y0, x1, y1 = bbox
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    x_norm = (cx - image_w / 2.0) / (image_w / 2.0)
    y_norm = (cy - image_h / 2.0) / (image_h / 2.0)
    return x_norm, y_norm, (x1 - x0) * (y1 - y0) / (image_w * image_h)


def crop_zoom(image_w: float, image_h: float, bbox) -> int:
    """``round(50 * log2(w2 / w1))`` for the smallest frame-aspect crop window."""
    x0, y0, x1, y1 = bbox
    bw, bh = x1 - x0, y1 - y0
    aspect = image_w / image_h
    win_w = max(bw, bh * aspect)
    win_h = win_w / aspect
    w1 = bw * bh / (image_w * image_h)
    w2 = bw * bh / (win_w * win_h)
    return clamp(round_half_away(50.0 * math.log2(w2 / w1)), 0, MAX_VALUE)


def ols_action(heads: dict, features) -> tuple[int, int]:
    """Pan and tilt from a saved OLS model's coefficients, rounded and clamped."""
    out = []
    for name in ("pan", "tilt"):
        head = heads[name]
        pred = sum(c * f for c, f in zip(head["coef"], features)) + head["intercept"]
        out.append(clamp(round_half_away(pred), -MAX_VALUE, MAX_VALUE))
    return out[0], out[1]
