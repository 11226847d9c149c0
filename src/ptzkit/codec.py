"""Hierarchical pan/tilt/zoom action token codec.

An action is a triple of integer camera adjustments: pan degrees, tilt
degrees, and zoom units (100 zoom units double the linear magnification).
Each value is split into decimal digits, and every digit is written as a
minimal multiset over the basis {5, 2, 1}; a basis element ``d`` at digit
level ``l`` becomes a magnitude token worth ``d * 10**l``.  The basis is a
canonical coin system, so the greedy decomposition (5s, then 2s, then 1s) is
token-minimal for every digit; ``minimal_token_count`` is the independent
dynamic-programming check of that claim.

Canonical sequence grammar, one action per sequence::

    <PAN> [sign mags] <TILT> [sign mags] <ZOOM> [mags] <END>

Each dimension marker appears exactly once and in that order; magnitudes
within a dimension are non-increasing; pan/tilt carry a sign token exactly
when nonzero; a zero-valued dimension is a bare marker; zoom is never signed.
Strict decoding accepts exactly the canonical sequences.  Lenient decoding
additionally tolerates arbitrary magnitude order, missing dimension markers
(read as zero), markers in any order, and signed-but-empty dimensions, which
covers the kind of near-miss sequences a sampling policy emits.

``encode_batch`` and ``decode_batch`` are the array forms of ``encode_action``
and strict ``decode``, for many actions at once.  ``round_actions`` is the one
rule that turns real-valued predictions into codec-range integer actions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DIGIT_BASIS = (5, 2, 1)
DEFAULT_LEVELS = 3
MAX_ACTION_VALUE = 10**DEFAULT_LEVELS - 1

KIND_DIM = "dim"
KIND_SIGN = "sign"
KIND_MAG = "mag"
KIND_END = "end"

AXIS_PAN, AXIS_TILT, AXIS_ZOOM = 0, 1, 2
_AXIS_NAMES = ("pan", "tilt", "zoom")


def round_half_away_batch(x) -> np.ndarray:
    """Elementwise ``camera.round_half_away`` as float64: nearest integer, ties
    away from zero, by the same ``floor(x + 0.5)`` / ``ceil(x - 0.5)`` doubles."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


def round_actions(values) -> np.ndarray:
    """int64[n, 3] codec-range actions from real-valued (pan, tilt, zoom) rows.

    Every value is rounded half away from zero; pan and tilt are then clamped
    to +/-MAX_ACTION_VALUE and zoom to [0, MAX_ACTION_VALUE] (zoom in only).
    A NaN or an infinity raises ``ValueError`` naming its row.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1, 3)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"predicted action {values[row].tolist()} in row {row} is not finite")
    lim = MAX_ACTION_VALUE
    return np.clip(round_half_away_batch(values), [-lim, -lim, 0], lim).astype(np.int64)


class CodecError(ValueError):
    """Base class for encode/decode failures."""


class CodecRangeError(CodecError):
    """Value outside the range representable by the vocabulary."""


class CanonicalFormError(CodecError):
    """Sequence violates the canonical grammar (strict decoding only)."""


@dataclass(frozen=True)
class ActionDelta:
    """Integer camera adjustment: pan/tilt degrees and non-negative zoom units."""

    pan_deg: int
    tilt_deg: int
    zoom_units: int

    def __post_init__(self):
        for name in ("pan_deg", "tilt_deg", "zoom_units"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise CodecError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.zoom_units < 0:
            raise CodecError("zoom must be non-negative")
        if abs(self.pan_deg) > MAX_ACTION_VALUE or abs(self.tilt_deg) > MAX_ACTION_VALUE:
            raise CodecRangeError(
                f"pan/tilt magnitude exceeds {MAX_ACTION_VALUE}: "
                f"({self.pan_deg}, {self.tilt_deg})"
            )
        if self.zoom_units > MAX_ACTION_VALUE:
            raise CodecRangeError(f"zoom exceeds {MAX_ACTION_VALUE}: {self.zoom_units}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pan_deg, self.tilt_deg, self.zoom_units)


@dataclass(frozen=True)
class DigitCoeffs:
    """Multiplicities of 5, 2 and 1 whose weighted sum is one decimal digit."""

    a5: int
    a2: int
    a1: int

    @property
    def token_count(self) -> int:
        return self.a5 + self.a2 + self.a1

    @property
    def value(self) -> int:
        return 5 * self.a5 + 2 * self.a2 + self.a1


@dataclass(frozen=True)
class Token:
    token_id: int
    symbol: str
    kind: str
    value: int


class TokenVocab:
    """Ordered action-token table: dimension markers, signs, magnitudes, end.

    Token ids are contiguous from a configurable base offset.  Magnitude
    values must be exactly {1, 2, 5} x 10**level for every level below the
    vocabulary's digit-level count.
    """

    def __init__(self, tokens: Sequence[Token]):
        if not tokens:
            raise CodecError("empty vocabulary")
        self.tokens = tuple(tokens)
        ids = [t.token_id for t in self.tokens]
        base = min(ids)
        if sorted(ids) != list(range(base, base + len(ids))):
            raise CodecError("token ids must be contiguous")
        symbols = [t.symbol for t in self.tokens]
        if len(set(symbols)) != len(symbols):
            raise CodecError("token symbols must be unique")
        self.base_id = base
        self._by_id = {t.token_id: t for t in self.tokens}
        self._by_symbol = {t.symbol: t for t in self.tokens}
        self._dim_ids = {}
        self._sign_ids = {}
        self._mag_ids = {}
        end_ids = []
        for t in self.tokens:
            if t.kind == KIND_DIM:
                self._dim_ids[t.value] = t.token_id
            elif t.kind == KIND_SIGN:
                self._sign_ids[t.value] = t.token_id
            elif t.kind == KIND_MAG:
                self._mag_ids[t.value] = t.token_id
            elif t.kind == KIND_END:
                end_ids.append(t.token_id)
            else:
                raise CodecError(f"unknown token kind {t.kind!r}")
        if sorted(self._dim_ids) != [AXIS_PAN, AXIS_TILT, AXIS_ZOOM]:
            raise CodecError("vocabulary needs exactly the pan, tilt and zoom markers")
        if sorted(self._sign_ids) != [-1, 1]:
            raise CodecError("vocabulary needs exactly one positive and one negative sign")
        if len(end_ids) != 1:
            raise CodecError("vocabulary needs exactly one end token")
        self.end_id = end_ids[0]
        levels = 0
        while {d * 10**levels for d in DIGIT_BASIS} <= set(self._mag_ids):
            levels += 1
        expected = {d * 10**l for d in DIGIT_BASIS for l in range(levels)}
        if levels == 0 or set(self._mag_ids) != expected:
            raise CodecError("magnitude values must be {1,2,5} x 10**level for each level")
        self.levels = levels
        self.max_value = 10**levels - 1

    @classmethod
    def default(cls, levels: int = DEFAULT_LEVELS, base_id: int = 0) -> "TokenVocab":
        """The 15-token layout shared by all three dimensions (levels=3)."""
        if not 1 <= levels <= DEFAULT_LEVELS:
            raise CodecError(f"levels must be in [1, {DEFAULT_LEVELS}]")
        tokens = [
            Token(base_id + 0, "<PAN>", KIND_DIM, AXIS_PAN),
            Token(base_id + 1, "<TILT>", KIND_DIM, AXIS_TILT),
            Token(base_id + 2, "<ZOOM>", KIND_DIM, AXIS_ZOOM),
            Token(base_id + 3, "<+>", KIND_SIGN, 1),
            Token(base_id + 4, "<->", KIND_SIGN, -1),
        ]
        next_id = base_id + 5
        for level in range(levels):
            for d in (1, 2, 5):
                value = d * 10**level
                tokens.append(Token(next_id, f"<{value}>", KIND_MAG, value))
                next_id += 1
        tokens.append(Token(next_id, "<END>", KIND_END, 0))
        return cls(tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, token_id: int) -> Token:
        try:
            return self._by_id[token_id]
        except KeyError:
            raise CodecError(f"unknown token id {token_id}") from None

    def token_for_symbol(self, symbol: str) -> Token:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise CodecError(f"unknown token {symbol!r}") from None

    def dim_id(self, axis: int) -> int:
        return self._dim_ids[axis]

    def sign_id(self, sign: int) -> int:
        return self._sign_ids[sign]

    def mag_id(self, value: int) -> int:
        return self._mag_ids[value]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(f"{t.token_id}\t{t.symbol}\t{t.kind}\t{t.value}\n")

    @classmethod
    def load(cls, path) -> "TokenVocab":
        tokens = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise CodecError(f"{path}:{lineno}: expected 4 tab-separated fields")
                token_id, symbol, kind, value = parts
                tokens.append(Token(int(token_id), symbol, kind, int(value)))
        return cls(tokens)


@dataclass(frozen=True)
class TokenLengthStats:
    """Mean per-action token cost under the two discretizations."""

    mean_hierarchical: float
    mean_uniform: float
    n_actions: int


# Per-digit change-making minima over the basis, computed by dynamic
# programming.  This is the independent optimality check for the greedy path.
def _digit_min_counts() -> tuple[int, ...]:
    big = 10**9
    table = [0] + [big] * 9
    for v in range(1, 10):
        table[v] = 1 + min(table[v - c] for c in DIGIT_BASIS if c <= v)
    return tuple(table)


_DIGIT_MIN = _digit_min_counts()


def encode_digit(d: int) -> DigitCoeffs:
    """Greedy minimal decomposition of one decimal digit over {5, 2, 1}."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or not 0 <= d <= 9:
        raise CodecError(f"digit must be an integer in [0, 9], got {d!r}")
    d = int(d)
    a5 = d // 5
    rest = d % 5
    return DigitCoeffs(a5, rest // 2, rest % 2)


def minimal_token_count(x: int, levels: int = DEFAULT_LEVELS) -> int:
    """Exact minimum magnitude-token count for ``x`` (dynamic programming).

    Minimality is per decimal digit, matching the encoder's constraint that
    every digit is decomposed independently.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise CodecError(f"value must be an integer, got {x!r}")
    x = int(x)
    if not 0 <= x <= 10**levels - 1:
        raise CodecRangeError(f"value {x} outside [0, {10**levels - 1}]")
    total = 0
    while x > 0:
        total += _DIGIT_MIN[x % 10]
        x //= 10
    return total


def _magnitude_ids(value: int, vocab: TokenVocab) -> list[int]:
    ids = []
    for level in range(vocab.levels - 1, -1, -1):
        coeffs = encode_digit((value // 10**level) % 10)
        ids.extend([vocab.mag_id(5 * 10**level)] * coeffs.a5)
        ids.extend([vocab.mag_id(2 * 10**level)] * coeffs.a2)
        ids.extend([vocab.mag_id(1 * 10**level)] * coeffs.a1)
    return ids


def encode_action(action: ActionDelta, vocab: TokenVocab) -> tuple[int, ...]:
    """Canonical token-id sequence for an action."""
    for name, value in zip(_AXIS_NAMES, action.as_tuple()):
        if abs(value) > vocab.max_value:
            raise CodecRangeError(
                f"{name} value {value} exceeds vocabulary range +/-{vocab.max_value}"
            )
    ids = [vocab.dim_id(AXIS_PAN)]
    if action.pan_deg != 0:
        ids.append(vocab.sign_id(1 if action.pan_deg > 0 else -1))
        ids.extend(_magnitude_ids(abs(action.pan_deg), vocab))
    ids.append(vocab.dim_id(AXIS_TILT))
    if action.tilt_deg != 0:
        ids.append(vocab.sign_id(1 if action.tilt_deg > 0 else -1))
        ids.extend(_magnitude_ids(abs(action.tilt_deg), vocab))
    ids.append(vocab.dim_id(AXIS_ZOOM))
    if action.zoom_units != 0:
        ids.extend(_magnitude_ids(action.zoom_units, vocab))
    ids.append(vocab.end_id)
    return tuple(ids)


def decode(seq: Iterable[int], vocab: TokenVocab, strict: bool = True) -> ActionDelta:
    """Reconstruct the action by summing signed magnitude contributions.

    Strict mode accepts exactly the canonical grammar.  Lenient mode tolerates
    out-of-order magnitudes and markers, missing markers, and dangling signs;
    it still rejects unknown tokens, duplicate markers, signs on zoom, a
    missing end token, and out-of-range values.
    """
    ids = tuple(seq)
    if not ids:
        raise CodecError("empty token sequence")
    tokens = [vocab.token(i) for i in ids]
    if tokens[-1].kind != KIND_END:
        raise CodecError("missing end token")
    for t in tokens[:-1]:
        if t.kind == KIND_END:
            raise CodecError("tokens after end token")

    totals = {AXIS_PAN: 0, AXIS_TILT: 0, AXIS_ZOOM: 0}
    signs: dict[int, int] = {}
    seen: list[int] = []
    axis = None
    sign_pending = False
    prev_mag = None
    mags_in_axis = 0

    def close_axis():
        if sign_pending and strict:
            raise CanonicalFormError(
                f"sign without magnitudes in {_AXIS_NAMES[axis]} section"
            )

    for t in tokens[:-1]:
        if t.kind == KIND_DIM:
            if t.value in seen:
                raise CodecError(f"duplicate dimension marker {t.symbol}")
            if axis is not None:
                close_axis()
            if strict and t.value != len(seen):
                raise CanonicalFormError(
                    f"dimension marker {t.symbol} out of canonical order"
                )
            seen.append(t.value)
            axis = t.value
            sign_pending = False
            prev_mag = None
            mags_in_axis = 0
        elif t.kind == KIND_SIGN:
            if axis is None:
                raise CodecError(f"sign token {t.symbol} before any dimension marker")
            if axis == AXIS_ZOOM:
                raise CodecError("zoom carries no sign")
            if axis in signs:
                raise CodecError(f"duplicate sign in {_AXIS_NAMES[axis]} section")
            if mags_in_axis > 0:
                raise CodecError(f"sign token {t.symbol} after magnitudes")
            signs[axis] = t.value
            sign_pending = True
        else:  # magnitude
            if axis is None:
                raise CodecError(f"magnitude token {t.symbol} before any dimension marker")
            if strict:
                if axis != AXIS_ZOOM and axis not in signs:
                    raise CanonicalFormError(
                        f"magnitude token {t.symbol} without a preceding sign"
                    )
                if prev_mag is not None and t.value > prev_mag:
                    raise CanonicalFormError(
                        f"magnitude token {t.symbol} breaks non-increasing order"
                    )
            totals[axis] += t.value
            prev_mag = t.value
            mags_in_axis += 1
            sign_pending = False
    if axis is not None:
        close_axis()
    if strict and len(seen) != 3:
        missing = [_AXIS_NAMES[a] for a in (AXIS_PAN, AXIS_TILT, AXIS_ZOOM) if a not in seen]
        raise CanonicalFormError(f"missing dimension marker(s): {', '.join(missing)}")

    values = []
    for a in (AXIS_PAN, AXIS_TILT, AXIS_ZOOM):
        v = totals[a] * signs.get(a, 1)
        if abs(v) > vocab.max_value:
            raise CodecRangeError(
                f"reconstructed {_AXIS_NAMES[a]} value {v} outside +/-{vocab.max_value}"
            )
        values.append(v)
    return ActionDelta(values[0], values[1], values[2])


def seq_to_str(ids: Iterable[int], vocab: TokenVocab) -> str:
    return " ".join(vocab.token(i).symbol for i in ids)


def ids_from_str(text: str, vocab: TokenVocab) -> tuple[int, ...]:
    return tuple(vocab.token_for_symbol(sym).token_id for sym in text.split())


def _digit_token_ids(vocab: TokenVocab) -> np.ndarray:
    """``[level, digit, slot]`` ids of each digit's greedy magnitude tokens, -1 padded."""
    table = np.full((vocab.levels, 10, 3), -1, dtype=np.int64)
    for level in range(vocab.levels):
        for digit in range(10):
            ids = _magnitude_ids(digit * 10**level, vocab)
            table[level, digit, : len(ids)] = ids
    return table


def encode_batch(pan, tilt, zoom, vocab: TokenVocab) -> tuple[np.ndarray, np.ndarray]:
    """Canonical token ids for a batch of actions, row ``i`` as ``encode_action``.

    Returns ``(tokens, lengths)``: ``tokens`` is int64[n, 6 + 9 * levels]
    padded with -1, and ``tokens[i, :lengths[i]]`` is the sequence of action i.
    Raises ``CodecRangeError`` naming the first row that ``encode_action``
    would reject for its range.
    """
    columns = [np.asarray(v) for v in (pan, tilt, zoom)]
    for name, v in zip(_AXIS_NAMES, columns):
        if not np.issubdtype(v.dtype, np.integer) or v.shape != columns[0].shape or v.ndim != 1:
            raise CodecError(f"{name} must be a 1-D integer array as long as pan")
    columns = [v.astype(np.int64) for v in columns]
    limit = min(vocab.max_value, MAX_ACTION_VALUE)
    for name, v, low in zip(_AXIS_NAMES, columns, (-limit, -limit, 0)):
        bad = (v < low) | (v > limit)
        if bad.any():
            row = int(np.argmax(bad))
            raise CodecRangeError(f"{name} value {v[row]} in row {row} outside [{low}, {limit}]")

    n = columns[0].shape[0]
    tokens = np.full((n, 6 + 9 * vocab.levels), -1, dtype=np.int64)
    lengths = np.zeros(n, dtype=np.int64)

    def emit(ids, present):
        rows = np.flatnonzero(present)
        tokens[rows, lengths[rows]] = ids[rows]
        lengths[rows] += 1

    everyone = np.ones(n, dtype=bool)
    digit_ids = _digit_token_ids(vocab)
    for axis, v in enumerate(columns):
        emit(np.full(n, vocab.dim_id(axis)), everyone)
        if axis != AXIS_ZOOM:
            emit(np.where(v > 0, vocab.sign_id(1), vocab.sign_id(-1)), v != 0)
        magnitude = np.abs(v)
        for level in range(vocab.levels - 1, -1, -1):
            ids = digit_ids[level][(magnitude // 10**level) % 10]
            for slot in range(ids.shape[1]):
                emit(ids[:, slot], ids[:, slot] >= 0)
    emit(np.full(n, vocab.end_id), everyone)
    return tokens, lengths


_CODE_DIM, _CODE_SIGN, _CODE_MAG, _CODE_END, _CODE_NONE = range(5)
_KIND_CODES = {KIND_DIM: _CODE_DIM, KIND_SIGN: _CODE_SIGN, KIND_MAG: _CODE_MAG, KIND_END: _CODE_END}


def decode_batch(tokens, lengths, vocab: TokenVocab) -> tuple[np.ndarray, np.ndarray]:
    """Strict decoding of many token-id rows at once.

    Row ``i`` is ``tokens[i, :lengths[i]]``; what lies past its length is
    ignored.  Returns ``(actions, ok)``: ``ok[i]`` is True exactly when
    ``decode(row, vocab, strict=True)`` accepts the row, and then
    ``actions[i]`` holds its (pan, tilt, zoom); rejected rows read 0.
    """
    tokens = np.asarray(tokens)
    lengths = np.asarray(lengths)
    if tokens.ndim != 2 or not np.issubdtype(tokens.dtype, np.integer):
        raise CodecError("tokens must be a 2-D integer array")
    n, width = tokens.shape
    if lengths.shape != (n,) or not np.issubdtype(lengths.dtype, np.integer):
        raise CodecError("lengths must be a 1-D integer array with one entry per row")
    if np.any((lengths < 0) | (lengths > width)):
        raise CodecError(f"lengths must lie in [0, {width}]")

    kind_of = np.array([_KIND_CODES[t.kind] for t in vocab.tokens] + [_CODE_NONE])
    value_of = np.array([t.value for t in vocab.tokens] + [0], dtype=np.int64)
    rel = tokens.astype(np.int64) - vocab.base_id
    inside = np.arange(width) < lengths[:, None]
    known = (rel >= 0) & (rel < len(vocab))
    ok = (lengths >= 1) & np.all(known | ~inside, axis=1)
    # tokens past a row's length, and unknown ids, read as _CODE_NONE
    rel = np.where(known & inside, rel, len(vocab))
    kind = kind_of[rel]
    value = value_of[rel]
    none = np.full((n, 1), _CODE_NONE)
    prev_kind = np.hstack([none, kind[:, :-1]])
    next_kind = np.hstack([kind[:, 1:], none])

    # END exactly once, and last
    is_end = kind == _CODE_END
    ok &= (is_end.sum(axis=1) == 1) & is_end[np.arange(n), np.maximum(lengths - 1, 0)]
    # the three markers, first and in axis order; ``section`` is the current axis
    is_dim = kind == _CODE_DIM
    section = np.cumsum(is_dim, axis=1) - 1
    ok &= (kind[:, 0] == _CODE_DIM) & (is_dim.sum(axis=1) == 3)
    ok &= np.all(~is_dim | (value == section), axis=1)
    # a sign right after a pan or tilt marker, and followed by a magnitude
    is_sign = kind == _CODE_SIGN
    sign_ok = (prev_kind == _CODE_DIM) & (section != AXIS_ZOOM) & (next_kind == _CODE_MAG)
    ok &= np.all(~is_sign | sign_ok, axis=1)
    # pan and tilt magnitudes follow their sign; magnitudes are non-increasing
    is_mag = kind == _CODE_MAG
    prev_value = np.hstack([np.zeros((n, 1), dtype=np.int64), value[:, :-1]])
    mag_ok = ((prev_kind != _CODE_DIM) | (section == AXIS_ZOOM)) & (
        (prev_kind != _CODE_MAG) | (value <= prev_value)
    )
    ok &= np.all(~is_mag | mag_ok, axis=1)

    actions = np.zeros((n, 3), dtype=np.int64)
    for axis in (AXIS_PAN, AXIS_TILT, AXIS_ZOOM):
        in_axis = section == axis
        total = np.sum(np.where(is_mag & in_axis, value, 0), axis=1)
        sign = np.sum(np.where(is_sign & in_axis, value, 0), axis=1)
        actions[:, axis] = np.where(sign < 0, -total, total)
    ok &= np.all(np.abs(actions) <= min(vocab.max_value, MAX_ACTION_VALUE), axis=1)
    actions[~ok] = 0
    return actions, ok


def _greedy_magnitude_counts(values) -> np.ndarray:
    """Greedy magnitude-token count for each value (digits over basis {5,2,1})."""
    v = np.abs(np.asarray(values, dtype=np.int64))
    counts = np.zeros(v.shape, dtype=np.int64)
    while np.any(v > 0):
        d = v % 10
        r = d % 5
        counts += d // 5 + r // 2 + r % 2
        v //= 10
    return counts


def mean_token_length(actions: Sequence[ActionDelta]) -> TokenLengthStats:
    """Mean magnitude-token count versus one-token-per-unit discretization.

    Both statistics are per action, summed over the three dimensions.
    """
    if len(actions) == 0:
        raise CodecError("empty action dataset")
    pan = np.array([a.pan_deg for a in actions], dtype=np.int64)
    tilt = np.array([a.tilt_deg for a in actions], dtype=np.int64)
    zoom = np.array([a.zoom_units for a in actions], dtype=np.int64)
    hier = (
        _greedy_magnitude_counts(pan)
        + _greedy_magnitude_counts(tilt)
        + _greedy_magnitude_counts(zoom)
    )
    uniform = np.abs(pan) + np.abs(tilt) + np.abs(zoom)
    return TokenLengthStats(
        mean_hierarchical=float(hier.mean()),
        mean_uniform=float(uniform.mean()),
        n_actions=len(actions),
    )
