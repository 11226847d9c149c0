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

The encoder is the one statement of this grammar: each marker once and in
that order, pan/tilt signed exactly when nonzero, zoom never signed, and each
dimension's magnitudes the greedy split of its value, largest first.  Strict
means "is the encoder's output", in both decoders.  Each reads a sequence
leniently, as a candidate action, and accepts it exactly when the encoder
gives the sequence back; the scalar ``decode`` names the first token that
differs.  Lenient decoding keeps the candidate: it tolerates any magnitude
order, non-greedy magnitude runs, missing dimension markers (read as zero),
markers in any order, and signed-but-empty dimensions, which covers the kind
of near-miss sequences a sampling policy emits.

``encode_batch`` and ``decode_batch`` are the array forms of ``encode_action``
and strict ``decode``, for many actions at once; the pseudo-label files are
written through ``encode_batch``.  The scalar forms serve the command line's
``encode`` and ``decode`` and are the reference the tests hold the batch
forms to.  ``round_actions`` is the one rule that turns real-valued
predictions into codec-range integer actions.
"""

from __future__ import annotations

import math
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


def zoom_units(gain) -> np.ndarray:
    """Zoom deltas (float64 integers) multiplying a target's area by each gain in
    float64[n], all > 0: magnification doubles every 100 units, so round(50 * log2(gain))
    half away from zero.  ``math.log2`` per gain: ``np.log2`` differs in the last bit on some."""
    return round_half_away_batch(50.0 * np.fromiter(map(math.log2, gain.tolist()), np.float64, len(gain)))


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
    """Sequence is not the encoder's output (strict decoding only)."""


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

    Token ids are contiguous from a configurable base offset, and ``tokens``
    holds the table in id order whatever order it was given in.  Magnitude
    values must be exactly {1, 2, 5} x 10**level for every level below the
    vocabulary's digit-level count.
    """

    def __init__(self, tokens: Sequence[Token]):
        if not tokens:
            raise CodecError("empty vocabulary")
        self.tokens = tuple(sorted(tokens, key=lambda t: t.token_id))  # tokens[i] has id base_id + i
        ids = [t.token_id for t in self.tokens]
        base = min(ids)
        if sorted(ids) != list(range(base, base + len(ids))):
            raise CodecError("token ids must be contiguous")
        symbols = [t.symbol for t in self.tokens]
        if len(set(symbols)) != len(symbols):
            raise CodecError("token symbols must be unique")
        for symbol in symbols:  # a token string separates its symbols by whitespace
            if symbol.split() != [symbol]:
                raise CodecError(f"token symbol {symbol!r} is empty or holds whitespace")
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
        # the longest sequence ``encode_action`` writes: three markers, two
        # signs and the end, and at most three magnitudes per digit and axis
        self.max_sequence_length = 6 + 9 * levels

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
        """A table as ``save`` writes it; a bad line or table raises ``CodecError`` naming the file."""
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
                try:
                    tokens.append(Token(int(token_id), symbol, kind, int(value)))
                except ValueError:
                    raise CodecError(f"{path}:{lineno}: id and value must be integers") from None
        try:
            return cls(tokens)
        except CodecError as exc:
            raise CodecError(f"{path}: {exc}") from None


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

    Lenient mode tolerates out-of-order and non-greedy magnitudes (``<1> <1>``
    for ``<2>``), out-of-order and missing markers, and dangling signs; it
    rejects unknown tokens, duplicate markers, signs on zoom, a missing end
    token, and out-of-range values.  Strict mode is the lenient reading,
    accepted exactly when ``encode_action`` of it gives the sequence back;
    otherwise ``CanonicalFormError`` names the first token that differs
    (counting from 1) and the encoding's token there.
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

    totals = {AXIS_PAN: 0, AXIS_TILT: 0, AXIS_ZOOM: 0}  # magnitudes are positive: 0 until one is read
    signs: dict[int, int] = {}
    seen: set[int] = set()
    axis = None
    for t in tokens[:-1]:
        if t.kind == KIND_DIM:
            if t.value in seen:
                raise CodecError(f"duplicate dimension marker {t.symbol}")
            seen.add(t.value)
            axis = t.value
        elif t.kind == KIND_SIGN:
            if axis is None:
                raise CodecError(f"sign token {t.symbol} before any dimension marker")
            if axis == AXIS_ZOOM:
                raise CodecError("zoom carries no sign")
            if axis in signs:
                raise CodecError(f"duplicate sign in {_AXIS_NAMES[axis]} section")
            if totals[axis] > 0:
                raise CodecError(f"sign token {t.symbol} after magnitudes")
            signs[axis] = t.value
        else:  # magnitude
            if axis is None:
                raise CodecError(f"magnitude token {t.symbol} before any dimension marker")
            totals[axis] += t.value

    values = []
    for a in (AXIS_PAN, AXIS_TILT, AXIS_ZOOM):
        v = totals[a] * signs.get(a, 1)
        if abs(v) > vocab.max_value:
            raise CodecRangeError(
                f"reconstructed {_AXIS_NAMES[a]} value {v} outside +/-{vocab.max_value}"
            )
        values.append(v)
    action = ActionDelta(*values)
    if strict:
        canonical = encode_action(action, vocab)
        # both end in the one end token, so they differ before either ends
        for at, (got, want) in enumerate(zip(ids, canonical)):
            if got != want:
                raise CanonicalFormError(
                    f"token {at + 1} is {vocab.token(got).symbol}, where the encoding of "
                    f"{action.as_tuple()} has {vocab.token(want).symbol}"
                )
    return action


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

    Returns ``(tokens, lengths)``: ``tokens`` is int64[n, max_sequence_length]
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
    tokens = np.full((n, vocab.max_sequence_length), -1, dtype=np.int64)
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

    Each row is read as a candidate action, each marker opening the next
    section and each section's magnitudes summed and signed by its sign; a
    row is accepted exactly when ``encode_batch`` of its candidate gives the
    row back.
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
    tokens = tokens.astype(np.int64)
    rel = tokens - vocab.base_id
    inside = np.arange(width) < lengths[:, None]
    # tokens past a row's length, and unknown ids, read as _CODE_NONE
    rel = np.where(inside & (rel >= 0) & (rel < len(vocab)), rel, len(vocab))
    kind, value = kind_of[rel], value_of[rel]
    section = np.cumsum(kind == _CODE_DIM, axis=1) - 1
    actions = np.zeros((n, 3), dtype=np.int64)
    for axis in (AXIS_PAN, AXIS_TILT, AXIS_ZOOM):
        in_axis = section == axis
        total = np.sum(np.where((kind == _CODE_MAG) & in_axis, value, 0), axis=1)
        sign = np.sum(np.where((kind == _CODE_SIGN) & in_axis, value, 0), axis=1)
        actions[:, axis] = np.where(sign < 0, -total, total)
    limit = min(vocab.max_value, MAX_ACTION_VALUE)
    ok = np.all((actions >= [-limit, -limit, 0]) & (actions <= limit), axis=1)
    actions[~ok] = 0
    again, again_lengths = encode_batch(*actions.T, vocab)
    common = min(width, again.shape[1])
    ok &= again_lengths == lengths
    ok &= np.all((tokens[:, :common] == again[:, :common]) | ~inside[:, :common], axis=1)
    actions[~ok] = 0
    return actions, ok


def mean_token_length(actions: Sequence[ActionDelta]) -> TokenLengthStats:
    """Mean magnitude-token count versus one-token-per-unit discretization.

    Both statistics are per action, summed over the three dimensions.  The
    magnitude tokens are those ``encode_batch`` writes under the default
    vocabulary: each sequence less its three markers, its end token and one
    sign per nonzero pan or tilt.
    """
    if len(actions) == 0:
        raise CodecError("empty action dataset")
    pan, tilt, zoom = np.array([a.as_tuple() for a in actions], dtype=np.int64).T
    _, lengths = encode_batch(pan, tilt, zoom, TokenVocab.default())
    hier = lengths - 4 - (pan != 0) - (tilt != 0)
    uniform = np.abs(pan) + np.abs(tilt) + zoom
    return TokenLengthStats(
        mean_hierarchical=float(hier.mean()),
        mean_uniform=float(uniform.mean()),
        n_actions=len(actions),
    )
