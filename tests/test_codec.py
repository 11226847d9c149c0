import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptzkit import codec
from ptzkit.camera import round_half_away
from ptzkit.codec import (
    ActionDelta,
    CanonicalFormError,
    CodecError,
    CodecRangeError,
    TokenVocab,
    decode,
    decode_batch,
    encode_batch,
    encode_action,
    encode_digit,
    ids_from_str,
    mean_token_length,
    minimal_token_count,
    seq_to_str,
)


# Independent oracles: change-making DP over {5,2,1} and brute-force
# enumeration of all coefficient triples.  Expected literals below were
# computed with these before being frozen.

def dp_min_tokens(value: int) -> int:
    big = 10**9
    table = [0] + [big] * 9
    for v in range(1, 10):
        table[v] = 1 + min(table[v - c] for c in (5, 2, 1) if c <= v)
    total = 0
    for ch in str(value):
        total += table[int(ch)]
    return total


def enumerate_min_tokens(digit: int) -> int:
    best = None
    for a5 in range(digit // 5 + 1):
        for a2 in range((digit - 5 * a5) // 2 + 1):
            a1 = digit - 5 * a5 - 2 * a2
            count = a5 + a2 + a1
            if best is None or count < best:
                best = count
    return best


@pytest.fixture(scope="module")
def vocab():
    return TokenVocab.default()


class TestEncodeDigit:
    def test_zero(self):
        assert encode_digit(0) == codec.DigitCoeffs(0, 0, 0)
        assert encode_digit(0).token_count == 0

    def test_nine(self):
        coeffs = encode_digit(9)
        assert (coeffs.a5, coeffs.a2, coeffs.a1) == (1, 2, 0)
        assert coeffs.token_count == 3  # frozen from the DP oracle

    def test_seven(self):
        coeffs = encode_digit(7)
        assert (coeffs.a5, coeffs.a2, coeffs.a1) == (1, 1, 0)
        assert coeffs.token_count == 2  # frozen from the DP oracle

    @pytest.mark.parametrize("digit", range(10))
    def test_greedy_matches_both_oracles(self, digit):
        coeffs = encode_digit(digit)
        assert coeffs.value == digit
        assert coeffs.token_count == enumerate_min_tokens(digit)
        assert coeffs.token_count == dp_min_tokens(digit)

    @pytest.mark.parametrize("bad", [-1, 10, 3.5, "3", True])
    def test_rejects_non_digits(self, bad):
        with pytest.raises(CodecError):
            encode_digit(bad)


class TestMinimalTokenCount:
    def test_zero(self):
        assert minimal_token_count(0) == 0

    def test_98(self):
        assert minimal_token_count(98) == 6  # 50+20+20 and 5+2+1

    def test_29(self):
        # computed with the DP oracle before freezing: 20 then 5+2+2
        assert dp_min_tokens(29) == 4
        assert minimal_token_count(29) == 4

    def test_out_of_range(self):
        with pytest.raises(CodecRangeError):
            minimal_token_count(1000)
        with pytest.raises(CodecRangeError):
            minimal_token_count(-1)

    def test_whole_range_matches_per_digit_greedy(self):
        for x in range(1000):
            greedy = sum(encode_digit(int(c)).token_count for c in str(x))
            assert greedy == minimal_token_count(x) == dp_min_tokens(x)

    def test_token_budget(self):
        counts = [minimal_token_count(x) for x in range(100)]
        assert max(counts) <= 6
        assert max(counts[:30]) <= 5


class TestActionDelta:
    def test_negative_zoom_rejected(self):
        with pytest.raises(CodecError, match="zoom must be non-negative"):
            ActionDelta(0, 0, -5)

    def test_range_cap(self):
        with pytest.raises(CodecRangeError):
            ActionDelta(1000, 0, 0)
        with pytest.raises(CodecRangeError):
            ActionDelta(0, 0, 1000)

    def test_non_integer_rejected(self):
        with pytest.raises(CodecError):
            ActionDelta(1.5, 0, 0)
        with pytest.raises(CodecError):
            ActionDelta(True, 0, 0)

    def test_numpy_ints_coerced(self):
        a = ActionDelta(np.int64(3), np.int32(-2), np.int64(7))
        assert a.as_tuple() == (3, -2, 7)
        assert all(type(v) is int for v in a.as_tuple())


class TestEncodeAction:
    def test_all_zero(self, vocab):
        seq = encode_action(ActionDelta(0, 0, 0), vocab)
        assert seq_to_str(seq, vocab) == "<PAN> <TILT> <ZOOM> <END>"
        assert decode(seq, vocab, strict=True) == ActionDelta(0, 0, 0)

    def test_spec_example(self, vocab):
        seq = encode_action(ActionDelta(23, -8, 0), vocab)
        assert (
            seq_to_str(seq, vocab)
            == "<PAN> <+> <20> <2> <1> <TILT> <-> <5> <2> <1> <ZOOM> <END>"
        )

    def test_zoom_single_token(self, vocab):
        seq = encode_action(ActionDelta(0, 0, 100), vocab)
        assert seq_to_str(seq, vocab) == "<PAN> <TILT> <ZOOM> <100> <END>"

    def test_range_error_for_small_vocab(self):
        small = TokenVocab.default(levels=2)
        with pytest.raises(CodecRangeError):
            encode_action(ActionDelta(100, 0, 0), small)

    def test_magnitudes_non_increasing(self, vocab):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = ActionDelta(
                int(rng.integers(-999, 1000)),
                int(rng.integers(-999, 1000)),
                int(rng.integers(0, 1000)),
            )
            seq = encode_action(a, vocab)
            values = [vocab.token(i) for i in seq]
            prev = None
            for t in values:
                if t.kind == codec.KIND_MAG:
                    if prev is not None:
                        assert t.value <= prev
                    prev = t.value
                else:
                    prev = None


class TestDecode:
    def test_all_zero(self, vocab):
        seq = ids_from_str("<PAN> <TILT> <ZOOM> <END>", vocab)
        assert decode(seq, vocab) == ActionDelta(0, 0, 0)

    def test_round_trip_random(self, vocab):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a = ActionDelta(
                int(rng.integers(-999, 1000)),
                int(rng.integers(-999, 1000)),
                int(rng.integers(0, 1000)),
            )
            assert decode(encode_action(a, vocab), vocab) == a

    def test_non_increasing_violation_strict(self, vocab):
        ids = [
            vocab.dim_id(codec.AXIS_PAN),
            vocab.sign_id(1),
            vocab.mag_id(1),
            vocab.mag_id(20),
        ]
        with pytest.raises(CanonicalFormError, match="non-increasing"):
            decode(ids + [vocab.dim_id(codec.AXIS_TILT), vocab.dim_id(codec.AXIS_ZOOM), vocab.end_id], vocab)

    def test_lenient_accepts_any_magnitude_order(self, vocab):
        text = "<PAN> <+> <1> <20> <2> <TILT> <ZOOM> <END>"
        seq = ids_from_str(text, vocab)
        assert decode(seq, vocab, strict=False) == ActionDelta(23, 0, 0)
        with pytest.raises(CanonicalFormError):
            decode(seq, vocab, strict=True)

    def test_lenient_accepts_missing_markers_and_dangling_sign(self, vocab):
        seq = ids_from_str("<TILT> <-> <5> <END>", vocab)
        assert decode(seq, vocab, strict=False) == ActionDelta(0, -5, 0)
        dangling = ids_from_str("<PAN> <+> <TILT> <ZOOM> <END>", vocab)
        assert decode(dangling, vocab, strict=False) == ActionDelta(0, 0, 0)
        with pytest.raises(CanonicalFormError, match="sign without magnitudes"):
            decode(dangling, vocab, strict=True)

    def test_missing_end(self, vocab):
        with pytest.raises(CodecError, match="end token"):
            decode([vocab.dim_id(0), vocab.dim_id(1), vocab.dim_id(2)], vocab)

    def test_duplicate_marker_both_modes(self, vocab):
        ids = [vocab.dim_id(0), vocab.dim_id(0), vocab.end_id]
        for strict in (True, False):
            with pytest.raises(CodecError, match="duplicate"):
                decode(ids, vocab, strict=strict)

    def test_zoom_sign_rejected_both_modes(self, vocab):
        text = "<PAN> <TILT> <ZOOM> <-> <100> <END>"
        seq = ids_from_str(text, vocab)
        for strict in (True, False):
            with pytest.raises(CodecError, match="zoom"):
                decode(seq, vocab, strict=strict)

    def test_out_of_range_reconstruction(self, vocab):
        ids = (
            [vocab.dim_id(0), vocab.sign_id(1)]
            + [vocab.mag_id(500)] * 2
            + [vocab.dim_id(1), vocab.dim_id(2), vocab.end_id]
        )
        with pytest.raises(CodecRangeError):
            decode(ids, vocab, strict=False)

    def test_unknown_token(self, vocab):
        with pytest.raises(CodecError, match="unknown token"):
            decode([999], vocab)
        with pytest.raises(CodecError, match="unknown token"):
            ids_from_str("<PAN> <BOGUS> <END>", vocab)

    def test_strict_requires_canonical_marker_order(self, vocab):
        seq = ids_from_str("<TILT> <PAN> <ZOOM> <END>", vocab)
        with pytest.raises(CanonicalFormError):
            decode(seq, vocab, strict=True)
        assert decode(seq, vocab, strict=False) == ActionDelta(0, 0, 0)


class TestCanonicity:
    def test_encode_output_always_canonical(self, vocab):
        rng = np.random.default_rng(21)
        for _ in range(300):
            a = ActionDelta(
                int(rng.integers(-999, 1000)),
                int(rng.integers(-999, 1000)),
                int(rng.integers(0, 1000)),
            )
            assert decode(encode_action(a, vocab), vocab, strict=True) == a

    def test_exhaustive_small_block_round_trip(self, vocab):
        for pan in range(-20, 21):
            for tilt in (-99, -7, 0, 7, 99):
                for zoom in (0, 1, 29, 100, 999):
                    a = ActionDelta(pan, tilt, zoom)
                    assert decode(encode_action(a, vocab), vocab) == a


def reference_round_action(pan, tilt, zoom):
    """Row by row: round half away from zero, then clamp to the codec range."""
    lim = codec.MAX_ACTION_VALUE
    return [
        max(-lim, min(lim, round_half_away(pan))),
        max(-lim, min(lim, round_half_away(tilt))),
        max(0, min(lim, round_half_away(zoom))),
    ]


ROUNDING_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1500.0, 1500.0),
    st.integers(-1100, 1100).map(lambda k: k + 0.5),  # ties, in and beyond the range
    st.sampled_from([0.0, -0.0, 0.49999999999999994, -0.5, 999.5, -999.5, 2.0**53 + 2, -(2.0**53) - 2, 1e300]),
)


class TestRoundActions:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.lists(st.tuples(ROUNDING_VALUES, ROUNDING_VALUES, ROUNDING_VALUES), max_size=12))
    def test_rows_equal_scalar_round_and_clamp(self, rows):
        got = codec.round_actions(np.array(rows, dtype=np.float64).reshape(-1, 3))
        assert got.dtype == np.int64 and got.shape == (len(rows), 3)
        assert got.tolist() == [reference_round_action(*row) for row in rows]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_raises(self, value, column):
        rows = np.zeros((3, 3))
        rows[1, column] = value
        with pytest.raises(ValueError, match="row 1 is not finite"):
            codec.round_actions(rows)


def random_actions(n, seed, limit=999):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(-limit, limit + 1, n),
        rng.integers(-limit, limit + 1, n),
        rng.integers(0, limit + 1, n),
    )


BATCH_VOCABS = {"default": TokenVocab.default(), "levels2-base7": TokenVocab.default(levels=2, base_id=7)}


def draw_token_row(data, vocab, width):
    """Arbitrary ids around the vocabulary's range, or a canonical row with a
    few ids substituted, deleted or inserted."""
    some_id = st.integers(vocab.base_id - 1, vocab.base_id + len(vocab))
    if data.draw(st.booleans()):
        return data.draw(st.lists(some_id, max_size=width))
    limit = vocab.max_value
    action = ActionDelta(
        data.draw(st.integers(-limit, limit)),
        data.draw(st.integers(-limit, limit)),
        data.draw(st.integers(0, limit)),
    )
    row = list(encode_action(action, vocab))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(row) - 1))
        edit = data.draw(st.sampled_from(["substitute", "delete", "insert"]))
        if edit == "substitute":
            row[at] = data.draw(some_id)
        elif edit == "delete" and len(row) > 1:
            del row[at]
        elif edit == "insert" and len(row) < width:
            row.insert(at, data.draw(some_id))
    return row


class TestDecodeProperties:
    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(st.sampled_from(sorted(BATCH_VOCABS)), st.data())
    def test_strict_acceptance_implies_lenient_with_same_value(self, name, data):
        vocab = BATCH_VOCABS[name]
        row = draw_token_row(data, vocab, 6 + 9 * vocab.levels)
        try:
            strict = decode(row, vocab, strict=True)
        except CodecError:
            return
        assert decode(row, vocab, strict=False) == strict

    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(st.sampled_from(sorted(BATCH_VOCABS)), st.data())
    def test_lenient_decode_raises_only_codec_error(self, name, data):
        vocab = BATCH_VOCABS[name]
        if data.draw(st.booleans()):
            row = draw_token_row(data, vocab, 2 * (6 + 9 * vocab.levels))
        else:
            row = data.draw(st.lists(st.integers(-(2**70), 2**70), max_size=12))
        try:
            action = decode(row, vocab, strict=False)
        except CodecError:
            return
        assert isinstance(action, ActionDelta)


class TestBatchCodec:
    @pytest.mark.parametrize("name", sorted(BATCH_VOCABS))
    def test_encode_batch_matches_encode_action(self, name):
        vocab = BATCH_VOCABS[name]
        pan, tilt, zoom = random_actions(2000, seed=13, limit=vocab.max_value)
        tokens, lengths = encode_batch(pan, tilt, zoom, vocab)
        assert tokens.shape == (2000, 6 + 9 * vocab.levels)
        for i in range(pan.shape[0]):
            ref = encode_action(ActionDelta(int(pan[i]), int(tilt[i]), int(zoom[i])), vocab)
            assert tuple(tokens[i, : lengths[i]]) == ref
            assert np.all(tokens[i, lengths[i] :] == -1)

    @pytest.mark.parametrize("name", sorted(BATCH_VOCABS))
    def test_round_trip_random(self, name):
        vocab = BATCH_VOCABS[name]
        actions = np.stack(random_actions(5000, seed=29, limit=vocab.max_value), axis=1)
        back, ok = decode_batch(*encode_batch(actions[:, 0], actions[:, 1], actions[:, 2], vocab), vocab)
        assert ok.all()
        assert np.array_equal(back, actions)

    def test_round_trip_small_block(self, vocab):
        grid = np.stack(np.meshgrid(np.arange(-9, 10), np.arange(-9, 10), np.arange(100)), -1).reshape(-1, 3)
        back, ok = decode_batch(*encode_batch(grid[:, 0], grid[:, 1], grid[:, 2], vocab), vocab)
        assert ok.all()
        assert np.array_equal(back, grid)

    @pytest.mark.parametrize(
        "pan,tilt,zoom,levels",
        [(1000, 0, 0, 3), (0, -1000, 0, 3), (0, 0, 1000, 3), (0, 0, -1, 3), (100, 0, 0, 2), (0, 0, 100, 2)],
    )
    def test_encode_batch_rejects_what_encode_action_rejects(self, pan, tilt, zoom, levels):
        vocab = TokenVocab.default(levels=levels)
        with pytest.raises(CodecError):
            encode_action(ActionDelta(pan, tilt, zoom), vocab)
        with pytest.raises(CodecRangeError, match="row 1"):
            encode_batch(np.array([0, pan]), np.array([0, tilt]), np.array([0, zoom]), vocab)

    def test_decode_batch_ignores_padding_and_flags_bad_rows(self, vocab):
        good = list(encode_action(ActionDelta(23, -8, 0), vocab))
        unsorted = ids_from_str("<PAN> <+> <1> <20> <2> <TILT> <ZOOM> <END>", vocab)
        width = 6 + 9 * vocab.levels
        tokens = np.full((3, width), 999)
        tokens[0, : len(good)] = good
        tokens[1, : len(unsorted)] = unsorted
        tokens[2, : len(good)] = good
        actions, ok = decode_batch(tokens, np.array([len(good), len(unsorted), 0]), vocab)
        assert ok.tolist() == [True, False, False]
        assert actions.tolist() == [[23, -8, 0], [0, 0, 0], [0, 0, 0]]

    @settings(derandomize=True, max_examples=1500, deadline=None)
    @given(st.sampled_from(sorted(BATCH_VOCABS)), st.data())
    def test_decode_batch_accepts_exactly_what_strict_decode_accepts(self, name, data):
        vocab = BATCH_VOCABS[name]
        width = 6 + 9 * vocab.levels
        row = draw_token_row(data, vocab, width)
        try:
            expected = decode(row, vocab, strict=True).as_tuple()
        except CodecError:
            expected = None
        tokens = np.full((1, width), -1)
        tokens[0, : len(row)] = row
        actions, ok = decode_batch(tokens, np.array([len(row)]), vocab)
        assert (tuple(actions[0].tolist()) if ok[0] else None) == expected


class TestVocab:
    def test_default_layout(self, vocab):
        assert len(vocab) == 15
        assert vocab.levels == 3
        assert [t.symbol for t in vocab.tokens[:5]] == ["<PAN>", "<TILT>", "<ZOOM>", "<+>", "<->"]
        assert vocab.tokens[-1].symbol == "<END>"
        mags = sorted(t.value for t in vocab.tokens if t.kind == codec.KIND_MAG)
        assert mags == [1, 2, 5, 10, 20, 50, 100, 200, 500]

    def test_base_offset(self):
        shifted = TokenVocab.default(base_id=151640)
        assert shifted.base_id == 151640
        a = ActionDelta(23, -8, 0)
        assert decode(encode_action(a, shifted), shifted) == a

    def test_file_round_trip(self, tmp_path, vocab):
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = TokenVocab.load(path)
        assert loaded.tokens == vocab.tokens
        body = path.read_text().splitlines()
        assert body[0].split("\t") == ["0", "<PAN>", "dim", "0"]

    def test_rejects_gapped_ids(self):
        tokens = list(TokenVocab.default().tokens)
        bad = tokens[:-1] + [codec.Token(99, "<END>", codec.KIND_END, 0)]
        with pytest.raises(CodecError, match="contiguous"):
            TokenVocab(bad)

    def test_rejects_incomplete_magnitudes(self):
        tokens = [t for t in TokenVocab.default().tokens if t.value != 200 or t.kind != codec.KIND_MAG]
        renumbered = [codec.Token(i, t.symbol, t.kind, t.value) for i, t in enumerate(tokens)]
        with pytest.raises(CodecError):
            TokenVocab(renumbered)


class TestMeanTokenLength:
    def test_single_zero_action(self):
        stats = mean_token_length([ActionDelta(0, 0, 0)])
        assert stats.mean_hierarchical == 0.0
        assert stats.mean_uniform == 0.0

    def test_spec_example(self):
        stats = mean_token_length([ActionDelta(23, -8, 0)])
        assert stats.mean_hierarchical == 6.0  # 20+2+1 and 5+2+1
        assert stats.mean_uniform == 31.0  # 23 + 8 + 0

    def test_matches_per_action_counts(self):
        rng = np.random.default_rng(5)
        actions = [
            ActionDelta(int(rng.integers(-99, 100)), int(rng.integers(-99, 100)), int(rng.integers(0, 300)))
            for _ in range(100)
        ]
        stats = mean_token_length(actions)
        expected = np.mean(
            [
                sum(minimal_token_count(abs(v)) for v in a.as_tuple())
                for a in actions
            ]
        )
        assert stats.mean_hierarchical == pytest.approx(float(expected))

    def test_empty_dataset(self):
        with pytest.raises(CodecError):
            mean_token_length([])

    def test_greedy_counts_match_dp(self):
        values = np.arange(0, 1000, dtype=np.int64)
        counts = codec._greedy_magnitude_counts(values)
        expected = np.array([minimal_token_count(int(v)) for v in values])
        assert np.array_equal(counts, expected)
        # signs do not change the count
        assert np.array_equal(codec._greedy_magnitude_counts(-values), counts)
