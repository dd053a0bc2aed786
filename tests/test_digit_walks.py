"""Digit extraction in arbitrary bases and deterministic walk rendering."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from expmath import digit_walks, precision
from expmath.precision import DomainError, PrecisionContext, PrecisionError


def _ctx(digits=60):
    return PrecisionContext.from_digits(digits)


class TestDigits:
    def test_pi_decimal_prefix(self):
        s = digit_walks.digits("pi", 10, 15, _ctx())
        assert s.digits == (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9)
        assert s.base == 10
        assert s.constant == "pi"

    def test_pi_base_four_against_integer_arithmetic(self):
        # independent oracle: floor(pi * 4^7) = 51471 = 30210033 in base 4
        s = digit_walks.digits("pi", 4, 8, _ctx())
        n = 51471
        expected = []
        for _ in range(8):
            expected.append(n % 4)
            n //= 4
        assert s.digits == tuple(reversed(expected))
        assert s.digits == (3, 0, 2, 1, 0, 0, 3, 3)

    def test_e_and_gamma_prefixes(self):
        assert digit_walks.digits("e", 10, 6, _ctx()).digits == (2, 7, 1, 8, 2, 8)
        # gamma < 1: the zero integer part contributes no digit
        assert digit_walks.digits("gamma", 10, 8, _ctx()).digits == (
            5, 7, 7, 2, 1, 5, 6, 6,
        )

    def test_concatenation_constant_same_base(self):
        s = digit_walks.digits("champernowne-10", 10, 15, _ctx())
        assert s.digits == (1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0, 1, 1, 1, 2)

    @pytest.mark.parametrize("base", [2, 7, 16, 36])
    def test_concatenation_constant_same_base_is_the_construction(self, base):
        # the exact fraction's expansion in its own base reads the
        # concatenated integers back
        count = 2000
        ctx = PrecisionContext(math.ceil(count * math.log2(base)) + 64, 30)
        s = digit_walks.digits(f"champernowne-{base}", base, count, ctx)
        assert list(s.digits) == digit_walks._champernowne_digits(base, count)

    def test_concatenation_constant_cross_base(self):
        # binary 0.1 10 11 100 101 ... regrouped as bit pairs gives the
        # base-4 expansion 3,1,3,0,2,3,2,3,3,0 (hand-derived)
        s = digit_walks.digits("champernowne-2", 4, 10, _ctx())
        assert s.digits == (3, 1, 3, 0, 2, 3, 2, 3, 3, 0)

    def test_digits_are_plain_ints(self):
        s = digit_walks.digits("zeta3", 10, 10, _ctx())
        assert all(type(d) is int for d in s.digits)

    def test_base_bounds(self):
        for bad in (1, 0, 37, -2):
            with pytest.raises(DomainError):
                digit_walks.digits("pi", bad, 10, _ctx())

    def test_count_bound(self):
        with pytest.raises(DomainError):
            digit_walks.digits("pi", 10, 0, _ctx())

    def test_unknown_constant(self):
        with pytest.raises(DomainError):
            digit_walks.digits("feigenbaum", 10, 10, _ctx())

    def test_insufficient_precision(self):
        # 100 decimal digits need ~400 bits; a 30-digit context cannot
        # honestly supply them
        with pytest.raises(PrecisionError):
            digit_walks.digits("pi", 10, 100, _ctx(30))

    def test_stream_validates_range(self):
        with pytest.raises(ValueError):
            digit_walks.DigitStream(constant="x", base=4, digits=(0, 4))

    def test_deterministic(self):
        a = digit_walks.digits("pi", 16, 40, _ctx())
        b = digit_walks.digits("pi", 16, 40, _ctx())
        assert a.digits == b.digits


def _divmod_digits(frac, base, count):
    """Oracle: integer digits, then one multiply-and-divmod per fractional digit."""
    q = frac.denominator
    whole, r = divmod(frac.numerator, q)
    out = []
    while whole:
        whole, d = divmod(whole, base)
        out.insert(0, d)
    while len(out) < count:
        d, r = divmod(r * base, q)
        out.append(d)
    return tuple(out[:count])


@st.composite
def _fractions(draw):
    # binary constants have power-of-two denominators, the others do not
    q = draw(st.one_of(st.integers(0, 12_000).map(lambda k: 1 << k),
                       st.integers(1, 1 << 12_000)))
    whole = draw(st.one_of(st.just(0), st.integers(1, 40), st.integers(0, 10 ** 4000)))
    return Fraction(whole * q + draw(st.integers(0, q - 1)), q)


class TestDigitConversion:
    """digits() against the repeated-divmod loop it replaced."""

    @settings(max_examples=60)
    @given(frac=_fractions(), base=st.integers(2, 36), count=st.integers(1, 3000))
    def test_matches_divmod_oracle(self, frac, base, count):
        ctx = PrecisionContext(math.ceil(count * math.log2(base)) + 64, 1)
        ratio = (frac.numerator, frac.denominator)
        with mock.patch.object(digit_walks, "_constant_fraction", return_value=ratio):
            s = digit_walks.digits("pi", base, count, ctx)
        assert s.digits == _divmod_digits(frac, base, count)

    def test_integer_part_longer_than_count(self):
        frac = Fraction(10 ** 50 + 7, 3)
        ratio = (frac.numerator, frac.denominator)
        with mock.patch.object(digit_walks, "_constant_fraction", return_value=ratio):
            s = digit_walks.digits("pi", 10, 20, _ctx())
        assert s.digits == tuple(int(c) for c in str(frac.numerator // 3)[:20])

    @given(n=st.integers(0, 1 << 5000), base=st.integers(2, 36))
    def test_value_inverts_digits(self, n, base):
        m = max(1, math.ceil(n.bit_length() / math.log2(base)))
        out = []
        precision._radix_digits(n, base, m, out)
        assert len(out) == m
        assert precision._radix_value(out, base) == n

    def test_champernowne_value_against_horner(self):
        value = digit_walks._champernowne_value_bits(7, 3000)
        digs = digit_walks._champernowne_digits(7, int(3000 / math.log2(7)) + 16)
        num = 0
        for d in digs:
            num = num * 7 + d
        assert value == (num, 7 ** len(digs))


class TestWalk:
    def test_pi_base_four_path(self):
        # frozen from the direction table: digit d moves by
        # ((1,0),(0,1),(-1,0),(0,-1))[d mod 4]
        s = digit_walks.digits("pi", 4, 8, _ctx())
        path = digit_walks.walk(s)
        assert path.points == (
            (0, 0), (0, -1), (1, -1), (0, -1), (0, 0),
            (1, 0), (2, 0), (2, -1), (2, -2),
        )

    def test_tiny_hand_walks(self):
        east_east_north = digit_walks.DigitStream(constant="x", base=4, digits=(0, 0, 1))
        path = digit_walks.walk(east_east_north)
        assert path.points == ((0, 0), (1, 0), (2, 0), (2, 1))

        there_and_back = digit_walks.DigitStream(constant="x", base=4, digits=(0, 2))
        assert digit_walks.walk(there_and_back).points[-1] == (0, 0)

    def test_unit_steps_from_origin(self):
        s = digit_walks.digits("e", 10, 50, _ctx())
        path = digit_walks.walk(s)
        assert path.points[0] == (0, 0)
        assert len(path.points) == len(s.digits) + 1
        for (x0, y0), (x1, y1) in zip(path.points, path.points[1:]):
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    def test_complemented_digits_negate_the_path(self):
        # adding 2 mod 4 flips every direction, so the whole path reflects
        # through the origin
        s = digit_walks.digits("gamma", 4, 30, _ctx())
        flipped = digit_walks.DigitStream(
            constant=s.constant,
            base=s.base,
            digits=tuple((d + 2) % 4 for d in s.digits),
        )
        p = digit_walks.walk(s).points
        q = digit_walks.walk(flipped).points
        assert q == tuple((-x, -y) for x, y in p)

    def test_empty_stream_rejected(self):
        empty = digit_walks.DigitStream(constant="x", base=10, digits=())
        with pytest.raises(DomainError):
            digit_walks.walk(empty)


class TestRenderPpm:
    def test_header_and_size(self):
        s = digit_walks.digits("pi", 4, 100, _ctx(110))
        path = digit_walks.walk(s)
        data = digit_walks.render(path, format="ppm", size=64)
        header = b"P6\n64 64\n255\n"
        assert data.startswith(header)
        assert len(data) == len(header) + 3 * 64 * 64

    def test_rectangular_size(self):
        s = digit_walks.digits("pi", 4, 50, _ctx())
        path = digit_walks.walk(s)
        data = digit_walks.render(path, format="ppm", size=(80, 48))
        assert data.startswith(b"P6\n80 48\n255\n")

    def test_margins_leave_corners_white(self):
        s = digit_walks.digits("pi", 4, 100, _ctx(110))
        path = digit_walks.walk(s)
        data = digit_walks.render(path, format="ppm", size=64)
        payload = data[len(b"P6\n64 64\n255\n"):]
        assert payload[:3] == b"\xff\xff\xff"
        assert payload[-3:] == b"\xff\xff\xff"

    def test_byte_identical_across_runs(self):
        s = digit_walks.digits("gamma", 4, 200, _ctx(160))
        path = digit_walks.walk(s)
        a = digit_walks.render(path, format="ppm", size=128)
        b = digit_walks.render(path, format="ppm", size=128)
        assert a == b

    def test_mono_differs_from_progress(self):
        s = digit_walks.digits("pi", 4, 100, _ctx(110))
        path = digit_walks.walk(s)
        color = digit_walks.render(path, format="ppm", size=64, color_mode="progress")
        mono = digit_walks.render(path, format="ppm", size=64, color_mode="mono")
        assert color != mono
        # mono payload contains only white background and black ink
        payload = mono[len(b"P6\n64 64\n255\n"):]
        assert set(payload) <= {0x00, 0xFF}

    def test_size_floor(self):
        s = digit_walks.digits("pi", 4, 10, _ctx())
        path = digit_walks.walk(s)
        with pytest.raises(DomainError):
            digit_walks.render(path, format="ppm", size=15)

    def test_ppm_byte_budget(self):
        # 20000x20000 would need 1.2 GB of pixels: refused before any buffer
        # is allocated, while SVG, whose size does not grow with the image's,
        # renders at that size
        path = digit_walks.walk(digit_walks.digits("pi", 4, 10, _ctx()))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="budget"):
                digit_walks.render(path, format="ppm", size=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert digit_walks.render(path, format="svg", size=20000).startswith(b"<?xml")
        side = int((digit_walks.PPM_BYTE_BUDGET // 3) ** 0.5)
        with pytest.raises(DomainError, match="budget"):
            digit_walks.render(path, format="ppm", size=(side + 1, side + 1))

    def test_rejects_unknown_options(self):
        s = digit_walks.digits("pi", 4, 10, _ctx())
        path = digit_walks.walk(s)
        with pytest.raises(DomainError):
            digit_walks.render(path, format="png")
        with pytest.raises(DomainError):
            digit_walks.render(path, format="ppm", color_mode="rainbow")


def _reference_ppm(points, width, height, color_mode):
    """The PPM render as it was drawn before runs: every segment by
    Bresenham's loop, first to last, each overwriting the pixels it
    crosses."""
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    margin_x, margin_y = max(1.0, 0.05 * width), max(1.0, 0.05 * height)
    scale = min((width - 1 - 2 * margin_x) / max(1, x1 - x0),
                (height - 1 - 2 * margin_y) / max(1, y1 - y0))
    scale = max(scale, 1e-9)
    off_x = (width - 1 - scale * (x1 - x0)) / 2.0
    off_y = (height - 1 - scale * (y1 - y0)) / 2.0
    pts = [
        (int(round(off_x + scale * (x - x0))),
         int(round((height - 1) - (off_y + scale * (y - y0)))))
        for x, y in points
    ]
    buf = bytearray(b"\xff") * (3 * width * height)
    nseg = max(1, len(pts) - 1)
    for i in range(len(pts) - 1):
        rgb = digit_walks._hue_rgb(i / nseg) if color_mode == "progress" else (0, 0, 0)
        (xa, ya), (xb, yb) = pts[i], pts[i + 1]
        dx, dy = abs(xb - xa), -abs(yb - ya)
        sx, sy = (1 if xa < xb else -1), (1 if ya < yb else -1)
        err = dx + dy
        while True:
            if 0 <= xa < width and 0 <= ya < height:
                k = 3 * (ya * width + xa)
                buf[k : k + 3] = bytes(rgb)
            if xa == xb and ya == yb:
                break
            e2 = 2 * err
            if e2 >= dy:
                err += dy
                xa += sx
            if e2 <= dx:
                err += dx
                ya += sy
    return f"P6\n{width} {height}\n255\n".encode("ascii") + buf


class TestRenderPpmRuns:
    """The run painter against the Bresenham loop it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(
        legs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 30)), min_size=1, max_size=60),
        width=st.integers(16, 160),
        height=st.integers(16, 160),
        color_mode=st.sampled_from(["progress", "mono"]),
    )
    # below one pixel per step (a 200-step line on 16 px) and above it
    @example(legs=[(0, 200), (1, 3)], width=16, height=16, color_mode="progress")
    @example(legs=[(0, 3), (1, 2), (2, 1)], width=128, height=40, color_mode="mono")
    def test_matches_bresenham_reference(self, legs, width, height, color_mode):
        digits = tuple(d for d, run in legs for _ in range(run))
        path = digit_walks.walk(digit_walks.DigitStream("x", 4, digits))
        got = digit_walks.render(path, format="ppm", size=(width, height), color_mode=color_mode)
        assert got == _reference_ppm(path.points, width, height, color_mode)

    def test_rejects_a_diagonal_step(self):
        with pytest.raises(DomainError, match="one axis"):
            digit_walks.render(digit_walks.WalkPath(((0, 0), (1, 1))), format="ppm", size=16)


class TestRenderSvg:
    def test_structure(self):
        s = digit_walks.digits("pi", 4, 60, _ctx())
        path = digit_walks.walk(s)
        text = digit_walks.render(path, format="svg", size=256).decode("utf-8")
        assert text.startswith("<?xml") or text.startswith("<svg")
        assert "viewBox=" in text
        assert "<polyline" in text
        # first and last lattice points appear verbatim (y negated for
        # screen coordinates)
        x0, y0 = path.points[0]
        x1, y1 = path.points[-1]
        assert f"{x0},{-y0}" in text
        assert f"{x1},{-y1}" in text

    def test_progress_gradient_only_in_progress_mode(self):
        s = digit_walks.digits("pi", 4, 60, _ctx())
        path = digit_walks.walk(s)
        color = digit_walks.render(path, format="svg", size=256).decode()
        mono = digit_walks.render(
            path, format="svg", size=256, color_mode="mono"
        ).decode()
        assert "linearGradient" in color
        assert "linearGradient" not in mono

    def test_byte_identical_across_runs(self):
        s = digit_walks.digits("e", 4, 150, _ctx(130))
        path = digit_walks.walk(s)
        assert digit_walks.render(path, format="svg") == digit_walks.render(
            path, format="svg"
        )

    def test_large_walk_is_well_formed(self):
        # a hundred-thousand-step walk: the document must parse as XML and
        # carry exactly one polyline with steps+1 coordinate pairs
        import xml.etree.ElementTree as ET

        count = 100_000
        ctx = PrecisionContext(2 * count + 256, 80)
        path = digit_walks.walk(digit_walks.digits("pi", 4, count, ctx))
        svg = digit_walks.render(path, format="svg", size=1024)
        root = ET.fromstring(svg)
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == count + 1
