"""Digit extraction in arbitrary bases and planar digit-walk rendering.

Digits come from exact integer arithmetic on the binary value of each
constant (no decimal round-tripping): the integer part is rendered first
when nonzero, then the m fractional digits of r/q are the digits of the
one scaled floor N = r b^m // q (a shift when q is a power of two).  N, and
the integer part, convert to digits by divide-and-conquer radix splitting
on b^h, h = m // 2 (Brent and Zimmermann, Modern Computer Arithmetic 1.7),
so the big divisions halve in size with each level instead of one divmod
of the whole remainder per digit.  Champernowne's number never touches
arithmetic at all - its digits are the concatenation 1, 2, 3, ... written
in the construction base; its value for a cross-base request joins those
digits by the same split, run in reverse.

A walk maps digit d (mod 4) to a unit step - 0 east, 1 north, 2 west,
3 south - starting from the origin.  Renders are deliberately boring:
pure functions of the path, identical bytes on every run.
"""

from __future__ import annotations

import math

from . import agm, functions
from .precision import (
    BigReal,
    DomainError,
    PrecisionContext,
    PrecisionError,
    _radix_digits,
    _radix_value,
    _to_ratio,
    record,
)

#: digit value -> unit step (east, north, west, south)
DIRECTIONS = ((1, 0), (0, 1), (-1, 0), (0, -1))


@record
class DigitStream:
    constant: str
    base: int
    digits: tuple

    def __post_init__(self):
        if not all(0 <= d < self.base for d in self.digits):
            raise ValueError("digit out of range for base")


@record
class WalkPath:
    #: lattice points (x, y) from the origin; each step changes x or y by 1
    points: tuple


def _champernowne_digits(construction_base: int, count: int):
    out = []
    n = 1
    while len(out) < count:
        m = n
        rep = []
        while m:
            rep.append(m % construction_base)
            m //= construction_base
        out.extend(reversed(rep))
        n += 1
    return out[:count]


def _champernowne_value_bits(construction_base: int, bits: int) -> tuple:
    """Exact truncation (p, q) of the Champernowne constant, good to `bits` bits."""
    ndigits = int(bits / math.log2(construction_base)) + 16
    digs = _champernowne_digits(construction_base, ndigits)
    return _radix_value(digs, construction_base), construction_base ** len(digs)


def _constant_fraction(constant: str, bits: int) -> tuple:
    """The constant's value as an exact fraction p/q, carrying >= `bits` good
    bits: the pair (p, q), not necessarily in lowest terms."""
    ctx = PrecisionContext(max(64, bits + 64), max(1, int(bits * 0.28)))
    if constant == "pi":
        return _to_ratio(agm.pi_raw(bits + 8))
    if constant == "e":
        return _to_ratio(functions.exp(1, ctx).value)
    if constant == "gamma":
        return _to_ratio(functions.euler_gamma(ctx).value)
    if constant == "zeta3":
        return _to_ratio(functions.zeta3(ctx).value)
    if constant.startswith("champernowne-"):
        suffix = constant.split("-", 1)[1]
        if not suffix.isdigit() or not 2 <= int(suffix) <= 36:
            raise DomainError(
                "champernowne constants are named champernowne-<m> with m in [2, 36]"
            )
        return _champernowne_value_bits(int(suffix), bits + 16)
    raise DomainError(
        f"unknown constant {constant!r}; choose pi, e, gamma, zeta3, or champernowne-<m>"
    )


def digits(constant: str, base: int, count: int, ctx: PrecisionContext) -> DigitStream:
    """First `count` digits of the constant in `base`, integer part leading.

    A zero integer part contributes no digits (0.1234... starts "1"), which
    keeps concatenation constants pure.  The context must carry at least
    count*log2(base) + 64 bits.
    """
    if not 2 <= base <= 36:
        raise DomainError("base must lie in [2, 36]")
    if count < 1:
        raise DomainError("count must be at least 1")
    need = int(math.ceil(count * math.log2(base))) + 64
    if ctx.bits < need:
        raise PrecisionError(
            f"{count} base-{base} digits need a context of >= {need} bits, got {ctx.bits}"
        )

    p, q = _constant_fraction(constant, need)
    if p < 0:
        raise DomainError("digit extraction expects a nonnegative constant")
    whole, r = divmod(p, q)
    out = []
    if whole > 0:
        # base >= 2^(bit_length - 1), so this many digits hold `whole`
        _radix_digits(whole, base, -(-whole.bit_length() // (base.bit_length() - 1)), out)
        first = next(i for i, d in enumerate(out) if d)
        del out[:first]
    m = count - len(out)
    if m > 0:
        # all m fractional digits at once: floor(r/q * base^m), then split;
        # a binary constant's q is a power of two, so the floor is a shift
        scaled = r * base ** m
        if q & (q - 1):
            scaled //= q
        else:
            scaled >>= q.bit_length() - 1
        _radix_digits(scaled, base, m, out)
    return DigitStream(constant=constant, base=base, digits=tuple(out[:count]))


def walk(stream: DigitStream) -> WalkPath:
    """Lattice path driven by the stream's digits (d mod 4 picks direction)."""
    if not stream.digits:
        raise DomainError("cannot walk an empty digit stream")
    x, y = 0, 0
    pts = [(0, 0)]
    for d in stream.digits:
        dx, dy = DIRECTIONS[d % 4]
        x, y = x + dx, y + dy
        pts.append((x, y))
    return WalkPath(points=tuple(pts))


# ---------------------------------------------------------------------------
# rendering


#: the largest PPM pixel buffer (3*W*H bytes) `render` allocates, about
#: 4700x4700; SVG output does not grow with the size and has no cap
PPM_BYTE_BUDGET = 64 << 20


def image_size(size, format: str):
    """(width, height) of a render at `size`, N or (W, H), in `format`.

    Refuses, before any digit or pixel is made, a size below 16x16 and a
    PPM whose 3*W*H pixel bytes pass PPM_BYTE_BUDGET.
    """
    if isinstance(size, int):
        w = h = size
    else:
        w, h = size
    if w < 16 or h < 16:
        raise DomainError("render size below 16x16 cannot distinguish lattice points")
    w, h = int(w), int(h)
    if format == "ppm" and 3 * w * h > PPM_BYTE_BUDGET:
        raise DomainError(
            f"a {w}x{h} PPM needs {3 * w * h} bytes, above the "
            f"{PPM_BYTE_BUDGET >> 20} MiB budget; render SVG or a smaller size"
        )
    return w, h


def _hue_rgb(t: float):
    """Map t in [0,1] to an RGB triple along a blue->red hue sweep."""
    h = (1.0 - t) * 2.0 / 3.0  # blue (2/3) down to red (0)
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    q, s = 1.0 - f, f
    rgb = [
        (1.0, s, 0.0),
        (q, 1.0, 0.0),
        (0.0, 1.0, s),
        (0.0, q, 1.0),
        (s, 0.0, 1.0),
        (1.0, 0.0, q),
    ][i]
    return tuple(int(round(255 * c)) for c in rgb)


def _bounding_box(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def _pixel_axes(points, width, height):
    """{x: pixel column} and {y: pixel row} over the path's bounding box,
    which the render fits inside the image with a 5% margin."""
    x0, y0, x1, y1 = _bounding_box(points)
    span_x = max(1, x1 - x0)
    span_y = max(1, y1 - y0)
    margin_x = max(1.0, 0.05 * width)
    margin_y = max(1.0, 0.05 * height)
    scale = min((width - 1 - 2 * margin_x) / span_x, (height - 1 - 2 * margin_y) / span_y)
    scale = max(scale, 1e-9)
    off_x = (width - 1 - scale * (x1 - x0)) / 2.0
    off_y = (height - 1 - scale * (y1 - y0)) / 2.0
    cols = {x: int(round(off_x + scale * (x - x0))) for x in range(x0, x1 + 1)}
    # image rows grow downward
    rows = {y: int(round((height - 1) - (off_y + scale * (y - y0)))) for y in range(y0, y1 + 1)}
    return cols, rows


def _render_ppm(path: WalkPath, width: int, height: int, color_mode: str) -> bytes:
    """Each step as a horizontal or vertical pixel run, in the colour of the
    last step through each pixel.

    A step moves along one axis and a pixel's column depends on x alone,
    its row on y alone, so every step covers a run of pixels.  Runs are
    painted from the last step back, each claiming the pixels no later step
    took, and a step's hue is computed only when it claims one.  No step's
    colour is white (each hue has a zero channel), so a pixel is unclaimed
    while it is white.
    """
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    buf = bytearray(b"\xff") * (3 * width * height)
    cols, rows = _pixel_axes(path.points, width, height)
    pts = path.points
    nseg = max(1, len(pts) - 1)
    for i in range(len(pts) - 2, -1, -1):
        (xa, ya), (xb, yb) = pts[i], pts[i + 1]
        ca, cb, ra, rb = cols[xa], cols[xb], rows[ya], rows[yb]
        if ra == rb:
            start, end, step = ra * width + min(ca, cb), ra * width + max(ca, cb), 1
        elif ca == cb:
            start, end, step = min(ra, rb) * width + ca, max(ra, rb) * width + ca, width
        else:
            raise DomainError("a walk step moves along one axis")
        rgb = None
        for j in range(3 * start, 3 * end + 3, 3 * step):
            if buf[j] & buf[j + 1] & buf[j + 2] == 255:
                if rgb is None:
                    rgb = bytes(_hue_rgb(i / nseg)) if color_mode == "progress" else b"\0\0\0"
                buf[j : j + 3] = rgb
    return header + buf  # bytes, with one copy of the pixels


def _render_svg(path: WalkPath, width: int, height: int, color_mode: str) -> bytes:
    x0, y0, x1, y1 = _bounding_box(path.points)
    # flip y so north points up in the image
    span_x = max(1, x1 - x0)
    span_y = max(1, y1 - y0)
    mx = 0.05 * span_x or 0.5
    my = 0.05 * span_y or 0.5
    view = (x0 - mx, -y1 - my, span_x + 2 * mx, span_y + 2 * my)
    coords = " ".join(f"{p[0]},{-p[1]}" for p in path.points)
    if color_mode == "progress":
        defs = (
            '<defs><linearGradient id="progress" x1="0" y1="0" x2="1" y2="0">'
            '<stop offset="0" stop-color="#0000ff"/>'
            '<stop offset="0.5" stop-color="#00cc66"/>'
            '<stop offset="1" stop-color="#ff0000"/>'
            "</linearGradient></defs>"
        )
        stroke = "url(#progress)"
    else:
        defs = ""
        stroke = "#000000"
    body = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{view[0]:g} {view[1]:g} {view[2]:g} {view[3]:g}">'
        f"{defs}"
        f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
        'stroke-width="0.4" stroke-linecap="round" stroke-linejoin="round"/>'
        "</svg>"
    )
    return body.encode("utf-8")


def render(path: WalkPath, format: str = "ppm", size=512, color_mode: str = "progress") -> bytes:
    """Image bytes for the walk; deterministic down to the last byte."""
    if not path.points:
        raise DomainError("cannot render an empty path")
    if format not in ("ppm", "svg"):
        raise DomainError("format must be 'ppm' or 'svg'")
    if color_mode not in ("progress", "mono"):
        raise DomainError("color_mode must be 'progress' or 'mono'")
    width, height = image_size(size, format)
    if format == "ppm":
        return _render_ppm(path, width, height, color_mode)
    return _render_svg(path, width, height, color_mode)
